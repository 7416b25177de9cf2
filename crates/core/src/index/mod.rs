//! The persistent, queryable truss index.
//!
//! Every engine in the workspace computes a [`TrussDecomposition`] — a bare
//! per-edge trussness array. That is the right *output* for a one-shot
//! batch run, but the ROADMAP's north star is a *servable* system: build
//! the decomposition once, persist it, and answer many queries (k-truss
//! extraction, community lookup, spectrum statistics) plus keep it fresh
//! under edge updates without recomputing from scratch. [`TrussIndex`] is
//! that artifact:
//!
//! * it bundles the graph with its decomposition and derived structure
//!   (edges bucketed by truss level, per-vertex max trussness) so every
//!   query is answered without re-scanning the whole edge set,
//! * it round-trips through the versioned `TRUSSIDX` on-disk format
//!   ([`truss_storage::index_file`]) via [`TrussIndex::save`] /
//!   [`TrussIndex::load`],
//! * it stays valid under batched edge insertions/deletions via the
//!   incremental maintenance in [`dynamic`] ([`TrussIndex::apply`]),
//!   which re-peels only the triangle-neighborhood region a batch can
//!   affect and provably matches from-scratch recomputation.
//!
//! Build one through any engine with
//! [`TrussEngine::build_index`](crate::engine::TrussEngine::build_index),
//! or wrap an existing run with [`TrussIndex::from_parts`].

pub mod dynamic;

use crate::communities::{truss_communities, TrussCommunity};
use crate::decompose::TrussDecomposition;
use crate::spectrum::{truss_spectrum, vertex_trussness, TrussSpectrum};
use std::fs::File;
use std::path::Path;
use truss_graph::section::SectionBuf;
use truss_graph::subgraph::{from_parent_edges, Subgraph};
use truss_graph::{CsrGraph, Edge, EdgeId, VertexId};
use truss_storage::snapshot::{self, IndexSnapshotParts};
use truss_storage::{index_file, FileKind, LoadMode, StorageError};

pub use dynamic::UpdateStats;

/// On-disk representation of a persisted index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexFormat {
    /// `TRUSSIDX` version 1: per-edge records, re-parsed and re-derived
    /// on every load.
    V1,
    /// `TRUSSIDX` version 2: the zero-copy section snapshot
    /// ([`truss_storage::snapshot`]) — open = validate + map, queries are
    /// served straight from the file.
    V2,
}

impl IndexFormat {
    /// Parses a CLI `--format` value.
    pub fn parse(s: &str) -> Option<IndexFormat> {
        match s {
            "v1" | "1" => Some(IndexFormat::V1),
            "v2" | "2" => Some(IndexFormat::V2),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            IndexFormat::V1 => "v1",
            IndexFormat::V2 => "v2",
        }
    }
}

impl std::fmt::Display for IndexFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A truss decomposition promoted to a first-class, queryable, updatable
/// index over its graph.
///
/// ```
/// use truss_core::index::TrussIndex;
///
/// let g = truss_graph::generators::figure2_graph();
/// let index = TrussIndex::from_decompose(g);
/// assert_eq!(index.max_k(), 5);
/// assert_eq!(index.k_truss_edge_ids(5).len(), 10); // the K5 on {a..e}
/// assert_eq!(index.k_truss_communities(4).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TrussIndex {
    /// The indexed graph.
    graph: CsrGraph,
    /// Per-edge truss numbers (the decomposition proper).
    decomp: TrussDecomposition,
    /// Edge ids sorted by descending trussness (ties by ascending id):
    /// the edges of the k-truss are a prefix of this array.
    order: SectionBuf<EdgeId>,
    /// `count_ge[k]` = number of edges with ϕ ≥ k, for `k` in
    /// `0..=k_max + 1` — i.e. the prefix length of [`Self::order`] that is
    /// the k-truss edge set. (`u64` so the v2 snapshot maps it in place.)
    count_ge: SectionBuf<u64>,
    /// Per-vertex max trussness over incident edges (0 for vertices with
    /// no incident edge).
    vertex_truss: SectionBuf<u32>,
}

impl TrussIndex {
    /// Builds the index from a graph and its decomposition.
    ///
    /// # Panics
    ///
    /// Panics if the decomposition does not cover exactly the graph's
    /// edges.
    pub fn from_parts(graph: CsrGraph, decomp: TrussDecomposition) -> Self {
        assert_eq!(
            decomp.num_edges(),
            graph.num_edges(),
            "decomposition covers {} edges, graph has {}",
            decomp.num_edges(),
            graph.num_edges()
        );
        let mut index = TrussIndex {
            graph,
            decomp,
            order: SectionBuf::new(),
            count_ge: SectionBuf::new(),
            vertex_truss: SectionBuf::new(),
        };
        index.rebuild_derived();
        index
    }

    /// Convenience: decomposes `graph` with the default in-memory engine
    /// (PKT on one worker, [`crate::decompose::truss_decompose`]) and
    /// indexes the result. For explicit engine
    /// choice use [`TrussEngine::build_index`](crate::engine::TrussEngine::build_index).
    pub fn from_decompose(graph: CsrGraph) -> Self {
        let decomp = crate::decompose::truss_decompose(&graph);
        TrussIndex::from_parts(graph, decomp)
    }

    /// Recomputes the derived structure (level buckets, vertex trussness)
    /// after the trussness array changed. O(m + k_max).
    fn rebuild_derived(&mut self) {
        let m = self.graph.num_edges();
        let k_max = self.decomp.k_max();
        let trussness = self.decomp.trussness();

        // Counting sort by descending trussness: stable, O(m + k_max).
        let mut counts = vec![0usize; k_max as usize + 2];
        for &t in trussness {
            counts[t as usize] += 1;
        }
        let mut count_ge = vec![0u64; k_max as usize + 2];
        let mut acc = 0usize;
        for k in (0..=k_max as usize + 1).rev() {
            if k <= k_max as usize {
                acc += counts[k];
            }
            count_ge[k] = acc as u64;
        }
        let mut cursor = vec![0usize; k_max as usize + 2];
        for k in (2..=k_max as usize).rev() {
            cursor[k] = count_ge[k] as usize - counts[k];
        }
        let mut order = vec![0 as EdgeId; m];
        for (id, &t) in trussness.iter().enumerate() {
            order[cursor[t as usize]] = id as EdgeId;
            cursor[t as usize] += 1;
        }

        self.order = order.into();
        self.count_ge = count_ge.into();
        self.vertex_truss = vertex_trussness(&self.graph, &self.decomp).into();
    }

    /// The indexed graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The underlying decomposition.
    pub fn decomposition(&self) -> &TrussDecomposition {
        &self.decomp
    }

    /// Per-edge truss numbers, indexed by edge id.
    pub fn trussness(&self) -> &[u32] {
        self.decomp.trussness()
    }

    /// The largest `k` with a non-empty k-truss.
    pub fn max_k(&self) -> u32 {
        self.decomp.k_max()
    }

    /// Number of indexed edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Truss number of the edge `(u, v)`, or `None` if it is not an edge
    /// (including when either endpoint is outside the vertex range).
    /// O(log min(deg u, deg v)).
    pub fn truss_of(&self, u: VertexId, v: VertexId) -> Option<u32> {
        if (u.max(v) as usize) >= self.graph.num_vertices() {
            return None;
        }
        self.graph
            .edge_id(u, v)
            .map(|id| self.decomp.edge_trussness(id))
    }

    /// Truss number of the edge with id `id`.
    pub fn truss_of_edge(&self, id: EdgeId) -> u32 {
        self.decomp.edge_trussness(id)
    }

    /// The largest `k` such that `v` has an incident edge in the k-truss
    /// (0 for isolated vertices).
    pub fn vertex_truss(&self, v: VertexId) -> u32 {
        self.vertex_truss[v as usize]
    }

    /// Per-vertex max trussness, indexed by vertex id.
    pub fn vertex_trussness(&self) -> &[u32] {
        &self.vertex_truss
    }

    /// Number of edges in the k-truss. O(1).
    pub fn k_truss_size(&self, k: u32) -> usize {
        let k = (k.max(2) as usize).min(self.count_ge.len() - 1);
        self.count_ge.as_slice()[k] as usize
    }

    /// Edge ids of the k-truss, in descending-trussness order (a prefix of
    /// the level bucketing — O(answer), no full-edge scan).
    pub fn k_truss_edge_ids(&self, k: u32) -> &[EdgeId] {
        &self.order.as_slice()[..self.k_truss_size(k)]
    }

    /// Edges of the k-truss in lexicographic order.
    pub fn k_truss_edges(&self, k: u32) -> Vec<Edge> {
        let mut edges: Vec<Edge> = self
            .k_truss_edge_ids(k)
            .iter()
            .map(|&id| self.graph.edge(id))
            .collect();
        edges.sort_unstable();
        edges
    }

    /// The k-truss as its own compact graph plus the mapping back to the
    /// indexed graph's vertex ids.
    pub fn k_truss_subgraph(&self, k: u32) -> Subgraph {
        from_parent_edges(self.k_truss_edges(k))
    }

    /// Connected components of the k-truss, as communities (largest
    /// first).
    pub fn k_truss_communities(&self, k: u32) -> Vec<TrussCommunity> {
        truss_communities(&self.graph, &self.decomp, k)
    }

    /// The k-truss community containing vertex `v`, or `None` when `v`
    /// has no incident edge of trussness ≥ `k` (including out-of-range
    /// `v`). Output-sensitive: a BFS over the component's own adjacency —
    /// it never touches edges outside the answer, unlike
    /// [`TrussIndex::k_truss_communities`] which scans the whole k-truss.
    pub fn community_of(&self, v: VertexId, k: u32) -> Option<TrussCommunity> {
        let k = k.max(2);
        if (v as usize) >= self.graph.num_vertices() || self.vertex_truss[v as usize] < k {
            return None;
        }
        let trussness = self.decomp.trussness();
        let mut vertices = vec![v];
        let mut edges = Vec::new();
        let mut seen = truss_graph::hash::FxHashSet::default();
        seen.insert(v);
        let mut head = 0;
        while head < vertices.len() {
            let u = vertices[head];
            head += 1;
            for (i, &w) in self.graph.neighbors(u).iter().enumerate() {
                let id = self.graph.neighbor_edge_ids(u)[i];
                if trussness[id as usize] < k {
                    continue;
                }
                if u < w {
                    edges.push(Edge::new(u, w));
                }
                if seen.insert(w) {
                    vertices.push(w);
                }
            }
        }
        vertices.sort_unstable();
        edges.sort_unstable();
        Some(TrussCommunity { k, vertices, edges })
    }

    /// Aggregate spectrum statistics of the decomposition.
    pub fn spectrum(&self) -> TrussSpectrum {
        truss_spectrum(&self.graph, &self.decomp)
    }

    /// Persists the index at `path` in the current default format
    /// (`TRUSSIDX` v2 — the zero-copy snapshot; [`TrussIndex::load`]
    /// auto-detects either version).
    pub fn save(&self, path: &Path) -> Result<(), StorageError> {
        self.save_as(path, IndexFormat::V2)
    }

    /// Persists the index at `path` in an explicit format. v1 stores
    /// per-edge records (readable by older builds); v2 stores the mapped
    /// section snapshot including the level-bucket CSR, so a later open
    /// rebuilds nothing.
    pub fn save_as(&self, path: &Path, format: IndexFormat) -> Result<(), StorageError> {
        self.write_as(File::create(path)?, format)
    }

    /// Streams the index into `w` in an explicit format — the writer-based
    /// twin of [`TrussIndex::save_as`], for callers that own the file
    /// lifecycle themselves (atomic replace, fsync discipline).
    pub fn write_as<W: std::io::Write>(
        &self,
        w: W,
        format: IndexFormat,
    ) -> Result<(), StorageError> {
        match format {
            IndexFormat::V1 => {
                index_file::write_index_file(&self.graph, self.decomp.trussness(), w)
            }
            IndexFormat::V2 => self.write_snapshot(w).map(|_| ()),
        }
    }

    /// Streams the index as a v2 snapshot into `w`, returning the
    /// container checksum — the artifact identity `truss serve` stamps on
    /// every response served from this exact byte image.
    pub fn write_snapshot<W: std::io::Write>(&self, w: W) -> Result<u64, StorageError> {
        snapshot::write_index_snapshot(
            &IndexSnapshotParts {
                graph: &self.graph,
                k_max: self.decomp.k_max(),
                trussness: self.decomp.trussness(),
                order: &self.order,
                count_ge: &self.count_ge,
                vertex_truss: &self.vertex_truss,
            },
            w,
        )
    }

    /// Loads an index persisted by [`TrussIndex::save`] /
    /// [`TrussIndex::save_as`], auto-detecting the format (v2 snapshots
    /// are memory-mapped where the platform allows).
    pub fn load(path: &Path) -> Result<TrussIndex, StorageError> {
        Ok(TrussIndex::load_with(path, LoadMode::Auto)?.0)
    }

    /// [`TrussIndex::load`] with an explicit [`LoadMode`], also reporting
    /// which on-disk format was found — `truss index update` uses this to
    /// rewrite in the format it read.
    ///
    /// A v1 file is fully parsed and its derived structure rebuilt
    /// (O(m)); a v2 snapshot is validated (header + section table +
    /// checksum) and served as zero-copy views with *no* per-edge work.
    pub fn load_with(
        path: &Path,
        mode: LoadMode,
    ) -> Result<(TrussIndex, IndexFormat), StorageError> {
        match truss_storage::sniff_file(path)? {
            FileKind::IndexV2 => {
                let snap = snapshot::open_index_snapshot(path, mode)?;
                Ok((
                    TrussIndex {
                        decomp: TrussDecomposition::from_section_trusted(
                            snap.trussness,
                            snap.k_max,
                        ),
                        graph: snap.graph,
                        order: snap.order,
                        count_ge: snap.count_ge,
                        vertex_truss: snap.vertex_truss,
                    },
                    IndexFormat::V2,
                ))
            }
            // Everything else lands in the v1 reader, whose own magic and
            // version validation produces the precise error message.
            _ => {
                let file = File::open(path)?;
                let (graph, trussness) = index_file::read_index_file(file)?;
                Ok((
                    TrussIndex::from_parts(graph, TrussDecomposition::from_trussness(trussness)),
                    IndexFormat::V1,
                ))
            }
        }
    }

    /// Heap bytes held by the index (graph + decomposition + derived
    /// structure); mapped snapshot bytes are excluded — see
    /// [`TrussIndex::mapped_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes()
            + self.decomp.heap_bytes()
            + self.order.heap_bytes()
            + self.order.backing_heap_bytes()
            + self.count_ge.heap_bytes()
            + self.count_ge.backing_heap_bytes()
            + self.vertex_truss.heap_bytes()
            + self.vertex_truss.backing_heap_bytes()
    }

    /// Bytes served out of a memory-mapped snapshot (zero for indexes
    /// built in memory or loaded from v1 files).
    pub fn mapped_bytes(&self) -> usize {
        self.graph.mapped_bytes()
            + self.decomp.mapped_bytes()
            + self.order.mapped_bytes()
            + self.count_ge.mapped_bytes()
            + self.vertex_truss.mapped_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truss::peel_to_k_truss;
    use truss_graph::generators::{figure2_graph, gnm};

    #[test]
    fn queries_match_decomposition() {
        let g = figure2_graph();
        let index = TrussIndex::from_decompose(g.clone());
        let d = crate::decompose::truss_decompose(&g);
        assert_eq!(index.max_k(), 5);
        assert_eq!(index.num_edges(), 26);
        for k in 2..=6 {
            let mut ids: Vec<EdgeId> = index.k_truss_edge_ids(k).to_vec();
            ids.sort_unstable();
            assert_eq!(ids, d.truss_edge_ids(k), "k = {k}");
            assert_eq!(index.k_truss_size(k), ids.len());
        }
        for (id, e) in g.iter_edges() {
            assert_eq!(index.truss_of(e.u, e.v), Some(d.edge_trussness(id)));
            assert_eq!(index.truss_of_edge(id), d.edge_trussness(id));
        }
        assert_eq!(index.truss_of(0, 10), None);
        // Out-of-range endpoints are "not an edge", not a panic.
        assert_eq!(index.truss_of(0, 99_999), None);
        assert_eq!(index.truss_of(99_999, 0), None);
        // Derived views delegate to the same decomposition.
        assert_eq!(index.spectrum().k_max, 5);
        assert_eq!(index.k_truss_communities(4).len(), 2);
        let t5 = index.k_truss_subgraph(5);
        assert_eq!(t5.graph.num_vertices(), 5);
        assert_eq!(index.vertex_truss(0), 5);
        assert_eq!(index.vertex_truss(6), 3);
    }

    #[test]
    fn level_buckets_are_consistent_on_random_graphs() {
        for seed in 0..4 {
            let g = gnm(60, 400, seed);
            let index = TrussIndex::from_decompose(g.clone());
            for k in 2..=index.max_k() + 1 {
                let mut ids: Vec<EdgeId> = index.k_truss_edge_ids(k).to_vec();
                ids.sort_unstable();
                let mut peeled = peel_to_k_truss(&g, k);
                peeled.sort_unstable();
                assert_eq!(ids, peeled, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn community_of_matches_component_enumeration() {
        for seed in 0..3 {
            let g = gnm(60, 400, seed);
            let index = TrussIndex::from_decompose(g.clone());
            for k in 2..=index.max_k() {
                let all = index.k_truss_communities(k);
                for c in &all {
                    for &v in &c.vertices {
                        let found = index
                            .community_of(v, k)
                            .unwrap_or_else(|| panic!("seed {seed} k {k} v {v}"));
                        assert_eq!(found.vertices, c.vertices, "seed {seed} k {k} v {v}");
                        assert_eq!(found.edges, c.edges, "seed {seed} k {k} v {v}");
                        assert_eq!(found.k, k);
                    }
                }
                // Vertices in no community answer None.
                let covered: std::collections::HashSet<u32> = all
                    .iter()
                    .flat_map(|c| c.vertices.iter().copied())
                    .collect();
                for v in 0..g.num_vertices() as u32 {
                    if !covered.contains(&v) {
                        assert!(
                            index.community_of(v, k).is_none(),
                            "seed {seed} k {k} v {v}"
                        );
                    }
                }
            }
        }
        // Out-of-range vertices are "no community", not a panic.
        let index = TrussIndex::from_decompose(figure2_graph());
        assert!(index.community_of(99_999, 3).is_none());
        // k below 2 clamps to 2 like every other k-truss query.
        assert!(index.community_of(0, 0).is_some());
    }

    #[test]
    fn save_load_round_trip() {
        let g = figure2_graph();
        let index = TrussIndex::from_decompose(g);
        let path = std::env::temp_dir().join(format!("truss-index-{}.tix", std::process::id()));
        index.save(&path).unwrap();
        let back = TrussIndex::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.trussness(), index.trussness());
        assert_eq!(back.graph().edges(), index.graph().edges());
        assert_eq!(back.num_vertices(), index.num_vertices());
        assert_eq!(back.max_k(), index.max_k());
    }

    #[test]
    fn empty_graph_index() {
        let index = TrussIndex::from_decompose(CsrGraph::from_edges(Vec::new()));
        assert_eq!(index.max_k(), 2);
        assert_eq!(index.k_truss_size(2), 0);
        assert!(index.k_truss_edge_ids(2).is_empty());
        assert!(index.k_truss_communities(2).is_empty());
    }
}
