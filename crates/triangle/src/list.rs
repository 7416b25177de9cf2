//! In-memory triangle listing via the *forward* (compact-forward) algorithm
//! of Schank \[27\] / Latapy \[20\], which runs in `O(m^1.5)` — the bound the
//! paper's Algorithm 2 matches.
//!
//! The oriented adjacency lives in a single flat [`ForwardAdjacency`]
//! structure — CSR-shaped struct-of-arrays, built in two O(m) counting
//! passes with no per-vertex heap allocations — shared by the serial
//! lister here, the thread-parallel lister in [`crate::par`], and the
//! peeling hot path of `truss-core` (which probes it for edge membership
//! instead of a global hash table). See `docs/ALGORITHMS.md`
//! ("hot-path engineering") for the layout and cost model.

use std::ops::Range;
use truss_graph::{CsrGraph, EdgeId, VertexId};

/// When one forward list is this many times longer than the other, the
/// intersection switches from the two-pointer merge to galloping probes of
/// the longer list (`O(s · log l)` instead of `O(s + l)`).
const GALLOP_FACTOR: usize = 16;

/// Degree-based total order: vertices sorted by `(degree, id)`. The forward
/// algorithm orients every edge toward the higher-ranked endpoint; each
/// triangle is then discovered exactly once, at its lowest-ranked vertex.
///
/// Computed by an `O(n + max_deg)` counting sort on degree (stable in id,
/// so ties break by id — the same total order the previous comparison sort
/// produced, which keeps triangle orientation and every golden test
/// unchanged).
pub fn ranks(g: &CsrGraph) -> Vec<u32> {
    rank_order(g).0
}

/// [`ranks`] plus its inverse: `order[r]` is the vertex with rank `r`.
fn rank_order(g: &CsrGraph) -> (Vec<u32>, Vec<VertexId>) {
    let n = g.num_vertices();
    let max_deg = g.max_degree();
    // Counting sort on degree. `counts[d]` becomes the first rank handed to
    // a degree-`d` vertex; scanning vertices in ascending id then assigns
    // consecutive ranks within each degree class in id order — exactly the
    // `(degree, id)` lexicographic order.
    let mut counts = vec![0u32; max_deg + 2];
    for v in 0..n {
        counts[g.degree(v as VertexId) + 1] += 1;
    }
    for d in 1..counts.len() {
        counts[d] += counts[d - 1];
    }
    let mut rank = vec![0u32; n];
    let mut order = vec![0 as VertexId; n];
    for v in 0..n {
        let r = counts[g.degree(v as VertexId)];
        counts[g.degree(v as VertexId)] += 1;
        rank[v] = r;
        order[r as usize] = v as VertexId;
    }
    (rank, order)
}

/// One vertex's forward list, borrowed as parallel columns: the ranks are
/// strictly ascending and unique (rank is a permutation of `0..n`), and
/// `verts`/`edge_ids` carry the target vertex and undirected edge id of
/// each entry.
#[derive(Clone, Copy, Debug)]
pub struct FwdList<'a> {
    /// Rank of each forward neighbor, strictly ascending.
    pub ranks: &'a [u32],
    /// The forward neighbors themselves (parallel to `ranks`).
    pub verts: &'a [VertexId],
    /// Undirected edge id of each entry (parallel to `ranks`).
    pub edge_ids: &'a [EdgeId],
}

impl<'a> FwdList<'a> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }
}

/// Intersects two forward lists by rank with the plain two-pointer merge,
/// calling `f(w, e_uw, e_vw)` once per common forward neighbor `w` —
/// `e_uw` comes from `a`, `e_vw` from `b`. The reference kernel the hybrid
/// version is property-tested against.
pub fn intersect_merge<F>(a: FwdList<'_>, b: FwdList<'_>, mut f: F)
where
    F: FnMut(VertexId, EdgeId, EdgeId),
{
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.ranks.len() && j < b.ranks.len() {
        match a.ranks[i].cmp(&b.ranks[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                f(a.verts[i], a.edge_ids[i], b.edge_ids[j]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Intersects two forward lists, picking the kernel by length ratio: the
/// two-pointer merge for similar lengths, galloping (exponential + binary)
/// probes of the longer list when the lengths are skewed past the 16x
/// cutoff (`GALLOP_FACTOR`). Emits exactly what [`intersect_merge`]
/// emits, in the same (ascending-rank) order.
pub fn intersect_hybrid<F>(a: FwdList<'_>, b: FwdList<'_>, f: F)
where
    F: FnMut(VertexId, EdgeId, EdgeId),
{
    if a.len().saturating_mul(GALLOP_FACTOR) < b.len() {
        gallop(a, b, false, f)
    } else if b.len().saturating_mul(GALLOP_FACTOR) < a.len() {
        gallop(b, a, true, f)
    } else {
        intersect_merge(a, b, f)
    }
}

/// Galloping intersection: for each entry of `short`, exponential search
/// from the current cursor in `long`, then binary search inside the probe
/// window. `swapped` records that `short` was the caller's second list, so
/// the edge-id argument order of the callback is preserved.
fn gallop<F>(short: FwdList<'_>, long: FwdList<'_>, swapped: bool, mut f: F)
where
    F: FnMut(VertexId, EdgeId, EdgeId),
{
    let mut base = 0usize;
    for i in 0..short.ranks.len() {
        if base >= long.ranks.len() {
            return;
        }
        let r = short.ranks[i];
        let rest = &long.ranks[base..];
        // Exponential probe: after the loop, everything before `bound/2` is
        // < r, and the first entry ≥ r (if any) sits before `bound`.
        let mut bound = 1usize;
        while bound < rest.len() && rest[bound - 1] < r {
            bound <<= 1;
        }
        let lo = bound >> 1;
        let hi = bound.min(rest.len());
        let j = base + lo + rest[lo..hi].partition_point(|&x| x < r);
        base = j;
        if j < long.ranks.len() && long.ranks[j] == r {
            if swapped {
                f(short.verts[i], long.edge_ids[j], short.edge_ids[i]);
            } else {
                f(short.verts[i], short.edge_ids[i], long.edge_ids[j]);
            }
            base = j + 1;
        }
    }
}

/// The flat oriented (forward) adjacency: for every vertex, its
/// higher-ranked neighbors sorted by rank, stored as one CSR-shaped
/// struct-of-arrays. Every undirected edge appears exactly once (at its
/// lower-ranked endpoint), so the three columns have length `m`.
///
/// Built in two O(m) counting passes with zero per-vertex heap
/// allocations (a fixed handful of flat arrays overall — asserted by the
/// allocation-count test in `tests/alloc.rs`):
///
/// 1. count each vertex's forward degree and prefix-sum into `offsets`;
/// 2. walk vertices in ascending rank order, appending each one to the
///    slots of its lower-ranked neighbors — which fills every per-vertex
///    segment in ascending rank order without any sorting.
///
/// This is the shared triangle substrate: the serial lister enumerates
/// over it, [`crate::count::edge_supports`] and
/// [`crate::par::edge_supports_fwd_par`] count over it, and `truss-core`'s
/// PKT peel probes it ([`ForwardAdjacency::edge_between_ranked`]) in place
/// of a global edge hash map.
pub struct ForwardAdjacency {
    /// `offsets[v]..offsets[v + 1]` delimits vertex `v`'s entries.
    offsets: Vec<u64>,
    /// Rank of each forward neighbor — ascending within each vertex.
    ranks: Vec<u32>,
    /// The forward neighbors (parallel to `ranks`).
    verts: Vec<VertexId>,
    /// Undirected edge id of each entry (parallel to `ranks`).
    edge_ids: Vec<EdgeId>,
    /// Rank of every vertex (the `(degree, id)` order).
    vertex_rank: Vec<u32>,
}

impl ForwardAdjacency {
    /// Builds the forward adjacency of `g`. Two O(m) passes, no per-vertex
    /// allocations.
    pub fn build(g: &CsrGraph) -> ForwardAdjacency {
        let n = g.num_vertices();
        let (rank, order) = rank_order(g);

        // Pass 1: forward degrees, prefix-summed into offsets.
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            let rv = rank[v];
            let mut fd = 0u64;
            for &w in g.neighbors(v as VertexId) {
                fd += (rank[w as usize] > rv) as u64;
            }
            offsets[v + 1] = fd;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let m = offsets[n] as usize;
        debug_assert_eq!(m, g.num_edges());

        // Pass 2: walk vertices in ascending rank order; each vertex `w`
        // appends itself to the slot of every lower-ranked neighbor, so
        // every per-vertex segment fills in ascending rank order.
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut ranks_col = vec![0u32; m];
        let mut verts = vec![0 as VertexId; m];
        let mut edge_ids = vec![0 as EdgeId; m];
        for (r, &w) in order.iter().enumerate() {
            let rw = r as u32;
            for (&x, &eid) in g.neighbors(w).iter().zip(g.neighbor_edge_ids(w)) {
                if rank[x as usize] < rw {
                    let at = cursor[x as usize] as usize;
                    ranks_col[at] = rw;
                    verts[at] = w;
                    edge_ids[at] = eid;
                    cursor[x as usize] += 1;
                }
            }
        }

        ForwardAdjacency {
            offsets,
            ranks: ranks_col,
            verts,
            edge_ids,
            vertex_rank: rank,
        }
    }

    /// [`ForwardAdjacency::build`] with `threads` workers: the counting
    /// pass runs over static contiguous vertex chunks, and the fill pass
    /// writes each vertex's segment independently (collect forward
    /// entries into a per-*worker* scratch buffer, sort by rank, write
    /// back) — segments are disjoint column ranges, so workers never
    /// alias. Falls back to the serial two-pass build at 1 thread (which
    /// needs no sorting at all).
    pub fn build_par(g: &CsrGraph, threads: usize) -> ForwardAdjacency {
        let n = g.num_vertices();
        if threads <= 1 || n == 0 {
            return Self::build(g);
        }
        let (rank, _) = rank_order(g);
        let chunk = n.div_ceil(threads).max(1);

        // Pass 1: forward degrees in parallel (disjoint offset chunks).
        let mut offsets = vec![0u64; n + 1];
        std::thread::scope(|scope| {
            for (ci, out) in offsets[1..].chunks_mut(chunk).enumerate() {
                let rank = &rank;
                scope.spawn(move || {
                    for (off, slot) in out.iter_mut().enumerate() {
                        let v = (ci * chunk + off) as VertexId;
                        let rv = rank[v as usize];
                        let mut fd = 0u64;
                        for &w in g.neighbors(v) {
                            fd += (rank[w as usize] > rv) as u64;
                        }
                        *slot = fd;
                    }
                });
            }
        });
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let m = offsets[n] as usize;

        // Pass 2: per-vertex segments, written by whichever worker owns
        // the vertex chunk. Each worker reuses one scratch buffer across
        // its vertices (no per-vertex allocation).
        let mut ranks_col = vec![0u32; m];
        let mut verts = vec![0 as VertexId; m];
        let mut edge_ids = vec![0 as EdgeId; m];
        std::thread::scope(|scope| {
            let (mut rr, mut vr, mut er) = (&mut ranks_col[..], &mut verts[..], &mut edge_ids[..]);
            let mut start_v = 0usize;
            while start_v < n {
                let end_v = (start_v + chunk).min(n);
                let seg = (offsets[end_v] - offsets[start_v]) as usize;
                let (r0, r1) = rr.split_at_mut(seg);
                let (v0, v1) = vr.split_at_mut(seg);
                let (e0, e1) = er.split_at_mut(seg);
                (rr, vr, er) = (r1, v1, e1);
                let (rank, offsets) = (&rank, &offsets);
                scope.spawn(move || {
                    let base = offsets[start_v];
                    let mut scratch: Vec<(u32, VertexId, EdgeId)> = Vec::new();
                    for v in start_v..end_v {
                        let rv = rank[v];
                        scratch.clear();
                        for (&w, &eid) in g
                            .neighbors(v as VertexId)
                            .iter()
                            .zip(g.neighbor_edge_ids(v as VertexId))
                        {
                            let rw = rank[w as usize];
                            if rw > rv {
                                scratch.push((rw, w, eid));
                            }
                        }
                        scratch.sort_unstable_by_key(|&(rw, _, _)| rw);
                        let at = (offsets[v] - base) as usize;
                        for (i, &(rw, w, eid)) in scratch.iter().enumerate() {
                            r0[at + i] = rw;
                            v0[at + i] = w;
                            e0[at + i] = eid;
                        }
                    }
                });
                start_v = end_v;
            }
        });

        ForwardAdjacency {
            offsets,
            ranks: ranks_col,
            verts,
            edge_ids,
            vertex_rank: rank,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (every edge has exactly one entry).
    pub fn num_edges(&self) -> usize {
        self.ranks.len()
    }

    /// Rank of `v` in the `(degree, id)` total order.
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.vertex_rank[v as usize]
    }

    /// The entry range of vertex `v`.
    #[inline]
    fn range(&self, v: VertexId) -> Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Vertex `v`'s forward list as borrowed columns.
    #[inline]
    pub fn list(&self, v: VertexId) -> FwdList<'_> {
        let r = self.range(v);
        FwdList {
            ranks: &self.ranks[r.clone()],
            verts: &self.verts[r.clone()],
            edge_ids: &self.edge_ids[r],
        }
    }

    /// Looks up the undirected edge id of `(a, b)`, if the edge exists:
    /// a binary search for the higher rank in the lower-ranked endpoint's
    /// forward list — `O(log fwd_deg)`, touching one short sorted run
    /// instead of a global hash table. This is the PKT peel's triangle
    /// closure test (via [`Self::edge_between_ranked`]).
    #[inline]
    pub fn edge_between(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        if a == b {
            return None;
        }
        self.edge_between_ranked(
            a,
            self.vertex_rank[a as usize],
            b,
            self.vertex_rank[b as usize],
        )
    }

    /// [`ForwardAdjacency::edge_between`] with both ranks supplied by the
    /// caller — the hot-loop variant for callers that already carry ranks
    /// (the peel walks a live adjacency whose entries cache them), saving
    /// the two random `vertex_rank` reads per probe.
    #[inline]
    pub fn edge_between_ranked(
        &self,
        a: VertexId,
        ra: u32,
        b: VertexId,
        rb: u32,
    ) -> Option<EdgeId> {
        debug_assert_eq!(ra, self.vertex_rank[a as usize]);
        debug_assert_eq!(rb, self.vertex_rank[b as usize]);
        let (lo, hi_rank) = if ra < rb { (a, rb) } else { (b, ra) };
        let r = self.range(lo);
        let ranks = &self.ranks[r.clone()];
        // Forward runs are short for most vertices (the orientation caps
        // them at O(√m)); below a handful of entries a branch-predictable
        // linear scan of the sorted run beats the binary search.
        if ranks.len() <= 8 {
            for (i, &rk) in ranks.iter().enumerate() {
                if rk >= hi_rank {
                    return (rk == hi_rank).then(|| self.edge_ids[r.start + i]);
                }
            }
            return None;
        }
        ranks
            .binary_search(&hi_rank)
            .ok()
            .map(|i| self.edge_ids[r.start + i])
    }

    /// The rank of every vertex, indexed by vertex id (the `(degree, id)`
    /// order the orientation uses).
    pub fn vertex_ranks(&self) -> &[u32] {
        &self.vertex_rank
    }

    /// Calls `f(u, v, w, e_uv, e_uw, e_vw)` once per triangle whose
    /// lowest-ranked vertex is `u` (the forward algorithm's per-vertex
    /// work item — [`crate::par`] schedules these over threads).
    #[inline]
    pub fn for_each_triangle_at<F>(&self, u: VertexId, f: &mut F)
    where
        F: FnMut(VertexId, VertexId, VertexId, EdgeId, EdgeId, EdgeId),
    {
        let fu = self.list(u);
        for i in 0..fu.len() {
            let (v, e_uv) = (fu.verts[i], fu.edge_ids[i]);
            intersect_hybrid(fu, self.list(v), |w, e_uw, e_vw| {
                f(u, v, w, e_uv, e_uw, e_vw)
            });
        }
    }

    /// Calls `f` once per triangle of the graph (rank-ordered vertex
    /// arguments, see [`for_each_triangle`]).
    pub fn for_each_triangle<F>(&self, mut f: F)
    where
        F: FnMut(VertexId, VertexId, VertexId, EdgeId, EdgeId, EdgeId),
    {
        for u in 0..self.num_vertices() as VertexId {
            self.for_each_triangle_at(u, &mut f);
        }
    }

    /// Support of every edge (triangle count per edge), indexed by
    /// [`EdgeId`] — one enumeration over the flat structure.
    pub fn edge_supports(&self) -> Vec<u32> {
        let mut sup = vec![0u32; self.num_edges()];
        self.for_each_triangle(|_, _, _, e1, e2, e3| {
            sup[e1 as usize] += 1;
            sup[e2 as usize] += 1;
            sup[e3 as usize] += 1;
        });
        sup
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.ranks.len() * 4
            + self.verts.len() * 4
            + self.edge_ids.len() * 4
            + self.vertex_rank.len() * 4
    }
}

/// Calls `f(u, v, w, e_uv, e_uw, e_vw)` once per triangle of `g`.
///
/// The vertex arguments satisfy `rank(u) < rank(v) < rank(w)` in the
/// degree order; the three edge ids are the undirected ids of the
/// corresponding edges.
pub fn for_each_triangle<F>(g: &CsrGraph, f: F)
where
    F: FnMut(VertexId, VertexId, VertexId, EdgeId, EdgeId, EdgeId),
{
    ForwardAdjacency::build(g).for_each_triangle(f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::classic::{complete, complete_bipartite, cycle, star};
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::Edge;

    fn collect_triangles(g: &CsrGraph) -> Vec<[VertexId; 3]> {
        let mut out = Vec::new();
        for_each_triangle(g, |u, v, w, _, _, _| {
            let mut t = [u, v, w];
            t.sort_unstable();
            out.push(t);
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn k4_has_four_triangles() {
        let tris = collect_triangles(&complete(4));
        assert_eq!(tris, vec![[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]);
    }

    #[test]
    fn kn_triangle_count() {
        // C(n,3) triangles in K_n.
        for n in [3usize, 5, 8] {
            let count = collect_triangles(&complete(n)).len();
            assert_eq!(count, n * (n - 1) * (n - 2) / 6);
        }
    }

    #[test]
    fn triangle_free_graphs() {
        assert!(collect_triangles(&cycle(6)).is_empty());
        assert!(collect_triangles(&complete_bipartite(4, 4)).is_empty());
    }

    #[test]
    fn edge_ids_are_correct() {
        let g = complete(5);
        for_each_triangle(&g, |u, v, w, e_uv, e_uw, e_vw| {
            assert_eq!(g.edge(e_uv), Edge::new(u, v));
            assert_eq!(g.edge(e_uw), Edge::new(u, w));
            assert_eq!(g.edge(e_vw), Edge::new(v, w));
        });
    }

    #[test]
    fn no_duplicates_on_random_graph() {
        let g = gnm(60, 400, 3);
        let tris = collect_triangles(&g);
        let mut dedup = tris.clone();
        dedup.dedup();
        assert_eq!(tris.len(), dedup.len());
        // Cross-check against brute force.
        let mut brute = Vec::new();
        for u in 0..60u32 {
            for v in (u + 1)..60 {
                if !g.has_edge(u, v) {
                    continue;
                }
                for w in (v + 1)..60 {
                    if g.has_edge(u, w) && g.has_edge(v, w) {
                        brute.push([u, v, w]);
                    }
                }
            }
        }
        brute.sort_unstable();
        assert_eq!(tris, brute);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(vec![]);
        assert!(collect_triangles(&g).is_empty());
    }

    #[test]
    fn counting_sort_ranks_match_comparison_sort() {
        for (i, g) in [
            gnm(80, 600, 5),
            complete(9),
            star(12),
            cycle(7),
            CsrGraph::from_edges(vec![]),
        ]
        .iter()
        .enumerate()
        {
            let n = g.num_vertices();
            let mut order: Vec<VertexId> = (0..n as VertexId).collect();
            order.sort_unstable_by_key(|&v| (g.degree(v), v));
            let mut expect = vec![0u32; n];
            for (r, &v) in order.iter().enumerate() {
                expect[v as usize] = r as u32;
            }
            assert_eq!(ranks(g), expect, "graph {i}");
        }
    }

    #[test]
    fn forward_adjacency_shape_and_order() {
        let g = gnm(50, 300, 8);
        let fwd = ForwardAdjacency::build(&g);
        assert_eq!(fwd.num_edges(), g.num_edges());
        let mut entries = 0usize;
        for v in 0..g.num_vertices() as VertexId {
            let l = fwd.list(v);
            entries += l.len();
            // Ranks strictly ascending, all higher than v's own rank, and
            // consistent with the vertex and edge-id columns.
            assert!(l.ranks.windows(2).all(|w| w[0] < w[1]), "v = {v}");
            for i in 0..l.len() {
                assert!(l.ranks[i] > fwd.rank(v));
                assert_eq!(fwd.rank(l.verts[i]), l.ranks[i]);
                assert_eq!(g.edge(l.edge_ids[i]), Edge::new(v, l.verts[i]));
            }
        }
        assert_eq!(entries, g.num_edges());
    }

    #[test]
    fn parallel_build_matches_serial() {
        for (i, g) in [
            gnm(150, 1200, 6),
            complete(10),
            star(40),
            CsrGraph::from_edges(vec![]),
        ]
        .iter()
        .enumerate()
        {
            let serial = ForwardAdjacency::build(g);
            for threads in [1usize, 2, 4, 7] {
                let par = ForwardAdjacency::build_par(g, threads);
                assert_eq!(par.offsets, serial.offsets, "graph {i}, {threads}t");
                assert_eq!(par.ranks, serial.ranks, "graph {i}, {threads}t");
                assert_eq!(par.verts, serial.verts, "graph {i}, {threads}t");
                assert_eq!(par.edge_ids, serial.edge_ids, "graph {i}, {threads}t");
                assert_eq!(par.vertex_rank, serial.vertex_rank, "graph {i}, {threads}t");
            }
        }
    }

    #[test]
    fn edge_between_matches_graph() {
        let g = gnm(40, 250, 4);
        let fwd = ForwardAdjacency::build(&g);
        for u in 0..40u32 {
            for v in 0..40u32 {
                assert_eq!(fwd.edge_between(u, v), g.edge_id(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn hybrid_and_merge_agree_on_forward_lists() {
        // Star + clique mixtures give heavily skewed list pairs.
        let mut edges: Vec<Edge> = (1..200u32).map(|v| Edge::new(0, v)).collect();
        for u in 1..16u32 {
            for v in (u + 1)..16 {
                edges.push(Edge::new(u, v));
            }
        }
        let g = CsrGraph::from_edges(edges);
        let fwd = ForwardAdjacency::build(&g);
        for u in 0..g.num_vertices() as VertexId {
            for v in 0..g.num_vertices() as VertexId {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                intersect_hybrid(fwd.list(u), fwd.list(v), |w, e1, e2| a.push((w, e1, e2)));
                intersect_merge(fwd.list(u), fwd.list(v), |w, e1, e2| b.push((w, e1, e2)));
                assert_eq!(a, b, "({u},{v})");
            }
        }
    }
}
