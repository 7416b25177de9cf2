//! Seeded input generation. Every input file is a pure function of the
//! dataset, scale and `--seed`; the program under test only ever sees
//! the written file.
//!
//! The graph's structure comes from one fixed generator seed and
//! `--seed` draws a uniformly random vertex relabeling of it. Every seed
//! thus sees a different byte stream, vertex order and memory layout of
//! an isomorphic graph: the same n, m, triangles and trussness
//! spectrum. (The generator's own seed moves m by ±6% on the lj
//! analogue, which would make run-to-run spread measure the generator
//! rather than the program.)

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use truss_decomposition::graph::generators::datasets::dataset_by_name;
use truss_decomposition::graph::io as gio;
use truss_decomposition::graph::permute::Permutation;
use truss_decomposition::storage;

/// On-disk representation of a generated graph.
#[derive(Debug, Clone, Copy)]
pub enum Format {
    /// SNAP text edge list: the parse path.
    Snap,
    /// `TRUSSGR2` snapshot: the mapped path.
    Gr2,
}

/// What was written, for the run's context record.
#[derive(Debug, Clone)]
pub struct Input {
    pub dataset: &'static str,
    /// Multiple of the dataset's default scale.
    pub scale: f64,
    pub vertices: usize,
    pub edges: usize,
    pub bytes: u64,
    /// FNV-1a 64 of the file bytes.
    pub digest: u64,
}

/// Generator seed of every workload graph's structure: at seed 1 the lj
/// analogue has m = 627,737 and 16.1M triangles, the p2p analogue ×40
/// m = 1,663,953 and 468 triangles.
const STRUCTURE_SEED: u64 = 1;

/// Writes the `dataset` analogue at `scale` × its default scale,
/// relabeled by a random permutation drawn from `seed`, to `path`.
pub fn generate(
    dataset: &'static str,
    scale: f64,
    seed: u64,
    format: Format,
    path: &Path,
) -> Result<Input, String> {
    let d = dataset_by_name(dataset).ok_or_else(|| format!("unknown dataset {dataset}"))?;
    let g = d.build_scaled(d.spec().default_scale * scale, STRUCTURE_SEED);
    let g = random_permutation(g.num_vertices(), seed).relabel(&g);
    let mut w = BufWriter::new(File::create(path).map_err(|e| format!("{}: {e}", path.display()))?);
    match format {
        Format::Snap => gio::write_snap(&g, &mut w).map_err(|e| e.to_string())?,
        Format::Gr2 => {
            storage::write_graph_snapshot(&g, &mut w).map_err(|e| e.to_string())?;
        }
    }
    // Durable before anything is timed, so no write-back of the input
    // overlaps a measured phase.
    let file = w.into_inner().map_err(|e| e.to_string())?;
    file.sync_all().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    Ok(Input {
        dataset,
        scale,
        vertices: g.num_vertices(),
        edges: g.num_edges(),
        bytes: bytes.len() as u64,
        digest: storage::snapshot::fnv1a64(&bytes),
    })
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn random_permutation(n: usize, seed: u64) -> Permutation {
    let mut rng = Rng::new(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    Permutation::new(perm)
}

/// A small deterministic generator for the benchmark's own choices
/// (query mix, update edges): splitmix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let dir = std::env::temp_dir().join(format!("e2ebench-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (format, ext) in [(Format::Snap, "snap"), (Format::Gr2, "gr2")] {
            let path = |name: &str| dir.join(format!("{name}.{ext}"));
            let a = generate("lj", 0.05, 7, format, &path("a")).unwrap();
            let b = generate("lj", 0.05, 7, format, &path("b")).unwrap();
            let c = generate("lj", 0.05, 8, format, &path("c")).unwrap();
            assert_eq!(
                std::fs::read(path("a")).unwrap(),
                std::fs::read(path("b")).unwrap()
            );
            assert_eq!(a.digest, b.digest);
            assert_ne!(a.digest, c.digest);
            assert!(a.edges > 0 && a.bytes > 0);
            // Relabeled, not regenerated: the same graph up to isomorphism.
            assert_eq!((a.vertices, a.edges), (c.vertices, c.edges));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rng_is_deterministic() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(3).next_u64(), Rng::new(4).next_u64());
    }
}
