//! Out-of-core decomposition: TD-bottomup under a memory budget far smaller
//! than the graph, with full I/O accounting.
//!
//! ```sh
//! cargo run --release --example external_decomposition
//! ```

use truss_decomposition::core::bottom_up::{bottom_up_decompose, BottomUpConfig};
use truss_decomposition::graph::generators::datasets::Dataset;
use truss_decomposition::prelude::*;
use truss_decomposition::storage::record::{EdgeRec, FixedRecord};
use truss_decomposition::storage::IoConfig;

fn main() {
    let g = Dataset::Amazon.build_scaled(1.0 / 256.0, 7);
    let graph_bytes = g.num_edges() * EdgeRec::SIZE;
    println!(
        "graph: {} vertices, {} edges ({} bytes on disk)",
        g.num_vertices(),
        g.num_edges(),
        graph_bytes
    );

    // Give the algorithm one eighth of the graph's size — it must partition.
    let budget = (graph_bytes / 8)
        .max(truss_decomposition::core::minimum_budget(&g, 64))
        .max(1 << 14);
    let io = IoConfig {
        memory_budget: budget,
        block_size: (budget / 32).max(1024),
    };
    println!(
        "memory budget M = {} bytes ({}% of |G|), block size B = {} bytes",
        io.memory_budget,
        100 * io.memory_budget / graph_bytes.max(1),
        io.block_size
    );

    let cfg = BottomUpConfig::new(io);
    let (decomposition, report) = bottom_up_decompose(&g, &cfg).expect("bottom-up");

    println!("\nk_max = {}", decomposition.k_max());
    println!(
        "lower-bounding iterations : {}",
        report.lower_bound_iterations
    );
    println!("k-rounds                  : {}", report.rounds);
    println!("oversized candidates      : {}", report.oversized_rounds);
    println!(
        "candidate edges total     : {}",
        report.candidate_edges_total
    );
    println!("\nI/O (Aggarwal–Vitter model):");
    println!("  scans        : {}", report.io.scans);
    println!("  blocks read  : {}", report.io.blocks_read);
    println!("  blocks write : {}", report.io.blocks_written);
    println!("  bytes read   : {}", report.io.bytes_read);
    println!("  bytes written: {}", report.io.bytes_written);

    // Sanity: identical to the in-memory algorithm.
    let exact = truss_decompose(&g);
    assert_eq!(decomposition.trussness(), exact.trussness());
    println!("\nverified: external result identical to the in-memory decomposition");
}
