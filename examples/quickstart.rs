//! Quickstart: build a graph, decompose it, inspect the k-classes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use truss_decomposition::core::truss::truss_subgraph;
use truss_decomposition::prelude::*;

fn main() {
    // A small social network: two friend groups bridged by one person.
    let mut b = GraphBuilder::new();
    // Group 1: a 5-clique {0..4}.
    for u in 0..5u32 {
        for v in (u + 1)..5 {
            b.add_edge(u, v);
        }
    }
    // Group 2: a 4-clique {4..7} sharing member 4.
    for u in 4..8u32 {
        for v in (u + 1)..8 {
            b.add_edge(u, v);
        }
    }
    // Some loose acquaintances.
    b.add_edge(0, 8).add_edge(8, 9).add_edge(9, 2);
    let g = b.build();

    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // The default in-memory peel (PKT on one worker): O(m^1.5), the same
    // bound and result as the paper's Algorithm 2 (TD-inmem+).
    let decomposition = truss_decompose(&g);
    println!("k_max = {}", decomposition.k_max());
    for (k, size) in decomposition.class_sizes() {
        println!("Φ_{k}: {size} edges");
    }

    // Extract the strongest community: the k_max-truss.
    let core = truss_subgraph(&g, &decomposition, decomposition.k_max());
    println!(
        "the {}-truss has {} vertices and {} edges — the 5-clique",
        decomposition.k_max(),
        core.num_vertices(),
        core.num_edges()
    );

    // Per-edge truss numbers are directly addressable.
    let (a, bb) = (0u32, 1u32);
    let id = g.edge_id(a, bb).unwrap();
    println!(
        "trussness of ({a},{bb}) = {}",
        decomposition.edge_trussness(id)
    );
    assert_eq!(decomposition.k_max(), 5);
}
