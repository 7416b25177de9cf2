//! The paper's running example (Figure 2), decomposed by all four
//! algorithms, with the Example 3–5 artifacts (partitions, bounds, top-down
//! rounds) printed along the way.
//!
//! ```sh
//! cargo run --release --example figure2_walkthrough
//! ```

use truss_decomposition::core::bottom_up::{bottom_up_decompose, BottomUpConfig};
use truss_decomposition::core::decompose::{
    truss_decompose, truss_decompose_improved, truss_decompose_naive,
};
use truss_decomposition::core::top_down::{top_down_decompose, TopDownConfig};
use truss_decomposition::graph::generators::figures::{
    figure2_graph, figure2_partition, FIGURE2_NAMES,
};
use truss_decomposition::graph::subgraph;
use truss_decomposition::mapreduce::twiddling::mr_truss_decompose;
use truss_decomposition::storage::IoConfig;

fn name(v: u32) -> &'static str {
    FIGURE2_NAMES[v as usize]
}

fn main() {
    let g = figure2_graph();
    println!(
        "Figure 2 graph: {} vertices (a..l), {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // All four algorithms, one truth.
    let io = IoConfig::with_budget(1 << 20);
    let a1 = truss_decompose_naive(&g);
    let (a2, _) = truss_decompose_improved(&g);
    let (bu, _) = bottom_up_decompose(&g, &BottomUpConfig::new(io)).unwrap();
    let (td, _) = top_down_decompose(&g, &TopDownConfig::new(io)).unwrap();
    let td = td.to_decomposition(&g).unwrap();
    let (mr, _) = mr_truss_decompose(&g, io).unwrap();
    assert_eq!(a1.trussness(), a2.trussness());
    assert_eq!(a2.trussness(), bu.trussness());
    assert_eq!(a2.trussness(), td.trussness());
    assert_eq!(a2.trussness(), mr.trussness());
    println!("TD-inmem, TD-inmem+, TD-bottomup, TD-topdown and TD-MR all agree.\n");

    println!("k-classes (Example 2):");
    for (k, edges) in a2.classes_as_edges(&g) {
        let pretty: Vec<String> = edges
            .iter()
            .map(|e| format!("({},{})", name(e.u), name(e.v)))
            .collect();
        println!("  Φ{k}: {}", pretty.join(" "));
    }

    println!("\nExample 3 — the fixed partition P1={{a,b,c,l}} P2={{d,e,f,g}} P3={{h,i,j,k}}:");
    for (i, part) in figure2_partition().iter().enumerate() {
        let ns = subgraph::neighborhood(&g, part);
        let local = truss_decompose(&ns.sub.graph);
        let mut per_class: std::collections::BTreeMap<u32, Vec<String>> = Default::default();
        for (id, e) in ns.sub.graph.iter_edges() {
            let p = ns.sub.parent_edge(e);
            per_class
                .entry(local.edge_trussness(id))
                .or_default()
                .push(format!("({},{})", name(p.u), name(p.v)));
        }
        print!("  NS(P{}):", i + 1);
        for (k, edges) in per_class {
            print!("  Φ{k}(P{})={{{}}}", i + 1, edges.join(" "));
        }
        println!();
    }

    println!("\nExample 5 — top-down with t = 2 computes exactly Φ5 and Φ4:");
    let mut cfg = TopDownConfig::new(io).top_t(2);
    cfg.use_kinit = false;
    let (top2, report) = top_down_decompose(&g, &cfg).unwrap();
    println!("  k_1st = {}, k_max = {}", report.k_first, top2.k_max);
    for (k, edges) in top2.classes.iter().rev() {
        let pretty: Vec<String> = edges
            .iter()
            .map(|e| format!("({},{})", name(e.u), name(e.v)))
            .collect();
        println!("  Φ{k} = {}", pretty.join(" "));
    }
}
