//! Edge-support computation (Definition 1: `sup(e)` = number of triangles
//! containing `e`).

use crate::list::{for_each_triangle, ForwardAdjacency};
use truss_graph::{CsrGraph, VertexId};

/// Computes the support of every edge, indexed by `EdgeId`.
///
/// `O(m^1.5)` time and `O(m + n)` space via the forward algorithm — the
/// initialization step of both in-memory decomposition algorithms (§3).
/// Enumerates over a freshly built flat [`ForwardAdjacency`]; callers
/// that keep the oriented adjacency around for later probing (the PKT
/// peel) build it once and use
/// [`ForwardAdjacency::edge_supports`] directly.
pub fn edge_supports(g: &CsrGraph) -> Vec<u32> {
    ForwardAdjacency::build(g).edge_supports()
}

/// Support computation by per-edge sorted-neighborhood intersection — the
/// `O(Σ_v deg(v)²)` method Algorithm 1 uses. Kept as an independent
/// implementation for cross-checking and for the TD-inmem baseline.
pub fn edge_supports_by_intersection(g: &CsrGraph) -> Vec<u32> {
    let mut sup = vec![0u32; g.num_edges()];
    for (id, e) in g.iter_edges() {
        sup[id as usize] = common_neighbor_count(g, e.u, e.v);
    }
    sup
}

/// `|nb(u) ∩ nb(v)|` by merging the two sorted lists.
pub fn common_neighbor_count(g: &CsrGraph, u: VertexId, v: VertexId) -> u32 {
    let (mut a, mut b) = (g.neighbors(u), g.neighbors(v));
    let mut count = 0;
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => a = &a[1..],
            std::cmp::Ordering::Greater => b = &b[1..],
            std::cmp::Ordering::Equal => {
                count += 1;
                a = &a[1..];
                b = &b[1..];
            }
        }
    }
    count
}

/// Total number of triangles in `g`.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let mut count = 0u64;
    for_each_triangle(g, |_, _, _, _, _, _| count += 1);
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use truss_graph::generators::classic::complete;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::generators::figures::figure2_graph;
    use truss_graph::Edge;

    #[test]
    fn kn_supports() {
        // Every edge of K_n is in n-2 triangles.
        for n in [3usize, 4, 7] {
            let g = complete(n);
            let sup = edge_supports(&g);
            assert!(sup.iter().all(|&s| s as usize == n - 2));
        }
    }

    #[test]
    fn both_methods_agree_on_random_graphs() {
        for seed in 0..5 {
            let g = gnm(80, 600, seed);
            assert_eq!(edge_supports(&g), edge_supports_by_intersection(&g));
        }
    }

    #[test]
    fn figure2_support_of_ik_is_zero() {
        let g = figure2_graph();
        let sup = edge_supports(&g);
        let ik = g.edge_id(8, 10).expect("(i,k) edge"); // i=8, k=10
        assert_eq!(sup[ik as usize], 0);
        // And it is the only support-0 edge (Example 2).
        assert_eq!(sup.iter().filter(|&&s| s == 0).count(), 1);
    }

    #[test]
    fn sum_of_supports_is_three_triangles() {
        let g = gnm(60, 500, 9);
        let sup = edge_supports(&g);
        let total: u64 = sup.iter().map(|&s| s as u64).sum();
        assert_eq!(total, 3 * triangle_count(&g));
    }

    #[test]
    fn common_neighbors() {
        let g = CsrGraph::from_edges(vec![
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(1, 2),
            Edge::new(0, 3),
            Edge::new(1, 3),
        ]);
        assert_eq!(common_neighbor_count(&g, 0, 1), 2); // 2 and 3
        assert_eq!(common_neighbor_count(&g, 2, 3), 2); // 0 and 1
    }
}
