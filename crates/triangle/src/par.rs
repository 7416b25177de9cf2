//! Thread-count-aware support counting.
//!
//! The forward algorithm ([`crate::list::for_each_triangle`]) splits
//! cleanly: each triangle is discovered at exactly one (lowest-ranked)
//! vertex `u`, so enumerating over disjoint vertex ranges partitions the
//! triangle set. All workers share one read-only flat
//! [`ForwardAdjacency`] — built once in two O(m) passes, no per-vertex
//! allocations — and [`edge_supports_fwd_par`] is the one parallel
//! support initialization, the PKT engine's first phase.
//!
//! It takes an explicit thread count and runs the serial code path when
//! it is 1, so callers can thread `truss_core::engine::EngineConfig::threads`
//! straight through. Work is scheduled dynamically in fixed-size vertex
//! blocks because per-vertex triangle cost is heavily skewed on power-law
//! graphs.

use crate::list::ForwardAdjacency;
use std::sync::atomic::{AtomicUsize, Ordering};
use truss_graph::VertexId;

/// Vertices handed to a worker at a time. Small enough to balance skewed
/// degree distributions, large enough that the shared cursor is not
/// contended.
const VERTEX_BLOCK: usize = 256;

/// [`crate::count::edge_supports`] over a prebuilt [`ForwardAdjacency`]
/// with `threads` workers.
///
/// Each worker accumulates into a private `u32` array and a column-sliced
/// parallel pass reduces them: three plain adds per triangle instead of
/// three `fetch_add`s on shared counters, whose cache lines the hot
/// (high-support) edges would otherwise ping-pong between cores. Costs
/// `threads` transient support-array copies — callers accounting peak
/// memory should charge `4·m·(threads + 1)` bytes for this phase.
pub fn edge_supports_fwd_par(fwd: &ForwardAdjacency, threads: usize) -> Vec<u32> {
    if threads <= 1 {
        return fwd.edge_supports();
    }
    let m = fwd.num_edges();
    let n = fwd.num_vertices();
    let cursor = AtomicUsize::new(0);
    let mut locals: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut sup = vec![0u32; m];
                    loop {
                        let start = cursor.fetch_add(VERTEX_BLOCK, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for u in start..(start + VERTEX_BLOCK).min(n) {
                            fwd.for_each_triangle_at(u as VertexId, &mut |_, _, _, e1, e2, e3| {
                                sup[e1 as usize] += 1;
                                sup[e2 as usize] += 1;
                                sup[e3 as usize] += 1;
                            });
                        }
                    }
                    sup
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("support worker panicked"))
            .collect()
    });
    let mut out = locals.swap_remove(0);
    let rest = locals;
    if rest.is_empty() || m == 0 {
        return out;
    }
    let chunk = m.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        for (ci, slice) in out.chunks_mut(chunk).enumerate() {
            let rest = &rest;
            scope.spawn(move || {
                let base = ci * chunk;
                for r in rest {
                    for (i, s) in slice.iter_mut().enumerate() {
                        *s += r[base + i];
                    }
                }
            });
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::edge_supports;
    use truss_graph::generators::erdos_renyi::gnm;
    use truss_graph::{CsrGraph, Edge};

    #[test]
    fn supports_match_serial_across_thread_counts() {
        for seed in 0..3 {
            let g = gnm(120, 1400, seed);
            let serial = edge_supports(&g);
            for threads in [1, 2, 4, 8] {
                let fwd = ForwardAdjacency::build_par(&g, threads);
                assert_eq!(
                    edge_supports_fwd_par(&fwd, threads),
                    serial,
                    "seed {seed}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn prebuilt_adjacency_is_shareable() {
        let g = gnm(90, 900, 2);
        let fwd = ForwardAdjacency::build(&g);
        let serial = edge_supports(&g);
        for threads in [1, 2, 4] {
            assert_eq!(edge_supports_fwd_par(&fwd, threads), serial);
        }
    }

    #[test]
    fn empty_and_triangle_free() {
        let empty = ForwardAdjacency::build(&CsrGraph::from_edges(vec![]));
        assert!(edge_supports_fwd_par(&empty, 4).is_empty());
        let path = CsrGraph::from_edges(vec![Edge::new(0, 1), Edge::new(1, 2)]);
        let fwd = ForwardAdjacency::build(&path);
        assert_eq!(edge_supports_fwd_par(&fwd, 4), vec![0, 0]);
    }
}
