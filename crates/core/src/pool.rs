//! A minimal scoped thread pool over `std::thread` — no external
//! dependencies, no long-lived workers.
//!
//! The parallel engine ([`crate::parallel`]) is bulk-synchronous: every
//! phase (support initialization, frontier scan, frontier processing) fans
//! out over all workers and joins before the next phase begins. A scoped
//! fork-join helper models that exactly, and `std::thread::scope` lets the
//! workers borrow the graph and the shared atomic arrays without `Arc`:
//! the join at scope exit is the phase barrier.
//!
//! A [`ThreadPool`] is therefore just a validated thread count plus
//! fork-join helpers. Spawning per phase costs a few microseconds per
//! worker, which is noise against the O(m) work each phase does; with one
//! thread every helper runs inline so the serial path pays nothing.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Estimated sequential work units (≈ column-entry touches) below which a
/// fork-join fan-out costs more than it saves: a spawn-plus-join round
/// trip runs tens of microseconds per phase, about what this many
/// streaming memory touches cost on one core. Bulk-synchronous callers
/// with thousands of small phases (the parallel peel's sub-iterations,
/// seeds and compactions) compare their per-phase work estimate against
/// this floor and run the phase inline on the calling thread when it
/// falls below — oversubscribed or not, a tiny frontier is always
/// cheaper single-threaded.
pub const SPAWN_WORK_FLOOR: usize = 32 * 1024;

/// Fork-join executor honoring an explicit thread count
/// ([`crate::engine::EngineConfig::threads`]).
///
/// The configured width ([`Self::threads`]) is what callers asked for and
/// what reports record; the *spawn* width ([`Self::workers`]) is capped at
/// [`std::thread::available_parallelism`]. Every phase here is
/// compute-bound and bulk-synchronous, so running more workers than
/// hardware threads cannot overlap anything — it only adds spawn/join
/// round trips, scheduler churn and cache competition between workers
/// that time-slice one core. Results are deterministic regardless of
/// worker count (the engine's scheduling proof does not depend on it), so
/// the clamp is observable only as time saved.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
    workers: usize,
}

impl ThreadPool {
    /// A pool with configured width `threads`; `0` means "use the machine",
    /// i.e. [`std::thread::available_parallelism`].
    pub fn new(threads: usize) -> Self {
        if threads == 1 {
            // The serial path needs no machine query, which reads cgroup
            // files on Linux (~30 µs a call on a 2-vCPU VM) — a cost
            // every one-worker `truss_decompose` call would otherwise pay.
            return ThreadPool::unclamped(1);
        }
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = if threads == 0 { machine } else { threads };
        ThreadPool {
            threads,
            workers: threads.min(machine),
        }
    }

    /// The configured worker count (what [`crate::engine::EngineReport::threads_used`]
    /// records).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers a fan-out actually spawns: the configured width capped at
    /// machine width. Callers sizing per-worker scratch or choosing
    /// spawn-vs-inline should use this, not [`Self::threads`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A pool that really spawns `threads` workers even beyond machine
    /// width. Oversubscription is never a performance win here — this
    /// exists so correctness tests can exercise genuine multi-worker
    /// interleavings (the atomic scheduling paths) on small machines,
    /// where [`Self::new`] would clamp to one worker and run everything
    /// inline.
    pub fn unclamped(threads: usize) -> Self {
        let threads = threads.max(1);
        ThreadPool {
            threads,
            workers: threads,
        }
    }

    /// Runs `worker(thread_index)` on every spawned worker and joins,
    /// returning the per-worker results in thread-index order (one entry
    /// per [`Self::workers`]). With one worker it runs inline on the
    /// caller's stack.
    pub fn run<R, F>(&self, worker: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers == 1 {
            return vec![worker(0)];
        }
        let worker = &worker;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|tid| scope.spawn(move || worker(tid)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        })
    }

    /// Splits `0..n` into one contiguous range per spawned worker
    /// (balanced to within one item) and runs `worker(thread_index, range)`
    /// on each. Useful when every item costs about the same.
    pub fn run_ranges<R, F>(&self, n: usize, worker: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        self.run(|tid| worker(tid, split_range(n, self.workers, tid)))
    }

    /// Runs `worker(thread_index, range)` over dynamically scheduled blocks
    /// of `0..n`: workers pull the next `block`-sized range from a shared
    /// cursor until `n` is exhausted. Useful when per-item cost is skewed
    /// (e.g. per-vertex triangle work on a power-law graph).
    pub fn run_blocks<F>(&self, n: usize, block: usize, worker: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let block = block.max(1);
        let cursor = AtomicUsize::new(0);
        self.run(|tid| loop {
            let start = cursor.fetch_add(block, Ordering::Relaxed);
            if start >= n {
                break;
            }
            worker(tid, start..(start + block).min(n));
        });
    }
}

/// The `tid`-th of `parts` contiguous near-equal chunks of `0..n`.
fn split_range(n: usize, parts: usize, tid: usize) -> Range<usize> {
    let base = n / parts;
    let extra = n % parts;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..(start + len).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_means_machine_width() {
        assert!(ThreadPool::new(0).threads() >= 1);
        assert_eq!(ThreadPool::new(3).threads(), 3);
    }

    #[test]
    fn workers_are_clamped_to_the_machine() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = ThreadPool::new(machine + 7);
        assert_eq!(pool.threads(), machine + 7);
        assert_eq!(pool.workers(), machine);
        assert_eq!(ThreadPool::new(1).workers(), 1);
    }

    #[test]
    fn run_returns_in_thread_order() {
        for threads in [1, 2, 5] {
            let pool = ThreadPool::new(threads);
            let out = pool.run(|tid| tid * 10);
            assert_eq!(out, (0..pool.workers()).map(|t| t * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ranges_partition_exactly() {
        for (n, threads) in [(0usize, 3usize), (1, 4), (10, 3), (100, 7)] {
            let pool = ThreadPool::new(threads);
            let ranges = pool.run_ranges(n, |_, r| r);
            let mut covered = 0usize;
            let mut expect_start = 0usize;
            for r in ranges {
                assert_eq!(r.start, expect_start);
                covered += r.len();
                expect_start = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn blocks_cover_everything_once() {
        for threads in [1, 4] {
            let n = 1000;
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            ThreadPool::new(threads).run_blocks(n, 7, |_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn workers_can_sum_concurrently() {
        let total = AtomicU64::new(0);
        ThreadPool::new(4).run_blocks(100, 9, |_, range| {
            let s: u64 = range.map(|x| x as u64).sum();
            total.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 99 * 100 / 2);
    }
}
