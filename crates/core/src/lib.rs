//! The truss-decomposition algorithms of Wang & Cheng (VLDB 2012), plus a
//! PKT-style shared-memory parallel engine.
//!
//! | paper | here |
//! |-------|------|
//! | Algorithm 1 (Cohen's in-memory, *TD-inmem*) | [`decompose::naive`] |
//! | Algorithm 2 (improved in-memory, *TD-inmem+*) | [`decompose::improved`] |
//! | Algorithm 3 (LowerBounding) | [`lower_bound`] |
//! | Algorithm 4 + Procedures 5 & 9 (*TD-bottomup*) | [`bottom_up`] |
//! | Procedure 6 (UpperBounding) | [`upper_bound`] |
//! | Algorithm 7 + Procedures 8 & 10 (*TD-topdown*) | [`top_down`] |
//! | k-core decomposition (§7.4 baseline) | [`core_decomposition`] |
//! | *PKT* (Kabir & Madduri, not in the paper; the default engine) | [`parallel`] |
//!
//! All algorithms produce the same [`decompose::TrussDecomposition`] and
//! sit behind the uniform [`engine::TrussEngine`] registry; the
//! integration test suite checks them against each other on hundreds of
//! graphs. The parallel engine runs on the std-only fork-join pool in
//! [`pool`]. A decomposition is promoted to a persistent, queryable,
//! incrementally-updatable artifact by [`index::TrussIndex`].

#![warn(missing_docs)]

pub mod bottom_up;
pub mod clique;
pub mod communities;
pub mod core_decomposition;
pub mod core_external;
pub mod decompose;
pub mod engine;
pub mod index;
pub mod lower_bound;
pub mod outofcore;
pub mod parallel;
pub mod pool;
pub mod rss;
pub mod spectrum;
mod sweep;
pub mod top_down;
pub mod truss;
pub mod upper_bound;

pub use bottom_up::{
    bottom_up_decompose, bottom_up_decompose_in, minimum_budget, BottomUpConfig, BottomUpReport,
};
pub use clique::{max_clique, MaxCliqueResult};
pub use communities::{truss_communities, truss_hierarchy, TrussCommunity};
pub use core_decomposition::{core_decompose, CoreDecomposition};
pub use core_external::{external_core_decompose, ExternalCoreReport};
pub use decompose::{truss_decompose, truss_decompose_naive, TrussDecomposition};
pub use engine::{
    AlgorithmKind, EngineConfig, EngineInput, EngineRegistry, EngineReport, TrussEngine,
};
pub use index::{TrussIndex, UpdateStats};
pub use outofcore::{
    outofcore_decompose, outofcore_decompose_in, outofcore_minimum_budget, OutOfCoreConfig,
    OutOfCoreReport, ShardPlan,
};
pub use parallel::{parallel_truss_decompose, ParallelEngine};
pub use pool::ThreadPool;
pub use rss::{measure_peak_rss, reset_peak_rss, vm_hwm_bytes, vm_rss_bytes, RssProbe};
pub use spectrum::{truss_spectrum, vertex_trussness, TrussSpectrum};
pub use top_down::{top_down_decompose, top_down_decompose_in, TopDownConfig, TopDownReport};
