//! Triangle counting and listing.
//!
//! Truss decomposition begins by computing the *support* of every edge — the
//! number of triangles containing it (Definition 1). This crate provides:
//!
//! * [`list::ForwardAdjacency`] — the flat, CSR-shaped oriented adjacency
//!   (struct-of-arrays `offsets`/`ranks`/`verts`/`edge_ids`, built in two
//!   O(m) counting passes with no per-vertex allocations) that every
//!   in-memory triangle path shares, plus the hybrid merge/galloping
//!   intersection kernel ([`list::intersect_hybrid`]),
//! * [`count::edge_supports`] — in-memory support computation over the
//!   compact-forward orientation, `O(m^1.5)` (Schank \[27\], Latapy \[20\]),
//! * [`list::for_each_triangle`] — in-memory triangle listing with a
//!   callback,
//! * [`external::external_edge_supports`] — the I/O-efficient, partition
//!   based support computation of Chu & Cheng \[13, 14\] used by stage 1 of
//!   both external algorithms,
//! * [`par::edge_supports_fwd_par`] — the thread-count-aware support
//!   initialization of the shared-memory parallel engine, over a
//!   caller-prebuilt [`list::ForwardAdjacency`].

pub mod count;
pub mod external;
pub mod list;
pub mod par;

pub use count::{edge_supports, triangle_count};
pub use external::external_edge_supports;
pub use list::{for_each_triangle, intersect_hybrid, intersect_merge, ForwardAdjacency, FwdList};
pub use par::edge_supports_fwd_par;
