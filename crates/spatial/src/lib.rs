//! Spatial substrate for the scalable-DBSCAN reproduction.
//!
//! The paper relies on a Java kd-tree (Bentley 1975) to reduce the cost of
//! every eps-neighborhood query from `O(n)` to roughly `O(log n)`
//! (worst case `O(n^(1-1/d) + k)` for range search). This crate provides:
//!
//! * [`Dataset`] — a dense, cache-friendly `n x d` point matrix with stable
//!   global point indices (`u32`), the unit of work the whole pipeline
//!   shares.
//! * [`BkdTree`] — the **default index**: a leaf-bucketed kd-tree whose
//!   points are permuted into tree order at build, so each leaf scans a
//!   contiguous coordinate block linearly. Queries are iterative over a
//!   reusable [`QueryScratch`] (zero allocation in steady state).
//! * [`KdTree`] — the classic node-per-point kd-tree supporting exact
//!   eps range queries, counted queries, and nearest-neighbour search.
//!   Kept as the A2 ablation arm the bucketed tree is measured against.
//! * [`PruneConfig`] / pruned queries — the paper's "kd-tree with pruning
//!   branches" used for the 1M-point runs: caps the number of reported
//!   neighbours and prunes subtrees aggressively.
//! * [`BruteForceIndex`] — the `O(n^2)` linear-scan baseline.
//! * [`RTree`] — a packed R-tree (the paper's reference \[2\] family) with
//!   whole-subtree reporting, for the index ablation.
//! * [`GridIndex`] — a uniform-grid index used for ablation studies.
//!
//! All indexes implement the [`SpatialIndex`] trait so the clustering code
//! is generic over the index choice.

pub mod aabb;
pub mod bkdtree;
pub mod bruteforce;
pub mod dataset;
pub mod grid;
pub mod index;
pub mod kdtree;
pub mod kernel;
pub mod metric;
pub mod point;
pub mod rtree;

pub use aabb::Aabb;
pub use bkdtree::{
    lpt_makespan_nanos, BkdTree, BuildConfig, BuildReport, BuildShard, QueryScratch,
};
pub use bruteforce::BruteForceIndex;
pub use dataset::Dataset;
pub use grid::GridIndex;
pub use index::SpatialIndex;
pub use kdtree::{KdTree, PruneConfig};
pub use kernel::{
    metric_kernel, scan_block, scan_block_generic, scan_block_soa, transpose_block, KernelConfig,
    KernelCounters, KernelLayout, DEFAULT_LANES, LANE_WIDTHS, SPECIALIZED_DIMS,
};
pub use metric::{chebyshev, euclidean, manhattan, squared_euclidean, Metric};
pub use point::PointId;
pub use rtree::RTree;
