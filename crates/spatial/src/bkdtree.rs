//! Bucketed kd-tree — the cache-conscious successor to [`crate::KdTree`].
//!
//! The node-per-point kd-tree pays one pointer chase *and* one random
//! dataset row fetch per visited node. This structure removes both costs:
//!
//! * **Leaf buckets**: recursion stops at `bucket_size` points (default
//!   16). A leaf owns a *contiguous block* of the tree's own coordinate
//!   array, scanned linearly with [`crate::squared_euclidean`] — the
//!   branch-free kernel the compiler auto-vectorizes.
//! * **Implicit layout**: points are permuted into tree order at build
//!   time (`ids[pos] = original id`), so the whole traversal touches
//!   memory front-to-back. Internal nodes store only `(axis, split,
//!   right-child index)` in a flat `Vec`; the left child is the next
//!   node (`self + 1`), so descent never fetches dataset rows.
//! * **Zero-allocation queries**: traversal is iterative over a
//!   caller-provided reusable [`QueryScratch`]; the steady state neither
//!   allocates nor recurses.
//! * **Split policy**: widest-spread axis with a median split
//!   (`select_nth_unstable`), which prunes better than the classic
//!   depth-cycling axis on skewed data and keeps the tree count-balanced
//!   regardless of coordinate distribution (duplicates included).
//! * **Parallel build**: sibling subtrees above [`PAR_CUTOFF`] points
//!   are built on scoped threads and spliced.
//!
//! Query results are mapped back through the permutation, so callers see
//! original [`PointId`]s — the index is a drop-in [`SpatialIndex`].
//! [`PruneConfig`] keeps the node-per-point semantics: pruned results
//! are always a subset of the exact result.

use crate::dataset::Dataset;
use crate::index::SpatialIndex;
use crate::kdtree::PruneConfig;
use crate::kernel::{KernelConfig, KernelCounters, KernelLayout};
use crate::metric::Metric;
use crate::point::PointId;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Leaf capacity used by [`BkdTree::build`].
pub const DEFAULT_BUCKET_SIZE: usize = 16;

/// Subtrees at least this large are built on their own scoped thread.
pub const PAR_CUTOFF: usize = 8 * 1024;

/// How the bulk build is run. The resulting tree is **structurally
/// identical** for every setting: median selection processes the same
/// sub-slices in the same way no matter which thread handles them, so
/// only wall-clock time changes. That invariant is what lets the driver
/// scale the build without perturbing a single downstream byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Worker threads the recursion may fan out to. `0` means "auto"
    /// (the host's available parallelism); `1` disables forking.
    pub threads: usize,
    /// Leaf capacity (see [`DEFAULT_BUCKET_SIZE`]).
    pub bucket_size: usize,
    /// Subtrees smaller than this build sequentially; this is also the
    /// shard boundary of [`BuildReport`], so the shard decomposition
    /// depends only on the data, never on `threads`.
    pub par_cutoff: usize,
    /// Query-kernel configuration the built tree will scan leaves with
    /// (data layout, lane width). Like `threads`,
    /// every value yields byte-identical query results; under
    /// [`KernelLayout::Lanes`] the build additionally materializes the
    /// dimension-major leaf blocks.
    pub kernel: KernelConfig,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            threads: 0,
            bucket_size: DEFAULT_BUCKET_SIZE,
            par_cutoff: PAR_CUTOFF,
            kernel: KernelConfig::default(),
        }
    }
}

impl BuildConfig {
    /// Default configuration with the thread count taken from the
    /// `DBSCAN_BUILD_THREADS` environment variable when set (the CI
    /// thread matrix runs the whole suite under 1 and 8) and the kernel
    /// knobs from [`KernelConfig::from_env`].
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(t) =
            std::env::var("DBSCAN_BUILD_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok())
        {
            cfg.threads = t;
        }
        cfg.kernel = KernelConfig::from_env();
        cfg
    }

    /// Set the worker thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the leaf capacity.
    pub fn with_bucket_size(mut self, bucket_size: usize) -> Self {
        self.bucket_size = bucket_size;
        self
    }

    /// Set the sequential cutoff / shard boundary.
    pub fn with_par_cutoff(mut self, par_cutoff: usize) -> Self {
        self.par_cutoff = par_cutoff;
        self
    }

    /// Set the query-kernel configuration.
    pub fn with_kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// The resolved worker count (`threads`, or the host parallelism
    /// when `threads == 0`).
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            t => t,
        }
    }

    /// Fork-depth budget: the recursion forks while `depth < budget`,
    /// giving at most `2^budget >= threads` concurrent builders.
    fn fork_budget(&self) -> usize {
        let t = self.effective_threads().max(1);
        (usize::BITS - (t - 1).leading_zeros()) as usize
    }
}

/// One sequentially-built subtree of the bulk build — the unit of work
/// the fork-join recursion dispatches. The decomposition is a pure
/// function of the data and [`BuildConfig::par_cutoff`]: a shard is a
/// maximal subtree with fewer than `par_cutoff` points (or the whole
/// tree when it is already that small).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildShard {
    /// First tree-order position of the shard's point range.
    pub offset: usize,
    /// Points in the shard.
    pub len: usize,
    /// Measured wall time of the shard's sequential build.
    pub nanos: u64,
}

/// Instrumentation of one bulk build: the thread-count-independent
/// shard decomposition plus measured per-phase times, enough to model
/// the fork-join makespan at any worker count from a 1-thread run.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Worker threads the build actually used.
    pub threads: usize,
    /// Sequentially-built shards, in tree order (left to right).
    pub shards: Vec<BuildShard>,
    /// Split work (axis selection + median partition) of internal nodes
    /// above the cutoff, summed per recursion depth; depth `d` has at
    /// most `2^d` such nodes running concurrently.
    pub internal_nanos_by_depth: Vec<u64>,
    /// Tree-order coordinate materialization (embarrassingly parallel).
    pub coords_nanos: u64,
    /// Dimension-major (SoA) leaf-block materialization — `0` under
    /// [`KernelLayout::Scalar`]. Measured separately from
    /// `coords_nanos` and excluded from
    /// [`BuildReport::modeled_makespan_nanos`], which models the
    /// layout-independent part of the build.
    pub soa_nanos: u64,
    /// Whole build.
    pub total_nanos: u64,
}

impl BuildReport {
    /// Total measured shard time.
    pub fn shard_total_nanos(&self) -> u64 {
        self.shards.iter().map(|s| s.nanos).sum()
    }

    /// Total measured internal (above-cutoff split) time.
    pub fn internal_total_nanos(&self) -> u64 {
        self.internal_nanos_by_depth.iter().sum()
    }

    /// Critical-path makespan of this build on `k` workers, modeled
    /// from per-phase measurements: internal levels run at the lesser
    /// of their fan-out and `k`, shards are LPT-scheduled onto `k`
    /// workers, and the coordinate gather divides evenly. With `k = 1`
    /// this reproduces the measured total; the level-barrier assumption
    /// makes larger `k` conservative (real fork-join overlaps levels).
    pub fn modeled_makespan_nanos(&self, k: usize) -> u64 {
        let k = k.max(1);
        let internal: u64 = self
            .internal_nanos_by_depth
            .iter()
            .enumerate()
            .map(|(d, &ns)| ns / (1u64 << d.min(62)).min(k as u64))
            .sum();
        internal
            + lpt_makespan_nanos(self.shards.iter().map(|s| s.nanos), k)
            + self.coords_nanos / k as u64
    }
}

/// Longest-processing-time-first schedule length of `durs` on `k`
/// workers (the same model the engine's stage metrics use).
pub fn lpt_makespan_nanos(durs: impl Iterator<Item = u64>, k: usize) -> u64 {
    let mut durs: Vec<u64> = durs.collect();
    durs.sort_unstable_by(|a, b| b.cmp(a));
    let mut loads = vec![0u64; k.max(1)];
    for d in durs {
        let min = loads.iter_mut().min().expect("at least one worker");
        *min += d;
    }
    loads.into_iter().max().unwrap_or(0)
}

const LEAF: u32 = u32::MAX;

/// One flat tree node. Internal nodes keep the split inline so descent
/// is pure `Vec` indexing; leaves address a contiguous coordinate block.
#[derive(Debug, Clone, Copy)]
struct BNode {
    /// `LEAF` for leaves, otherwise the split axis.
    axis: u32,
    /// Internal: flat index of the right child (the left child is always
    /// `self + 1`). Leaf: start of the point range in tree order.
    a: u32,
    /// Internal: unused. Leaf: end (exclusive) of the point range.
    b: u32,
    /// Internal: split coordinate. Leaf: unused.
    split: f64,
}

impl BNode {
    #[inline]
    fn is_leaf(self) -> bool {
        self.axis == LEAF
    }
}

/// Reusable per-task traversal state. One instance per worker thread (or
/// per call site) makes the steady-state query path allocation-free: the
/// stacks grow to the tree depth once and are reused afterwards.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// DFS stack of node indices (range traversal).
    stack: Vec<u32>,
    /// DFS stack of (reduced-space lower bound, node) for nearest search.
    bounded: Vec<(f64, u32)>,
    /// Kernel instrumentation accumulated by every scratch-taking query
    /// on this tree; the caller owns the reset/read cycle.
    pub counters: KernelCounters,
}

impl QueryScratch {
    /// Fresh scratch; buffers are grown lazily by the first queries.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current capacity of the traversal stack — exposed so tests can
    /// assert the steady state stops allocating.
    pub fn stack_capacity(&self) -> usize {
        self.stack.capacity()
    }
}

thread_local! {
    /// Fallback scratch for the plain [`SpatialIndex`] entry points,
    /// which have no scratch parameter. Per-thread, so the trait methods
    /// are also allocation-free after warm-up.
    static TLS_SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

/// A leaf-bucketed kd-tree over a shared [`Dataset`], with points stored
/// in tree order for linear leaf scans.
#[derive(Debug, Clone)]
pub struct BkdTree {
    dataset: Arc<Dataset>,
    /// Flat nodes; the root is node 0 (empty for an empty dataset).
    nodes: Vec<BNode>,
    /// Tree-order copy of the coordinates (row-major, `dim` per point).
    coords: Vec<f64>,
    /// Dimension-major (SoA) copy of each leaf's coordinate block: leaf
    /// `[start, end)` owns `soa[start * d..end * d]`, transposed so
    /// coordinate `k` of the leaf's point `i` sits at
    /// `start * d + k * (end - start) + i`. Empty under
    /// [`KernelLayout::Scalar`].
    soa: Vec<f64>,
    /// `ids[pos]` = original dataset index of tree-order position `pos`.
    ids: Vec<u32>,
    metric: Metric,
    bucket_size: usize,
    /// Leaf-scan kernel configuration the tree was built for.
    kernel: KernelConfig,
}

impl BkdTree {
    /// Build over every point with the Euclidean metric and the default
    /// bucket size.
    pub fn build(dataset: Arc<Dataset>) -> Self {
        Self::build_with(dataset, Metric::Euclidean, DEFAULT_BUCKET_SIZE)
    }

    /// Build with an explicit metric.
    pub fn build_with_metric(dataset: Arc<Dataset>, metric: Metric) -> Self {
        Self::build_with(dataset, metric, DEFAULT_BUCKET_SIZE)
    }

    /// Build with full control over metric and leaf capacity.
    pub fn build_with(dataset: Arc<Dataset>, metric: Metric, bucket_size: usize) -> Self {
        let cfg = BuildConfig::default().with_bucket_size(bucket_size);
        Self::build_with_config(dataset, metric, cfg)
    }

    /// Build under an explicit [`BuildConfig`].
    pub fn build_with_config(dataset: Arc<Dataset>, metric: Metric, cfg: BuildConfig) -> Self {
        Self::build_with_report(dataset, metric, cfg).0
    }

    /// Build under an explicit [`BuildConfig`] and return the
    /// [`BuildReport`] instrumentation alongside the tree.
    pub fn build_with_report(
        dataset: Arc<Dataset>,
        metric: Metric,
        cfg: BuildConfig,
    ) -> (Self, BuildReport) {
        let total = Instant::now();
        let bucket_size = cfg.bucket_size.max(1);
        let cutoff = cfg.par_cutoff.max(1);
        let threads = cfg.effective_threads().max(1);
        let n = dataset.len();
        let d = dataset.dim();
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let (nodes, mut report) = if n == 0 {
            (Vec::new(), BuildReport::default())
        } else {
            build_rec(&dataset, &mut ids, 0, 0, bucket_size, cutoff, cfg.fork_budget())
        };
        report.threads = threads;
        // materialize the permuted coordinate blocks the leaves scan;
        // each worker gathers a disjoint contiguous chunk
        let t = Instant::now();
        let mut coords = vec![0.0f64; n * d];
        if n > 0 && d > 0 {
            let chunk = n.div_ceil(threads);
            if threads <= 1 {
                gather_coords(&dataset, &ids, &mut coords, d);
            } else {
                std::thread::scope(|s| {
                    for (cc, ic) in coords.chunks_mut(chunk * d).zip(ids.chunks(chunk)) {
                        s.spawn(|| gather_coords(&dataset, ic, cc, d));
                    }
                });
            }
        }
        report.coords_nanos = t.elapsed().as_nanos() as u64;
        // materialize the dimension-major leaf blocks the lane-blocked
        // kernels scan; per-leaf transposes over disjoint ranges, so the
        // leaf list chunks across the same workers
        let t = Instant::now();
        let soa = if cfg.kernel.layout == KernelLayout::Lanes && n > 0 && d > 0 {
            build_soa(&nodes, &coords, d, threads)
        } else {
            Vec::new()
        };
        report.soa_nanos = t.elapsed().as_nanos() as u64;
        report.total_nanos = total.elapsed().as_nanos() as u64;
        (
            BkdTree { dataset, nodes, coords, soa, ids, metric, bucket_size, kernel: cfg.kernel },
            report,
        )
    }

    /// Whether two trees are structurally identical: same flat node
    /// array (splits compared bitwise), same tree-order permutation,
    /// same permuted coordinates. The parallel build must satisfy this
    /// against the sequential build for every thread count. The kernel
    /// configuration (and the SoA mirror it may add) is deliberately
    /// excluded: it is derived data, a pure per-leaf transpose of
    /// `coords`.
    pub fn same_structure(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.coords.len() == other.coords.len()
            && self.coords.iter().zip(&other.coords).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.nodes.len() == other.nodes.len()
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                a.axis == b.axis
                    && a.a == b.a
                    && a.b == b.b
                    && a.split.to_bits() == b.split.to_bits()
            })
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The metric in use.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Leaf capacity this tree was built with.
    pub fn bucket_size(&self) -> usize {
        self.bucket_size
    }

    /// The kernel configuration this tree was built for.
    pub fn kernel_config(&self) -> KernelConfig {
        self.kernel
    }

    /// The `[start, end)` tree-order point range of every leaf, in flat
    /// node order (which tiles `[0, len)` ascending). Exposed for the
    /// perf suite's leaf-scan microbenchmarks and the layout property
    /// tests.
    pub fn leaf_ranges(&self) -> Vec<(usize, usize)> {
        self.nodes.iter().filter(|n| n.is_leaf()).map(|n| (n.a as usize, n.b as usize)).collect()
    }

    /// Row-major coordinate block of leaf `[start, end)`.
    pub fn leaf_coords(&self, start: usize, end: usize) -> &[f64] {
        let d = self.dataset.dim().max(1);
        &self.coords[start * d..end * d]
    }

    /// Dimension-major (SoA) coordinate block of leaf `[start, end)`;
    /// `None` under [`KernelLayout::Scalar`], which keeps no SoA mirror.
    pub fn leaf_soa(&self, start: usize, end: usize) -> Option<&[f64]> {
        if self.soa.is_empty() {
            return None;
        }
        let d = self.dataset.dim().max(1);
        Some(&self.soa[start * d..end * d])
    }

    /// The build permutation: `tree_order()[pos]` is the original id of
    /// the point stored at tree-order position `pos`.
    pub fn tree_order(&self) -> &[u32] {
        &self.ids
    }

    /// Maximum node depth (root = 1); 0 for an empty tree. Iterative —
    /// safe for any tree shape.
    pub fn depth(&self) -> usize {
        if self.nodes.is_empty() {
            return 0;
        }
        let mut deepest = 0usize;
        let mut stack: Vec<(u32, usize)> = vec![(0, 1)];
        while let Some((at, d)) = stack.pop() {
            deepest = deepest.max(d);
            let node = self.nodes[at as usize];
            if !node.is_leaf() {
                stack.push((at + 1, d + 1));
                stack.push((node.a, d + 1));
            }
        }
        deepest
    }

    /// Logical size in bytes of the serialized tree (what broadcasting
    /// it would ship in a real cluster): nodes + permuted coordinates +
    /// the id permutation.
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<BNode>()
            + self.coords.len() * std::mem::size_of::<f64>()
            + self.soa.len() * std::mem::size_of::<f64>()
            + self.ids.len() * std::mem::size_of::<u32>()
            + std::mem::size_of::<Self>()
    }

    /// Bytes a broadcast of this tree logically ships. Unlike
    /// [`BkdTree::size_bytes`] this excludes the SoA leaf mirror: the
    /// mirror is a local transposition of `coords`, rebuildable on the
    /// receiving side, so the shipped payload — and with it the trace —
    /// is identical across kernel layouts.
    pub fn shipped_bytes(&self) -> usize {
        self.size_bytes() - self.soa.len() * std::mem::size_of::<f64>()
    }

    /// Scan leaf `[start, end)` against `query`, dispatching on the
    /// tree's configured leaf layout. Both arms report matches in the
    /// same row order with bit-identical distances.
    #[inline]
    fn scan_leaf<F: FnMut(usize) -> bool>(
        &self,
        start: usize,
        end: usize,
        d: usize,
        query: &[f64],
        thr: f64,
        on_match: F,
    ) -> bool {
        match self.kernel.layout {
            KernelLayout::Scalar => crate::kernel::scan_block(
                self.metric,
                d,
                query,
                &self.coords[start * d..end * d],
                thr,
                on_match,
            ),
            KernelLayout::Lanes => crate::kernel::scan_block_soa(
                self.metric,
                d,
                query,
                &self.soa[start * d..end * d],
                end - start,
                thr,
                self.kernel.lanes,
                on_match,
            ),
        }
    }

    /// Exact eps-range query through caller-provided scratch. `out` is
    /// appended to, not cleared (buffer-reuse contract of
    /// [`SpatialIndex::range_into`]).
    pub fn range_into_scratch(
        &self,
        query: &[f64],
        eps: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<PointId>,
    ) {
        self.range_pruned_scratch(query, eps, PruneConfig::EXACT, scratch, out);
    }

    /// Pruned ("pruning branches") range query through caller-provided
    /// scratch; the result is a subset of the exact result. Returns the
    /// number of tree nodes visited.
    pub fn range_pruned_scratch(
        &self,
        query: &[f64],
        eps: f64,
        cfg: PruneConfig,
        scratch: &mut QueryScratch,
        out: &mut Vec<PointId>,
    ) -> usize {
        debug_assert_eq!(query.len(), self.dataset.dim());
        if self.nodes.is_empty() {
            return 0;
        }
        let d = self.dataset.dim().max(1);
        let thr = self.metric.threshold(eps);
        let metric = self.metric;
        let mut visited = 0usize;
        let mut reported = 0usize;
        let QueryScratch { stack, counters, .. } = scratch;
        stack.clear();
        stack.push(0);
        'walk: while let Some(at) = stack.pop() {
            if let Some(maxv) = cfg.max_visited {
                if visited >= maxv {
                    counters.early_exits += 1;
                    break;
                }
            }
            visited += 1;
            let node = self.nodes[at as usize];
            if node.is_leaf() {
                let (start, end) = (node.a as usize, node.b as usize);
                counters.blocks_scanned += 1;
                counters.rows_scanned += (end - start) as u64;
                let finished = self.scan_leaf(start, end, d, query, thr, |i| {
                    out.push(PointId(self.ids[start + i]));
                    reported += 1;
                    cfg.max_neighbors.is_none_or(|maxn| reported < maxn)
                });
                if !finished {
                    counters.early_exits += 1;
                    break 'walk;
                }
            } else {
                let delta = query[node.axis as usize] - node.split;
                let (near, far) = if delta <= 0.0 { (at + 1, node.a) } else { (node.a, at + 1) };
                // push far first so the near side is explored first —
                // matters once budgets cut the walk short
                if metric.axis_bound(delta) <= thr {
                    stack.push(far);
                }
                stack.push(near);
            }
        }
        counters.range_hits += reported as u64;
        visited
    }

    /// [`crate::KdTree::range_pruned`]-compatible entry point using the
    /// per-thread fallback scratch.
    pub fn range_pruned(
        &self,
        query: &[f64],
        eps: f64,
        cfg: PruneConfig,
        out: &mut Vec<PointId>,
    ) -> usize {
        TLS_SCRATCH.with(|s| self.range_pruned_scratch(query, eps, cfg, &mut s.borrow_mut(), out))
    }

    /// Nearest neighbour of `query` (ties broken arbitrarily); `None`
    /// for an empty tree. Returns `(id, distance)`. Iterative, through
    /// caller-provided scratch.
    pub fn nearest_scratch(
        &self,
        query: &[f64],
        scratch: &mut QueryScratch,
    ) -> Option<(PointId, f64)> {
        if self.nodes.is_empty() {
            return None;
        }
        let d = self.dataset.dim().max(1);
        let metric = self.metric;
        let mut best = (PointId(0), f64::INFINITY);
        let stack = &mut scratch.bounded;
        stack.clear();
        stack.push((0.0, 0));
        while let Some((bound, at)) = stack.pop() {
            if bound > best.1 {
                continue; // the whole subtree is provably farther
            }
            let node = self.nodes[at as usize];
            if node.is_leaf() {
                let (start, end) = (node.a as usize, node.b as usize);
                let block = &self.coords[start * d..end * d];
                for (i, row) in block.chunks_exact(d).enumerate() {
                    let dist = metric.reduced_distance(query, row);
                    if dist < best.1 {
                        best = (PointId(self.ids[start + i]), dist);
                    }
                }
            } else {
                let delta = query[node.axis as usize] - node.split;
                let (near, far) = if delta <= 0.0 { (at + 1, node.a) } else { (node.a, at + 1) };
                stack.push((metric.axis_bound(delta), far));
                stack.push((bound, near));
            }
        }
        best.1 = match self.metric {
            Metric::Euclidean => best.1.sqrt(),
            _ => best.1,
        };
        Some(best)
    }

    /// Nearest neighbour using the per-thread fallback scratch.
    pub fn nearest(&self, query: &[f64]) -> Option<(PointId, f64)> {
        TLS_SCRATCH.with(|s| self.nearest_scratch(query, &mut s.borrow_mut()))
    }
}

impl SpatialIndex for BkdTree {
    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn range_into(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        TLS_SCRATCH.with(|s| self.range_into_scratch(query, eps, &mut s.borrow_mut(), out));
    }

    fn count_within(&self, query: &[f64], eps: f64) -> usize {
        // counting traversal: no neighbour list materialized
        debug_assert_eq!(query.len(), self.dataset.dim());
        if self.nodes.is_empty() {
            return 0;
        }
        let d = self.dataset.dim().max(1);
        let thr = self.metric.threshold(eps);
        let metric = self.metric;
        let mut count = 0usize;
        TLS_SCRATCH.with(|s| {
            let stack = &mut s.borrow_mut().stack;
            stack.clear();
            stack.push(0);
            while let Some(at) = stack.pop() {
                let node = self.nodes[at as usize];
                if node.is_leaf() {
                    let (start, end) = (node.a as usize, node.b as usize);
                    self.scan_leaf(start, end, d, query, thr, |_| {
                        count += 1;
                        true
                    });
                } else {
                    let delta = query[node.axis as usize] - node.split;
                    let (near, far) =
                        if delta <= 0.0 { (at + 1, node.a) } else { (node.a, at + 1) };
                    if metric.axis_bound(delta) <= thr {
                        stack.push(far);
                    }
                    stack.push(near);
                }
            }
        });
        count
    }

    fn name(&self) -> &'static str {
        "bucketed kd-tree"
    }
}

/// Gather the tree-order coordinate rows for one contiguous id chunk.
fn gather_coords(ds: &Dataset, ids: &[u32], out: &mut [f64], d: usize) {
    for (slot, &id) in out.chunks_exact_mut(d).zip(ids) {
        slot.copy_from_slice(ds.row(id as usize));
    }
}

/// Materialize the dimension-major mirror of every leaf's coordinate
/// block. Leaf ranges tile `[0, n)` contiguously in flat node order, so
/// the leaf list chunks across workers and each worker transposes a
/// disjoint `soa` slice.
fn build_soa(nodes: &[BNode], coords: &[f64], d: usize, threads: usize) -> Vec<f64> {
    let mut soa = vec![0.0f64; coords.len()];
    let leaves: Vec<(usize, usize)> =
        nodes.iter().filter(|n| n.is_leaf()).map(|n| (n.a as usize, n.b as usize)).collect();
    if threads <= 1 || leaves.len() < 2 {
        transpose_leaves(&leaves, coords, d, &mut soa, 0);
    } else {
        let per = leaves.len().div_ceil(threads);
        std::thread::scope(|s| {
            let mut rest: &mut [f64] = &mut soa;
            let mut consumed = 0usize;
            for chunk in leaves.chunks(per) {
                let start = chunk.first().expect("non-empty chunk").0;
                let end = chunk.last().expect("non-empty chunk").1;
                debug_assert_eq!(start, consumed, "leaves must tile [0, n) in node order");
                let (mine, tail) = rest.split_at_mut((end - start) * d);
                rest = tail;
                consumed = end;
                s.spawn(move || transpose_leaves(chunk, coords, d, mine, start));
            }
        });
    }
    soa
}

/// Transpose a run of leaves into an `out` slice that starts at
/// tree-order position `base`.
fn transpose_leaves(
    leaves: &[(usize, usize)],
    coords: &[f64],
    d: usize,
    out: &mut [f64],
    base: usize,
) {
    for &(start, end) in leaves {
        crate::kernel::transpose_block(
            &coords[start * d..end * d],
            d,
            &mut out[(start - base) * d..(end - base) * d],
        );
    }
}

/// Build the subtree over `ids` (a sub-slice of the global permutation,
/// starting at tree-order position `off`). Returns nodes with indices
/// relative to the returned vec (leaf point ranges are absolute) plus
/// the shard/internal instrumentation of this subtree.
///
/// Subtrees below `cutoff` are **shards**: built sequentially in one
/// timed unit. Nodes at or above `cutoff` are **internal**: their split
/// work is timed per recursion depth, and the recursion forks onto a
/// scoped thread while `par > 0`. The node layout is identical either
/// way — `select_nth_unstable_by` is deterministic for a given input
/// slice, and both children see the exact slices the sequential
/// recursion would, so the thread count can never change the tree.
fn build_rec(
    ds: &Dataset,
    ids: &mut [u32],
    off: usize,
    depth: usize,
    bucket: usize,
    cutoff: usize,
    par: usize,
) -> (Vec<BNode>, BuildReport) {
    let len = ids.len();
    if len < cutoff || len <= bucket {
        let t = Instant::now();
        let nodes = build_seq(ds, ids, off, bucket);
        let shard = BuildShard { offset: off, len, nanos: t.elapsed().as_nanos() as u64 };
        return (nodes, BuildReport { shards: vec![shard], ..BuildReport::default() });
    }
    let t = Instant::now();
    let axis = widest_axis(ds, ids);
    let mid = len / 2;
    ids.select_nth_unstable_by(mid, |&p, &q| {
        let vp = ds.row(p as usize)[axis];
        let vq = ds.row(q as usize)[axis];
        vp.partial_cmp(&vq).unwrap_or(std::cmp::Ordering::Equal)
    });
    let split = ds.row(ids[mid] as usize)[axis];
    let split_nanos = t.elapsed().as_nanos() as u64;
    // left gets [0, mid) with values <= split, right gets [mid, len)
    // with values >= split; both strictly shrink, so the build
    // terminates even when every coordinate is identical
    let (lo, hi) = ids.split_at_mut(mid);
    let ((left, lrep), (mut right, rrep)) = if par > 0 {
        std::thread::scope(|s| {
            let lh = s.spawn(|| build_rec(ds, lo, off, depth + 1, bucket, cutoff, par - 1));
            let r = build_rec(ds, hi, off + mid, depth + 1, bucket, cutoff, par - 1);
            (lh.join().expect("subtree builder"), r)
        })
    } else {
        (
            build_rec(ds, lo, off, depth + 1, bucket, cutoff, par),
            build_rec(ds, hi, off + mid, depth + 1, bucket, cutoff, par),
        )
    };
    let report = merge_reports(depth, split_nanos, lrep, rrep);

    let mut nodes = Vec::with_capacity(1 + left.len() + right.len());
    let right_at = 1 + left.len() as u32;
    nodes.push(BNode { axis: axis as u32, a: right_at, b: 0, split });
    // splice the children, shifting their internal child links (leaf
    // ranges are already absolute)
    nodes.extend(left.into_iter().map(|mut n| {
        if !n.is_leaf() {
            n.a += 1;
        }
        n
    }));
    for n in &mut right {
        if !n.is_leaf() {
            n.a += right_at;
        }
    }
    nodes.extend(right);
    (nodes, report)
}

/// Combine child reports under an internal node: shards stay in tree
/// order (left before right), per-depth internal times add up.
fn merge_reports(
    depth: usize,
    split_nanos: u64,
    mut l: BuildReport,
    r: BuildReport,
) -> BuildReport {
    if l.internal_nanos_by_depth.len() < r.internal_nanos_by_depth.len() {
        l.internal_nanos_by_depth.resize(r.internal_nanos_by_depth.len(), 0);
    }
    for (a, b) in l.internal_nanos_by_depth.iter_mut().zip(&r.internal_nanos_by_depth) {
        *a += b;
    }
    if l.internal_nanos_by_depth.len() <= depth {
        l.internal_nanos_by_depth.resize(depth + 1, 0);
    }
    l.internal_nanos_by_depth[depth] += split_nanos;
    l.shards.extend(r.shards);
    l
}

/// The plain sequential recursion (subtrees below the cutoff).
fn build_seq(ds: &Dataset, ids: &mut [u32], off: usize, bucket: usize) -> Vec<BNode> {
    let len = ids.len();
    if len <= bucket {
        return vec![BNode { axis: LEAF, a: off as u32, b: (off + len) as u32, split: 0.0 }];
    }
    let axis = widest_axis(ds, ids);
    let mid = len / 2;
    ids.select_nth_unstable_by(mid, |&p, &q| {
        let vp = ds.row(p as usize)[axis];
        let vq = ds.row(q as usize)[axis];
        vp.partial_cmp(&vq).unwrap_or(std::cmp::Ordering::Equal)
    });
    let split = ds.row(ids[mid] as usize)[axis];
    let (lo, hi) = ids.split_at_mut(mid);
    let left = build_seq(ds, lo, off, bucket);
    let mut right = build_seq(ds, hi, off + mid, bucket);

    let mut nodes = Vec::with_capacity(1 + left.len() + right.len());
    let right_at = 1 + left.len() as u32;
    nodes.push(BNode { axis: axis as u32, a: right_at, b: 0, split });
    nodes.extend(left.into_iter().map(|mut n| {
        if !n.is_leaf() {
            n.a += 1;
        }
        n
    }));
    for n in &mut right {
        if !n.is_leaf() {
            n.a += right_at;
        }
    }
    nodes.extend(right);
    nodes
}

/// Axis with the widest coordinate spread over `ids`.
fn widest_axis(ds: &Dataset, ids: &[u32]) -> usize {
    let d = ds.dim();
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for &id in ids {
        for (axis, &v) in ds.row(id as usize).iter().enumerate() {
            lo[axis] = lo[axis].min(v);
            hi[axis] = hi[axis].max(v);
        }
    }
    let mut best = 0;
    let mut best_spread = f64::NEG_INFINITY;
    for axis in 0..d {
        let spread = hi[axis] - lo[axis];
        if spread > best_spread {
            best_spread = spread;
            best = axis;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::BruteForceIndex;

    fn grid_dataset() -> Arc<Dataset> {
        let rows = (0..5).flat_map(|x| (0..5).map(move |y| vec![x as f64, y as f64])).collect();
        Arc::new(Dataset::from_rows(rows))
    }

    fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries_safely() {
        let t = BkdTree::build(Arc::new(Dataset::empty(2)));
        let mut s = QueryScratch::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.range(&[0.0, 0.0], 1.0).is_empty());
        assert!(t.nearest_scratch(&[0.0, 0.0], &mut s).is_none());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn single_point() {
        let t = BkdTree::build(Arc::new(Dataset::from_rows(vec![vec![1.0, 1.0]])));
        assert_eq!(t.range(&[1.0, 1.0], 0.0), vec![PointId(0)]);
        assert!(t.range(&[2.0, 1.0], 0.5).is_empty());
        assert_eq!(t.nearest(&[5.0, 5.0]).unwrap().0, PointId(0));
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn matches_brute_force_on_grid_all_bucket_sizes() {
        let ds = grid_dataset();
        let bf = BruteForceIndex::new(ds.clone());
        for bucket in [1, 2, 4, 8, 32] {
            let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, bucket);
            for eps in [0.0, 0.5, 1.0, 1.5, 2.5, 10.0] {
                for (id, _) in ds.iter() {
                    let q = ds.point(id).to_vec();
                    assert_eq!(
                        sorted(t.range(&q, eps)),
                        sorted(bf.range(&q, eps)),
                        "bucket={bucket} eps={eps} q={q:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn permutation_is_consistent() {
        let ds = grid_dataset();
        let t = BkdTree::build(ds.clone());
        // tree_order is a permutation of 0..n
        let mut perm = t.tree_order().to_vec();
        perm.sort_unstable();
        assert_eq!(perm, (0..ds.len() as u32).collect::<Vec<_>>());
        // the permuted coordinate blocks match the original rows
        let d = ds.dim();
        for (pos, &id) in t.tree_order().iter().enumerate() {
            assert_eq!(&t.coords[pos * d..(pos + 1) * d], ds.row(id as usize));
        }
    }

    #[test]
    fn duplicate_points_all_reported() {
        let ds = Arc::new(Dataset::from_rows(vec![vec![3.0]; 70]));
        let t = BkdTree::build_with(ds, Metric::Euclidean, 4);
        assert_eq!(t.range(&[3.0], 0.0).len(), 70);
    }

    #[test]
    fn depth_is_logarithmic() {
        let rows = (0..4096).map(|i| vec![i as f64]).collect();
        let t = BkdTree::build(Arc::new(Dataset::from_rows(rows)));
        // 4096 points / 16-point buckets = 256 leaves -> depth 9
        assert!(t.depth() <= 10, "depth {} too large", t.depth());
    }

    #[test]
    fn pruned_is_subset_of_exact() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, 4);
        let exact = sorted(t.range(&[2.0, 2.0], 2.0));
        let mut s = QueryScratch::new();
        let mut pruned = Vec::new();
        t.range_pruned_scratch(
            &[2.0, 2.0],
            2.0,
            PruneConfig::cap_neighbors(3),
            &mut s,
            &mut pruned,
        );
        assert_eq!(pruned.len(), 3);
        for p in &pruned {
            assert!(exact.contains(p));
        }
    }

    #[test]
    fn visit_budget_limits_traversal() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds, Metric::Euclidean, 2);
        let mut s = QueryScratch::new();
        let mut out = Vec::new();
        let cfg = PruneConfig { max_neighbors: None, max_visited: Some(3) };
        let visited = t.range_pruned_scratch(&[2.0, 2.0], 100.0, cfg, &mut s, &mut out);
        assert!(visited <= 3);
    }

    #[test]
    fn nearest_finds_closest_grid_point() {
        let ds = grid_dataset();
        let t = BkdTree::build(ds.clone());
        let (id, d) = t.nearest(&[3.2, 1.9]).unwrap();
        assert_eq!(ds.point(id), &[3.0, 2.0]);
        assert!((d - (0.2f64 * 0.2 + 0.1 * 0.1).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn nearest_matches_brute_force_scan() {
        let rows: Vec<Vec<f64>> =
            (0..300).map(|i| vec![(i as f64 * 7.3) % 31.0, (i as f64 * 3.7) % 17.0]).collect();
        let ds = Arc::new(Dataset::from_rows(rows));
        let t = BkdTree::build_with(ds.clone(), Metric::Euclidean, 8);
        let mut s = QueryScratch::new();
        for q in [[0.0, 0.0], [15.5, 8.2], [31.0, 17.0], [-3.0, 40.0]] {
            let (_, d) = t.nearest_scratch(&q, &mut s).unwrap();
            let best = (0..ds.len())
                .map(|i| crate::metric::euclidean(&q, ds.row(i)))
                .fold(f64::INFINITY, f64::min);
            assert!((d - best).abs() < 1e-9, "q={q:?}: got {d}, want {best}");
        }
    }

    #[test]
    fn manhattan_tree_matches_brute_force() {
        let ds = grid_dataset();
        let t = BkdTree::build_with(ds.clone(), Metric::Manhattan, 4);
        let bf = BruteForceIndex::with_metric(ds.clone(), Metric::Manhattan);
        for eps in [1.0, 2.0, 3.0] {
            let q = [2.0, 2.0];
            assert_eq!(sorted(t.range(&q, eps)), sorted(bf.range(&q, eps)));
        }
    }

    #[test]
    fn parallel_build_matches_sequential_layout_semantics() {
        // above PAR_CUTOFF the build forks; results must be identical to
        // querying brute force
        let n = PAR_CUTOFF * 2 + 37;
        let rows: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i as f64 * 37.0) % 997.0, (i as f64 * 61.0) % 499.0]).collect();
        let ds = Arc::new(Dataset::from_rows(rows));
        let t = BkdTree::build(ds.clone());
        assert_eq!(t.len(), n);
        let mut perm = t.tree_order().to_vec();
        perm.sort_unstable();
        assert_eq!(perm.len(), n);
        assert!(perm.windows(2).all(|w| w[0] < w[1]), "permutation has duplicates");
        let bf = BruteForceIndex::new(ds.clone());
        let mut s = QueryScratch::new();
        for id in (0..n).step_by(997) {
            let q = ds.row(id).to_vec();
            let mut got = Vec::new();
            t.range_into_scratch(&q, 5.0, &mut s, &mut got);
            assert_eq!(sorted(got), sorted(bf.range(&q, 5.0)), "id={id}");
        }
    }

    #[test]
    fn steady_state_queries_do_not_allocate() {
        let rows: Vec<Vec<f64>> =
            (0..2000).map(|i| vec![(i as f64 * 13.0) % 101.0, (i as f64 * 29.0) % 103.0]).collect();
        let ds = Arc::new(Dataset::from_rows(rows));
        let t = BkdTree::build(ds.clone());
        let mut s = QueryScratch::new();
        let mut out = Vec::new();
        // warm-up: grow scratch and output buffers to their high-water marks
        for id in 0..200 {
            out.clear();
            t.range_into_scratch(ds.row(id), 10.0, &mut s, &mut out);
        }
        let stack_cap = s.stack_capacity();
        let out_cap = out.capacity();
        assert!(stack_cap > 0);
        // steady state: capacities must not move across many more queries
        for id in 0..2000 {
            out.clear();
            t.range_into_scratch(ds.row(id), 10.0, &mut s, &mut out);
        }
        assert_eq!(s.stack_capacity(), stack_cap, "traversal stack reallocated");
        assert_eq!(out.capacity(), out_cap, "output buffer reallocated");
    }

    #[test]
    fn spatial_index_trait_entry_points() {
        let ds = grid_dataset();
        let t = BkdTree::build(ds.clone());
        let idx: &dyn SpatialIndex = &t;
        assert_eq!(idx.name(), "bucketed kd-tree");
        assert_eq!(idx.count_within(&[2.0, 2.0], 1.0), idx.range(&[2.0, 2.0], 1.0).len());
        assert_eq!(idx.dataset().len(), 25);
    }

    #[test]
    fn size_bytes_accounts_for_coords() {
        let t = BkdTree::build(grid_dataset());
        assert!(t.size_bytes() >= 25 * 2 * std::mem::size_of::<f64>());
    }

    fn scatter_dataset(n: usize) -> Arc<Dataset> {
        let rows =
            (0..n).map(|i| vec![(i as f64 * 37.0) % 211.0, (i as f64 * 53.0) % 197.0]).collect();
        Arc::new(Dataset::from_rows(rows))
    }

    #[test]
    fn parallel_build_is_structurally_identical() {
        let ds = scatter_dataset(3000);
        let base = BuildConfig::default().with_bucket_size(8).with_par_cutoff(64);
        let (seq, _) =
            BkdTree::build_with_report(ds.clone(), Metric::Euclidean, base.with_threads(1));
        for threads in [2, 3, 8] {
            let (par, _) = BkdTree::build_with_report(
                ds.clone(),
                Metric::Euclidean,
                base.with_threads(threads),
            );
            assert!(seq.same_structure(&par), "threads={threads}: tree structure diverged");
            assert_eq!(
                sorted(seq.range(&[100.0, 100.0], 30.0)),
                sorted(par.range(&[100.0, 100.0], 30.0)),
            );
        }
    }

    #[test]
    fn build_report_accounts_for_the_whole_tree() {
        let ds = scatter_dataset(2000);
        let cfg = BuildConfig::default().with_bucket_size(8).with_par_cutoff(128).with_threads(1);
        let (t, rep) = BkdTree::build_with_report(ds.clone(), Metric::Euclidean, cfg);
        // shards tile [0, n) exactly, in tree order
        let mut at = 0usize;
        for s in &rep.shards {
            assert_eq!(s.offset, at, "shards must tile the permutation contiguously");
            assert!(s.len < 128, "shard at {} has len {} >= cutoff", s.offset, s.len);
            at += s.len;
        }
        assert_eq!(at, ds.len());
        assert!(rep.shards.len() > 1, "n=2000 cutoff=128 must split into many shards");
        assert!(!rep.internal_nanos_by_depth.is_empty(), "internal depths must be timed");
        // the modeled makespan at k=1 is the full serial critical path,
        // monotonically non-increasing in k
        let m1 = rep.modeled_makespan_nanos(1);
        assert_eq!(m1, rep.internal_total_nanos() + rep.shard_total_nanos() + rep.coords_nanos);
        assert!(rep.modeled_makespan_nanos(8) <= m1);
        assert!(t.len() == ds.len());
    }

    #[test]
    fn build_config_from_env_parses_threads() {
        // no env set in tests: default is auto
        assert_eq!(BuildConfig::default().threads, 0);
        assert!(BuildConfig::default().effective_threads() >= 1);
        assert_eq!(BuildConfig::default().with_threads(1).fork_budget(), 0);
        assert_eq!(BuildConfig::default().with_threads(2).fork_budget(), 1);
        assert_eq!(BuildConfig::default().with_threads(8).fork_budget(), 3);
        assert_eq!(BuildConfig::default().with_threads(5).fork_budget(), 3);
    }

    #[test]
    fn soa_mirror_transposes_every_leaf() {
        let ds = scatter_dataset(1500);
        let d = ds.dim();
        for threads in [1, 4] {
            let cfg = BuildConfig::default().with_bucket_size(8).with_threads(threads);
            let t = BkdTree::build_with_config(ds.clone(), Metric::Euclidean, cfg);
            assert_eq!(t.kernel_config().layout, KernelLayout::Lanes);
            let mut covered = 0usize;
            for (start, end) in t.leaf_ranges() {
                assert_eq!(start, covered, "leaves tile [0, n) in node order");
                covered = end;
                let rows = end - start;
                let block = t.leaf_coords(start, end);
                let soa = t.leaf_soa(start, end).expect("lanes layout keeps an SoA mirror");
                for i in 0..rows {
                    for k in 0..d {
                        assert_eq!(block[i * d + k].to_bits(), soa[k * rows + i].to_bits());
                    }
                }
            }
            assert_eq!(covered, ds.len());
        }
    }

    #[test]
    fn scalar_layout_keeps_no_soa_and_matches_lanes() {
        let ds = scatter_dataset(800);
        let lanes = BkdTree::build(ds.clone());
        let scalar = BkdTree::build_with_config(
            ds.clone(),
            Metric::Euclidean,
            BuildConfig::default().with_kernel(KernelConfig::scalar()),
        );
        assert!(scalar.leaf_soa(0, 1).is_none());
        assert!(lanes.same_structure(&scalar), "layout is derived data, structure identical");
        let mut s = QueryScratch::new();
        for id in (0..ds.len()).step_by(37) {
            let q = ds.row(id);
            for eps in [0.0, 5.0, 40.0] {
                let mut a = Vec::new();
                let mut b = Vec::new();
                lanes.range_into_scratch(q, eps, &mut s, &mut a);
                scalar.range_into_scratch(q, eps, &mut s, &mut b);
                // order and contents must match exactly, not just as sets
                assert_eq!(a, b, "id={id} eps={eps}");
            }
        }
    }

    #[test]
    fn query_counters_are_layout_invariant() {
        let ds = scatter_dataset(700);
        let lanes = BkdTree::build(ds.clone());
        let scalar = BkdTree::build_with_config(
            ds.clone(),
            Metric::Euclidean,
            BuildConfig::default().with_kernel(KernelConfig::scalar()),
        );
        let run = |t: &BkdTree| {
            let mut s = QueryScratch::new();
            let mut out = Vec::new();
            for id in 0..ds.len() {
                out.clear();
                t.range_into_scratch(ds.row(id), 12.0, &mut s, &mut out);
            }
            s.counters
        };
        let (a, b) = (run(&lanes), run(&scalar));
        assert_eq!(a, b, "blocks/rows/hits are defined over visited leaves, not layout");
        assert!(!a.is_zero());
        assert_eq!(a.early_exits, 0, "exact queries never exit early");
    }
}
