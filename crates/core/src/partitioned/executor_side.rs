//! Executor-side local clustering with SEED placement — Algorithms 2
//! (lines 4–29) and 3 of the paper.
//!
//! The executor owns one contiguous index range. It expands clusters
//! with the usual queue-based DBSCAN, **but only through points it
//! owns**: a *foreign* neighbour is never expanded — it either becomes
//! a SEED member (first time that foreign partition is touched by this
//! cluster, under the paper's [`SeedPolicy::OnePerPartition`]) or is
//! skipped. Neighborhoods are computed over the **full broadcast
//! dataset**, so core status is globally exact even though expansion is
//! local.
//!
//! Data structures: the paper's §III-B uses a Java `Hashtable` for
//! visited state and a `LinkedList` queue for candidates, onto which
//! every neighbour of every core point is pushed; duplicates are
//! discarded when dequeued. Here the queue is **enqueue-once**: nothing
//! is pushed whose dequeue would be a no-op, so every dequeued point is
//! appended to the cluster. Dense epoch-stamped arrays decide that in
//! `O(1)` without hashing or clearing:
//!
//! * own points carry a per-task `queued` stamp, set when they enter
//!   the queue (or root a cluster), so an own point is queued at most
//!   once per task — in the literal loop only the first copy of a
//!   point in the FIFO queue ever acted;
//! * foreign points carry a per-cluster stamp indexed by global point
//!   id, so each is looked at once per cluster (Algorithm 3's
//!   partition test runs once per distinct foreign point);
//! * foreign partitions carry Algorithm 3's per-cluster `place_flg`.
//!
//! The labels, member order and SEEDs are exactly those of the literal
//! Algorithm 2 loop, which the tests keep as a reference.
//!
//! Every own point the loop visits issues exactly one eps-range query
//! (exact, or pruned under a [`PruneConfig`]), as in Algorithm 2.

use crate::model::{PartialCluster, PartitionRanges};
use crate::params::DbscanParams;
use crate::partitioned::SeedPolicy;
use dbscan_spatial::{
    BkdTree, KernelConfig, KernelCounters, PointId, PruneConfig, QueryScratch, SpatialIndex,
};

/// Instrumentation returned with each executor's result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Points of the own range processed at the top level.
    pub points_processed: usize,
    /// eps-neighborhood queries issued.
    pub neighbor_queries: usize,
    /// Total neighbors returned across all queries — the executor's
    /// real scan effort (what the cost planner predicts), unlike
    /// `neighbor_queries`, which just tracks partition size.
    pub neighbors_found: usize,
    /// Own points found noise at the top level (may become borders of
    /// other partitions' clusters after the merge).
    pub local_noise: usize,
    /// SEEDs placed across all partial clusters.
    pub seeds_placed: usize,
    /// Kernel-level instrumentation of the task's queries (leaf blocks
    /// scanned, rows of those blocks, hits, early exits). Like every
    /// field above, invariant across kernel configurations.
    pub kernel: KernelCounters,
}

/// One executor's output: its partial clusters, the core points it
/// certified, and stats.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalClustering {
    /// Partial clusters (with SEEDs), in creation order.
    pub clusters: Vec<PartialCluster>,
    /// Global indices of own points that are core points.
    pub core_points: Vec<u32>,
    /// Instrumentation.
    pub stats: ExecutorStats,
}

/// Reusable executor working state, stamped so nothing is cleared (or
/// reallocated) between clusters or tasks.
///
/// The per-task arrays are validated by an epoch: an entry belongs to
/// the current task iff its stamp equals the task's epoch, so
/// "clearing" them is a single counter bump. The per-cluster tables use
/// a monotonic stamp the same way. The queue and neighbor buffer
/// likewise persist at their high-water capacity across every partial
/// cluster and every task the executor runs.
#[derive(Debug, Default)]
pub struct ExecutorScratch {
    /// Current task epoch; per-task entries are live iff stamped with it.
    epoch: u32,
    /// Own point `i` has been queried iff `visited_epoch[i] == epoch`.
    visited_epoch: Vec<u32>,
    /// Own point `i` has entered the queue of some cluster of this task
    /// (or rooted one) iff `queued_epoch[i] == epoch`. A queued point is
    /// always appended to that cluster, so this is also "assigned".
    queued_epoch: Vec<u32>,
    /// FIFO expansion queue of the current cluster, read front to back
    /// by a cursor (nothing is popped), so its length is everything the
    /// cluster queued. Cleared when the next cluster starts.
    queue: Vec<u32>,
    /// Neighborhood query buffer, reused across all queries.
    nbuf: Vec<PointId>,
    /// Monotonic per-cluster stamp; never reused across tasks, so the
    /// tables below survive task boundaries without clearing.
    seed_stamp: u64,
    /// Algorithm 3's `place_flg`: partition `t` already holds a SEED of
    /// the current cluster iff `seeded_partition_stamp[t] == seed_stamp`.
    seeded_partition_stamp: Vec<u64>,
    /// Foreign point `q` (global id) has been looked at by the current
    /// cluster iff `foreign_stamp[q] == seed_stamp`.
    foreign_stamp: Vec<u64>,
}

impl ExecutorScratch {
    /// Fresh scratch (first task pays the allocations).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a task over `local_n` own points of a dataset of `n`
    /// points in `partitions` partitions: bump the epoch and grow (never
    /// shrink) the arrays.
    fn begin_task(&mut self, local_n: usize, n: usize, partitions: usize) {
        if self.epoch == u32::MAX {
            // epoch wrap: hard-reset the stamps once every 2^32 tasks
            self.visited_epoch.iter_mut().for_each(|s| *s = 0);
            self.queued_epoch.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.visited_epoch.len() < local_n {
            self.visited_epoch.resize(local_n, 0);
            self.queued_epoch.resize(local_n, 0);
        }
        if self.seeded_partition_stamp.len() < partitions {
            self.seeded_partition_stamp.resize(partitions, 0);
        }
        if self.foreign_stamp.len() < n {
            self.foreign_stamp.resize(n, 0);
        }
    }

    /// Push the neighbours in `nbuf` whose dequeue would change the
    /// current cluster: own points not yet queued in this task, and
    /// foreign points the cluster has not looked at yet — all of them
    /// under [`SeedPolicy::PerBoundaryEdge`], only the first of each
    /// still unseeded partition under [`SeedPolicy::OnePerPartition`].
    fn enqueue_neighbors(&mut self, own: (u32, u32), ranges: &PartitionRanges, policy: SeedPolicy) {
        let (start, end) = own;
        let (epoch, stamp) = (self.epoch, self.seed_stamp);
        for &PointId(r) in &self.nbuf {
            if r >= start && r < end {
                let queued = &mut self.queued_epoch[(r - start) as usize];
                if *queued != epoch {
                    *queued = epoch;
                    self.queue.push(r);
                }
                continue;
            }
            let seen = &mut self.foreign_stamp[r as usize];
            if *seen == stamp {
                continue;
            }
            *seen = stamp;
            let place = match policy {
                SeedPolicy::OnePerPartition => {
                    let placed = &mut self.seeded_partition_stamp[ranges.partition_of(r)];
                    std::mem::replace(placed, stamp) != stamp
                }
                SeedPolicy::PerBoundaryEdge => true,
            };
            if place {
                self.queue.push(r);
            }
        }
    }

    /// High-water capacity of the visited array (test hook).
    pub fn capacity(&self) -> usize {
        self.visited_epoch.len()
    }

    /// Entries the last cluster of the last task pushed onto the queue
    /// (test hook).
    #[cfg(test)]
    fn last_cluster_queue_len(&self) -> usize {
        self.queue.len()
    }
}

/// Where the executor gets eps-neighborhoods from. The executor calls
/// only [`NeighborSource::neighbors_of`]; closures implement it through
/// the blanket `FnMut` impl. The batched and count-only entry points
/// are conveniences for other callers, with defaults expressed in terms
/// of it.
pub trait NeighborSource {
    /// Append the eps-neighborhood of point `q` over the **whole**
    /// dataset to `out` (which arrives cleared). The reported order
    /// must be deterministic — it decides SEED placement.
    fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>);

    /// Neighborhoods of a whole frontier chunk: `out` and `spans` are
    /// cleared, then `spans[i] = (offset, len)` addresses query `i`'s
    /// slice of `out`. Per query, contents and order must equal
    /// [`NeighborSource::neighbors_of`] exactly.
    fn neighbors_batch(
        &mut self,
        ids: &[u32],
        out: &mut Vec<PointId>,
        spans: &mut Vec<(u32, u32)>,
    ) {
        out.clear();
        spans.clear();
        for &q in ids {
            let off = out.len() as u32;
            self.neighbors_of(q, out);
            spans.push((off, out.len() as u32 - off));
        }
    }

    /// Neighbor count of `q`, allowed to stop once `cap` is reached;
    /// any returned value **below** `cap` must be the exact count. The
    /// default pays a full materialized query and returns the full
    /// count.
    fn count_up_to(&mut self, q: u32, cap: usize) -> usize {
        let _ = cap;
        let mut tmp = Vec::new();
        self.neighbors_of(q, &mut tmp);
        tmp.len()
    }
}

impl<F: FnMut(u32, &mut Vec<PointId>)> NeighborSource for F {
    fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>) {
        self(q, out)
    }
}

/// The production [`NeighborSource`]: the broadcast [`BkdTree`] plus a
/// worker's [`QueryScratch`], one (possibly pruned) range query per
/// call.
pub struct TreeNeighborSource<'a> {
    tree: &'a BkdTree,
    scratch: &'a mut QueryScratch,
    eps: f64,
    prune: PruneConfig,
}

impl<'a> TreeNeighborSource<'a> {
    /// Wrap a broadcast tree and per-worker query scratch.
    pub fn new(
        tree: &'a BkdTree,
        scratch: &'a mut QueryScratch,
        eps: f64,
        prune: PruneConfig,
    ) -> Self {
        TreeNeighborSource { tree, scratch, eps, prune }
    }
}

impl NeighborSource for TreeNeighborSource<'_> {
    fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>) {
        let row = self.tree.dataset().point(PointId(q));
        self.tree.range_pruned_scratch(row, self.eps, self.prune, self.scratch, out);
    }
}

/// Run Algorithms 2+3 for one partition with throwaway scratch.
///
/// `neighbors_of(idx, out)` must append the eps-neighborhood of point
/// `idx` over the **whole** dataset (the broadcast kd-tree query); `out`
/// arrives cleared.
pub fn local_partial_clusters(
    neighbors_of: impl FnMut(u32, &mut Vec<PointId>),
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
) -> LocalClustering {
    let mut scratch = ExecutorScratch::new();
    local_partial_clusters_scratch(
        neighbors_of,
        params,
        ranges,
        partition,
        seed_policy,
        &mut scratch,
    )
}

/// [`local_partial_clusters`] against caller-owned scratch, the hot
/// path for executors that process many partitions: steady-state tasks
/// allocate nothing but the output itself.
pub fn local_partial_clusters_scratch(
    mut neighbors_of: impl FnMut(u32, &mut Vec<PointId>),
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    scratch: &mut ExecutorScratch,
) -> LocalClustering {
    let (start, end) = ranges.range(partition);
    let owner = partition as u32;
    let local_n = (end - start) as usize;

    scratch.begin_task(local_n, ranges.num_points(), ranges.num_partitions());
    let epoch = scratch.epoch;

    let mut clusters: Vec<PartialCluster> = Vec::new();
    let mut core_points: Vec<u32> = Vec::new();
    let mut stats = ExecutorStats::default();

    for p in start..end {
        let pl = (p - start) as usize;
        stats.points_processed += 1;
        if scratch.visited_epoch[pl] == epoch {
            continue;
        }
        scratch.visited_epoch[pl] = epoch;
        scratch.nbuf.clear();
        neighbors_of(p, &mut scratch.nbuf);
        stats.neighbor_queries += 1;
        stats.neighbors_found += scratch.nbuf.len();
        if scratch.nbuf.len() < params.min_pts {
            // Algorithm 2 line 9: "mark p as noise" (it may later be
            // claimed as a border point by an expanding cluster)
            stats.local_noise += 1;
            continue;
        }

        // Algorithm 2 line 8: create a new cluster C and add p to it
        scratch.seed_stamp += 1;
        let mut cluster = PartialCluster::new(owner, (start, end));
        cluster.members.push(p);
        scratch.queued_epoch[pl] = epoch;
        core_points.push(p);

        scratch.queue.clear();
        scratch.enqueue_neighbors((start, end), ranges, seed_policy);
        let mut head = 0;
        while let Some(&q) = scratch.queue.get(head) {
            head += 1;
            // every queued point joins C: an own point is claimed (lines
            // 13-22), a foreign one is a SEED (Algorithm 3) and is never
            // expanded — "each executor only computes the points that
            // belong to it"
            cluster.members.push(q);
            if q < start || q >= end {
                stats.seeds_placed += 1;
                continue;
            }
            let ql = (q - start) as usize;
            if scratch.visited_epoch[ql] == epoch {
                // top-level noise, claimed as a border point
                continue;
            }
            // Algorithm 2 lines 13-19: visit q and test core status
            scratch.visited_epoch[ql] = epoch;
            scratch.nbuf.clear();
            neighbors_of(q, &mut scratch.nbuf);
            stats.neighbor_queries += 1;
            stats.neighbors_found += scratch.nbuf.len();
            if scratch.nbuf.len() >= params.min_pts {
                core_points.push(q);
                scratch.enqueue_neighbors((start, end), ranges, seed_policy);
            }
        }
        clusters.push(cluster);
    }

    LocalClustering { clusters, core_points, stats }
}

/// [`local_partial_clusters_scratch`] over a [`NeighborSource`].
///
/// `kernel` is unused: the leaf-scan kernel is fixed when the tree is
/// built ([`BkdTree::kernel_config`]), and the expansion loop is the
/// same for every configuration. The parameter stays so existing
/// callers keep compiling.
pub fn local_partial_clusters_source<S: NeighborSource>(
    source: &mut S,
    params: DbscanParams,
    ranges: &PartitionRanges,
    partition: usize,
    seed_policy: SeedPolicy,
    scratch: &mut ExecutorScratch,
    kernel: KernelConfig,
) -> LocalClustering {
    let _ = kernel;
    local_partial_clusters_scratch(
        |q, out| source.neighbors_of(q, out),
        params,
        ranges,
        partition,
        seed_policy,
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_spatial::{BuildConfig, Dataset, KdTree, Metric, SpatialIndex};
    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::{HashSet, VecDeque};
    use std::sync::Arc;

    /// The literal Algorithm 2 + 3 loop, kept as the reference for the
    /// enqueue-once executor: every neighbour of every core point is
    /// pushed onto the queue and duplicates are dropped when dequeued.
    /// Also returns the queue's high-water length.
    fn reference_local_partial_clusters(
        mut neighbors_of: impl FnMut(u32, &mut Vec<PointId>),
        params: DbscanParams,
        ranges: &PartitionRanges,
        partition: usize,
        seed_policy: SeedPolicy,
    ) -> (LocalClustering, usize) {
        let (start, end) = ranges.range(partition);
        let local_n = (end - start) as usize;
        let mut visited = vec![false; local_n];
        let mut assigned = vec![false; local_n];
        let mut queue: VecDeque<u32> = VecDeque::new();
        let mut high_water = 0;
        let mut nbuf = Vec::new();
        let mut seeded_points: HashSet<u64> = HashSet::new();

        let mut clusters: Vec<PartialCluster> = Vec::new();
        let mut core_points: Vec<u32> = Vec::new();
        let mut stats = ExecutorStats::default();

        for p in start..end {
            let pl = (p - start) as usize;
            stats.points_processed += 1;
            if visited[pl] {
                continue;
            }
            visited[pl] = true;
            nbuf.clear();
            neighbors_of(p, &mut nbuf);
            stats.neighbor_queries += 1;
            stats.neighbors_found += nbuf.len();
            if nbuf.len() < params.min_pts {
                stats.local_noise += 1;
                continue;
            }
            let slot = clusters.len() as u32;
            let mut seeded_partitions = vec![false; ranges.num_partitions()];
            let mut cluster = PartialCluster::new(partition as u32, (start, end));
            cluster.members.push(p);
            assigned[pl] = true;
            core_points.push(p);

            let done = |r: u32, visited: &[bool], assigned: &[bool]| {
                r >= start
                    && r < end
                    && visited[(r - start) as usize]
                    && assigned[(r - start) as usize]
            };
            queue.clear();
            queue.extend(nbuf.iter().map(|id| id.0).filter(|&r| !done(r, &visited, &assigned)));
            high_water = high_water.max(queue.len());
            while let Some(q) = queue.pop_front() {
                if q < start || q >= end {
                    let place = match seed_policy {
                        SeedPolicy::OnePerPartition => {
                            !std::mem::replace(&mut seeded_partitions[ranges.partition_of(q)], true)
                        }
                        SeedPolicy::PerBoundaryEdge => {
                            seeded_points.insert((slot as u64) << 32 | q as u64)
                        }
                    };
                    if place {
                        cluster.members.push(q);
                        stats.seeds_placed += 1;
                    }
                    continue;
                }
                let ql = (q - start) as usize;
                if visited[ql] {
                    if !assigned[ql] {
                        assigned[ql] = true;
                        cluster.members.push(q);
                    }
                    continue;
                }
                visited[ql] = true;
                if !assigned[ql] {
                    assigned[ql] = true;
                    cluster.members.push(q);
                }
                nbuf.clear();
                neighbors_of(q, &mut nbuf);
                stats.neighbor_queries += 1;
                stats.neighbors_found += nbuf.len();
                if nbuf.len() >= params.min_pts {
                    core_points.push(q);
                    queue.extend(
                        nbuf.iter().map(|id| id.0).filter(|&r| !done(r, &visited, &assigned)),
                    );
                    high_water = high_water.max(queue.len());
                }
            }
            clusters.push(cluster);
        }
        (LocalClustering { clusters, core_points, stats }, high_water)
    }

    /// A small random dataset in `d` dimensions: each coordinate is
    /// either a grid value (a multiple of 1.0, so with `eps = 1.0` many
    /// pairs sit exactly eps apart and many points coincide) or a
    /// uniform value over the same span.
    fn random_rows(rng: &mut TestRng, d: usize, n: usize) -> Vec<Vec<f64>> {
        let span = 1 + rng.below(5);
        (0..n)
            .map(|_| {
                let grid = rng.below(4) != 0;
                (0..d)
                    .map(|_| {
                        if grid {
                            rng.below(span + 1) as f64
                        } else {
                            rng.unit_f64() * span as f64
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// `p` contiguous ranges over `n` points with random cuts; equal
    /// cuts make empty partitions.
    fn random_ranges(rng: &mut TestRng, n: usize, p: usize) -> PartitionRanges {
        let mut inner: Vec<u32> = (1..p).map(|_| rng.below(n + 1) as u32).collect();
        inner.sort_unstable();
        let cuts = std::iter::once(0).chain(inner).chain(std::iter::once(n as u32)).collect();
        PartitionRanges::from_cuts(n, cuts)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn enqueue_once_matches_the_literal_loop(
            d in 1usize..=4,
            min_pts in 1usize..=6,
            seed in any::<u64>(),
        ) {
            // one scratch across tasks over datasets of different n,
            // every partition, both policies
            let mut rng = TestRng::new(seed);
            let mut scratch = ExecutorScratch::new();
            let params = DbscanParams::new(1.0, min_pts).unwrap();
            for _task_set in 0..3 {
                let n = 1 + rng.below(48);
                let ds = Arc::new(Dataset::from_rows(random_rows(&mut rng, d, n)));
                let tree = BkdTree::build(ds.clone());
                let p = 1 + rng.below(7);
                let ranges = random_ranges(&mut rng, n, p);
                let mut qs = QueryScratch::new();
                let mut nbrs = |q: u32, out: &mut Vec<PointId>| {
                    tree.range_into_scratch(ds.point(PointId(q)), params.eps, &mut qs, out)
                };
                for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                    for part in 0..ranges.num_partitions() {
                        let (want, _) = reference_local_partial_clusters(
                            &mut nbrs, params, &ranges, part, policy,
                        );
                        let got = local_partial_clusters_scratch(
                            &mut nbrs, params, &ranges, part, policy, &mut scratch,
                        );
                        prop_assert_eq!(
                            &got, &want,
                            "n={} d={} {:?} part={} {:?}", n, d, ranges.cut_points(), part, policy
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn queue_holds_each_point_at_most_once_per_cluster() {
        // a dense blob: every point neighbours every other point, so the
        // literal loop queues every neighbourhood of every core point —
        // O(n^2) entries — while enqueue-once holds each own point and
        // each distinct foreign neighbour once
        let n = 90;
        let rows = (0..n).map(|i| vec![i as f64 * 1e-3, (i % 7) as f64 * 1e-3]).collect();
        let tree = KdTree::build(Arc::new(Dataset::from_rows(rows)));
        let data = tree.dataset().clone();
        let params = DbscanParams::new(1.0, 3).unwrap();
        let ranges = PartitionRanges::new(n, 3);
        let nbrs = |q: u32, out: &mut Vec<PointId>| {
            tree.range_into(data.point(PointId(q)), params.eps, out)
        };
        for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
            for part in 0..3 {
                let mut scratch = ExecutorScratch::new();
                let got = local_partial_clusters_scratch(
                    nbrs,
                    params,
                    &ranges,
                    part,
                    policy,
                    &mut scratch,
                );
                let (want, literal_high_water) =
                    reference_local_partial_clusters(nbrs, params, &ranges, part, policy);
                assert_eq!(got, want);
                assert_eq!(got.clusters.len(), 1, "the blob is one cluster");
                let (start, end) = ranges.range(part);
                let own = (end - start) as usize;
                let foreign = n - own;
                // every own point but the root, plus one SEED per other
                // partition or every foreign point
                let foreign_queued = match policy {
                    SeedPolicy::OnePerPartition => 2,
                    SeedPolicy::PerBoundaryEdge => foreign,
                };
                let queued = scratch.last_cluster_queue_len();
                assert_eq!(queued, own - 1 + foreign_queued, "{policy:?} part={part}");
                assert!(queued <= own + foreign);
                assert!(literal_high_water >= own * foreign, "the literal loop holds O(n^2)");
            }
        }
    }

    /// 1-d chain of points 1.0 apart: with eps=1.1 / minpts=2 the whole
    /// line is one density-connected cluster.
    fn chain_tree(n: usize) -> KdTree {
        let rows = (0..n).map(|i| vec![i as f64]).collect();
        KdTree::build(Arc::new(Dataset::from_rows(rows)))
    }

    fn run(
        tree: &KdTree,
        params: DbscanParams,
        ranges: &PartitionRanges,
        part: usize,
        policy: SeedPolicy,
    ) -> LocalClustering {
        let data = tree.dataset().clone();
        local_partial_clusters(
            |q, out| tree.range_into(data.point(PointId(q)), params.eps, out),
            params,
            ranges,
            part,
            policy,
        )
    }

    #[test]
    fn single_partition_matches_whole_clustering() {
        let tree = chain_tree(10);
        let params = DbscanParams::new(1.1, 2).unwrap();
        let ranges = PartitionRanges::new(10, 1);
        let local = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert_eq!(local.clusters.len(), 1);
        assert_eq!(local.clusters[0].len(), 10);
        assert_eq!(local.stats.seeds_placed, 0, "no foreign partitions exist");
        assert_eq!(local.core_points.len(), 10);
    }

    #[test]
    fn boundary_cluster_places_exactly_one_seed_paper_policy() {
        // chain split in two partitions: each side's cluster touches the
        // other side at exactly the boundary
        let tree = chain_tree(10);
        let params = DbscanParams::new(1.1, 2).unwrap();
        let ranges = PartitionRanges::new(10, 2);
        let left = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert_eq!(left.clusters.len(), 1);
        let seeds: Vec<u32> = left.clusters[0].seeds().collect();
        assert_eq!(seeds, vec![5], "one SEED into partition 1, the boundary point");
        let right = run(&tree, params, &ranges, 1, SeedPolicy::OnePerPartition);
        let rseeds: Vec<u32> = right.clusters[0].seeds().collect();
        assert_eq!(rseeds, vec![4]);
    }

    #[test]
    fn per_boundary_edge_policy_records_all_boundary_points() {
        // eps=2.1 reaches two points across the boundary
        let tree = chain_tree(10);
        let params = DbscanParams::new(2.1, 2).unwrap();
        let ranges = PartitionRanges::new(10, 2);
        let one = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        let all = run(&tree, params, &ranges, 0, SeedPolicy::PerBoundaryEdge);
        assert_eq!(one.clusters[0].seeds().count(), 1);
        assert_eq!(all.clusters[0].seeds().count(), 2, "points 5 and 6 both recorded");
    }

    #[test]
    fn foreign_points_are_never_expanded() {
        let tree = chain_tree(100);
        let params = DbscanParams::new(1.1, 2).unwrap();
        let ranges = PartitionRanges::new(100, 4);
        let local = run(&tree, params, &ranges, 1, SeedPolicy::OnePerPartition);
        // queries only for own 25 points (each visited once)
        assert_eq!(local.stats.neighbor_queries, 25);
        for c in &local.clusters {
            for r in c.regulars() {
                assert!(ranges.contains(1, r));
            }
        }
    }

    #[test]
    fn sparse_points_are_local_noise() {
        let rows = (0..8).map(|i| vec![i as f64 * 100.0]).collect();
        let tree = KdTree::build(Arc::new(Dataset::from_rows(rows)));
        let params = DbscanParams::new(1.0, 2).unwrap();
        let ranges = PartitionRanges::new(8, 2);
        let local = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert!(local.clusters.is_empty());
        assert_eq!(local.stats.local_noise, 4);
        assert!(local.core_points.is_empty());
    }

    #[test]
    fn two_separate_local_clusters_stay_separate() {
        // two dense blobs within one partition
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..5 {
            rows.push(vec![i as f64 * 0.1]);
        }
        for i in 0..5 {
            rows.push(vec![100.0 + i as f64 * 0.1]);
        }
        let tree = KdTree::build(Arc::new(Dataset::from_rows(rows)));
        let params = DbscanParams::new(0.5, 3).unwrap();
        let ranges = PartitionRanges::new(10, 1);
        let local = run(&tree, params, &ranges, 0, SeedPolicy::OnePerPartition);
        assert_eq!(local.clusters.len(), 2);
        assert_eq!(local.clusters[0].len(), 5);
        assert_eq!(local.clusters[1].len(), 5);
    }

    #[test]
    fn empty_partition_produces_nothing() {
        let tree = chain_tree(3);
        let params = DbscanParams::new(1.1, 2).unwrap();
        // 3 points over 5 partitions: some ranges are empty
        let ranges = PartitionRanges::new(3, 5);
        let local = run(&tree, params, &ranges, 1, SeedPolicy::OnePerPartition);
        assert!(local.stats.points_processed <= 1);
    }

    #[test]
    fn members_are_unique_within_a_cluster() {
        let tree = chain_tree(30);
        let params = DbscanParams::new(3.5, 2).unwrap(); // wide eps: every point reached many times
        let ranges = PartitionRanges::new(30, 3);
        for part in 0..3 {
            let local = run(&tree, params, &ranges, part, SeedPolicy::PerBoundaryEdge);
            for c in &local.clusters {
                let mut m = c.members.clone();
                m.sort_unstable();
                let before = m.len();
                m.dedup();
                assert_eq!(m.len(), before, "duplicate members in partition {part}");
            }
        }
    }

    #[test]
    fn reused_scratch_is_identical_to_fresh_scratch() {
        // one scratch driven through every partition of both policies,
        // repeatedly — outputs must match throwaway-scratch runs exactly
        let tree = chain_tree(60);
        let data = tree.dataset().clone();
        let params = DbscanParams::new(2.1, 2).unwrap();
        let ranges = PartitionRanges::new(60, 4);
        let mut scratch = ExecutorScratch::new();
        for _round in 0..3 {
            for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
                for part in 0..4 {
                    let fresh = run(&tree, params, &ranges, part, policy);
                    let reused = local_partial_clusters_scratch(
                        |q, out| tree.range_into(data.point(PointId(q)), params.eps, out),
                        params,
                        &ranges,
                        part,
                        policy,
                        &mut scratch,
                    );
                    assert_eq!(fresh, reused, "partition {part} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn scratch_grows_to_high_water_and_stays() {
        let tree = chain_tree(40);
        let data = tree.dataset().clone();
        let params = DbscanParams::new(1.1, 2).unwrap();
        let mut scratch = ExecutorScratch::new();
        let go = |parts: usize, part: usize, scratch: &mut ExecutorScratch| {
            let ranges = PartitionRanges::new(40, parts);
            local_partial_clusters_scratch(
                |q, out| tree.range_into(data.point(PointId(q)), params.eps, out),
                params,
                &ranges,
                part,
                SeedPolicy::OnePerPartition,
                scratch,
            )
        };
        go(4, 0, &mut scratch); // local_n = 10
        assert_eq!(scratch.capacity(), 10);
        go(2, 1, &mut scratch); // local_n = 20: grows
        assert_eq!(scratch.capacity(), 20);
        go(8, 3, &mut scratch); // local_n = 5: keeps high-water capacity
        assert_eq!(scratch.capacity(), 20);
    }

    /// A mildly adversarial 2-d mixture: two dense blobs, a bridge of
    /// chained points between them, and a few isolated noise points.
    fn blob_rows() -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        for i in 0..12 {
            rows.push(vec![(i % 4) as f64 * 0.4, (i / 4) as f64 * 0.4]);
        }
        for i in 0..9 {
            rows.push(vec![2.0 + i as f64 * 0.9, 0.5]);
        }
        for i in 0..12 {
            rows.push(vec![11.0 + (i % 3) as f64 * 0.4, (i / 3) as f64 * 0.4]);
        }
        for i in 0..4 {
            rows.push(vec![50.0 + i as f64 * 40.0, -30.0]);
        }
        rows
    }

    #[test]
    fn tree_neighbor_source_matches_closure_source() {
        // the real executor-side source (BkdTree + QueryScratch) under
        // both leaf layouts against a plain closure over the same tree —
        // neighbor order, hence member order, must match
        let ds = Arc::new(Dataset::from_rows(blob_rows()));
        let bkd = BkdTree::build(ds.clone());
        let n = ds.len();
        let params = DbscanParams::new(1.1, 3).unwrap();
        let ranges = PartitionRanges::new(n, 3);
        let trees = [KernelConfig::default(), KernelConfig::scalar()].map(|kernel| {
            let cfg = BuildConfig::default().with_kernel(kernel);
            BkdTree::build_with_config(ds.clone(), Metric::Euclidean, cfg)
        });
        for policy in [SeedPolicy::OnePerPartition, SeedPolicy::PerBoundaryEdge] {
            for part in 0..3 {
                let mut base_scratch = QueryScratch::new();
                let baseline = local_partial_clusters(
                    |q, out| {
                        bkd.range_into_scratch(
                            ds.point(PointId(q)),
                            params.eps,
                            &mut base_scratch,
                            out,
                        )
                    },
                    params,
                    &ranges,
                    part,
                    policy,
                );
                for tree in &trees {
                    let kernel = tree.kernel_config();
                    let mut qscratch = QueryScratch::new();
                    let mut source = TreeNeighborSource::new(
                        tree,
                        &mut qscratch,
                        params.eps,
                        PruneConfig::EXACT,
                    );
                    let mut scratch = ExecutorScratch::new();
                    let got = local_partial_clusters_source(
                        &mut source,
                        params,
                        &ranges,
                        part,
                        policy,
                        &mut scratch,
                        kernel,
                    );
                    assert_eq!(baseline, got, "{kernel:?} part={part} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn neighbor_source_defaults_match_per_query_results() {
        // the batched and count-only trait defaults on the production
        // source: spans address exactly the per-query neighborhoods, in
        // order, and the count is the full count whatever the cap
        let ds = Arc::new(Dataset::from_rows(blob_rows()));
        let bkd = BkdTree::build(ds.clone());
        let ids: Vec<u32> = (0..ds.len() as u32).rev().collect();
        for eps in [0.0, 1.1, 5.0] {
            let mut qscratch = QueryScratch::new();
            let mut source = TreeNeighborSource::new(&bkd, &mut qscratch, eps, PruneConfig::EXACT);
            let (mut out, mut spans) = (vec![PointId(7)], vec![(3, 3)]);
            source.neighbors_batch(&ids, &mut out, &mut spans);
            assert_eq!(spans.len(), ids.len());
            let mut next = 0;
            for (&q, &(off, len)) in ids.iter().zip(&spans) {
                let mut want = Vec::new();
                source.neighbors_of(q, &mut want);
                assert_eq!(off as usize, next, "spans tile the output in query order");
                assert_eq!(&out[off as usize..(off + len) as usize], &want[..], "eps={eps} q={q}");
                next += len as usize;
                for cap in [0, 1, want.len()] {
                    assert_eq!(source.count_up_to(q, cap), want.len(), "eps={eps} q={q} cap={cap}");
                }
            }
            assert_eq!(next, out.len());
        }
    }
}
