//! The traced run: `SparkDbscan::run`'s driver sequence replayed from
//! the public calls of each layer, with a span around every call.
//!
//! Nothing here instruments the program itself. The replay makes the
//! same calls in the same order as the driver, on the same context, so
//! `main` can check that its labels and per-partition counters equal
//! the program's own before it trusts the layer numbers. Two things of
//! the driver are left out: calls into its trace collector, which is
//! disabled in every workload, and the spill path of the driver's
//! partial-cluster fold, which only a bounded memory budget reaches
//! (the replay fails if it would be needed).

use crate::workload::{Prepared, Workload, DFS_PATH};
use dbscan_core::{
    extract_seed_edges, local_partial_clusters_source, merge_partial_clusters, merge_with_edges,
    plan_partitions, Balance, Clustering, DbscanParams, ExecutorScratch, ExecutorStats,
    MergeStrategy, NeighborSource, PartialCluster, PartitionRanges, Resources, SeedPolicy,
    TreeNeighborSource,
};
use dbscan_datagen::dataset_from_csv;
use dbscan_spatial::{
    BkdTree, Dataset, KernelCounters, Metric, PointId, PruneConfig, QueryScratch,
};
use sparklet::{JobMetrics, DRIVER_LANE};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call: its name, the span that made it, and its interval
/// relative to the recorder's start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span list, shared with the engine's worker threads.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned by a panicking task");
        spans.push(span);
        spans.len() - 1
    }

    fn begin(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.push(Span { name, parent, start: now, end: now })
    }

    fn end(&self, id: usize) {
        let now = self.epoch.elapsed();
        self.spans.lock().expect("span list poisoned by a panicking task")[id].end = now;
    }

    fn timed<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, Some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Record `total` time spent in many disjoint calls inside `parent`
    /// as one span from the parent's start. Per-query spans would cost
    /// more to record than most queries take.
    fn folded(&self, name: &'static str, parent: usize, total: Duration) {
        let mut spans = self.spans.lock().expect("span list poisoned by a panicking task");
        let start = spans[parent].start;
        spans.push(Span { name, parent: Some(parent), start, end: start + total });
    }

    /// The spans recorded so far. A worker may still hold its clone of
    /// the job closure for a moment after the job returns, but every task
    /// has ended by then.
    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned by a panicking task"))
    }
}

/// A span's length minus the part of it its children cover.
pub fn self_time(spans: &[Span], id: usize) -> Duration {
    let s = spans[id];
    let mut kids: Vec<(Duration, Duration)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start.max(s.start), c.end.min(s.end)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort();
    let mut covered = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            _ => {
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    s.len().saturating_sub(covered)
}

/// `TreeNeighborSource` with a clock around every call.
struct TimedSource<'a> {
    inner: TreeNeighborSource<'a>,
    busy: Duration,
    queries: u64,
}

impl NeighborSource for TimedSource<'_> {
    fn neighbors_of(&mut self, q: u32, out: &mut Vec<PointId>) {
        let t = Instant::now();
        self.inner.neighbors_of(q, out);
        self.busy += t.elapsed();
        self.queries += 1;
    }

    fn neighbors_batch(
        &mut self,
        ids: &[u32],
        out: &mut Vec<PointId>,
        spans: &mut Vec<(u32, u32)>,
    ) {
        let t = Instant::now();
        self.inner.neighbors_batch(ids, out, spans);
        self.busy += t.elapsed();
        self.queries += ids.len() as u64;
    }

    fn count_up_to(&mut self, q: u32, cap: usize) -> usize {
        let t = Instant::now();
        let c = self.inner.count_up_to(q, cap);
        self.busy += t.elapsed();
        self.queries += 1;
        c
    }
}

thread_local! {
    /// Per-worker scratch, kept across tasks as the driver keeps its own.
    static SCRATCH: RefCell<(QueryScratch, ExecutorScratch)> =
        RefCell::new((QueryScratch::new(), ExecutorScratch::new()));
}

/// What the driver broadcasts to the executors.
struct Shared {
    tree: BkdTree,
    params: DbscanParams,
    ranges: PartitionRanges,
    seed_policy: SeedPolicy,
}

/// The driver-side fold's state.
#[derive(Default)]
struct Collected {
    partials: Vec<PartialCluster>,
    charged: u64,
    /// Partials the driver lane's budget could not hold.
    unfit: usize,
    core: Vec<bool>,
    stats: Vec<(u32, ExecutorStats)>,
    queries: u64,
}

enum Feed {
    Partial(PartialCluster),
    Cores(Vec<u32>),
    Stats(u32, ExecutorStats, u64),
}

/// One traced replay and everything measured along it.
pub struct Replay {
    pub clustering: Clustering,
    pub executor_stats: Vec<(u32, ExecutorStats)>,
    pub spans: Vec<Span>,
    pub job: JobMetrics,
    pub worker_threads: usize,
    pub bytes_read: usize,
    pub predicted_max_mean: f64,
    pub partial_clusters: usize,
    pub seed_edges: usize,
    pub merge_ops: usize,
    pub shuffle_records: u64,
    pub queries: u64,
}

/// Replay one clustering of `w` from input to labels.
pub fn run(w: &Workload, prep: &Prepared) -> Result<Replay, String> {
    let rec = Arc::new(Recorder::new());
    let ctx = &prep.ctx;
    let params = w.params();
    // the defaults `SparkDbscan::new` reads when no DBSCAN_* variable is set
    let res = Resources::new();
    let root = rec.begin("dbscan.run", None);

    let mut bytes_read = 0;
    let data = match &prep.dfs {
        None => Arc::clone(&prep.data),
        Some(d) => {
            let bytes = rec
                .timed("minidfs.read_file", root, || d.cluster.read_file(DFS_PATH))
                .map_err(|e| format!("DFS read: {e}"))?;
            bytes_read = bytes.len();
            let parsed: Dataset = rec.timed("datagen.dataset_from_csv", root, || {
                dataset_from_csv(&String::from_utf8_lossy(&bytes))
            });
            Arc::new(parsed)
        }
    };
    let n = data.len();
    let p = w.partitions;

    // the driver times this step under either balance; equal-count cuts
    // predict equal work, a ratio of 1
    let (ranges, predicted_max_mean) = rec.timed("planner.plan", root, || match w.balance {
        Balance::Count => (PartitionRanges::new(n, p), 1.0),
        Balance::Cost => {
            let plan = plan_partitions(&data, params.eps, p);
            let ratio = plan.predicted_ratio();
            (plan.ranges, ratio)
        }
    });
    let shuffle_before = ctx.shuffle_records();

    let (tree, _report) = rec.timed("spatial.build_with_report", root, || {
        BkdTree::build_with_report(Arc::clone(&data), Metric::Euclidean, res.build)
    });
    let broadcast_size = data.size_bytes() + tree.shipped_bytes();
    let shared = rec.timed("sparklet.broadcast_sized", root, || {
        ctx.broadcast_sized(
            Shared { tree, params, ranges: ranges.clone(), seed_policy: w.seed_policy() },
            broadcast_size,
        )
    });

    let memory = ctx.memory_manager();
    let fold_memory = Arc::clone(&memory);
    let collected =
        ctx.accumulator_with(Collected::default(), move |s: &mut Collected, f: Feed| match f {
            Feed::Partial(c) => {
                let bytes = (std::mem::size_of::<PartialCluster>()
                    + c.members.len() * std::mem::size_of::<u32>())
                    as u64;
                if fold_memory.try_charge(DRIVER_LANE, bytes) {
                    s.charged += bytes;
                } else {
                    s.unfit += 1;
                }
                s.partials.push(c);
            }
            Feed::Cores(cs) => {
                if s.core.len() < n {
                    s.core.resize(n, false);
                }
                for c in cs {
                    s.core[c as usize] = true;
                }
            }
            Feed::Stats(part, stats, queries) => {
                s.stats.push((part, stats));
                s.queries += queries;
            }
        });
    let acc = collected.clone();
    let task_rec = Arc::clone(&rec);
    let hints: Vec<u64> = (0..p)
        .map(|i| {
            let (a, b) = ranges.range(i);
            // the driver's per-point working-set estimate
            (b - a) as u64 * 48
        })
        .collect();

    let job_span = rec.begin("sparklet.foreach_partition", Some(root));
    ctx.range(0, n as u64, p)
        .mem_hints(hints)
        .foreach_partition(move |part, _indices| {
            let info = shared.value();
            let kernel = info.tree.kernel_config();
            let (local, queries) = SCRATCH.with(|s| {
                let (qscratch, escratch) = &mut *s.borrow_mut();
                qscratch.counters = KernelCounters::default();
                let task =
                    task_rec.begin("executor_side.local_partial_clusters_source", Some(job_span));
                let mut source = TimedSource {
                    inner: TreeNeighborSource::new(
                        &info.tree,
                        qscratch,
                        info.params.eps,
                        PruneConfig::EXACT,
                    ),
                    busy: Duration::ZERO,
                    queries: 0,
                };
                let mut local = local_partial_clusters_source(
                    &mut source,
                    info.params,
                    &info.ranges,
                    part,
                    info.seed_policy,
                    escratch,
                    kernel,
                );
                task_rec.end(task);
                let (busy, queries) = (source.busy, source.queries);
                task_rec.folded("spatial.neighbors", task, busy);
                local.stats.kernel = qscratch.counters;
                (local, queries)
            });
            for c in local.clusters {
                acc.add(Feed::Partial(c));
            }
            acc.add(Feed::Cores(local.core_points));
            acc.add(Feed::Stats(part as u32, local.stats, queries));
        })
        .map_err(|e| format!("executor job: {e}"))?;
    rec.end(job_span);
    let job = ctx.last_job().ok_or("the engine recorded no job")?;

    let Collected { mut partials, charged, unfit, mut core, mut stats, queries } = collected.take();
    memory.uncharge(DRIVER_LANE, charged);
    if unfit > 0 {
        return Err(format!("{unfit} partial clusters exceeded the driver's memory budget"));
    }
    core.resize(n, false);
    partials.sort_by_key(|c| (c.owner, c.members.first().copied()));

    let merge_threads = match res.merge_threads {
        0 => res.build.effective_threads(),
        t => t,
    };
    let merge = rec.begin("merge", Some(root));
    let (outcome, seed_edges) = match w.merge_strategy() {
        MergeStrategy::UnionFind => {
            let edges = rec.timed("merge.extract_seed_edges", merge, || {
                extract_seed_edges(n, &partials, &core, merge_threads)
            });
            let outcome = rec.timed("merge.merge_with_edges", merge, || {
                merge_with_edges(n, &partials, &edges, merge_threads)
            });
            (outcome, edges.len())
        }
        s => {
            let outcome = rec.timed("merge.merge_partial_clusters", merge, || {
                merge_partial_clusters(n, &partials, s, &core)
            });
            (outcome, 0)
        }
    };
    rec.end(merge);
    let mut clustering = outcome.clustering;
    clustering.core = core;
    stats.sort_by_key(|&(part, _)| part);
    rec.end(root);

    let shuffle_records = ctx.shuffle_records() - shuffle_before;
    Ok(Replay {
        clustering,
        executor_stats: stats,
        spans: rec.take(),
        worker_threads: ctx.config().worker_threads,
        job,
        bytes_read,
        predicted_max_mean,
        partial_clusters: partials.len(),
        seed_edges,
        merge_ops: outcome.merge_ops,
        shuffle_records,
        queries,
    })
}

impl Replay {
    /// Summed length of the spans named `name`.
    pub fn span_total(&self, name: &str) -> Duration {
        self.spans.iter().filter(|s| s.name == name).map(Span::len).sum()
    }

    /// Summed self time of the spans named `name`.
    pub fn span_self(&self, name: &str) -> Duration {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time(&self.spans, i))
            .sum()
    }

    /// `(name, calls, total, self)` per span name, in first-seen order.
    pub fn span_table(&self) -> Vec<(&'static str, usize, Duration, Duration)> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let calls = self.spans.iter().filter(|s| s.name == name).count();
                (name, calls, self.span_total(name), self.span_self(name))
            })
            .collect()
    }

    pub fn kernel(&self) -> KernelCounters {
        let mut k = KernelCounters::default();
        for (_, s) in &self.executor_stats {
            k.merge(&s.kernel);
        }
        k
    }
}
