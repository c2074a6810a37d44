//! PR4 perf suite: cost-balanced partition planning and the
//! dimension-specialized query kernels, measured head to head.
//!
//! Two experiments, both deterministic in the seed:
//!
//! 1. **Partitioning** — a skewed workload (Gaussian hotspot emitted as
//!    the index prefix, uniform background after it) is clustered with
//!    `Balance::Count` (the paper's equal-count split) and
//!    `Balance::Cost` (the eps-grid cost planner). For each arm the
//!    suite records wall clock, the executor stage's max/mean task-time
//!    ratio, and the deterministic work imbalance from per-partition
//!    `neighbors_found`. The two clusterings must be byte-identical —
//!    the planner only moves cuts, never labels — and the suite exits
//!    non-zero if they are not.
//! 2. **Kernels** — `scan_block` (dispatching to the monomorphized
//!    fixed-`D` kernels) against `scan_block_generic` on the same block
//!    at `d = 2..=5`, reported as queries/sec per dimension. Every
//!    query is a row of the block, so each one hits at every dimension;
//!    the suite exits non-zero if a row reports zero matches.
//!
//! Results land in `<out_dir>/BENCH_PR4.json` for EXPERIMENTS.md and
//! the CI artifact.
//!
//! 3. **Driver phases (PR 6)** — the serial driver fraction: the
//!    kd-tree bulk-build and the Algorithm-4 merge are run once at one
//!    worker, their per-shard/per-phase wall times are replayed through
//!    the LPT fork-join model at 1/2/4/8 workers, and the parallel
//!    implementations are checked byte-identical against the
//!    sequential ones. (The CI host has a single core, so — exactly
//!    like the PR4 `simulated_makespan_ms` — real multi-thread wall
//!    clock would only measure contention; the model is fed by
//!    measured chunk times.) Results land in `<out_dir>/BENCH_PR6.json`
//!    and the suite exits non-zero on any identity violation.
//!
//! 4. **Memory budget (PR 7)** — the n=100k partitioned run, unbounded
//!    and then again with a per-executor budget of 25% of the unbounded
//!    accounted peak. The budgeted run must *spill, not fail*: labels
//!    byte-identical, event trace byte-identical modulo the zero-tick
//!    `MemoryAction` events, accounted peak within the budget, and
//!    spilled bytes nonzero. Results land in `<out_dir>/BENCH_PR7.json`
//!    and the suite exits non-zero on any violation.
//!
//! 5. **Data layout** — leaf-scan kernel throughput: the
//!    dimension-major SoA lane kernel against the row-major scalar scan
//!    over the same bucketed tree's leaves at `d = 2..=6`
//!    (acceptance: >= 1.5x at d in {2,3,4}), with dataset rows as
//!    queries so every dimension times the hit path, plus an end-to-end
//!    identity matrix (scalar / lanes at 1, 2 and 8 worker threads)
//!    whose labels and traces must be byte-identical to the scalar
//!    reference. Results
//!    land in `<out_dir>/BENCH_PR9.json`; the suite exits non-zero on
//!    any identity violation, a row with zero hits or a missed
//!    throughput floor.
//!
//! 6. **Speculative execution (PR 10)** — the straggler tail: one
//!    traced run with simulated stragglers (`prob = 0.3`,
//!    `slowdown = 8`) is replayed through the makespan model with and
//!    without the speculation policy (acceptance: >= 2x tail-stage
//!    reduction at `multiplier_pct = 150`), plus an end-to-end identity
//!    matrix against *real* wall-clock stragglers at 1, 2 and 8 worker
//!    threads: labels — and traces, modulo the zero-tick speculation
//!    events — must be byte-identical to the speculation-free runs.
//!    Results land in `<out_dir>/BENCH_PR10.json`; the suite exits
//!    non-zero on any identity violation or a missed reduction floor.
//!
//! Usage:
//!   cargo run --release -p dbscan-bench --bin perf_suite -- [out_dir] [n]
//!   cargo run --release -p dbscan-bench --bin perf_suite -- --kernels-only [out_dir]
//!   cargo run --release -p dbscan-bench --bin perf_suite -- --speculation-only [out_dir]

use dbscan_bench::report;
use dbscan_core::{
    local_partial_clusters, merge_partial_clusters_threaded, merge_unionfind_report, Balance,
    DbscanParams, MergeStrategy, PartitionRanges, Resources, SeedPolicy, SparkDbscan,
    SparkDbscanResult,
};
use dbscan_datagen::{ClusterGenerator, GeneratorParams, SkewedGenerator, SkewedParams};
use dbscan_spatial::{
    scan_block, scan_block_generic, scan_block_soa, BkdTree, BuildConfig, Dataset, KernelConfig,
    Metric, SpatialIndex, DEFAULT_LANES,
};
use serde::Serialize;
use sparklet::{
    ClusterConfig, Context, EventKind, FaultPlan, FaultRule, SpeculationConfig, StragglerConfig,
    Trace, TraceConfig,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const PARTITIONS: usize = 8;
const SEED: u64 = 42;
const EPS: f64 = 25.0;
const MIN_PTS: usize = 5;

#[derive(Serialize)]
struct Config {
    n: usize,
    dim: usize,
    seed: u64,
    partitions: usize,
    eps: f64,
    min_pts: usize,
    hotspot_fraction: f64,
    hotspot_sigma: f64,
    side: f64,
}

#[derive(Serialize)]
struct Arm {
    balance: &'static str,
    wall_ms: f64,
    plan_ms: f64,
    executor_wall_ms: f64,
    task_max_ms: f64,
    /// LPT makespan on `PARTITIONS` virtual executors — what a cluster
    /// with one core per partition would observe (the host may have
    /// fewer cores than partitions, serializing real wall time).
    simulated_makespan_ms: f64,
    task_max_mean_ratio: f64,
    work_max_mean_ratio: f64,
    partition_work: Vec<u64>,
    predicted_cost: Option<Vec<f64>>,
    clusters: usize,
    noise: usize,
}

#[derive(Serialize)]
struct Partitioning {
    count: Arm,
    cost: Arm,
    labels_identical: bool,
    work_ratio_improvement: f64,
}

#[derive(Serialize)]
struct KernelRow {
    dim: usize,
    specialized: bool,
    rows: usize,
    queries: usize,
    specialized_qps: f64,
    generic_qps: f64,
    speedup: f64,
    matches: u64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    config: Config,
    partitioning: Partitioning,
    kernels: Vec<KernelRow>,
}

/// Modeled makespan of one driver phase at one worker count.
#[derive(Serialize)]
struct PhasePoint {
    threads: usize,
    modeled_ms: f64,
    speedup: f64,
}

/// One merge sub-phase's measured wall time.
#[derive(Serialize)]
struct MergePhaseRow {
    name: &'static str,
    serial: bool,
    chunks: usize,
    ms: f64,
}

/// Driver-phase measurements for one dataset size.
#[derive(Serialize)]
struct DriverPhaseCase {
    n: usize,
    dim: usize,
    partitions: usize,
    par_cutoff: usize,
    // kd-tree bulk build
    build_shards: usize,
    build_serial_ms: f64,
    build_internal_ms: f64,
    build_coords_ms: f64,
    build_models: Vec<PhasePoint>,
    build_speedup_at_8: f64,
    build_structure_identical: bool,
    // Algorithm-4 merge
    partial_clusters: usize,
    seed_edges: usize,
    merge_serial_ms: f64,
    merge_phases: Vec<MergePhaseRow>,
    merge_models: Vec<PhasePoint>,
    merge_speedup_at_8: f64,
    merge_labels_identical: bool,
}

#[derive(Serialize)]
struct ReportPr6 {
    bench: &'static str,
    seed: u64,
    eps: f64,
    min_pts: usize,
    model_threads: Vec<usize>,
    cases: Vec<DriverPhaseCase>,
}

/// One arm of the memory-budget experiment (budget 0 = unbounded).
#[derive(Serialize)]
struct BudgetArm {
    budget_bytes: u64,
    wall_ms: f64,
    /// Peak accounted bytes across all lanes combined (RSS proxy).
    peak_bytes: u64,
    /// Largest single-lane peak — what the budget actually bounds.
    max_lane_peak: u64,
    spilled_bytes: u64,
    spill_reads: u64,
    evicted_bytes: u64,
    backpressure_waits: u64,
    clusters: usize,
    noise: usize,
}

#[derive(Serialize)]
struct ReportPr7 {
    bench: &'static str,
    n: usize,
    dim: usize,
    partitions: usize,
    executors: usize,
    seed: u64,
    budget_fraction_of_peak: f64,
    unbounded: BudgetArm,
    budgeted: BudgetArm,
    labels_identical: bool,
    trace_identical_modulo_memory: bool,
    peak_within_budget: bool,
}

/// One arm of the partitioning experiment.
fn run_arm(balance: Balance, data: &Arc<Dataset>) -> (SparkDbscanResult, f64) {
    let params = DbscanParams::new(EPS, MIN_PTS).expect("valid params");
    let ctx = Context::new(ClusterConfig::local(PARTITIONS).with_seed(SEED));
    let t = Instant::now();
    let result = SparkDbscan::new(params)
        .partitions(PARTITIONS)
        .exact()
        .balance(balance)
        .run(&ctx, Arc::clone(data));
    (result, t.elapsed().as_secs_f64() * 1e3)
}

/// Max/mean over the deterministic work proxy (`neighbors_found` per
/// partition) — immune to timer noise, in the planner's own cost units.
fn work_ratio(result: &SparkDbscanResult) -> f64 {
    let work: Vec<f64> =
        result.executor_stats.iter().map(|(_, s)| s.neighbors_found as f64).collect();
    let max = work.iter().cloned().fold(0.0, f64::max);
    let mean = work.iter().sum::<f64>() / work.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

fn arm(name: &'static str, result: &SparkDbscanResult, wall_ms: f64) -> Arm {
    // the executor stage is the one carrying the clustering tasks
    let stage = result
        .job
        .stages
        .iter()
        .max_by_key(|s| s.executor_busy())
        .expect("executor job has stages");
    Arm {
        balance: name,
        wall_ms,
        plan_ms: result.timings.plan.as_secs_f64() * 1e3,
        executor_wall_ms: result.timings.executor_wall.as_secs_f64() * 1e3,
        task_max_ms: stage.max_task().as_secs_f64() * 1e3,
        simulated_makespan_ms: stage.simulated_makespan(PARTITIONS).as_secs_f64() * 1e3,
        task_max_mean_ratio: stage.max_mean_ratio(),
        work_max_mean_ratio: work_ratio(result),
        partition_work: result
            .executor_stats
            .iter()
            .map(|(_, s)| s.neighbors_found as u64)
            .collect(),
        predicted_cost: result.predicted_cost.clone(),
        clusters: result.clustering.num_clusters(),
        noise: result.clustering.noise_count(),
    }
}

/// Queries/sec of one scan path over a prepared block.
fn kernel_qps(
    generic: bool,
    dim: usize,
    queries: &[Vec<f64>],
    block: &[f64],
    thr: f64,
) -> (f64, u64) {
    let mut matches = 0u64;
    let t = Instant::now();
    for q in queries {
        let count = |_i: usize| {
            matches += 1;
            true
        };
        if generic {
            scan_block_generic(Metric::Euclidean, dim, q, block, thr, count);
        } else {
            scan_block(Metric::Euclidean, dim, q, block, thr, count);
        }
    }
    (queries.len() as f64 / t.elapsed().as_secs_f64(), matches)
}

fn kernel_experiment(rows: usize, queries: usize) -> Vec<KernelRow> {
    let mut out = Vec::new();
    for dim in [2usize, 3, 4, 5] {
        // deterministic pseudo-data, no RNG needed for a throughput test
        let block: Vec<f64> = (0..rows * dim).map(|i| ((i as f64) * 0.731).sin() * 500.0).collect();
        // block rows as queries: every query matches at least itself,
        // whatever the dimension, so the match path is always timed
        let qs: Vec<Vec<f64>> = (0..queries)
            .map(|q| {
                let r = q * rows / queries;
                block[r * dim..(r + 1) * dim].to_vec()
            })
            .collect();
        let thr = Metric::Euclidean.threshold(EPS);
        // one warm-up pass per path, then the measured pass
        let _ = kernel_qps(false, dim, &qs, &block, thr);
        let _ = kernel_qps(true, dim, &qs, &block, thr);
        let (fast_qps, fast_matches) = kernel_qps(false, dim, &qs, &block, thr);
        let (slow_qps, slow_matches) = kernel_qps(true, dim, &qs, &block, thr);
        assert_eq!(fast_matches, slow_matches, "kernel paths disagree at dim {dim}");
        println!(
            "kernel dim={dim}: specialized {:.2} Mq/s, generic {:.2} Mq/s ({:.2}x)",
            fast_qps / 1e6,
            slow_qps / 1e6,
            fast_qps / slow_qps
        );
        out.push(KernelRow {
            dim,
            specialized: dbscan_spatial::SPECIALIZED_DIMS.contains(&dim),
            rows,
            queries,
            specialized_qps: fast_qps,
            generic_qps: slow_qps,
            speedup: fast_qps / slow_qps,
            matches: fast_matches,
        });
    }
    out
}

const MODEL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Driver-phase experiment for one dataset size: measure the build and
/// the merge once at one worker, model the fork-join makespan at each
/// worker count, and verify the parallel paths are byte-identical.
/// Exits the process on an identity violation — a wrong answer must
/// never ship inside a performance report.
fn driver_phase_case(n: usize) -> DriverPhaseCase {
    // Table-I-style clustered data (10-dim Gaussian blobs + noise), so
    // eps-neighborhoods stay bounded at 100k points — the skewed 2-d
    // hotspot of experiment 1 would make N(eps) quadratic in n here.
    let params = GeneratorParams::new(n, 10, (n / 1600).max(4), SEED);
    let (data, _) = ClusterGenerator::new(params).generate();
    let data = Arc::new(data);
    let dbscan = DbscanParams::new(EPS, MIN_PTS).expect("valid params");

    // ~32 shards regardless of n, so LPT has room at every modeled k
    let cutoff = (n / 32).max(1024);
    let cfg = BuildConfig::default().with_par_cutoff(cutoff);

    // -- build: measure at 1 worker, model k, verify an 8-worker build
    let (tree, build) =
        BkdTree::build_with_report(Arc::clone(&data), Metric::Euclidean, cfg.with_threads(1));
    let (tree8, _) =
        BkdTree::build_with_report(Arc::clone(&data), Metric::Euclidean, cfg.with_threads(8));
    let build_identical = tree.same_structure(&tree8);

    let base = build.modeled_makespan_nanos(1) as f64;
    let build_models: Vec<PhasePoint> = MODEL_THREADS
        .iter()
        .map(|&k| {
            let m = build.modeled_makespan_nanos(k) as f64;
            PhasePoint { threads: k, modeled_ms: m / 1e6, speedup: base / m }
        })
        .collect();
    let build_speedup_at_8 = build_models.last().map(|p| p.speedup).unwrap_or(1.0);

    // -- merge: real partial clusters from 64 executor-side runs, then
    // the instrumented union-find pipeline at 1 worker
    let partitions = 64;
    let ranges = PartitionRanges::new(n, partitions);
    let mut partials = Vec::new();
    let mut core = vec![false; n];
    for p in 0..partitions {
        let local = local_partial_clusters(
            |i, out| tree.range_into(data.row(i as usize), dbscan.eps, out),
            dbscan,
            &ranges,
            p,
            SeedPolicy::PerBoundaryEdge,
        );
        partials.extend(local.clusters);
        for c in local.core_points {
            core[c as usize] = true;
        }
    }

    let (serial_out, mrep) = merge_unionfind_report(n, &partials, &core, 1);
    let par_out = merge_partial_clusters_threaded(n, &partials, MergeStrategy::UnionFind, &core, 8);
    let merge_identical = serial_out.clustering.labels == par_out.clustering.labels;

    let mbase = mrep.modeled_makespan_nanos(1) as f64;
    let merge_models: Vec<PhasePoint> = MODEL_THREADS
        .iter()
        .map(|&k| {
            let m = mrep.modeled_makespan_nanos(k) as f64;
            PhasePoint { threads: k, modeled_ms: m / 1e6, speedup: mbase / m }
        })
        .collect();
    let merge_speedup_at_8 = merge_models.last().map(|p| p.speedup).unwrap_or(1.0);

    let case = DriverPhaseCase {
        n,
        dim: 10,
        partitions,
        par_cutoff: cutoff,
        build_shards: build.shards.len(),
        build_serial_ms: base / 1e6,
        build_internal_ms: build.internal_total_nanos() as f64 / 1e6,
        build_coords_ms: build.coords_nanos as f64 / 1e6,
        build_models,
        build_speedup_at_8,
        build_structure_identical: build_identical,
        partial_clusters: partials.len(),
        seed_edges: serial_out.merge_ops,
        merge_serial_ms: mbase / 1e6,
        merge_phases: mrep
            .phases
            .iter()
            .map(|p| MergePhaseRow {
                name: p.name,
                serial: p.serial,
                chunks: p.chunk_nanos.len(),
                ms: p.chunk_nanos.iter().sum::<u64>() as f64 / 1e6,
            })
            .collect(),
        merge_models,
        merge_speedup_at_8,
        merge_labels_identical: merge_identical,
    };
    println!(
        "driver phases n={n}: build {:.1} ms serial -> {:.1} ms @8 ({:.2}x, {} shards), \
         merge {:.2} ms serial -> {:.2} ms @8 ({:.2}x, {} partials)",
        case.build_serial_ms,
        case.build_models.last().unwrap().modeled_ms,
        build_speedup_at_8,
        case.build_shards,
        case.merge_serial_ms,
        case.merge_models.last().unwrap().modeled_ms,
        merge_speedup_at_8,
        case.partial_clusters,
    );
    if !build_identical {
        eprintln!("FAIL: n={n}: 8-thread kd-tree build is not structurally identical");
        std::process::exit(1);
    }
    if !merge_identical {
        eprintln!("FAIL: n={n}: 8-thread merge labels differ from sequential merge");
        std::process::exit(1);
    }
    case
}

/// One arm of the memory-budget experiment: the partitioned runner on
/// `PARTITIONS` executors with `partitions` tasks, traced, optionally
/// under a per-executor byte budget.
fn budget_arm_run(
    budget: Option<u64>,
    data: &Arc<Dataset>,
    partitions: usize,
) -> (SparkDbscanResult, Trace, f64) {
    let params = DbscanParams::new(EPS, MIN_PTS).expect("valid params");
    let mut cfg =
        ClusterConfig::local(PARTITIONS).with_seed(SEED).with_trace(TraceConfig::enabled());
    if let Some(b) = budget {
        cfg = cfg.with_memory_budget(b);
    }
    let ctx = Context::new(cfg);
    let t = Instant::now();
    let result =
        SparkDbscan::new(params).partitions(partitions).exact().run(&ctx, Arc::clone(data));
    (result, ctx.trace().snapshot(), t.elapsed().as_secs_f64() * 1e3)
}

fn budget_arm(budget: u64, result: &SparkDbscanResult, wall_ms: f64) -> BudgetArm {
    let m = result.memory;
    BudgetArm {
        budget_bytes: budget,
        wall_ms,
        peak_bytes: m.peak_bytes,
        max_lane_peak: m.max_lane_peak,
        spilled_bytes: m.spilled_bytes,
        spill_reads: m.spill_reads,
        evicted_bytes: m.evicted_bytes,
        backpressure_waits: m.backpressure_waits,
        clusters: result.clustering.num_clusters(),
        noise: result.clustering.noise_count(),
    }
}

/// Experiment 4: the memory-budget identity run at n=100k. Unbounded
/// first (accounting is always on, so its peak derives the budget),
/// then at 25% of that peak. Exits the process on any label or trace
/// identity violation — graceful degradation must stay *graceful*.
fn memory_budget_experiment(out_dir: &str) {
    let n = 100_000;
    let partitions = 32; // 4 queued tasks per executor lane: crowding is real
    let gen = GeneratorParams::new(n, 10, (n / 1600).max(4), SEED);
    let (data, _) = ClusterGenerator::new(gen).generate();
    let data = Arc::new(data);

    let (unb, unb_trace, unb_ms) = budget_arm_run(None, &data, partitions);
    let budget = unb.memory.max_lane_peak / 4;
    let (bud, bud_trace, bud_ms) = budget_arm_run(Some(budget), &data, partitions);

    let labels_identical =
        unb.clustering.canonicalize().labels == bud.clustering.canonicalize().labels;
    let trace_identical = bud_trace.without_memory().events == unb_trace.events;
    let peak_within_budget = bud.memory.max_lane_peak <= budget;

    println!(
        "memory budget n={n}: unbounded lane peak {} B in {unb_ms:.1} ms; \
         budget {budget} B -> spilled {} B ({} reads), {} backpressure waits, \
         lane peak {} B in {bud_ms:.1} ms",
        unb.memory.max_lane_peak,
        bud.memory.spilled_bytes,
        bud.memory.spill_reads,
        bud.memory.backpressure_waits,
        bud.memory.max_lane_peak,
    );

    let report_value = ReportPr7 {
        bench: "BENCH_PR7",
        n,
        dim: 10,
        partitions,
        executors: PARTITIONS,
        seed: SEED,
        budget_fraction_of_peak: 0.25,
        unbounded: budget_arm(0, &unb, unb_ms),
        budgeted: budget_arm(budget, &bud, bud_ms),
        labels_identical,
        trace_identical_modulo_memory: trace_identical,
        peak_within_budget,
    };
    report::write_json(Path::new(out_dir), "BENCH_PR7", &report_value).expect("write BENCH_PR7");

    if !labels_identical {
        eprintln!("FAIL: budgeted labels differ from the unbounded run");
        std::process::exit(1);
    }
    if !trace_identical {
        eprintln!("FAIL: budgeted trace (modulo MemoryAction) differs from the unbounded run");
        std::process::exit(1);
    }
    if !peak_within_budget {
        eprintln!(
            "FAIL: budgeted lane peak {} exceeds the budget {budget}",
            bud.memory.max_lane_peak
        );
        std::process::exit(1);
    }
    if bud.memory.spilled_bytes == 0 {
        eprintln!("FAIL: a 25% budget run never spilled — the ladder was not exercised");
        std::process::exit(1);
    }
}

/// One row of the leaf-scan throughput microbench.
#[derive(Serialize)]
struct LeafScanRow {
    dim: usize,
    rows: usize,
    leaves: usize,
    queries: usize,
    lanes: usize,
    scalar_mrows_per_s: f64,
    soa_mrows_per_s: f64,
    speedup: f64,
    hits: u64,
}

/// One cell of the end-to-end kernel identity matrix.
#[derive(Serialize)]
struct IdentityCell {
    config: &'static str,
    worker_threads: usize,
    labels_identical: bool,
    trace_identical: bool,
    kernel_rows_scanned: u64,
    kernel_early_exits: u64,
}

#[derive(Serialize)]
struct ReportPr9 {
    bench: &'static str,
    seed: u64,
    eps: f64,
    min_pts: usize,
    leaf_scan: Vec<LeafScanRow>,
    /// Worst SoA-vs-scalar speedup over the acceptance dims {2, 3, 4}.
    min_speedup_d2_4: f64,
    identity_n: usize,
    identity_partitions: usize,
    cells: Vec<IdentityCell>,
    all_labels_identical: bool,
    all_traces_identical: bool,
}

/// Leaf-scan throughput at one dimension: every query swept over every
/// leaf of the same bucketed tree, once through the row-major scalar
/// scan and once through the dimension-major SoA lane kernel. Both
/// paths must report the same hit count (they are bit-identical by
/// construction; the counter is a cheap cross-check that also defeats
/// dead-code elimination, and proves the hit path ran).
fn leaf_scan_row(dim: usize, n: usize, queries: usize) -> LeafScanRow {
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..dim).map(|k| (((i * dim + k) as f64) * 0.711).sin() * 500.0).collect())
        .collect();
    let ds = Arc::new(Dataset::from_rows(rows));
    let cfg = BuildConfig::default().with_bucket_size(64);
    let (tree, _) = BkdTree::build_with_report(Arc::clone(&ds), Metric::Euclidean, cfg);
    let leaves = tree.leaf_ranges();
    // dataset rows as queries: each hits at least itself at every dim
    let qs: Vec<Vec<f64>> = (0..queries).map(|q| ds.row(q * n / queries).to_vec()).collect();
    let thr = Metric::Euclidean.threshold(EPS * 2.0);

    let scalar_pass = || {
        let mut hits = 0u64;
        let t = Instant::now();
        for q in &qs {
            for &(s, e) in &leaves {
                scan_block(Metric::Euclidean, dim, q, tree.leaf_coords(s, e), thr, |_| {
                    hits += 1;
                    true
                });
            }
        }
        (t.elapsed().as_secs_f64(), hits)
    };
    let soa_pass = || {
        let mut hits = 0u64;
        let t = Instant::now();
        for q in &qs {
            for &(s, e) in &leaves {
                let soa = tree.leaf_soa(s, e).expect("lanes layout builds the SoA mirror");
                scan_block_soa(Metric::Euclidean, dim, q, soa, e - s, thr, DEFAULT_LANES, |_| {
                    hits += 1;
                    true
                });
            }
        }
        (t.elapsed().as_secs_f64(), hits)
    };

    // one warm-up pass per path, then interleaved best-of-N: the suite
    // shares a single preemptible vCPU with the rest of the machine, so
    // any individual pass can be descheduled mid-flight — the minimum
    // over alternating reps is the only stable throughput estimate
    let _ = scalar_pass();
    let _ = soa_pass();
    let (mut scalar_s, mut soa_s) = (f64::INFINITY, f64::INFINITY);
    let (mut scalar_hits, mut soa_hits) = (0u64, 0u64);
    for _ in 0..5 {
        let (s, h) = scalar_pass();
        scalar_s = scalar_s.min(s);
        scalar_hits = h;
        let (s, h) = soa_pass();
        soa_s = soa_s.min(s);
        soa_hits = h;
    }
    assert_eq!(scalar_hits, soa_hits, "leaf-scan paths disagree at dim {dim}");

    let touched = (queries * n) as f64;
    let row = LeafScanRow {
        dim,
        rows: n,
        leaves: leaves.len(),
        queries,
        lanes: DEFAULT_LANES,
        scalar_mrows_per_s: touched / scalar_s / 1e6,
        soa_mrows_per_s: touched / soa_s / 1e6,
        speedup: scalar_s / soa_s,
        hits: scalar_hits,
    };
    println!(
        "leaf scan dim={dim}: scalar {:.1} Mrows/s, soa {:.1} Mrows/s ({:.2}x, {} leaves)",
        row.scalar_mrows_per_s, row.soa_mrows_per_s, row.speedup, row.leaves
    );
    row
}

/// Experiment 5: SoA lane-kernel throughput plus the end-to-end kernel
/// identity matrix. Exits the process on an identity violation or a
/// missed throughput floor.
fn kernel_layout_experiment(out_dir: &str) {
    let leaf_scan: Vec<LeafScanRow> =
        [2usize, 3, 4, 5, 6].into_iter().map(|d| leaf_scan_row(d, 16_384, 192)).collect();
    let min_speedup_d2_4 =
        leaf_scan.iter().filter(|r| r.dim <= 4).map(|r| r.speedup).fold(f64::INFINITY, f64::min);

    // -- end-to-end identity matrix on a small skewed workload
    let identity_n = 6_000;
    let (data, _) = SkewedGenerator::new(SkewedParams::new(identity_n, 2, SEED)).generate();
    let data = Arc::new(data);
    let params = DbscanParams::new(EPS, MIN_PTS).expect("valid params");

    let run_cell = |kernel: KernelConfig, workers: usize| {
        let mut cfg =
            ClusterConfig::local(PARTITIONS).with_seed(SEED).with_trace(TraceConfig::enabled());
        cfg.worker_threads = workers;
        let ctx = Context::new(cfg);
        let res = Resources::new().with_build(BuildConfig::default().with_kernel(kernel));
        let out = SparkDbscan::new(params)
            .partitions(PARTITIONS)
            .exact()
            .resources(res)
            .run(&ctx, Arc::clone(&data));
        (out, ctx.trace().snapshot())
    };

    let (ref_out, ref_trace) = run_cell(KernelConfig::scalar(), 1);
    let ref_labels = ref_out.clustering.canonicalize().labels;

    let arms = [1usize, 2, 8].into_iter().flat_map(|workers| {
        [("scalar", KernelConfig::scalar()), ("lanes", KernelConfig::default())]
            .map(|(name, kernel)| (name, kernel, workers))
    });

    let mut cells = Vec::new();
    for (name, kernel, workers) in arms {
        let (out, trace) = run_cell(kernel, workers);
        let labels_identical = out.clustering.canonicalize().labels == ref_labels;
        let trace_identical = trace.events == ref_trace.events;
        let rows: u64 = out.executor_stats.iter().map(|(_, s)| s.kernel.rows_scanned).sum();
        let exits: u64 = out.executor_stats.iter().map(|(_, s)| s.kernel.early_exits).sum();
        println!(
            "identity {name}@{workers}: labels {} trace {} ({} kernel rows, {} early exits)",
            if labels_identical { "ok" } else { "DIFFER" },
            if trace_identical { "ok" } else { "DIFFER" },
            rows,
            exits,
        );
        cells.push(IdentityCell {
            config: name,
            worker_threads: workers,
            labels_identical,
            trace_identical,
            kernel_rows_scanned: rows,
            kernel_early_exits: exits,
        });
    }
    let all_labels = cells.iter().all(|c| c.labels_identical);
    let all_traces = cells.iter().all(|c| c.trace_identical);

    let report_value = ReportPr9 {
        bench: "BENCH_PR9",
        seed: SEED,
        eps: EPS,
        min_pts: MIN_PTS,
        leaf_scan,
        min_speedup_d2_4,
        identity_n,
        identity_partitions: PARTITIONS,
        cells,
        all_labels_identical: all_labels,
        all_traces_identical: all_traces,
    };
    report::write_json(Path::new(out_dir), "BENCH_PR9", &report_value).expect("write BENCH_PR9");

    if !all_labels {
        eprintln!("FAIL: a kernel configuration changed the clustering labels");
        std::process::exit(1);
    }
    if !all_traces {
        eprintln!("FAIL: a kernel configuration changed the event trace");
        std::process::exit(1);
    }
    if let Some(r) = report_value.leaf_scan.iter().find(|r| r.hits == 0) {
        eprintln!("FAIL: leaf-scan row at dim {} reported zero hits", r.dim);
        std::process::exit(1);
    }
    if min_speedup_d2_4 < 1.5 {
        eprintln!(
            "FAIL: SoA leaf-scan speedup {min_speedup_d2_4:.2}x at d in {{2,3,4}} is below the 1.5x floor"
        );
        std::process::exit(1);
    }
}

/// One stage of the speculation makespan model: the measured stage
/// replayed with and without the clone-at-median-multiple policy.
#[derive(Serialize)]
struct SpecStageRow {
    stage_id: usize,
    kind: String,
    tasks: usize,
    straggled_tasks: usize,
    off_ms: f64,
    on_ms: f64,
    ratio: f64,
}

/// One cell of the real-straggler identity matrix.
#[derive(Serialize)]
struct SpecIdentityCell {
    worker_threads: usize,
    speculative_launches: usize,
    speculative_wins: usize,
    speculative_losses: usize,
    labels_identical: bool,
    /// Modulo the zero-tick speculation events (clone-scoped executor
    /// events and the driver's launch/win/loss markers).
    stripped_trace_identical: bool,
}

#[derive(Serialize)]
struct ReportPr10 {
    bench: &'static str,
    seed: u64,
    n: usize,
    partitions: usize,
    straggler_prob: f64,
    straggler_slowdown: f64,
    multiplier_pct: u32,
    stages: Vec<SpecStageRow>,
    job_off_ms: f64,
    job_on_ms: f64,
    /// Off/on makespan ratio of the stage with the largest unspeculated
    /// makespan — the tail the policy exists to cut.
    tail_stage_ratio: f64,
    job_ratio: f64,
    identity: Vec<SpecIdentityCell>,
    total_speculative_launches: usize,
    all_labels_identical: bool,
    all_traces_identical: bool,
}

fn speculation_counts(t: &Trace) -> (usize, usize, usize) {
    let (mut launches, mut wins, mut losses) = (0, 0, 0);
    for e in &t.events {
        match e.kind {
            EventKind::SpeculativeLaunch { .. } => launches += 1,
            EventKind::SpeculativeWin { .. } => wins += 1,
            EventKind::SpeculativeLoss { .. } => losses += 1,
            _ => {}
        }
    }
    (launches, wins, losses)
}

/// Experiment 6: speculative execution. Exits the process on an
/// identity violation or a missed tail-reduction floor.
fn speculation_experiment(out_dir: &str) {
    let n = 16_000;
    let params = DbscanParams::new(EPS, MIN_PTS).expect("valid params");
    // evenly-loaded clusters (shuffled emission), so the tail below is
    // *only* the injected straggler, not data skew
    let (data, _) = ClusterGenerator::new(GeneratorParams::new(n, 2, 8, SEED)).generate();
    let data = Arc::new(data);
    let spec = SpeculationConfig::on().with_multiplier_pct(150);

    // -- headline: one traced run with simulated stragglers, replayed
    // through the makespan model with and without the policy
    let straggle = StragglerConfig { prob: 0.3, slowdown: 8.0 };
    let ctx =
        Context::new(ClusterConfig::local(PARTITIONS).with_seed(SEED).with_straggler(straggle));
    let out = SparkDbscan::new(params).partitions(PARTITIONS).exact().run(&ctx, Arc::clone(&data));

    let stages: Vec<SpecStageRow> = out
        .job
        .stages
        .iter()
        .filter(|s| !s.tasks.is_empty())
        .map(|s| {
            let off = s.simulated_makespan(PARTITIONS).as_secs_f64() * 1e3;
            let on = s.speculated_makespan(PARTITIONS, spec).as_secs_f64() * 1e3;
            SpecStageRow {
                stage_id: s.stage_id,
                kind: format!("{:?}", s.kind),
                tasks: s.tasks.len(),
                straggled_tasks: s.tasks.iter().filter(|t| !t.straggler_extra.is_zero()).count(),
                off_ms: off,
                on_ms: on,
                ratio: if on > 0.0 { off / on } else { 1.0 },
            }
        })
        .collect();
    let job_off_ms = out.job.simulated_executor_time(PARTITIONS).as_secs_f64() * 1e3;
    let job_on_ms = out.job.speculated_executor_time(PARTITIONS, spec).as_secs_f64() * 1e3;
    let tail_stage_ratio =
        stages.iter().max_by(|a, b| a.off_ms.total_cmp(&b.off_ms)).map(|s| s.ratio).unwrap_or(1.0);
    let job_ratio = if job_on_ms > 0.0 { job_off_ms / job_on_ms } else { 1.0 };
    println!(
        "speculation model: job {job_off_ms:.1} ms -> {job_on_ms:.1} ms ({job_ratio:.2}x), \
         tail stage {tail_stage_ratio:.2}x"
    );

    // -- identity matrix: real wall-clock stragglers, speculation off
    // (the reference) vs on, at 1, 2 and 8 worker threads. The policy
    // rides the Resources bundle, exercising the full driver plumbing.
    let plan = FaultPlan::none().with_stragglers(FaultRule::with_prob(0.3, 1), 25);
    let run_leg = |workers: usize, spec: SpeculationConfig| {
        let mut cfg = ClusterConfig::local(PARTITIONS)
            .with_seed(SEED)
            .with_trace(TraceConfig::enabled())
            .with_fault(plan.clone());
        cfg.worker_threads = workers;
        let ctx = Context::new(cfg);
        let res = Resources::new().with_speculation(spec);
        let out = SparkDbscan::new(params)
            .partitions(PARTITIONS)
            .exact()
            .resources(res)
            .run(&ctx, Arc::clone(&data));
        // losing twins may still be running when the stage commits;
        // let them finish recording before snapshotting the trace
        std::thread::sleep(std::time::Duration::from_millis(200));
        (out.clustering.canonicalize().labels, ctx.trace().snapshot())
    };

    let mut cells = Vec::new();
    let mut ref_labels: Option<Vec<_>> = None;
    for workers in [1usize, 2, 8] {
        let (off_labels, off_trace) = run_leg(workers, SpeculationConfig::OFF);
        let (on_labels, on_trace) = run_leg(workers, spec);
        let reference = ref_labels.get_or_insert(off_labels.clone());
        let labels_identical = off_labels == *reference && on_labels == *reference;
        let stripped_trace_identical = on_trace.without_speculation().events == off_trace.events;
        let (launches, wins, losses) = speculation_counts(&on_trace);
        println!(
            "identity speculation@{workers}: labels {} trace {} \
             ({launches} launches, {wins} wins, {losses} losses)",
            if labels_identical { "ok" } else { "DIFFER" },
            if stripped_trace_identical { "ok" } else { "DIFFER" },
        );
        cells.push(SpecIdentityCell {
            worker_threads: workers,
            speculative_launches: launches,
            speculative_wins: wins,
            speculative_losses: losses,
            labels_identical,
            stripped_trace_identical,
        });
    }
    let total_launches: usize = cells.iter().map(|c| c.speculative_launches).sum();
    let all_labels = cells.iter().all(|c| c.labels_identical);
    let all_traces = cells.iter().all(|c| c.stripped_trace_identical);

    let report_value = ReportPr10 {
        bench: "BENCH_PR10",
        seed: SEED,
        n,
        partitions: PARTITIONS,
        straggler_prob: straggle.prob,
        straggler_slowdown: straggle.slowdown,
        multiplier_pct: spec.multiplier_pct,
        stages,
        job_off_ms,
        job_on_ms,
        tail_stage_ratio,
        job_ratio,
        identity: cells,
        total_speculative_launches: total_launches,
        all_labels_identical: all_labels,
        all_traces_identical: all_traces,
    };
    report::write_json(Path::new(out_dir), "BENCH_PR10", &report_value).expect("write BENCH_PR10");

    if !all_labels {
        eprintln!("FAIL: speculative execution changed the clustering labels");
        std::process::exit(1);
    }
    if !all_traces {
        eprintln!("FAIL: stripping speculation events did not recover the clean trace");
        std::process::exit(1);
    }
    if total_launches == 0 {
        eprintln!("FAIL: the straggler detector never launched a clone in the identity matrix");
        std::process::exit(1);
    }
    if tail_stage_ratio < 2.0 {
        eprintln!(
            "FAIL: speculation cut the tail stage only {tail_stage_ratio:.2}x, below the 2x floor"
        );
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    // fast path for iterating on the kernel experiment alone
    if args.iter().any(|a| a == "--kernels-only") {
        args.retain(|a| a != "--kernels-only");
        let out_dir = args.get(1).map(String::as_str).unwrap_or("results");
        kernel_layout_experiment(out_dir);
        return;
    }
    // fast path for the speculation experiment alone
    if args.iter().any(|a| a == "--speculation-only") {
        args.retain(|a| a != "--speculation-only");
        let out_dir = args.get(1).map(String::as_str).unwrap_or("results");
        speculation_experiment(out_dir);
        return;
    }
    let out_dir = args.get(1).map(String::as_str).unwrap_or("results");
    let n: usize = args.get(2).map(|s| s.parse().expect("n must be an integer")).unwrap_or(20_000);

    // ---- experiment 1: count vs cost partitioning on a skewed set ----
    let (data, _) = SkewedGenerator::new(SkewedParams::new(n, 2, SEED)).generate();
    let data = Arc::new(data);
    println!("skewed dataset: n={n} dim=2 seed={SEED}, {PARTITIONS} partitions, eps={EPS}");

    let (count_result, count_ms) = run_arm(Balance::Count, &data);
    let (cost_result, cost_ms) = run_arm(Balance::Cost, &data);

    let identical = count_result.clustering.canonicalize().labels
        == cost_result.clustering.canonicalize().labels;
    let (count_work, cost_work) = (work_ratio(&count_result), work_ratio(&cost_result));
    let count_arm = arm("count", &count_result, count_ms);
    let cost_arm = arm("cost", &cost_result, cost_ms);
    println!(
        "count: wall {count_ms:.1} ms, makespan@{PARTITIONS} {:.1} ms, work max/mean {count_work:.2}\n\
         cost:  wall {cost_ms:.1} ms, makespan@{PARTITIONS} {:.1} ms, work max/mean {cost_work:.2}",
        count_arm.simulated_makespan_ms, cost_arm.simulated_makespan_ms
    );

    let report_value = Report {
        bench: "BENCH_PR4",
        config: Config {
            n,
            dim: 2,
            seed: SEED,
            partitions: PARTITIONS,
            eps: EPS,
            min_pts: MIN_PTS,
            hotspot_fraction: 0.25,
            hotspot_sigma: 5.0,
            side: 1000.0,
        },
        partitioning: Partitioning {
            count: count_arm,
            cost: cost_arm,
            labels_identical: identical,
            work_ratio_improvement: count_work / cost_work,
        },
        kernels: kernel_experiment(4096, 512),
    };
    report::write_json(Path::new(out_dir), "BENCH_PR4", &report_value).expect("write BENCH_PR4");

    if !identical {
        eprintln!("FAIL: cost-balanced labels differ from equal-count labels");
        std::process::exit(1);
    }
    if let Some(r) = report_value.kernels.iter().find(|r| r.matches == 0) {
        eprintln!("FAIL: kernel row at dim {} reported zero matches", r.dim);
        std::process::exit(1);
    }
    if cost_work > count_work {
        eprintln!(
            "FAIL: cost balancing worsened work imbalance ({count_work:.2} -> {cost_work:.2})"
        );
        std::process::exit(1);
    }
    println!("perf suite: labels identical, work imbalance {count_work:.2} -> {cost_work:.2}");

    // ---- experiment 3: driver phases (build + merge) at 20k / 100k ----
    let pr6 = ReportPr6 {
        bench: "BENCH_PR6",
        seed: SEED,
        eps: EPS,
        min_pts: MIN_PTS,
        model_threads: MODEL_THREADS.to_vec(),
        cases: vec![driver_phase_case(20_000), driver_phase_case(100_000)],
    };
    report::write_json(Path::new(out_dir), "BENCH_PR6", &pr6).expect("write BENCH_PR6");

    // ---- experiment 4: memory budget (spill, don't fail) at 100k -----
    memory_budget_experiment(out_dir);

    // ---- experiment 5: SoA lane kernels + kernel identity matrix -----
    kernel_layout_experiment(out_dir);

    // ---- experiment 6: speculative execution vs stragglers -----------
    speculation_experiment(out_dir);
}
