//! End-to-end and per-layer benchmark of the SEED-based Spark DBSCAN.
//!
//! `e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up, computes a sequential oracle, runs one untimed
//! warm-up clustering and one traced replay (checked against it), then
//! clusters in a closed loop for `--seconds`. With `--trace 0` every
//! clustering goes through the `DbscanRunner` facade and the last line
//! of stdout carries the end-to-end metrics; with `--trace 1` facade
//! runs alternate with traced replays and it carries the per-layer
//! metrics. See README.md for the workloads and metrics.

mod guards;
mod host;
mod replay;
mod workload;

use dbscan_core::{
    core_labels_equivalent, Clustering, DbscanRunner, Label, RunEnv, SequentialDbscan, SparkDbscan,
    SparkDbscanResult,
};
use guards::Observation;
use replay::Replay;
use sparklet::{ClusterConfig, Context};
use std::mem::ManuallyDrop;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Prepared, Workload};

/// A run generates its input at least this many times, and for at
/// least `SETUP_MIN_SECONDS`, and creates `CONTEXT_REPEATS` contexts;
/// `setup_s` is the median generation time plus the median creation
/// time. Generation takes from a few milliseconds (`skew-d2`) to a
/// third of a second (`r100k-p64`), so a fixed count would leave the
/// short ones at the mercy of one hiccup. Every context is kept alive
/// to the end of the process because dropping one can hang (see
/// `Prepared::ctx`); the run uses the last.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.5;
const CONTEXT_REPEATS: usize = 5;

const USAGE: &str = "usage: e2e_bench --workload <c100k|r100k-p64|skew-d2> --seconds <s> \
                     [--seed <n>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: Option<u64>,
    /// Required unless `oracle`: `BENCHMARK.json` alone sets the run length.
    seconds: Option<u64>,
    trace: bool,
    /// Print the sequential oracle's labels instead of benchmarking.
    oracle: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: None, seconds: None, trace: false, oracle: false };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(num()?),
            "--seconds" => args.seconds = Some(num()?),
            "--trace" | "--oracle" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not {value}")),
                };
                if flag == "--trace" {
                    args.trace = on;
                } else {
                    args.oracle = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_none() && !args.oracle {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pinned = host::pinned_env_violations();
    if !pinned.is_empty() {
        eprintln!(
            "e2e_bench: refusing to run with {} set: the program reads these and would not be \
             the one this benchmark defines",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }
    // the oracle creates no engine context, so it needs no temp dir
    let result = if args.oracle { print_oracle(&args) } else { run_in_private_tmp(&args) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::from(1)
        }
    }
}

/// [`run`] inside [`with_private_tmp`].
fn run_in_private_tmp(args: &Args) -> Result<String, String> {
    with_private_tmp(|| run(args))?
}

/// Run `f` with the temp dir pointed at a fresh directory next to this
/// executable, and remove that directory afterwards: `Context::new`
/// makes its spill directory there, and no context is ever dropped to
/// remove it. Call it while no other thread reads the environment.
pub(crate) fn with_private_tmp<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let tmp = exe.with_file_name(format!("e2e_bench_tmp.{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    let out = f();
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(out)
}

/// Child-process side of [`oracle`]: the sequential run's seconds on
/// the first line, then `<cluster id or n> <0|1 core>` per point.
fn print_oracle(args: &Args) -> Result<String, String> {
    let w = workload::find(&args.workload).ok_or("unknown workload")?;
    let data = Arc::new(w.generate(args.seed.unwrap_or(w.default_seed)));
    let t = Instant::now();
    let c = SequentialDbscan::new(w.params()).run(data);
    let mut out = format!("{}\n", t.elapsed().as_secs_f64());
    for (l, core) in c.labels.iter().zip(&c.core) {
        match l {
            Label::Cluster(id) => out.push_str(&id.to_string()),
            Label::Noise => out.push('n'),
        }
        out.push_str(if *core { " 1\n" } else { " 0\n" });
    }
    out.pop();
    Ok(out)
}

/// The sequential oracle's labels and run time, computed once per run
/// in a child process so that its memory peak and CPU time stay out of
/// this process's `peak_rss_mb` and `cpu_s`.
fn oracle(w: &Workload, seed: u64) -> Result<(Clustering, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string(), "--oracle", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("oracle process: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle process exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|_| "oracle output is not UTF-8")?;
    let mut lines = text.lines();
    let bad = || "malformed oracle output".to_string();
    let seconds: f64 = lines.next().and_then(|l| l.parse().ok()).ok_or_else(bad)?;
    let mut c = Clustering { labels: Vec::new(), core: Vec::new() };
    for line in lines {
        let (label, core) = line.split_once(' ').ok_or_else(bad)?;
        c.labels.push(match label {
            "n" => Label::Noise,
            id => Label::Cluster(id.parse().map_err(|_| bad())?),
        });
        c.core.push(core == "1");
    }
    Ok((c, seconds))
}

/// Correctness gate of one clustering against the oracle: the same
/// number of clusters and the same partition of the core points.
fn gate(c: &Clustering, oracle: &Clustering) -> bool {
    c.num_clusters() == oracle.num_clusters() && core_labels_equivalent(c, oracle)
}

/// The replay describes the program only if it produced the program's
/// exact labels and per-partition counters.
fn fidelity(program: &SparkDbscanResult, r: &Replay) -> Result<(), String> {
    if r.clustering.labels != program.clustering.labels
        || r.clustering.core != program.clustering.core
    {
        return Err("traced replay labels differ from the program's".into());
    }
    if r.executor_stats != program.executor_stats {
        return Err("traced replay executor stats differ from the program's".into());
    }
    Ok(())
}

pub(crate) fn observation(
    w: &Workload,
    prep: &Prepared,
    program: &SparkDbscanResult,
    r: &Replay,
) -> Observation {
    Observation {
        n: prep.data.len(),
        partitions: w.partitions,
        tasks: program.job.stages.iter().map(|s| s.tasks.len()).sum(),
        range_hits: program.executor_stats.iter().map(|(_, s)| s.kernel.range_hits).sum(),
        points_per_partition: program
            .executor_stats
            .iter()
            .map(|(_, s)| s.points_processed)
            .collect(),
        seed_edges: r.seed_edges,
        dfs_bytes: prep.dfs.as_ref().map(|d| (r.bytes_read, d.len)),
    }
}

struct Sample {
    wall: f64,
    cpu: f64,
    ok: bool,
}

/// One clustering through the facade, from input to labels.
fn facade_run(prep: &Prepared, runner: &SparkDbscan, oracle: &Clustering) -> Sample {
    let shuffle_before = prep.ctx.shuffle_records();
    let cpu = host::usage().cpu;
    let t = Instant::now();
    let out = prep.load().and_then(|data| {
        runner.run_dbscan(&RunEnv::engine(&prep.ctx), data).map_err(|e| e.to_string())
    });
    let wall = t.elapsed().as_secs_f64();
    let cpu = (host::usage().cpu - cpu).as_secs_f64();
    let ok = match out {
        Ok(o) => gate(&o.clustering, oracle) && prep.ctx.shuffle_records() == shuffle_before,
        Err(e) => {
            eprintln!("e2e_bench: clustering failed: {e}");
            false
        }
    };
    Sample { wall, cpu, ok }
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles`.
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let at = |p: f64| {
        let pos = (p * (n + 1) as f64).clamp(1.0, n as f64) - 1.0;
        let (i, frac) = (pos.floor() as usize, pos.fract());
        if i + 1 < n {
            s[i] + (s[i + 1] - s[i]) * frac
        } else {
            s[i]
        }
    };
    (at(0.25), at(0.5), at(0.75))
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Checks outside the timed clusterings (warm-up gate, replay
    /// fidelity) that failed.
    other_failures: Vec<String>,
}

impl Tally {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn result_line(&self, metrics: &[(&str, f64, &str)]) -> String {
        let correct = self.failed == 0 && self.other_failures.is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            metrics_json(metrics)
        )
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = workload::find(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{USAGE}", args.workload))?;
    let seed = args.seed.unwrap_or(w.default_seed);
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("{}", host::record(w.name, seed, workers));
    let (oracle, sequential_s) = oracle(w, seed)?;

    let mut generation = Vec::new();
    let mut input = None;
    while generation.len() < SETUP_MIN_REPEATS || generation.iter().sum::<f64>() < SETUP_MIN_SECONDS
    {
        drop(input.take());
        let t = Instant::now();
        input = Some(w.make_input(seed)?);
        generation.push(t.elapsed().as_secs_f64());
    }
    let (data, dfs) = input.expect("the input is generated at least once");
    let mut creation = Vec::new();
    let mut contexts = Vec::new();
    for _ in 0..CONTEXT_REPEATS {
        let t = Instant::now();
        contexts.push(ManuallyDrop::new(Context::new(ClusterConfig::local(workers))));
        creation.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&generation) + median(&creation);
    let ctx = contexts.pop().expect("at least one context is created");
    let prep = Prepared { data, dfs, ctx };

    let mut tally = Tally::default();
    let runner = w.runner();
    let warm = runner.run(&prep.ctx, prep.load()?);
    if !gate(&warm.clustering, &oracle) || warm.shuffle_records != 0 {
        tally.other_failures.push("warm-up clustering failed the oracle gate".into());
    }
    let first = replay::run(w, &prep)?;
    if let Err(e) = fidelity(&warm, &first) {
        tally.other_failures.push(e);
    }
    guards::check(w.guards, &observation(w, &prep, &warm, &first))?;

    let seconds = args.seconds.ok_or("--seconds is required")?;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let line = if args.trace {
        traced(w, &prep, &runner, &oracle, &warm, sequential_s, deadline, &mut tally)?
    } else {
        untraced(&prep, &runner, &oracle, setup_s, &generation, deadline, &mut tally)
    };
    for f in &tally.other_failures {
        eprintln!("e2e_bench: {f}");
    }
    Ok(line)
}

fn untraced(
    prep: &Prepared,
    runner: &SparkDbscan,
    oracle: &Clustering,
    setup_s: f64,
    generation: &[f64],
    deadline: Instant,
    tally: &mut Tally,
) -> String {
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    loop {
        let s = facade_run(prep, runner, oracle);
        tally.count(s.ok);
        wall.push(s.wall);
        cpu.push(s.cpu);
        if Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss_mb = host::usage().peak_rss_kib as f64 / 1024.0;
    let detail = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!("{{\"samples\": {}, \"q1\": {q1}, \"median\": {m}, \"q3\": {q3}}}", v.len())
    };
    println!(
        "{{\"detail\": {{\"total_s\": {}, \"cpu_s\": {}, \"generation_s\": {}, \
         \"error_rate\": {}}}}}",
        detail(&wall),
        detail(&cpu),
        detail(generation),
        tally.failed as f64 / tally.attempted as f64
    );
    tally.result_line(&[
        ("total_s", median(&wall), "s"),
        ("cpu_s", median(&cpu), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("setup_s", setup_s, "s"),
    ])
}

/// Per-layer values of one replay, in `BENCHMARK.json` order (without
/// the two run-level entries `traced` appends).
fn layer_values(r: &Replay) -> Vec<(&'static str, f64, &'static str)> {
    let secs = |name: &str| r.span_total(name).as_secs_f64();
    let k = r.kernel();
    let stats = |f: fn(&dbscan_core::ExecutorStats) -> usize| {
        r.executor_stats.iter().map(|(_, s)| f(s)).sum::<usize>() as f64
    };
    let job_wall = secs("sparklet.foreach_partition");
    let busy = r.job.executor_busy().as_secs_f64();
    let task_max_mean = r.job.stages.first().map_or(1.0, |s| s.max_mean_ratio());
    vec![
        ("minidfs.read_s", secs("minidfs.read_file"), "s"),
        ("minidfs.bytes_read", r.bytes_read as f64, "bytes"),
        ("datagen.parse_s", secs("datagen.dataset_from_csv"), "s"),
        ("planner.plan_s", secs("planner.plan"), "s"),
        ("planner.predicted_max_mean", r.predicted_max_mean, "ratio"),
        ("executor_side.task_max_mean", task_max_mean, "ratio"),
        (
            "sparklet.worker_idle_frac",
            1.0 - busy / (job_wall * r.worker_threads as f64),
            "fraction",
        ),
        ("spatial.build_s", secs("spatial.build_with_report"), "s"),
        ("spatial.query_s", secs("spatial.neighbors"), "s"),
        ("spatial.queries", r.queries as f64, "count"),
        ("spatial.neighbors", stats(|s| s.neighbors_found), "count"),
        ("spatial.rows_scanned", k.rows_scanned as f64, "count"),
        ("spatial.blocks_scanned", k.blocks_scanned as f64, "count"),
        ("spatial.hit_ratio", k.range_hits as f64 / k.rows_scanned.max(1) as f64, "ratio"),
        ("spatial.early_exits", k.early_exits as f64, "count"),
        ("executor_side.busy_s", secs("executor_side.local_partial_clusters_source"), "s"),
        (
            "executor_side.bookkeeping_s",
            r.span_self("executor_side.local_partial_clusters_source").as_secs_f64(),
            "s",
        ),
        ("executor_side.seeds_placed", stats(|s| s.seeds_placed), "count"),
        ("executor_side.partial_clusters", r.partial_clusters as f64, "count"),
        ("sparklet.broadcast_s", secs("sparklet.broadcast_sized"), "s"),
        ("sparklet.job_wall_s", job_wall, "s"),
        (
            "sparklet.tasks",
            r.job.stages.iter().map(|s| s.tasks.len()).sum::<usize>() as f64,
            "count",
        ),
        ("merge.extract_s", secs("merge.extract_seed_edges"), "s"),
        ("merge.union_s", secs("merge.merge_with_edges"), "s"),
        ("merge.total_s", secs("merge"), "s"),
        ("merge.seed_edges", r.seed_edges as f64, "count"),
        ("merge.ops", r.merge_ops as f64, "count"),
    ]
}

#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    prep: &Prepared,
    runner: &SparkDbscan,
    oracle: &Clustering,
    program: &SparkDbscanResult,
    sequential_s: f64,
    deadline: Instant,
    tally: &mut Tally,
) -> Result<String, String> {
    let mut untraced_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut values: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let (mut failed_attempts, mut shuffle_records) = (0, 0);
    loop {
        let s = facade_run(prep, runner, oracle);
        tally.count(s.ok);
        untraced_wall.push(s.wall);
        let r = replay::run(w, prep)?;
        let faithful = fidelity(program, &r);
        if let Err(e) = &faithful {
            eprintln!("e2e_bench: {e}");
        }
        tally.count(gate(&r.clustering, oracle) && r.shuffle_records == 0 && faithful.is_ok());
        traced_wall.push(r.span_total("dbscan.run").as_secs_f64());
        values.push(layer_values(&r));
        failed_attempts += r.job.failed_attempts();
        shuffle_records += r.shuffle_records;
        if Instant::now() >= deadline {
            eprintln!("span                                         calls    total_ms     self_ms");
            for (name, calls, total, own) in r.span_table() {
                eprintln!(
                    "{name:<44} {calls:>6} {:>11.3} {:>11.3}",
                    total.as_secs_f64() * 1e3,
                    own.as_secs_f64() * 1e3
                );
            }
            break;
        }
    }

    // counts repeat exactly from replay to replay (fidelity pins them
    // to the program's), so the median is exact for them
    let mut metrics: Vec<(&str, f64, &str)> = (0..values[0].len())
        .map(|i| {
            let column: Vec<f64> = values.iter().map(|v| v[i].1).collect();
            (values[0][i].0, median(&column), values[0][i].2)
        })
        .collect();
    metrics.push(("sequential.run_s", sequential_s, "s"));
    metrics.push(("trace.overhead_ratio", median(&traced_wall) / median(&untraced_wall), "ratio"));
    // invariants rather than layer costs: the gate already fails a
    // replay that shuffled, and no faults are injected
    println!(
        "{{\"detail\": {{\"sparklet.failed_attempts\": {failed_attempts}, \
         \"sparklet.shuffle_records\": {shuffle_records}, \"error_rate\": {}}}}}",
        tally.failed as f64 / tally.attempted as f64
    );
    Ok(tally.result_line(&metrics))
}
