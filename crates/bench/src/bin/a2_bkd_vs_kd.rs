//! Ablation A2 follow-up: leaf-bucketed kd-tree vs the node-per-point
//! kd-tree on the paper's r10k workload (d=10, Table I), the access
//! pattern DBSCAN actually performs — one eps-range query from every
//! dataset point.
//!
//! Reports build time, total/per-query range time, and index size for
//! the node-per-point tree and the bucketed tree at buckets 16, 32, 64
//! (the default) and 128, and writes
//! `results/ablation_a2_bkd_vs_kd.json`.
//!
//! Usage: `cargo run --release -p dbscan-bench --bin a2_bkd_vs_kd
//! [-- --scale small|medium|paper]`

use dbscan_bench::{markdown_table, write_json, Scale};
use dbscan_datagen::StandardDataset;
use dbscan_spatial::bkdtree::DEFAULT_BUCKET_SIZE;
use dbscan_spatial::{BkdTree, KdTree, Metric, QueryScratch, SpatialIndex};
use serde::Serialize;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    index: String,
    bucket_size: usize,
    build_micros: u128,
    query_total_micros: u128,
    queries: usize,
    mean_query_nanos: u128,
    matches_total: usize,
    size_bytes: usize,
    speedup_vs_kdtree: f64,
}

/// Median of `reps` timed runs of `f` (so one scheduler hiccup cannot
/// decide the comparison).
fn median_micros(reps: usize, mut f: impl FnMut() -> usize) -> (u128, usize) {
    let mut times = Vec::with_capacity(reps);
    let mut matches = 0;
    for _ in 0..reps {
        let t = Instant::now();
        matches = black_box(f());
        times.push(t.elapsed().as_micros());
    }
    times.sort_unstable();
    (times[times.len() / 2], matches)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, _) = Scale::from_args(&args);
    let spec = scale.spec(StandardDataset::R10k);
    let (data, _) = spec.generate();
    let data = Arc::new(data);
    let eps = spec.eps;
    let n = data.len();
    println!(
        "# A2: bucketed vs node-per-point kd-tree on {} ({n} points, d={}, eps={eps}, scale: {scale})\n",
        spec.name,
        data.dim()
    );

    let reps = 5;
    let mut rows: Vec<Row> = Vec::new();

    // -- baseline: the node-per-point kd-tree (ablation arm) -----------
    let t = Instant::now();
    let kd = KdTree::build(Arc::clone(&data));
    let kd_build = t.elapsed().as_micros();
    let mut buf = Vec::new();
    let (kd_query, kd_matches) = median_micros(reps, || {
        let mut total = 0usize;
        for (_, row) in data.iter() {
            buf.clear();
            kd.range_into(row, eps, &mut buf);
            total += buf.len();
        }
        total
    });
    rows.push(Row {
        index: "kdtree (node-per-point)".into(),
        bucket_size: 1,
        build_micros: kd_build,
        query_total_micros: kd_query,
        queries: n,
        mean_query_nanos: kd_query.saturating_mul(1000) / n.max(1) as u128,
        matches_total: kd_matches,
        size_bytes: kd.size_bytes(),
        speedup_vs_kdtree: 1.0,
    });

    // -- bucketed tree across leaf sizes, default (16-lane SoA) kernel:
    // one lane group per leaf up to eight, around the default of four
    for bucket in [16usize, 32, DEFAULT_BUCKET_SIZE, 128] {
        let t = Instant::now();
        let bkd = BkdTree::build_with(Arc::clone(&data), Metric::Euclidean, bucket);
        let build = t.elapsed().as_micros();
        let mut scratch = QueryScratch::new();
        let (query, matches) = median_micros(reps, || {
            let mut total = 0usize;
            for (_, row) in data.iter() {
                buf.clear();
                bkd.range_into_scratch(row, eps, &mut scratch, &mut buf);
                total += buf.len();
            }
            total
        });
        assert_eq!(matches, kd_matches, "indexes must return identical neighbourhoods");
        rows.push(Row {
            index: "bkdtree (leaf-bucketed)".into(),
            bucket_size: bucket,
            build_micros: build,
            query_total_micros: query,
            queries: n,
            mean_query_nanos: query.saturating_mul(1000) / n.max(1) as u128,
            matches_total: matches,
            size_bytes: bkd.size_bytes(),
            speedup_vs_kdtree: kd_query as f64 / query.max(1) as f64,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.index.clone(),
                format!("{}", r.bucket_size),
                format!("{} µs", r.build_micros),
                format!("{} µs", r.query_total_micros),
                format!("{} ns", r.mean_query_nanos),
                format!("{}", r.size_bytes),
                format!("{:.2}x", r.speedup_vs_kdtree),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["Index", "Bucket", "Build", "Range x n", "Mean query", "Index bytes", "Speedup",],
            &table
        )
    );
    println!("(every arm returned {kd_matches} total matches over {n} queries)");
    let _ = write_json(Path::new("results"), "ablation_a2_bkd_vs_kd", &rows);
}
