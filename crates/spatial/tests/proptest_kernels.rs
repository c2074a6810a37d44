//! Property tests for the dimension-monomorphized and lane-blocked
//! kernels: the specialized `D = 2..=6` paths and the SoA lane kernels
//! must be **byte-identical** to the generic dynamic-length loops —
//! same matched rows, same `f64` bits, same early-exit row — and the
//! indexes wired through them must still agree with each other.

use dbscan_spatial::{
    scan_block, scan_block_generic, scan_block_soa, transpose_block, BkdTree, BruteForceIndex,
    Dataset, Metric, PointId, QueryScratch, SpatialIndex, LANE_WIDTHS, SPECIALIZED_DIMS,
};
use proptest::prelude::*;
use std::sync::Arc;

const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
    v.sort_unstable();
    v
}

fn dataset_strategy(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, dim..=dim), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core claim of the kernel module: for every dim (specialized
    /// or not) and every metric, the dispatching scan and the generic
    /// scan report exactly the same row set.
    #[test]
    fn scan_block_matches_generic_any_dim(
        dim in 1usize..=6,
        seed_rows in dataset_strategy(6),
        q6 in prop::collection::vec(-60.0f64..60.0, 6..=6),
        eps in 0.0f64..60.0,
        metric_idx in 0usize..3,
    ) {
        let metric = METRICS[metric_idx];
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let q = &q6[..dim];
        let thr = metric.threshold(eps);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        scan_block(metric, dim, q, &block, thr, |i| { fast.push(i); true });
        scan_block_generic(metric, dim, q, &block, thr, |i| { slow.push(i); true });
        prop_assert_eq!(fast, slow);
    }

    /// Distances along both paths are bit-identical, not merely close:
    /// the specialized kernels accumulate in the same order as the
    /// generic loops, so clustering results cannot drift by dimension.
    #[test]
    fn reduced_distances_are_bit_identical(
        a in prop::collection::vec(-1e6f64..1e6, 1..=6),
        b6 in prop::collection::vec(-1e6f64..1e6, 6..=6),
        metric_idx in 0usize..3,
    ) {
        let metric = METRICS[metric_idx];
        let b = &b6[..a.len()];
        let via_dispatch = metric.reduced_distance(&a, b);
        let via_generic = dbscan_spatial::kernel::reduced_generic(metric, &a, b);
        prop_assert_eq!(via_dispatch.to_bits(), via_generic.to_bits());
    }

    /// Early exit fires at the same row on both paths.
    #[test]
    fn early_exit_agrees_with_generic(
        dim in 1usize..=5,
        seed_rows in dataset_strategy(5),
        eps in 0.0f64..80.0,
        cap in 1usize..8,
    ) {
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let q = vec![0.0; dim];
        let thr = Metric::Euclidean.threshold(eps);
        let run = |generic: bool| {
            let mut hits = Vec::new();
            let mut n = 0usize;
            let cb = |i: usize| {
                hits.push(i);
                n += 1;
                n < cap
            };
            let finished = if generic {
                scan_block_generic(Metric::Euclidean, dim, &q, &block, thr, cb)
            } else {
                scan_block(Metric::Euclidean, dim, &q, &block, thr, cb)
            };
            (finished, hits)
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// End-to-end through the tree: the bucketed kd-tree (whose leaf
    /// scans dispatch to the specialized kernels) agrees with the
    /// brute-force oracle on exactly the specialized dims, plus one
    /// fallback dim, for every metric.
    #[test]
    fn bkdtree_matches_bruteforce_specialized_dims(
        seed_rows in dataset_strategy(7),
        eps in 0.0f64..40.0,
        bucket in 1usize..=16,
        metric_idx in 0usize..3,
    ) {
        let metric = METRICS[metric_idx];
        for dim in SPECIALIZED_DIMS.iter().copied().chain([7usize]) {
            let rows: Vec<Vec<f64>> =
                seed_rows.iter().map(|r| r[..dim].to_vec()).collect();
            let ds = Arc::new(Dataset::from_rows(rows));
            let bkd = BkdTree::build_with(ds.clone(), metric, bucket);
            let bf = BruteForceIndex::with_metric(ds.clone(), metric);
            let mut scratch = QueryScratch::new();
            let mut out = Vec::new();
            for (_, row) in ds.iter().take(30) {
                out.clear();
                bkd.range_into_scratch(row, eps, &mut scratch, &mut out);
                prop_assert_eq!(sorted(out.clone()), sorted(bf.range(row, eps)));
                prop_assert_eq!(bkd.count_within(row, eps), bf.count_within(row, eps));
            }
        }
    }

    /// SoA transposition is lossless: every coordinate lands at its
    /// dimension-major slot with identical bits, and transposing back
    /// reproduces the row-major block exactly.
    #[test]
    fn soa_transpose_round_trips_losslessly(
        dim in 1usize..=6,
        seed_rows in dataset_strategy(6),
    ) {
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let rows = block.len() / dim;
        let mut soa = vec![0.0f64; block.len()];
        transpose_block(&block, dim, &mut soa);
        for i in 0..rows {
            for k in 0..dim {
                prop_assert_eq!(block[i * dim + k].to_bits(), soa[k * rows + i].to_bits());
            }
        }
        // round trip: the SoA block viewed as a rows-per-"row" matrix
        // transposes back to the original
        let mut back = vec![0.0f64; block.len()];
        transpose_block(&soa, rows, &mut back);
        for (a, b) in block.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The lane-blocked SoA scan reports exactly the rows the scalar
    /// scan reports, in the same order, for every dim, metric and lane
    /// width — including the early-exit row when the callback stops.
    #[test]
    fn soa_scan_is_bit_identical_to_scalar(
        dim in 1usize..=6,
        seed_rows in dataset_strategy(6),
        q6 in prop::collection::vec(-60.0f64..60.0, 6..=6),
        eps in 0.0f64..60.0,
        metric_idx in 0usize..3,
        cap_raw in 0usize..8,
    ) {
        let cap = (cap_raw > 0).then_some(cap_raw);
        let metric = METRICS[metric_idx];
        let block: Vec<f64> =
            seed_rows.iter().flat_map(|r| r[..dim].iter().copied()).collect();
        let rows = block.len() / dim;
        let mut soa = vec![0.0f64; block.len()];
        transpose_block(&block, dim, &mut soa);
        let q = &q6[..dim];
        let thr = metric.threshold(eps);
        let scalar = {
            let mut hits = Vec::new();
            let finished = scan_block(metric, dim, q, &block, thr, |i| {
                hits.push(i);
                cap.is_none_or(|c| hits.len() < c)
            });
            (finished, hits)
        };
        for lanes in LANE_WIDTHS {
            let mut hits = Vec::new();
            let finished = scan_block_soa(metric, dim, q, &soa, rows, thr, lanes, |i| {
                hits.push(i);
                cap.is_none_or(|c| hits.len() < c)
            });
            prop_assert_eq!(&(finished, hits), &scalar, "lanes={}", lanes);
        }
    }
}
