//! Property tests: every index must agree with the brute-force oracle,
//! and pruned kd-tree queries must be subsets of exact ones.

use dbscan_spatial::{
    BkdTree, BruteForceIndex, Dataset, GridIndex, KdTree, Metric, PointId, PruneConfig,
    QueryScratch, RTree, SpatialIndex,
};
use proptest::prelude::*;
use std::sync::Arc;

fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
    v.sort_unstable();
    v
}

fn dataset_strategy(dim: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-50.0f64..50.0, dim..=dim), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kdtree_matches_bruteforce_2d(rows in dataset_strategy(2), eps in 0.0f64..30.0, qx in -60.0f64..60.0, qy in -60.0f64..60.0) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let kd = KdTree::build(ds.clone());
        let bf = BruteForceIndex::new(ds);
        let q = [qx, qy];
        prop_assert_eq!(sorted(kd.range(&q, eps)), sorted(bf.range(&q, eps)));
    }

    #[test]
    fn kdtree_matches_bruteforce_5d(rows in dataset_strategy(5), eps in 0.0f64..40.0) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let kd = KdTree::build(ds.clone());
        let bf = BruteForceIndex::new(ds.clone());
        // query from every dataset point: the access pattern DBSCAN uses
        for (_, row) in ds.iter() {
            prop_assert_eq!(sorted(kd.range(row, eps)), sorted(bf.range(row, eps)));
        }
    }

    #[test]
    fn kdtree_count_matches_len(rows in dataset_strategy(3), eps in 0.0f64..20.0) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let kd = KdTree::build(ds.clone());
        for (_, row) in ds.iter() {
            prop_assert_eq!(kd.count_within(row, eps), kd.range(row, eps).len());
        }
    }

    #[test]
    fn pruned_is_subset_and_capped(rows in dataset_strategy(3), eps in 0.0f64..25.0, cap in 1usize..10) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let kd = KdTree::build(ds.clone());
        for (_, row) in ds.iter() {
            let exact = sorted(kd.range(row, eps));
            let mut pruned = Vec::new();
            kd.range_pruned(row, eps, PruneConfig::cap_neighbors(cap), &mut pruned);
            prop_assert!(pruned.len() <= cap.max(exact.len()));
            prop_assert!(pruned.len() <= exact.len());
            for p in &pruned {
                prop_assert!(exact.binary_search(p).is_ok());
            }
            // the cap only truncates, it never loses matches below the cap
            prop_assert_eq!(pruned.len(), exact.len().min(cap));
        }
    }

    #[test]
    fn rtree_matches_bruteforce(rows in dataset_strategy(4), eps in 0.0f64..40.0) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let rt = RTree::build(ds.clone());
        let bf = BruteForceIndex::new(ds.clone());
        for (_, row) in ds.iter() {
            prop_assert_eq!(sorted(rt.range(row, eps)), sorted(bf.range(row, eps)));
        }
    }

    #[test]
    fn rtree_and_kdtree_agree(rows in dataset_strategy(3), eps in 0.0f64..30.0) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let rt = RTree::build(ds.clone());
        let kd = KdTree::build(ds.clone());
        for (_, row) in ds.iter().take(25) {
            prop_assert_eq!(sorted(rt.range(row, eps)), sorted(kd.range(row, eps)));
        }
    }

    #[test]
    fn grid_matches_bruteforce(rows in dataset_strategy(2), eps in 0.01f64..10.0, cell in 0.5f64..5.0) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let g = GridIndex::build(ds.clone(), cell);
        let bf = BruteForceIndex::new(ds.clone());
        for (_, row) in ds.iter().take(20) {
            prop_assert_eq!(sorted(g.range(row, eps)), sorted(bf.range(row, eps)));
        }
    }

    #[test]
    fn nearest_agrees_with_exhaustive_scan(rows in dataset_strategy(3), q in prop::collection::vec(-60.0f64..60.0, 3..=3)) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let kd = KdTree::build(ds.clone());
        let (_, d) = kd.nearest(&q).unwrap();
        let best = ds
            .iter()
            .map(|(_, row)| dbscan_spatial::euclidean(&q, row))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d - best).abs() < 1e-9);
    }

    // ---- bucketed kd-tree ------------------------------------------------

    #[test]
    fn bkdtree_matches_bruteforce_any_dim(
        dim in 1usize..=10,
        bucket in 1usize..=32,
        seed_rows in dataset_strategy(10),
        eps in 0.0f64..40.0,
    ) {
        // truncate the 10-d rows to the sampled dimension so one
        // strategy covers dims 1..=10
        let rows: Vec<Vec<f64>> = seed_rows.into_iter().map(|mut r| { r.truncate(dim); r }).collect();
        let ds = Arc::new(Dataset::from_rows(rows));
        let bkd = BkdTree::build_with(ds.clone(), Metric::Euclidean, bucket);
        let bf = BruteForceIndex::new(ds.clone());
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        for (_, row) in ds.iter() {
            out.clear();
            bkd.range_into_scratch(row, eps, &mut scratch, &mut out);
            prop_assert_eq!(sorted(out.clone()), sorted(bf.range(row, eps)));
        }
    }

    #[test]
    fn bkdtree_handles_duplicate_heavy_data(
        distinct in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3..=3), 1..8),
        copies in prop::collection::vec(0usize..8, 1..8),
        bucket in 1usize..=16,
        eps in 0.0f64..15.0,
    ) {
        // every distinct row duplicated `copies[i % len]` extra times:
        // exercises leaves full of identical coordinates
        let mut rows = Vec::new();
        for (i, r) in distinct.iter().enumerate() {
            for _ in 0..=copies[i % copies.len()] {
                rows.push(r.clone());
            }
        }
        let ds = Arc::new(Dataset::from_rows(rows));
        let bkd = BkdTree::build_with(ds.clone(), Metric::Euclidean, bucket);
        let bf = BruteForceIndex::new(ds.clone());
        for (_, row) in ds.iter() {
            prop_assert_eq!(sorted(bkd.range(row, eps)), sorted(bf.range(row, eps)));
        }
    }

    #[test]
    fn bkdtree_pruned_is_subset_of_exact(
        rows in dataset_strategy(4),
        eps in 0.0f64..30.0,
        cap in 1usize..10,
        bucket in 1usize..=32,
    ) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let bkd = BkdTree::build_with(ds.clone(), Metric::Euclidean, bucket);
        let mut scratch = QueryScratch::new();
        let mut pruned = Vec::new();
        for (_, row) in ds.iter() {
            let exact = sorted(bkd.range(row, eps));
            pruned.clear();
            bkd.range_pruned_scratch(row, eps, PruneConfig::cap_neighbors(cap), &mut scratch, &mut pruned);
            prop_assert_eq!(pruned.len(), exact.len().min(cap));
            for p in &pruned {
                prop_assert!(exact.binary_search(p).is_ok());
            }
        }
    }

    #[test]
    fn bkdtree_and_kdtree_agree(rows in dataset_strategy(6), eps in 0.0f64..35.0) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let bkd = BkdTree::build(ds.clone());
        let kd = KdTree::build(ds.clone());
        for (_, row) in ds.iter().take(30) {
            prop_assert_eq!(sorted(bkd.range(row, eps)), sorted(kd.range(row, eps)));
        }
    }

    #[test]
    fn bkdtree_nearest_agrees_with_exhaustive_scan(
        rows in dataset_strategy(4),
        q in prop::collection::vec(-60.0f64..60.0, 4..=4),
        bucket in 1usize..=16,
    ) {
        let ds = Arc::new(Dataset::from_rows(rows));
        let bkd = BkdTree::build_with(ds.clone(), Metric::Euclidean, bucket);
        let (_, d) = bkd.nearest(&q).unwrap();
        let best = ds
            .iter()
            .map(|(_, row)| dbscan_spatial::euclidean(&q, row))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d - best).abs() < 1e-9);
    }
}
