//! Vacuity guards: each fails the run when the mechanism a workload
//! exists to exercise did not fire, so a benchmark that silently stopped
//! measuring its target cannot report a number.

use crate::workload::Guard;
use dbscan_core::PartitionRanges;

/// What one clustering did, as far as the guards are concerned.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Points in the clustered dataset.
    pub n: usize,
    /// Partitions the program was configured with.
    pub partitions: usize,
    /// Tasks the engine ran for the executor job.
    pub tasks: usize,
    /// Range-kernel hits summed over all partitions.
    pub range_hits: u64,
    /// Points each partition processed, by partition.
    pub points_per_partition: Vec<usize>,
    /// SEED edges handed to the merge.
    pub seed_edges: usize,
    /// `(bytes read back, bytes written)` for DFS input.
    pub dfs_bytes: Option<(usize, usize)>,
}

/// Check `guards` against `obs`; the error names the first that failed.
pub fn check(guards: &[Guard], obs: &Observation) -> Result<(), String> {
    for &g in guards {
        let ok = match g {
            Guard::RangeHits => obs.range_hits > 0,
            Guard::TasksEqualPartitions => obs.tasks == obs.partitions,
            Guard::CostPlanDiffers => {
                let equal = PartitionRanges::new(obs.n, obs.partitions);
                let equal: Vec<usize> = (0..obs.partitions)
                    .map(|i| {
                        let (a, b) = equal.range(i);
                        (b - a) as usize
                    })
                    .collect();
                obs.points_per_partition != equal
            }
            Guard::SeedEdges => obs.seed_edges > 0,
            Guard::DfsBytes => matches!(obs.dfs_bytes, Some((read, len)) if read == len),
        };
        if !ok {
            return Err(format!("vacuity guard {g:?} failed: {obs:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Generator, Input, Prepared, Workload};
    use dbscan_core::Balance;
    use sparklet::{ClusterConfig, Context};
    use std::mem::ManuallyDrop;

    const ALL: [Guard; 5] = [
        Guard::RangeHits,
        Guard::TasksEqualPartitions,
        Guard::CostPlanDiffers,
        Guard::SeedEdges,
        Guard::DfsBytes,
    ];

    /// A small workload on which every guard's mechanism fires: skewed
    /// points read from the DFS, cost-balanced, hardened, 8 partitions.
    fn small(balance: Balance, partitions: usize) -> Workload {
        Workload {
            name: "small",
            default_seed: 7,
            generator: Generator::Skewed { n: 3000, dim: 2 },
            eps: 25.0,
            min_pts: 5,
            partitions,
            hardened: true,
            balance,
            input: Input::Dfs,
            guards: &ALL,
        }
    }

    fn observe(w: &Workload, ctx: &Context) -> Observation {
        let (data, dfs) = w.make_input(w.default_seed).unwrap();
        let prep = Prepared { data, dfs, ctx: ManuallyDrop::new(ctx.clone()) };
        let warm = w.runner().run(&prep.ctx, prep.load().unwrap());
        let replay = crate::replay::run(w, &prep).unwrap();
        crate::observation(w, &prep, &warm, &replay)
    }

    /// One test, so that no other test thread reads the environment
    /// while `with_private_tmp` sets it. The context is shared and,
    /// as in the benchmark, never dropped (see `Prepared::ctx`).
    #[test]
    fn every_guard_fails_on_its_planted_case_and_on_real_vacuous_runs() {
        crate::with_private_tmp(|| {
            let ctx = ManuallyDrop::new(Context::new(ClusterConfig::local(2)));
            planted_cases_fail(&observe(&small(Balance::Cost, 8), &ctx));

            // equal-count cuts: the cost planner never ran
            let count = observe(&small(Balance::Count, 8), &ctx);
            assert!(check(&[Guard::CostPlanDiffers], &count).is_err());
            // one partition: no foreign points, so no SEEDs and no edges
            let single = observe(&small(Balance::Cost, 1), &ctx);
            assert_eq!(single.seed_edges, 0);
            assert!(check(&[Guard::SeedEdges], &single).is_err());
        })
        .unwrap();
    }

    /// Every guard passes on `obs`, a real run, and fails once its
    /// mechanism is planted away.
    fn planted_cases_fail(obs: &Observation) {
        check(&ALL, obs).unwrap();

        type Plant = fn(&mut Observation);
        let planted: [(Guard, Plant); 5] = [
            (Guard::RangeHits, |o| o.range_hits = 0),
            (Guard::TasksEqualPartitions, |o| o.tasks -= 1),
            (Guard::CostPlanDiffers, |o| {
                let per = o.n / o.partitions;
                o.points_per_partition = vec![per; o.partitions];
            }),
            (Guard::SeedEdges, |o| o.seed_edges = 0),
            (Guard::DfsBytes, |o| o.dfs_bytes = o.dfs_bytes.map(|(r, len)| (r - 1, len))),
        ];
        for (guard, plant) in planted {
            let mut o = obs.clone();
            plant(&mut o);
            let err = check(&ALL, &o).unwrap_err();
            assert!(err.contains(&format!("{guard:?}")), "{guard:?} did not fire: {err}");
        }
    }
}
