//! The benchmark's workloads: how each generates its points, which
//! program configuration clusters them, and the set-up a run pays once.

use dbscan_core::{Balance, DbscanParams, MergeStrategy, SeedPolicy, SparkDbscan};
use dbscan_datagen::{
    dataset_to_csv, read_dataset_from_dfs, SkewedGenerator, SkewedParams, StandardDataset,
};
use dbscan_spatial::Dataset;
use minidfs::{DfsCluster, DfsConfig};
use sparklet::Context;
use std::mem::ManuallyDrop;
use std::sync::Arc;

/// DFS path the CSV input of a DFS-fed workload is written to.
pub const DFS_PATH: &str = "/bench/input.csv";

/// Where each timed clustering gets its points from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// The generated `Dataset`, shared in memory.
    Memory,
    /// CSV text in a `minidfs` cluster, read and parsed by every run, as
    /// the paper's Spark job reads its input from HDFS.
    Dfs,
}

/// How a workload's points are generated from the seed.
#[derive(Debug, Clone, Copy)]
pub enum Generator {
    /// A Table I dataset with its generator seed replaced.
    Table(StandardDataset),
    /// A Gaussian hotspot emitted first, over a uniform background.
    Skewed { n: usize, dim: usize },
}

/// Conditions that must hold for a workload's stated mechanism to have
/// fired (see `guards`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// The range kernel reported at least one hit.
    RangeHits,
    /// The engine ran exactly one task per partition.
    TasksEqualPartitions,
    /// The cost planner cut the index range differently from equal counts.
    CostPlanDiffers,
    /// The merge received at least one SEED edge.
    SeedEdges,
    /// The bytes read back from the DFS equal the written file's length.
    DfsBytes,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub default_seed: u64,
    pub generator: Generator,
    pub eps: f64,
    pub min_pts: usize,
    pub partitions: usize,
    /// `SparkDbscan::exact()` (PerBoundaryEdge SEEDs + union-find merge)
    /// rather than the paper-literal default path.
    pub hardened: bool,
    pub balance: Balance,
    pub input: Input,
    pub guards: &'static [Guard],
}

/// Every workload, in the order `BENCHMARK.json` lists them. The
/// benchmark's README says why each exists.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "c100k",
        default_seed: 0xC100,
        generator: Generator::Table(StandardDataset::C100k),
        eps: 25.0,
        min_pts: 5,
        partitions: 8,
        hardened: true,
        balance: Balance::Count,
        input: Input::Memory,
        guards: &[Guard::RangeHits, Guard::TasksEqualPartitions],
    },
    Workload {
        name: "r100k-p64",
        default_seed: 0x0100,
        generator: Generator::Table(StandardDataset::R100k),
        eps: 25.0,
        min_pts: 5,
        partitions: 64,
        hardened: true,
        balance: Balance::Count,
        input: Input::Dfs,
        guards: &[Guard::RangeHits, Guard::TasksEqualPartitions, Guard::SeedEdges, Guard::DfsBytes],
    },
    Workload {
        name: "skew-d2",
        default_seed: 42,
        generator: Generator::Skewed { n: 40_000, dim: 2 },
        eps: 25.0,
        min_pts: 5,
        partitions: 8,
        hardened: false,
        balance: Balance::Cost,
        input: Input::Memory,
        guards: &[Guard::RangeHits, Guard::TasksEqualPartitions, Guard::CostPlanDiffers],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn params(&self) -> DbscanParams {
        DbscanParams::new(self.eps, self.min_pts).expect("workload parameters are valid")
    }

    pub fn seed_policy(&self) -> SeedPolicy {
        if self.hardened {
            SeedPolicy::PerBoundaryEdge
        } else {
            SeedPolicy::OnePerPartition
        }
    }

    pub fn merge_strategy(&self) -> MergeStrategy {
        if self.hardened {
            MergeStrategy::UnionFind
        } else {
            MergeStrategy::PaperSinglePass
        }
    }

    /// The program under test, configured through its public builder.
    pub fn runner(&self) -> SparkDbscan {
        let r = SparkDbscan::new(self.params()).partitions(self.partitions).balance(self.balance);
        if self.hardened {
            r.exact()
        } else {
            r
        }
    }

    pub fn generate(&self, seed: u64) -> Dataset {
        match self.generator {
            Generator::Table(ds) => {
                let mut spec = ds.spec();
                spec.params.seed = seed;
                spec.generate().0
            }
            Generator::Skewed { n, dim } => {
                SkewedGenerator::new(SkewedParams::new(n, dim, seed)).generate().0
            }
        }
    }

    /// Generate the points, and store them in the DFS as CSV when the
    /// workload reads from there.
    pub fn make_input(&self, seed: u64) -> Result<(Arc<Dataset>, Option<DfsInput>), String> {
        let data = Arc::new(self.generate(seed));
        let dfs = match self.input {
            Input::Memory => None,
            Input::Dfs => {
                let cluster = DfsCluster::new(DfsConfig::default()).map_err(|e| e.to_string())?;
                let csv = dataset_to_csv(&data);
                cluster.write_file(DFS_PATH, csv.as_bytes()).map_err(|e| e.to_string())?;
                Some(DfsInput { cluster, len: csv.len() })
            }
        };
        Ok((data, dfs))
    }
}

pub struct DfsInput {
    pub cluster: DfsCluster,
    /// Length of the CSV text written, in bytes.
    pub len: usize,
}

/// Everything a run sets up once: the generated points, the DFS copy
/// of them, and the engine context.
pub struct Prepared {
    pub data: Arc<Dataset>,
    pub dfs: Option<DfsInput>,
    /// Never dropped. Dropping a `Context` can hang: the vendored
    /// channel's `Sender::drop` wakes blocked receivers without taking
    /// the queue lock, so a worker caught between its disconnect check
    /// and its wait sleeps forever, and the pool's join with it. The
    /// process exits right after the run, which ends the workers anyway.
    pub ctx: ManuallyDrop<Context>,
}

impl Prepared {
    /// The input of one clustering: the shared points, or a fresh DFS
    /// read plus CSV parse.
    pub fn load(&self) -> Result<Arc<Dataset>, String> {
        match &self.dfs {
            None => Ok(Arc::clone(&self.data)),
            Some(d) => read_dataset_from_dfs(&d.cluster, DFS_PATH)
                .map(Arc::new)
                .map_err(|e| format!("DFS read: {e}")),
        }
    }
}
