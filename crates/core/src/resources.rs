//! One typed bundle for every resource knob.
//!
//! The driver grew its tuning surface piecemeal: partition balance on
//! [`SparkDbscan::balance`], kd-tree build threads on
//! [`SparkDbscan::build_config`] (seeded from the `DBSCAN_BUILD_THREADS`
//! environment variable), merge workers on
//! [`SparkDbscan::merge_threads`], and — new with the memory-budgeted
//! storage engine — a per-executor byte budget on the engine context.
//! [`Resources`] consolidates them into one `#[non_exhaustive]` value
//! that [`SparkDbscan::resources`] and
//! [`crate::runner::RunEnv::with_resources`] both accept, with
//! [`Resources::from_env`] as the single documented place environment
//! variables are read:
//!
//! | variable | field | meaning |
//! |---|---|---|
//! | `DBSCAN_BUILD_THREADS` | `build.threads` | driver-phase worker count (`0` = auto) |
//! | `DBSCAN_MEM_BUDGET` | `memory` | per-executor byte budget (unset = unbounded) |
//! | `DBSCAN_KERNEL` | `build.kernel.layout` | `scalar` or `lanes` leaf-scan layout |
//! | `DBSCAN_KERNEL_LANES` | `build.kernel.lanes` | lane width (rounded to 4/8/16) |
//!
//! Every field is benign to vary: clustering labels are identical for
//! any `Resources` value (budgets spill, never drop data; thread counts
//! are byte-deterministic by construction), only speed and memory
//! footprint change.
//!
//! [`SparkDbscan::balance`]: crate::partitioned::driver::SparkDbscan::balance
//! [`SparkDbscan::build_config`]: crate::partitioned::driver::SparkDbscan::build_config
//! [`SparkDbscan::merge_threads`]: crate::partitioned::driver::SparkDbscan::merge_threads
//! [`SparkDbscan::resources`]: crate::partitioned::driver::SparkDbscan::resources

use crate::partitioned::planner::Balance;
use dbscan_spatial::BuildConfig;
use sparklet::{MemoryBudget, SpeculationConfig};

/// Execution-resource configuration shared by the driver builders and
/// the [`crate::runner::RunEnv`] facade. Construct with
/// [`Resources::new`] (library defaults) or [`Resources::from_env`]
/// (defaults overlaid with the documented environment variables), then
/// chain `with_*` setters. `#[non_exhaustive]` so new knobs can ride
/// along without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Resources {
    /// How index ranges are balanced across partitions.
    pub balance: Balance,
    /// Driver-side kd-tree bulk-build configuration (also the default
    /// worker count for the parallel merge).
    pub build: BuildConfig,
    /// Worker count for the parallel union-find merge (0 = follow
    /// `build`).
    pub merge_threads: usize,
    /// Per-executor engine memory budget (unbounded by default). Applied
    /// to the engine context at run start when bounded.
    pub memory: MemoryBudget,
    /// Speculative-execution policy for engine stages (off by default).
    /// Applied to the engine context at run start when enabled. Benign
    /// like every other field: the first-commit-wins protocol keeps
    /// labels identical with speculation on or off.
    pub speculation: SpeculationConfig,
}

impl Resources {
    /// Library defaults: equal-count balance, auto build threads, merge
    /// following the build config, unbounded memory.
    pub fn new() -> Self {
        Resources {
            balance: Balance::Count,
            build: BuildConfig::default(),
            merge_threads: 0,
            memory: MemoryBudget::UNBOUNDED,
            speculation: SpeculationConfig::OFF,
        }
    }

    /// Defaults overlaid with the environment: `DBSCAN_BUILD_THREADS`
    /// sets the build worker count, `DBSCAN_MEM_BUDGET` (bytes) sets a
    /// bounded per-executor memory budget, and the `DBSCAN_KERNEL` /
    /// `DBSCAN_KERNEL_LANES` pair (parsed by
    /// [`dbscan_spatial::KernelConfig::from_env`]) selects the leaf-scan
    /// kernel. Unset or unparsable variables leave the default in place.
    pub fn from_env() -> Self {
        let mut r = Self::from_env_values(
            std::env::var("DBSCAN_BUILD_THREADS").ok().as_deref(),
            std::env::var("DBSCAN_MEM_BUDGET").ok().as_deref(),
        );
        r.build = r.build.with_kernel(dbscan_spatial::KernelConfig::from_env());
        r
    }

    /// The pure core of [`Resources::from_env`], taking the raw variable
    /// values so tests can exercise the parsing contract without touching
    /// the process environment (`std::env::set_var` is unsound under
    /// threaded test runners).
    ///
    /// The contract, for any input including junk, overflow and empty
    /// strings — this function never panics and never errors:
    ///
    /// * `build_threads`: whitespace-trimmed string of ASCII digits
    ///   parsed as `usize`, else the default (`0` = auto). `0` is a
    ///   *valid* value meaning auto.
    /// * `mem_budget`: whitespace-trimmed string of ASCII digits parsed
    ///   as a `u64` byte count, else the default (unbounded). A parsed
    ///   `0` clamps to a 1-byte bounded budget
    ///   ([`MemoryBudget::per_executor`] keeps budgets non-zero).
    ///
    /// Parsing is strictly digit-only: unlike Rust's integer `FromStr`,
    /// a leading `+` (or any other non-digit) rejects the value. An
    /// environment variable carrying `+8` is far likelier a templating
    /// bug than an intentional sign, and silently accepting it would
    /// make the contract depend on `FromStr` quirks.
    pub fn from_env_values(build_threads: Option<&str>, mem_budget: Option<&str>) -> Self {
        let mut r = Resources::new();
        if let Some(t) = build_threads.and_then(parse_env_uint::<usize>) {
            r.build = r.build.with_threads(t);
        }
        r.memory = parse_mem_budget(mem_budget);
        r
    }

    /// Set the partition balance policy.
    pub fn with_balance(mut self, balance: Balance) -> Self {
        self.balance = balance;
        self
    }

    /// Set the kd-tree build configuration.
    pub fn with_build(mut self, build: BuildConfig) -> Self {
        self.build = build;
        self
    }

    /// Set the merge worker count (0 = follow the build config).
    pub fn with_merge_threads(mut self, threads: usize) -> Self {
        self.merge_threads = threads;
        self
    }

    /// Set the engine memory budget.
    pub fn with_memory(mut self, memory: MemoryBudget) -> Self {
        self.memory = memory;
        self
    }

    /// Set a bounded per-executor memory budget in bytes.
    pub fn with_memory_budget(self, bytes: u64) -> Self {
        self.with_memory(MemoryBudget::per_executor(bytes))
    }

    /// Set the speculative-execution policy for engine stages.
    pub fn with_speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// Whether this is exactly the library default ([`Resources::new`]).
    /// The runner facade uses this to leave a hand-configured
    /// [`crate::partitioned::driver::SparkDbscan`] untouched.
    pub fn is_default(&self) -> bool {
        *self == Resources::new()
    }
}

impl Default for Resources {
    fn default() -> Self {
        Resources::new()
    }
}

/// Strict digit-only unsigned parsing for environment values: optional
/// surrounding whitespace around a non-empty run of ASCII digits,
/// nothing else. Rejects the leading `+` that integer `FromStr` would
/// accept (see [`Resources::from_env_values`]).
fn parse_env_uint<T: std::str::FromStr>(v: &str) -> Option<T> {
    let t = v.trim();
    if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    t.parse::<T>().ok()
}

/// `DBSCAN_MEM_BUDGET` parser: a byte count bounds the budget; unset or
/// unparsable leaves it unbounded.
fn parse_mem_budget(var: Option<&str>) -> MemoryBudget {
    match var.and_then(parse_env_uint::<u64>) {
        Some(bytes) => MemoryBudget::per_executor(bytes),
        None => MemoryBudget::UNBOUNDED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded_auto() {
        let r = Resources::new();
        assert!(r.is_default());
        assert_eq!(r.balance, Balance::Count);
        assert_eq!(r.merge_threads, 0);
        assert!(!r.memory.is_bounded());
        assert_eq!(r, Resources::default());
    }

    #[test]
    fn builders_compose() {
        let r = Resources::new()
            .with_balance(Balance::Cost)
            .with_merge_threads(4)
            .with_memory_budget(1 << 20)
            .with_build(BuildConfig::default().with_threads(2));
        assert!(!r.is_default());
        assert_eq!(r.balance, Balance::Cost);
        assert_eq!(r.merge_threads, 4);
        assert_eq!(r.memory.bytes(), 1 << 20);
        assert_eq!(r.build.threads, 2);
    }

    #[test]
    fn mem_budget_variable_parses_bytes_or_stays_unbounded() {
        assert_eq!(parse_mem_budget(Some("65536")), MemoryBudget::per_executor(65536));
        assert_eq!(parse_mem_budget(Some(" 1024 ")), MemoryBudget::per_executor(1024));
        assert_eq!(parse_mem_budget(Some("lots")), MemoryBudget::UNBOUNDED);
        assert_eq!(parse_mem_budget(None), MemoryBudget::UNBOUNDED);
        // no env set under test: from_env mirrors the defaults
        assert!(!Resources::from_env().memory.is_bounded());
    }

    #[test]
    fn env_parsing_is_strictly_digit_only() {
        // signs that integer FromStr would happily accept are rejected
        assert_eq!(Resources::from_env_values(Some("+8"), None).build.threads, 0);
        assert_eq!(parse_mem_budget(Some("+4096")), MemoryBudget::UNBOUNDED);
        assert_eq!(parse_mem_budget(Some("-1")), MemoryBudget::UNBOUNDED);
        // inner whitespace and radix prefixes are junk too
        assert_eq!(Resources::from_env_values(Some("1 2"), None).build.threads, 0);
        assert_eq!(parse_mem_budget(Some("0x40")), MemoryBudget::UNBOUNDED);
        // plain digits (with surrounding whitespace) still parse
        assert_eq!(Resources::from_env_values(Some(" 8 "), None).build.threads, 8);
    }

    #[test]
    fn speculation_defaults_off_and_builder_applies() {
        assert_eq!(Resources::new().speculation, SpeculationConfig::OFF);
        let r = Resources::new().with_speculation(SpeculationConfig::on());
        assert!(r.speculation.enabled);
        assert!(!r.is_default());
    }

    #[test]
    fn kernel_config_rides_the_build_config() {
        use dbscan_spatial::{KernelConfig, KernelLayout};
        let k = KernelConfig::scalar().with_lanes(16);
        let r = Resources::new().with_build(BuildConfig::default().with_kernel(k));
        assert_eq!(r.build.kernel, k);
        assert_eq!(r.build.kernel.layout, KernelLayout::Scalar);
        // no kernel env set under test: from_env keeps the default
        assert_eq!(Resources::from_env().build.kernel, KernelConfig::default());
        // the pure parsing core never reads kernel variables — its
        // pinned two-argument signature stays untouched
        assert_eq!(Resources::from_env_values(None, None).build.kernel, KernelConfig::default());
    }
}
