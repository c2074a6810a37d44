//! Process resource usage and the host record printed with every run.

use dbscan_core::Resources;
use dbscan_spatial::{KernelConfig, KernelLayout};
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads `struct rusage` as laid out on 64-bit Linux");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of the whole process (all threads).
pub struct Usage {
    pub cpu: Duration,
    pub peak_rss_kib: u64,
}

pub fn usage() -> Usage {
    let mut u = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux (the only target this compiles
    // for), and RUSAGE_SELF is a valid `who`; getrusage writes only
    // within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
    Usage { cpu: tv(&u.ru_utime) + tv(&u.ru_stime), peak_rss_kib: u.ru_maxrss as u64 }
}

/// `DBSCAN_*` variables present in the environment. `Resources::from_env`
/// and `KernelConfig::from_env` read them, so any of them would silently
/// change the program being measured.
pub fn pinned_env_violations() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("DBSCAN_"))
        .collect();
    v.sort();
    v
}

/// Leaf-scan instruction set the kernel dispatches to on this CPU, by
/// the same rule as `dbscan_spatial::kernel`.
fn simd_level(kernel: KernelConfig) -> &'static str {
    if kernel.layout == KernelLayout::Scalar {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if kernel.lanes >= 8 && std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable-lanes"
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One JSON line describing what was measured and where.
pub fn record(workload: &str, seed: u64, workers: usize) -> String {
    let res = Resources::new();
    let kernel = res.build.kernel;
    let fields = [
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("nproc", workers.to_string()),
        ("simd", simd_level(kernel).to_string()),
        ("kernel_config", format!("{kernel:?}")),
        ("build_config", format!("{:?}", res.build)),
        ("rustc", env!("E2E_RUSTC_VERSION").to_string()),
        ("git_commit", env!("E2E_GIT_COMMIT").to_string()),
    ];
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
    format!("{{\"host\": {{{}}}}}", body.join(", "))
}
