//! Dimension-monomorphized and lane-blocked query kernels.
//!
//! Every distance in [`crate::metric`] is a dynamic-length loop over
//! `&[f64]`: the compiler cannot unroll it, keeps the trip-count check,
//! and emits scalar code. But a dataset's dimensionality is fixed for
//! the lifetime of every query, and the paper's workloads are low-`d`
//! (2–10, with the figures' plots all 2-D). This module monomorphizes
//! the hot loops over a `const D` for the neighborhood-query dimensions
//! (`D = 2..=6`, matching the planner's `MAX_NEIGHBORHOOD_DIM`) and
//! dispatches **once per block scan** on `Dataset::dim`, so the per-row
//! work is a fixed-trip-count, bounds-check-free loop.
//!
//! On top of the row-major kernels sits the **lane-blocked SoA kernel**
//! ([`scan_block_soa`]): it scans a leaf block stored dimension-major
//! (all `x`s, then all `y`s, …), accumulating a whole group of `LANES`
//! points into a fixed-width `[f64; LANES]` stack buffer that LLVM
//! auto-vectorizes on stable. One lane per
//! point: each point's per-dimension sum runs in the exact sequential
//! coordinate order of the scalar kernels, so every distance is the
//! same `f64` bit for bit — vectorization happens *across* points,
//! never inside one point's accumulation. The threshold test is a
//! branch-free pass packing hit indices left, so dense and sparse
//! blocks cost the same per row.
//!
//! Two invariants make the kernels safe to wire everywhere:
//!
//! * **Bit-identical results.** Fixed-`D`, generic and lane-blocked
//!   paths accumulate in the same coordinate order, so every distance
//!   is the exact same `f64` — all paths return byte-identical
//!   neighborhoods (property-tested in `tests/proptest_kernels.rs`).
//!   The AVX2 specialization vectorizes only *across* points with the
//!   same per-lane IEEE ops (`vsubpd`/`vmulpd`/`vaddpd`, never an FMA
//!   contraction), so it is covered by the same guarantee.
//! * **Same early-exit semantics.** [`scan_block`] and
//!   [`scan_block_soa`] report matches through a callback that can stop
//!   the scan, row by row in row order, so pruned queries
//!   (`max_neighbors`) behave exactly like the generic traversal they
//!   replace.
//!
//! Callers: [`crate::BkdTree`] leaf scans, [`crate::BruteForceIndex`]
//! whole-matrix scans, and [`crate::Metric::reduced_distance`] (single
//! pairs).

use crate::metric::Metric;

/// Dimensions with a monomorphized kernel; anything else takes the
/// generic fallback. Exposed so benches and tests can iterate the
/// dispatch table. Covers every dimension the partition planner builds
/// neighborhood grids for (`MAX_NEIGHBORHOOD_DIM = 6`).
pub const SPECIALIZED_DIMS: [usize; 5] = [2, 3, 4, 5, 6];

/// Lane widths the SoA kernels are monomorphized for.
pub const LANE_WIDTHS: [usize; 3] = [4, 8, 16];

/// Default lane width: 8 points per group is wide enough to fill an
/// AVX2 register file without spilling the accumulators at `d = 6`.
pub const DEFAULT_LANES: usize = 8;

/// How leaf blocks are stored and scanned. Every layout produces
/// bit-identical results; only throughput changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLayout {
    /// Row-major blocks, one point at a time ([`scan_block`]).
    Scalar,
    /// Dimension-major (SoA) blocks, a lane group of points at a time
    /// ([`scan_block_soa`]).
    Lanes,
}

/// Query-kernel configuration threaded through the resource bundle:
/// leaf-block layout and lane width. Labels, executor stats, kernel
/// counters and traces are byte-identical for every value; only
/// throughput changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Leaf-block layout and scan strategy.
    pub layout: KernelLayout,
    /// Points per SoA lane group (normalized to one of
    /// [`LANE_WIDTHS`]); ignored under [`KernelLayout::Scalar`].
    pub lanes: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig { layout: KernelLayout::Lanes, lanes: DEFAULT_LANES }
    }
}

impl KernelConfig {
    /// The seed-path configuration: row-major scalar scans — the arm
    /// every other configuration is checked byte-identical against.
    pub fn scalar() -> Self {
        KernelConfig { layout: KernelLayout::Scalar, ..Self::default() }
    }

    /// Set the SoA lane width (normalized to one of [`LANE_WIDTHS`]).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = normalized_lanes(lanes);
        self
    }

    /// Defaults overlaid with the environment: `DBSCAN_KERNEL`
    /// (`scalar`/`lanes`) and `DBSCAN_KERNEL_LANES` (lane width). Unset
    /// or unparsable variables leave the default in place.
    pub fn from_env() -> Self {
        Self::from_env_values(
            std::env::var("DBSCAN_KERNEL").ok().as_deref(),
            std::env::var("DBSCAN_KERNEL_LANES").ok().as_deref(),
        )
    }

    /// The pure core of [`KernelConfig::from_env`], taking the raw
    /// variable values so tests can exercise the parsing contract
    /// without touching the process environment. Never panics, never
    /// errors: junk keeps the default for that knob.
    pub fn from_env_values(layout: Option<&str>, lanes: Option<&str>) -> Self {
        let mut cfg = Self::default();
        match layout.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
            Some("scalar") => cfg.layout = KernelLayout::Scalar,
            Some("lanes") => cfg.layout = KernelLayout::Lanes,
            _ => {}
        }
        if let Some(l) = lanes.and_then(|v| v.trim().parse::<usize>().ok()) {
            cfg.lanes = normalized_lanes(l);
        }
        cfg
    }
}

/// Snap an arbitrary lane request to the nearest monomorphized width.
fn normalized_lanes(lanes: usize) -> usize {
    if lanes <= 4 {
        4
    } else if lanes <= 8 {
        8
    } else {
        16
    }
}

/// Per-run kernel instrumentation, accumulated on
/// [`crate::QueryScratch`] and surfaced on the executor stats. The
/// counters are defined over *visited* leaves — blocks touched by the
/// traversal and the rows those blocks hold — so they are invariant
/// across the scalar and lane-blocked layouts (which visit the same
/// leaves in the same order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Leaf blocks scanned (one per leaf per query touching it).
    pub blocks_scanned: u64,
    /// Rows held by the scanned blocks.
    pub rows_scanned: u64,
    /// Rows reported within the query threshold.
    pub range_hits: u64,
    /// Scans stopped before their last block (pruning budgets
    /// exhausted).
    pub early_exits: u64,
}

impl KernelCounters {
    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &KernelCounters) {
        self.blocks_scanned += other.blocks_scanned;
        self.rows_scanned += other.rows_scanned;
        self.range_hits += other.range_hits;
        self.early_exits += other.early_exits;
    }

    /// Whether nothing was counted.
    pub fn is_zero(&self) -> bool {
        *self == KernelCounters::default()
    }
}

/// Scan a row-major coordinate block (`block.len() == rows * dim`),
/// invoking `on_match(i)` for every row `i` whose reduced distance to
/// `query` is `<= thr` (`thr` in [`Metric::threshold`] space). The
/// callback returns `false` to stop the scan; `scan_block` returns
/// `false` iff it was stopped early.
///
/// Dispatches once on `dim` to a fixed-`D` kernel when one exists.
#[inline]
pub fn scan_block<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    block: &[f64],
    thr: f64,
    on_match: F,
) -> bool {
    debug_assert!(block.is_empty() || query.len() == dim.max(1));
    debug_assert!(block.len().is_multiple_of(dim.max(1)));
    match dim {
        2 => scan_fixed::<2, F>(metric, query, block, thr, on_match),
        3 => scan_fixed::<3, F>(metric, query, block, thr, on_match),
        4 => scan_fixed::<4, F>(metric, query, block, thr, on_match),
        5 => scan_fixed::<5, F>(metric, query, block, thr, on_match),
        6 => scan_fixed::<6, F>(metric, query, block, thr, on_match),
        _ => scan_block_generic(metric, dim, query, block, thr, on_match),
    }
}

/// The dynamic-length scan [`scan_block`] falls back to — public so the
/// perf suite and the differential property tests can pit the two paths
/// against each other on the same data. The metric's kernel function is
/// resolved once per scan, never once per row.
#[inline]
pub fn scan_block_generic<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    block: &[f64],
    thr: f64,
    mut on_match: F,
) -> bool {
    let d = dim.max(1);
    let dist = metric_kernel(metric);
    for (i, row) in block.chunks_exact(d).enumerate() {
        if dist(query, row) <= thr && !on_match(i) {
            return false;
        }
    }
    true
}

/// The dynamic-length reduced-distance function for `metric`, resolved
/// once so block scans don't re-dispatch the metric per row.
#[inline]
pub fn metric_kernel(metric: Metric) -> fn(&[f64], &[f64]) -> f64 {
    match metric {
        Metric::Euclidean => crate::metric::squared_euclidean,
        Metric::Manhattan => crate::metric::manhattan,
        Metric::Chebyshev => crate::metric::chebyshev,
    }
}

#[inline]
fn scan_fixed<const D: usize, F: FnMut(usize) -> bool>(
    metric: Metric,
    query: &[f64],
    block: &[f64],
    thr: f64,
    on_match: F,
) -> bool {
    let q: &[f64; D] = query.try_into().expect("query length matches dataset dim");
    match metric {
        Metric::Euclidean => {
            scan_rows::<D, _, _>(block, thr, |r| squared_euclidean_fixed(q, r), on_match)
        }
        Metric::Manhattan => scan_rows::<D, _, _>(block, thr, |r| manhattan_fixed(q, r), on_match),
        Metric::Chebyshev => scan_rows::<D, _, _>(block, thr, |r| chebyshev_fixed(q, r), on_match),
    }
}

/// The monomorphized inner loop: fixed trip count per row, no bounds
/// checks (the `&[f64; D]` conversion proves the length to LLVM).
#[inline]
fn scan_rows<const D: usize, G: Fn(&[f64; D]) -> f64, F: FnMut(usize) -> bool>(
    block: &[f64],
    thr: f64,
    dist: G,
    mut on_match: F,
) -> bool {
    for (i, row) in block.chunks_exact(D).enumerate() {
        let row: &[f64; D] = row.try_into().expect("chunks_exact yields D-length rows");
        if dist(row) <= thr && !on_match(i) {
            return false;
        }
    }
    true
}

// ---- lane-blocked SoA kernels ------------------------------------------

/// Scan a dimension-major (SoA) coordinate block of `rows` points
/// (`soa[k * rows + i]` = coordinate `k` of point `i`,
/// `soa.len() == rows * dim`), invoking `on_match(i)` for every row
/// within `thr`, **in row order** — the same callback sequence, stops
/// included, as [`scan_block`] over the row-major transpose of the
/// block. Distances are bit-identical to the scalar path: lanes run
/// across points, each point still accumulates coordinate `0..dim`
/// sequentially.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn scan_block_soa<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    thr: f64,
    lanes: usize,
    on_match: F,
) -> bool {
    debug_assert_eq!(soa.len(), rows * dim);
    if rows == 0 || dim == 0 {
        return true;
    }
    match normalized_lanes(lanes) {
        4 => scan_soa_dispatch::<4, F>(metric, dim, query, soa, rows, thr, on_match),
        16 => scan_soa_dispatch::<16, F>(metric, dim, query, soa, rows, thr, on_match),
        _ => scan_soa_dispatch::<8, F>(metric, dim, query, soa, rows, thr, on_match),
    }
}

/// Pick the widest ISA the host supports at runtime. The AVX2 twin
/// computes each group's threshold mask with explicit 256-bit
/// intrinsics ([`group_mask_avx2`]) — the per-lane operations are the
/// exact IEEE ops of the portable body in the same order, so every bit
/// of every distance is identical to the portable build.
#[inline]
fn scan_soa_dispatch<const L: usize, F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    thr: f64,
    on_match: F,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        if L >= 8 && std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the avx512f feature was just detected on this CPU.
            return unsafe {
                scan_soa_lanes_avx512::<L, F>(metric, dim, query, soa, rows, thr, on_match)
            };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the avx2 feature was just detected on this CPU.
            return unsafe {
                scan_soa_lanes_avx2::<L, F>(metric, dim, query, soa, rows, thr, on_match)
            };
        }
    }
    scan_soa_lanes::<L, F>(metric, dim, query, soa, rows, thr, on_match)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_soa_lanes_avx2<const L: usize, F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    thr: f64,
    mut on_match: F,
) -> bool {
    let mut base = 0usize;
    while base + L <= rows {
        let mut mask = unsafe { group_mask_avx2::<L>(metric, dim, query, soa, rows, base, thr) };
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            if !on_match(base + j) {
                return false;
            }
            mask &= mask - 1;
        }
        base += L;
    }
    for i in base..rows {
        if reduced_soa_point(metric, dim, query, soa, rows, i) <= thr && !on_match(i) {
            return false;
        }
    }
    true
}

/// Within-threshold bitmask of one full lane group, 256 bits at a time:
/// explicit `vsubpd`/`vmulpd`/`vaddpd` (and `vandpd` abs / `vmaxpd`)
/// followed by `vcmppd LE_OQ` + `vmovmskpd`. Each instruction is the
/// per-lane IEEE operation of the scalar kernel — multiply and add stay
/// separate (no FMA contraction) and the accumulation still runs
/// coordinates in ascending order — so every lane's distance, and hence
/// the mask, is bit-identical to the portable path for the finite
/// coordinates datasets hold.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn group_mask_avx2<const L: usize>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    base: usize,
    thr: f64,
) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(L.is_multiple_of(4) && base + L <= rows);
    let t = _mm256_set1_pd(thr);
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    // coordinate-outer so the query broadcast is paid once per group
    // per dimension; the whole group's accumulators live in registers
    // (L <= 16, so at most four of the sixteen ymm registers)
    let n = L / 4;
    let mut acc = [_mm256_setzero_pd(); 4];
    for (k, &q) in query.iter().enumerate().take(dim) {
        let qv = _mm256_set1_pd(q);
        // SAFETY: k < dim and base + L <= rows, so all L lanes lie
        // inside column k of the dim-major block.
        let colp = unsafe { soa.as_ptr().add(k * rows + base) };
        for (c, a) in acc.iter_mut().enumerate().take(n) {
            let col = unsafe { _mm256_loadu_pd(colp.add(4 * c)) };
            let delta = _mm256_sub_pd(qv, col);
            *a = match metric {
                Metric::Euclidean => _mm256_add_pd(*a, _mm256_mul_pd(delta, delta)),
                Metric::Manhattan => _mm256_add_pd(*a, _mm256_and_pd(delta, abs_mask)),
                Metric::Chebyshev => _mm256_max_pd(*a, _mm256_and_pd(delta, abs_mask)),
            };
        }
    }
    let mut mask = 0u32;
    for (c, &a) in acc.iter().enumerate().take(n) {
        let le = _mm256_cmp_pd::<_CMP_LE_OQ>(a, t);
        mask |= (_mm256_movemask_pd(le) as u32) << (4 * c);
    }
    mask
}

/// [`group_mask_avx2`] at AVX-512 width: the accumulators are zmm
/// registers (8 lanes each, so `L = 8` is a single register and
/// `L = 16` two) and the threshold compare lands directly in a mask
/// register via `vcmppd k, ...`. Per-lane operations are the same IEEE
/// sub/mul/add (no FMA) in the same coordinate order — bit-identical
/// to both the portable and the AVX2 paths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn group_mask_avx512<const L: usize>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    base: usize,
    thr: f64,
) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(L.is_multiple_of(8) && base + L <= rows);
    let t = _mm512_set1_pd(thr);
    let n = L / 8;
    let mut acc = [_mm512_setzero_pd(); 2];
    for (k, &q) in query.iter().enumerate().take(dim) {
        let qv = _mm512_set1_pd(q);
        // SAFETY: k < dim and base + L <= rows, so all L lanes lie
        // inside column k of the dim-major block.
        let colp = unsafe { soa.as_ptr().add(k * rows + base) };
        for (c, a) in acc.iter_mut().enumerate().take(n) {
            let col = unsafe { _mm512_loadu_pd(colp.add(8 * c)) };
            let delta = _mm512_sub_pd(qv, col);
            *a = match metric {
                Metric::Euclidean => _mm512_add_pd(*a, _mm512_mul_pd(delta, delta)),
                Metric::Manhattan => _mm512_add_pd(*a, _mm512_abs_pd(delta)),
                Metric::Chebyshev => _mm512_max_pd(*a, _mm512_abs_pd(delta)),
            };
        }
    }
    let mut mask = 0u32;
    for (c, &a) in acc.iter().enumerate().take(n) {
        mask |= (_mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, t) as u32) << (8 * c);
    }
    mask
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scan_soa_lanes_avx512<const L: usize, F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    thr: f64,
    mut on_match: F,
) -> bool {
    let mut base = 0usize;
    while base + L <= rows {
        let mut mask = unsafe { group_mask_avx512::<L>(metric, dim, query, soa, rows, base, thr) };
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            if !on_match(base + j) {
                return false;
            }
            mask &= mask - 1;
        }
        base += L;
    }
    for i in base..rows {
        if reduced_soa_point(metric, dim, query, soa, rows, i) <= thr && !on_match(i) {
            return false;
        }
    }
    true
}

#[inline(always)]
fn scan_soa_lanes<const L: usize, F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    thr: f64,
    mut on_match: F,
) -> bool {
    let mut base = 0usize;
    while base + L <= rows {
        let acc = group_distances::<L>(metric, dim, query, soa, rows, base);
        // branch-free threshold pass: one compare bit per lane (LLVM
        // lowers the reduction to a vector compare + movemask), then
        // report set bits in row order — the usual all-zero mask skips
        // the emission loop entirely
        let mut mask = 0u32;
        for (j, &a) in acc.iter().enumerate() {
            mask |= u32::from(a <= thr) << j;
        }
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            if !on_match(base + j) {
                return false;
            }
            mask &= mask - 1;
        }
        base += L;
    }
    for i in base..rows {
        if reduced_soa_point(metric, dim, query, soa, rows, i) <= thr && !on_match(i) {
            return false;
        }
    }
    true
}

/// Reduced distances of one full lane group, one lane per point. The
/// outer loop runs coordinates in ascending order, so each lane's
/// accumulation order matches the scalar kernels exactly; the inner
/// `0..L` loop over a length-proven column slice is what LLVM turns
/// into vector code.
#[inline(always)]
fn group_distances<const L: usize>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    base: usize,
) -> [f64; L] {
    let mut acc = [0.0f64; L];
    match metric {
        Metric::Euclidean => {
            for (k, &q) in query.iter().enumerate().take(dim) {
                let col: &[f64; L] =
                    soa[k * rows + base..k * rows + base + L].try_into().expect("full lane group");
                for j in 0..L {
                    let delta = q - col[j];
                    acc[j] += delta * delta;
                }
            }
        }
        Metric::Manhattan => {
            for (k, &q) in query.iter().enumerate().take(dim) {
                let col: &[f64; L] =
                    soa[k * rows + base..k * rows + base + L].try_into().expect("full lane group");
                for j in 0..L {
                    acc[j] += (q - col[j]).abs();
                }
            }
        }
        Metric::Chebyshev => {
            for (k, &q) in query.iter().enumerate().take(dim) {
                let col: &[f64; L] =
                    soa[k * rows + base..k * rows + base + L].try_into().expect("full lane group");
                for j in 0..L {
                    acc[j] = f64::max(acc[j], (q - col[j]).abs());
                }
            }
        }
    }
    acc
}

/// Reduced distance of one point of a dimension-major block (the
/// remainder rows after the last full lane group). Same coordinate
/// order as the scalar kernels.
#[inline(always)]
fn reduced_soa_point(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    rows: usize,
    i: usize,
) -> f64 {
    let mut acc = 0.0f64;
    match metric {
        Metric::Euclidean => {
            for (k, &q) in query.iter().enumerate().take(dim) {
                let delta = q - soa[k * rows + i];
                acc += delta * delta;
            }
        }
        Metric::Manhattan => {
            for (k, &q) in query.iter().enumerate().take(dim) {
                acc += (q - soa[k * rows + i]).abs();
            }
        }
        Metric::Chebyshev => {
            for (k, &q) in query.iter().enumerate().take(dim) {
                acc = f64::max(acc, (q - soa[k * rows + i]).abs());
            }
        }
    }
    acc
}

/// Transpose one row-major block into dimension-major (SoA) order:
/// `out[k * rows + i] = block[i * dim + k]`. The inverse of the gather
/// the SoA kernels perform; `out.len() == block.len()`.
pub fn transpose_block(block: &[f64], dim: usize, out: &mut [f64]) {
    debug_assert_eq!(block.len(), out.len());
    if dim == 0 {
        return;
    }
    let rows = block.len() / dim;
    for (i, row) in block.chunks_exact(dim).enumerate() {
        for (k, &v) in row.iter().enumerate() {
            out[k * rows + i] = v;
        }
    }
}

/// Reduced distance between a single pair of points, dispatched on
/// length. Accumulation order matches the generic loops exactly, so the
/// result is bit-identical to [`reduced_generic`].
#[inline]
pub fn reduced_distance_dispatch(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    match a.len() {
        2 => reduced_fixed::<2>(metric, a, b),
        3 => reduced_fixed::<3>(metric, a, b),
        4 => reduced_fixed::<4>(metric, a, b),
        5 => reduced_fixed::<5>(metric, a, b),
        6 => reduced_fixed::<6>(metric, a, b),
        _ => reduced_generic(metric, a, b),
    }
}

#[inline]
fn reduced_fixed<const D: usize>(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    let a: &[f64; D] = a.try_into().expect("length checked by dispatch");
    let b: &[f64; D] = b.try_into().expect("length checked by dispatch");
    match metric {
        Metric::Euclidean => squared_euclidean_fixed(a, b),
        Metric::Manhattan => manhattan_fixed(a, b),
        Metric::Chebyshev => chebyshev_fixed(a, b),
    }
}

/// The dynamic-length reduced distance (no dispatch) — the reference
/// the specialized kernels must agree with bit for bit.
#[inline]
pub fn reduced_generic(metric: Metric, a: &[f64], b: &[f64]) -> f64 {
    metric_kernel(metric)(a, b)
}

/// Squared Euclidean distance over a fixed dimension.
#[inline]
pub fn squared_euclidean_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for k in 0..D {
        let d = a[k] - b[k];
        acc += d * d;
    }
    acc
}

/// Manhattan (L1) distance over a fixed dimension.
#[inline]
pub fn manhattan_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for k in 0..D {
        acc += (a[k] - b[k]).abs();
    }
    acc
}

/// Chebyshev (L∞) distance over a fixed dimension.
#[inline]
pub fn chebyshev_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for k in 0..D {
        acc = f64::max(acc, (a[k] - b[k]).abs());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: [Metric; 3] = [Metric::Euclidean, Metric::Manhattan, Metric::Chebyshev];

    fn block(dim: usize, rows: usize) -> Vec<f64> {
        (0..dim * rows).map(|i| ((i as f64) * 7.31).sin() * 40.0).collect()
    }

    fn soa_of(block: &[f64], dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; block.len()];
        transpose_block(block, dim, &mut out);
        out
    }

    #[test]
    fn dispatch_matches_generic_bit_for_bit() {
        for dim in 1..=8 {
            let data = block(dim, 37);
            let q: Vec<f64> = (0..dim).map(|k| (k as f64) * 3.7 - 1.0).collect();
            for m in METRICS {
                for row in data.chunks_exact(dim) {
                    let a = reduced_distance_dispatch(m, &q, row);
                    let b = reduced_generic(m, &q, row);
                    assert_eq!(a.to_bits(), b.to_bits(), "dim={dim} metric={m:?}");
                }
            }
        }
    }

    #[test]
    fn scan_block_matches_generic_matches() {
        for dim in 1..=8 {
            let data = block(dim, 53);
            let q: Vec<f64> = (0..dim).map(|k| (k as f64) * 1.3).collect();
            for m in METRICS {
                for thr in [0.0, 10.0, 1000.0, f64::INFINITY] {
                    let mut fast = Vec::new();
                    let mut slow = Vec::new();
                    assert!(scan_block(m, dim, &q, &data, thr, |i| {
                        fast.push(i);
                        true
                    }));
                    assert!(scan_block_generic(m, dim, &q, &data, thr, |i| {
                        slow.push(i);
                        true
                    }));
                    assert_eq!(fast, slow, "dim={dim} metric={m:?} thr={thr}");
                }
            }
        }
    }

    #[test]
    fn soa_scan_matches_row_major_scan() {
        for dim in 1..=8 {
            // rows chosen to leave a remainder group at every lane width
            let data = block(dim, 43);
            let soa = soa_of(&data, dim);
            let q: Vec<f64> = (0..dim).map(|k| (k as f64) * 1.3).collect();
            for m in METRICS {
                for thr in [0.0, 10.0, 1000.0, f64::INFINITY] {
                    for lanes in LANE_WIDTHS {
                        let mut row_major = Vec::new();
                        let mut lane = Vec::new();
                        assert!(scan_block(m, dim, &q, &data, thr, |i| {
                            row_major.push(i);
                            true
                        }));
                        assert!(scan_block_soa(m, dim, &q, &soa, 43, thr, lanes, |i| {
                            lane.push(i);
                            true
                        }));
                        assert_eq!(
                            row_major, lane,
                            "dim={dim} metric={m:?} thr={thr} lanes={lanes}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soa_scan_early_exit_matches_row_major() {
        let data = block(3, 100);
        let soa = soa_of(&data, 3);
        let q = [0.0, 0.0, 0.0];
        for cap in [1usize, 3, 7] {
            let run = |soa_path: bool| {
                let mut hits = Vec::new();
                let cb = |i: usize| {
                    hits.push(i);
                    hits.len() < cap
                };
                let finished = if soa_path {
                    scan_block_soa(Metric::Euclidean, 3, &q, &soa, 100, f64::INFINITY, 8, cb)
                } else {
                    scan_block(Metric::Euclidean, 3, &q, &data, f64::INFINITY, cb)
                };
                (finished, hits)
            };
            assert_eq!(run(true), run(false), "cap={cap}");
        }
    }

    #[test]
    fn transpose_round_trips_losslessly() {
        for dim in 1..=6 {
            let data = block(dim, 29);
            let soa = soa_of(&data, dim);
            let rows = 29;
            for (i, row) in data.chunks_exact(dim).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    assert_eq!(v.to_bits(), soa[k * rows + i].to_bits());
                }
            }
        }
    }

    #[test]
    fn early_exit_stops_the_scan() {
        let data = block(2, 100);
        let mut seen = 0usize;
        let finished = scan_block(Metric::Euclidean, 2, &[0.0, 0.0], &data, f64::INFINITY, |_| {
            seen += 1;
            seen < 5
        });
        assert!(!finished);
        assert_eq!(seen, 5);
    }

    #[test]
    fn empty_block_scans_nothing() {
        for dim in [1, 2, 3, 4, 5, 6, 7] {
            let q = vec![0.0; dim];
            assert!(scan_block(Metric::Euclidean, dim, &q, &[], 1.0, |_| panic!("no rows")));
            assert!(scan_block_soa(Metric::Euclidean, dim, &q, &[], 0, 1.0, 8, |_| panic!(
                "no rows"
            )));
        }
    }

    #[test]
    fn specialized_dims_are_dispatched() {
        // sanity: the dispatch table covers exactly what it claims —
        // every neighborhood-grid dimension up to MAX_NEIGHBORHOOD_DIM
        assert_eq!(SPECIALIZED_DIMS.to_vec(), (2..=6).collect::<Vec<_>>());
    }

    #[test]
    fn kernel_config_env_parsing_contract() {
        let d = KernelConfig::default();
        assert_eq!(d.layout, KernelLayout::Lanes);
        assert_eq!(d.lanes, DEFAULT_LANES);
        assert_eq!(KernelConfig::from_env_values(None, None), d);
        let c = KernelConfig::from_env_values(Some(" SCALAR "), Some("5"));
        assert_eq!(c.layout, KernelLayout::Scalar);
        assert_eq!(c.lanes, 8, "5 snaps up to the nearest monomorphized width");
        // junk keeps defaults per knob
        let j = KernelConfig::from_env_values(Some("simd"), Some("lots"));
        assert_eq!(j, d);
        assert_eq!(KernelConfig::from_env_values(None, Some("99")).lanes, 16);
        assert_eq!(KernelConfig::from_env_values(None, Some("1")).lanes, 4);
        assert_eq!(KernelConfig::scalar().layout, KernelLayout::Scalar);
    }

    #[test]
    fn kernel_counters_merge() {
        let mut a = KernelCounters::default();
        assert!(a.is_zero());
        let b =
            KernelCounters { blocks_scanned: 1, rows_scanned: 16, range_hits: 3, early_exits: 1 };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.blocks_scanned, 2);
        assert_eq!(a.rows_scanned, 32);
        assert_eq!(a.range_hits, 6);
        assert_eq!(a.early_exits, 2);
        assert!(!a.is_zero());
    }
}
