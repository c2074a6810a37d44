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
//! (all `x`s, then all `y`s, …), accumulating a whole group of
//! [`DEFAULT_LANES`] = 16 points into a fixed-width `[f64; 16]` stack
//! buffer that LLVM auto-vectorizes on stable, or into explicit AVX2 /
//! AVX-512 registers when the host has them (picked once per block).
//! One lane per point: each point's per-dimension sum runs in the exact
//! sequential coordinate order of the scalar kernels, so every distance
//! is the same `f64` bit for bit — vectorization happens *across*
//! points, never inside one point's accumulation. The threshold test is
//! a branch-free compare-to-bitmask, so dense and sparse blocks cost
//! the same per row. 16 is the only lane width: the default kd-tree
//! leaf ([`crate::bkdtree::DEFAULT_BUCKET_SIZE`] = 64 points) is four
//! groups, so a leaf scan is one short loop of full-width groups.
//!
//! **Padded blocks, masked tails.** SoA columns have a stride of the
//! row count rounded up to the lane width, so a scan is whole lane
//! groups with no scalar remainder loop. The last group's hit mask is
//! ANDed with `(1 << real_rows) - 1`, so a pad row is never reported
//! whatever it holds; sentinel values would not do — `f64::max` ignores
//! NaN in the Chebyshev kernel, and ±inf passes the test at `eps = inf`.
//! [`KernelCounters::rows_scanned`] counts real rows only.
//!
//! Two invariants make the kernels safe to wire everywhere:
//!
//! * **Bit-identical results.** Fixed-`D`, generic and lane-blocked
//!   paths accumulate in the same coordinate order, so every distance
//!   is the exact same `f64` — all paths return byte-identical
//!   neighborhoods (property-tested in `tests/proptest_kernels.rs`).
//!   The AVX2 and AVX-512 group masks vectorize only *across* points
//!   with the same per-lane IEEE ops (`vsubpd`/`vmulpd`/`vaddpd`, never
//!   an FMA contraction), so they are covered by the same guarantee.
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

/// The SoA kernel's lane width: 16 points per group, the only width
/// it is built for. On AVX-512 a group is two zmm accumulators, on AVX2
/// four ymm (of sixteen registers, so nothing spills at any `d`).
/// Measured end to end against 4 and 8 lanes on the tail-free kernel,
/// 16 won on every `e2e_bench` workload; with 64-point leaves it also
/// beat 8 lanes on 16-point leaves with AVX-512 compiled out, on AVX2
/// and on portable code (EXPERIMENTS.md, "Tail-free leaf scans" and
/// "Leaves sized for the lane kernel").
pub const DEFAULT_LANES: usize = 16;

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
/// the leaf-block layout. Labels, executor stats, kernel counters and
/// traces are byte-identical for every value; only throughput changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Leaf-block layout and scan strategy.
    pub layout: KernelLayout,
    /// Points per SoA lane group: always [`DEFAULT_LANES`], reported
    /// for host descriptions. A tree scans at [`DEFAULT_LANES`] and
    /// records that width whatever value its build config carried.
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

    /// Defaults overlaid with the environment: `DBSCAN_KERNEL`
    /// (`scalar`/`lanes`). Unset or unparsable values leave the default
    /// in place.
    pub fn from_env() -> Self {
        Self::from_env_values(std::env::var("DBSCAN_KERNEL").ok().as_deref())
    }

    /// The pure core of [`KernelConfig::from_env`], taking the raw
    /// variable value so tests can exercise the parsing contract
    /// without touching the process environment. Never panics, never
    /// errors: junk keeps the default.
    pub fn from_env_values(layout: Option<&str>) -> Self {
        let mut cfg = Self::default();
        match layout.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
            Some("scalar") => cfg.layout = KernelLayout::Scalar,
            Some("lanes") => cfg.layout = KernelLayout::Lanes,
            _ => {}
        }
        cfg
    }
}

/// Strict digit-only unsigned parsing for `DBSCAN_*` environment values:
/// optional surrounding whitespace around a non-empty run of ASCII
/// digits, nothing else. Rejects the leading `+` that integer `FromStr`
/// accepts: an environment variable carrying `+8` is far likelier a
/// templating bug than an intentional sign.
pub fn parse_env_uint<T: std::str::FromStr>(v: &str) -> Option<T> {
    let t = v.trim();
    if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    t.parse::<T>().ok()
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
    /// Rows held by the scanned blocks (real rows; SoA padding is not
    /// counted).
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

// ---- lane-blocked SoA kernel -------------------------------------------

/// Lane width inside the kernel (shorthand for [`DEFAULT_LANES`]).
const L: usize = DEFAULT_LANES;

/// Scan a padded dimension-major (SoA) block of `rows` points, invoking
/// `on_match(i)` for every row within `thr`, **in row order** — the same
/// callback sequence, stops included, as [`scan_block`] over the
/// row-major transpose of the block. Coordinate `k` of point `i` sits at
/// `soa[k * stride + i]`; `stride` must be at least `rows` rounded up to
/// [`DEFAULT_LANES`] and `soa` must hold `dim * stride` values. Rows
/// `rows..stride` are padding, masked out of the hits, so their
/// contents never matter.
///
/// # Panics
///
/// If the block is smaller than `stride` and `rows` require.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn scan_block_soa<F: FnMut(usize) -> bool>(
    metric: Metric,
    dim: usize,
    query: &[f64],
    soa: &[f64],
    stride: usize,
    rows: usize,
    thr: f64,
    on_match: F,
) -> bool {
    if rows == 0 || dim == 0 {
        return true;
    }
    let b = SoaBlock { metric, dim, query, soa, stride, thr };
    assert!(
        rows.checked_next_multiple_of(L).is_some_and(|padded| padded <= stride)
            && dim.checked_mul(stride).is_some_and(|len| len <= soa.len()),
        "SoA block of {} values cannot hold {rows} rows at stride {stride} x {dim} dims",
        soa.len(),
    );
    // pick the widest group mask the host supports (all are
    // bit-identical); each ISA runs the same `scan_groups` loop inside
    // a `#[target_feature]` function, so the mask inlines
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was just detected on this CPU, and the
            // assert above is the block-size contract.
            return unsafe { scan_groups_avx512(b, rows, on_match) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for avx2.
            return unsafe { scan_groups_avx2(b, rows, on_match) };
        }
    }
    scan_groups(rows, move |base| group_mask_portable(b, base), on_match)
}

/// One padded SoA block under one query: everything a lane group's
/// mask needs except the group's first row. Captured by value (`move`)
/// in the mask closures: by reference, LLVM reloaded the block's fields
/// on every group, visibly slower.
#[derive(Clone, Copy)]
struct SoaBlock<'a> {
    metric: Metric,
    dim: usize,
    query: &'a [f64],
    soa: &'a [f64],
    stride: usize,
    thr: f64,
}

/// [`scan_groups`] over [`group_mask_avx512`].
///
/// # Safety
///
/// The CPU must support AVX-512F, and `b.soa` must hold `b.dim`
/// columns of stride `b.stride >= rows.next_multiple_of(L)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scan_groups_avx512<F: FnMut(usize) -> bool>(
    b: SoaBlock,
    rows: usize,
    on_match: F,
) -> bool {
    // SAFETY: the CPU has avx512f (this function's contract), and
    // `scan_groups` only asks for groups with base % L == 0 and
    // base < rows, so base + L <= stride.
    scan_groups(rows, move |base| unsafe { group_mask_avx512(b, base) }, on_match)
}

/// [`scan_groups`] over [`group_mask_avx2`].
///
/// # Safety
///
/// The CPU must support AVX2, and `b.soa` must hold `b.dim` columns of
/// stride `b.stride >= rows.next_multiple_of(L)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_groups_avx2<F: FnMut(usize) -> bool>(b: SoaBlock, rows: usize, on_match: F) -> bool {
    // SAFETY: as in `scan_groups_avx512`, for avx2.
    scan_groups(rows, move |base| unsafe { group_mask_avx2(b, base) }, on_match)
}

/// The one lane-group loop: full groups only, the last group's mask cut
/// to the rows that exist, hits reported in row order via
/// `trailing_zeros` — the usual all-zero mask skips the emission loop.
#[inline(always)]
fn scan_groups<M: Fn(usize) -> u32, F: FnMut(usize) -> bool>(
    rows: usize,
    group_mask: M,
    mut on_match: F,
) -> bool {
    let mut base = 0usize;
    while base < rows {
        let live = (rows - base).min(L);
        // padding rows are never reported, whatever they hold
        let mut mask = group_mask(base) & ((1u32 << live) - 1);
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            if !on_match(base + j) {
                return false;
            }
            mask &= mask - 1;
        }
        base += L;
    }
    true
}

/// Within-threshold bitmask of the 16-point group at row `base` (bit
/// `j` set iff point `base + j` is within `thr`): [`group_distances`]
/// plus a branch-free compare LLVM lowers to a vector compare + movemask.
#[inline(always)]
fn group_mask_portable(b: SoaBlock, base: usize) -> u32 {
    let acc = group_distances(b, base);
    let mut mask = 0u32;
    for (j, &a) in acc.iter().enumerate() {
        mask |= u32::from(a <= b.thr) << j;
    }
    mask
}

/// [`group_mask_portable`] 256 bits at a time: explicit
/// `vsubpd`/`vmulpd`/`vaddpd` (and `vandpd` abs / `vmaxpd`), then
/// `vcmppd LE_OQ` + `vmovmskpd`. Each is the scalar kernel's per-lane
/// IEEE op (no FMA contraction) in ascending coordinate order, so the
/// mask is bit-identical to the portable path.
///
/// # Safety
///
/// The CPU must support AVX2, and each of the `b.dim` columns of
/// `b.soa` must hold rows `base..base + L` (`base + L <= b.stride`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn group_mask_avx2(b: SoaBlock, base: usize) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(base + L <= b.stride && b.soa.len() >= b.dim * b.stride);
    let t = _mm256_set1_pd(b.thr);
    let abs_mask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    // coordinate-outer so the query broadcast is paid once per group
    // per dimension; the whole group's accumulators live in registers
    // (four of the sixteen ymm registers)
    let mut acc = [_mm256_setzero_pd(); L / 4];
    for (k, &q) in b.query.iter().enumerate().take(b.dim) {
        let qv = _mm256_set1_pd(q);
        // SAFETY: k < dim and base + L <= stride (caller contract), so
        // all L lanes lie inside column k of the block.
        let colp = unsafe { b.soa.as_ptr().add(k * b.stride + base) };
        for (c, a) in acc.iter_mut().enumerate() {
            // SAFETY: c < L / 4, so lanes 4c..4c + 4 lie in the group.
            let col = unsafe { _mm256_loadu_pd(colp.add(4 * c)) };
            let delta = _mm256_sub_pd(qv, col);
            *a = match b.metric {
                Metric::Euclidean => _mm256_add_pd(*a, _mm256_mul_pd(delta, delta)),
                Metric::Manhattan => _mm256_add_pd(*a, _mm256_and_pd(delta, abs_mask)),
                Metric::Chebyshev => _mm256_max_pd(*a, _mm256_and_pd(delta, abs_mask)),
            };
        }
    }
    let mut mask = 0u32;
    for (c, &a) in acc.iter().enumerate() {
        let le = _mm256_cmp_pd::<_CMP_LE_OQ>(a, t);
        mask |= (_mm256_movemask_pd(le) as u32) << (4 * c);
    }
    mask
}

/// [`group_mask_avx2`] at AVX-512 width: two zmm accumulators, and the
/// compare lands in a mask register via `vcmppd k, ...`. Same per-lane
/// IEEE ops in the same order.
///
/// # Safety
///
/// The CPU must support AVX-512F, and each of the `b.dim` columns of
/// `b.soa` must hold rows `base..base + L` (`base + L <= b.stride`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn group_mask_avx512(b: SoaBlock, base: usize) -> u32 {
    use std::arch::x86_64::*;
    debug_assert!(base + L <= b.stride && b.soa.len() >= b.dim * b.stride);
    let t = _mm512_set1_pd(b.thr);
    let mut acc = [_mm512_setzero_pd(); L / 8];
    for (k, &q) in b.query.iter().enumerate().take(b.dim) {
        let qv = _mm512_set1_pd(q);
        // SAFETY: k < dim and base + L <= stride (caller contract), so
        // all L lanes lie inside column k of the block.
        let colp = unsafe { b.soa.as_ptr().add(k * b.stride + base) };
        for (c, a) in acc.iter_mut().enumerate() {
            // SAFETY: c < L / 8, so lanes 8c..8c + 8 lie in the group.
            let col = unsafe { _mm512_loadu_pd(colp.add(8 * c)) };
            let delta = _mm512_sub_pd(qv, col);
            *a = match b.metric {
                Metric::Euclidean => _mm512_add_pd(*a, _mm512_mul_pd(delta, delta)),
                Metric::Manhattan => _mm512_add_pd(*a, _mm512_abs_pd(delta)),
                Metric::Chebyshev => _mm512_max_pd(*a, _mm512_abs_pd(delta)),
            };
        }
    }
    let mut mask = 0u32;
    for (c, &a) in acc.iter().enumerate() {
        mask |= (_mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, t) as u32) << (8 * c);
    }
    mask
}

/// Reduced distances of one full lane group, one lane per point. The
/// outer loop runs coordinates in ascending order, so each lane's
/// accumulation order matches the scalar kernels exactly; the inner
/// `0..L` loop over a length-proven column slice is what LLVM turns
/// into vector code.
#[inline(always)]
fn group_distances(b: SoaBlock, base: usize) -> [f64; L] {
    let mut acc = [0.0f64; L];
    let column = |k: usize| -> &[f64; L] {
        b.soa[k * b.stride + base..k * b.stride + base + L].try_into().expect("full lane group")
    };
    let coords = b.query.iter().enumerate().take(b.dim);
    match b.metric {
        Metric::Euclidean => {
            for (k, &q) in coords {
                let col = column(k);
                for j in 0..L {
                    let delta = q - col[j];
                    acc[j] += delta * delta;
                }
            }
        }
        Metric::Manhattan => {
            for (k, &q) in coords {
                let col = column(k);
                for j in 0..L {
                    acc[j] += (q - col[j]).abs();
                }
            }
        }
        Metric::Chebyshev => {
            for (k, &q) in coords {
                let col = column(k);
                for j in 0..L {
                    acc[j] = f64::max(acc[j], (q - col[j]).abs());
                }
            }
        }
    }
    acc
}

/// Transpose one row-major block into dimension-major (SoA) order with
/// column stride `stride`: `out[k * stride + i] = block[i * dim + k]`.
/// The inverse of the gather the SoA kernels perform; slots
/// `rows..stride` of each column are left as they are (padding).
/// `stride >= block.len() / dim` and `out.len() >= dim * stride`.
pub fn transpose_block(block: &[f64], dim: usize, stride: usize, out: &mut [f64]) {
    if dim == 0 {
        return;
    }
    debug_assert!(block.len() / dim <= stride && out.len() >= dim * stride);
    for (i, row) in block.chunks_exact(dim).enumerate() {
        for (k, &v) in row.iter().enumerate() {
            out[k * stride + i] = v;
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

    /// Padded SoA copy of `block` at column stride `stride`; the padding
    /// holds NaN, which every lane of a real row would reject anyway —
    /// the property tests fill it with hits instead.
    fn soa_of(block: &[f64], dim: usize, stride: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; dim * stride];
        transpose_block(block, dim, stride, &mut out);
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
            let q: Vec<f64> = (0..dim).map(|k| (k as f64) * 1.3).collect();
            // one short group, one full group, and a partial last group
            for rows in [5usize, 16, 43] {
                let data = block(dim, rows);
                let stride = rows.next_multiple_of(DEFAULT_LANES);
                let soa = soa_of(&data, dim, stride);
                for m in METRICS {
                    for thr in [0.0, 10.0, 1000.0, f64::INFINITY] {
                        let mut row_major = Vec::new();
                        let mut lane = Vec::new();
                        assert!(scan_block(m, dim, &q, &data, thr, |i| {
                            row_major.push(i);
                            true
                        }));
                        assert!(scan_block_soa(m, dim, &q, &soa, stride, rows, thr, |i| {
                            lane.push(i);
                            true
                        }));
                        assert_eq!(row_major, lane, "dim={dim} metric={m:?} thr={thr} rows={rows}");
                    }
                }
            }
        }
    }

    #[test]
    fn soa_scan_early_exit_matches_row_major() {
        let data = block(3, 100);
        let soa = soa_of(&data, 3, 112);
        let q = [0.0, 0.0, 0.0];
        for cap in [1usize, 3, 7, 99] {
            let run = |soa_path: bool| {
                let mut hits = Vec::new();
                let cb = |i: usize| {
                    hits.push(i);
                    hits.len() < cap
                };
                let finished = if soa_path {
                    scan_block_soa(Metric::Euclidean, 3, &q, &soa, 112, 100, f64::INFINITY, cb)
                } else {
                    scan_block(Metric::Euclidean, 3, &q, &data, f64::INFINITY, cb)
                };
                (finished, hits)
            };
            assert_eq!(run(true), run(false), "cap={cap}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn soa_scan_rejects_an_unpadded_block() {
        let data = block(2, 13);
        let soa = soa_of(&data, 2, 13);
        scan_block_soa(Metric::Euclidean, 2, &[0.0, 0.0], &soa, 13, 13, 1.0, |_| true);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn soa_scan_rejects_a_stride_that_overflows() {
        let soa = vec![0.0; 64];
        let stride = usize::MAX / 2 + 1;
        scan_block_soa(Metric::Euclidean, 2, &[0.0, 0.0], &soa, stride, 13, 1.0, |_| true);
    }

    #[test]
    fn transpose_round_trips_losslessly() {
        for dim in 1..=6 {
            let data = block(dim, 29);
            let stride = 32;
            let soa = soa_of(&data, dim, stride);
            for (i, row) in data.chunks_exact(dim).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    assert_eq!(v.to_bits(), soa[k * stride + i].to_bits());
                }
            }
            // padding slots are left untouched
            assert!(soa[29..stride].iter().all(|v| v.is_nan()));
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
            assert!(scan_block_soa(Metric::Euclidean, dim, &q, &[], 0, 0, 1.0, |_| panic!(
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
        assert_eq!(KernelConfig::from_env_values(None), d);
        let c = KernelConfig::from_env_values(Some(" SCALAR "));
        assert_eq!(c.layout, KernelLayout::Scalar);
        assert_eq!(c.lanes, DEFAULT_LANES, "the scalar layout keeps the one lane width");
        assert_eq!(KernelConfig::from_env_values(Some("lanes")), d);
        // junk keeps the default
        for junk in ["simd", "", "16", "lanes16"] {
            assert_eq!(KernelConfig::from_env_values(Some(junk)), d, "{junk:?}");
        }
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
