//! Batched evaluation — the §4.3 vectorization regime as a real API.
//!
//! [`eval_slice_f32`] (and the per-function `*_slice` entry points)
//! evaluate a whole input slice with the same progressive-tier guarantee
//! as the scalar functions: the output is **bit-identical** to mapping
//! the scalar function over the slice. The speed comes from
//! restructuring the *prefix* tier — the truncated polynomial that ships
//! the overwhelming majority of lanes — as structure-of-arrays stages
//! over fixed-size chunks:
//!
//! 1. **widen**: classify each lane against the function's fast-path
//!    domain and widen to f64 (special lanes get a benign placeholder so
//!    the staged arithmetic stays total);
//! 2. **reduce**: the range reduction for every lane (k/r for the exp
//!    family, e/j/u for the logs) into parallel arrays;
//! 3. **lookup + Horner**: table access and *prefix-degree* polynomial
//!    evaluation over the arrays. The tier's polynomial is a generic
//!    parameter of each chunk kernel, inlined into it, and the reductions
//!    round with `fast::round_even_i64` instead of a `rint` libcall, so
//!    every (function, tier) pair compiles to its own call-free loop of
//!    plain-double code the compiler can unroll, schedule across lanes
//!    and vectorize where the target allows;
//! 4. **resolve**: per lane, the round-safety test against the wide
//!    prefix band decides whether the prefix double ships. Lanes the
//!    prefix band rejects escalate **as a chunk** to the full-degree
//!    staged kernel against the narrow full band; lanes that band
//!    rejects too (and every special-case lane) re-enter the scalar
//!    progressive entry, which owns the dd tier.
//!
//! Escalation is per chunk, not per slice: the full-degree stage only
//! runs when at least one in-domain lane of the chunk failed the prefix
//! band, so a clean chunk pays for exactly one (shorter) polynomial.
//! Per-tier accounting lands in the same `runtime.tier.*` counters the
//! scalar front ends use — prefix acceptances batched per call, full
//! acceptances batched per call, dd events recorded by the scalar entry
//! the rescalar lanes fall into.
//!
//! `sinh`/`cosh` route their dominant cost (the `e^|x|` evaluation)
//! through the same staged exp pipeline; `sinpi`/`cospi` are evaluated
//! per lane inside the chunk driver — their reduction is short but
//! branch-heavy (mirror folds), so staging buys nothing there.
//!
//! Posit32 batching ([`eval_slice_posit32`]) runs the same driver and
//! the same f64 chunk kernels: a posit32 widens exactly to f64, so the
//! format only changes the widen stage (the posit decode), the
//! round-safety test (`posit32_round_safe`) and the final narrowing cast
//! (the posit encode). Each function's posit domain filter mirrors its
//! scalar entry in [`crate::posit`], and special and saturating lanes
//! resolve through that entry. The AVX2 stages are f32-only.

use crate::fast;
use crate::float::trig::is_int_pos;
use crate::tables as t;
use rlibm_fp::Representation;
use rlibm_obs::Counter;
use rlibm_posit::Posit32;

/// AVX2 implementations of the staged pipeline (`simd` feature, x86_64
/// only). The entry points below dispatch into it at runtime when AVX2
/// is present; the scalar chunk functions in this module stay the
/// certified reference and the fallback.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[path = "slice_simd.rs"]
mod simd;

/// Chunk width of the staged pipeline. 64 lanes of f64 is 4 cache lines
/// per stage array — small enough to stay resident, wide enough that the
/// per-chunk loop overhead vanishes.
const LANES: usize = 64;

// Batched-evaluation telemetry (no-ops unless built with the `telemetry`
// feature). Both counters accumulate locally and hit the atomics once per
// chunk / call, never per lane. The rescalar count is the number to
// watch: every rescalar lane pays the scalar two-tier price, so a high
// ratio against `64 * chunks` means the workload defeats the staging.
static SLICE_CHUNKS: Counter = Counter::new("runtime.slice.f32.chunks");
static SLICE_RESCALAR: Counter = Counter::new("runtime.slice.f32.rescalar_lanes");

// The posit32 counterparts, plus the total requests (lanes) served, so
// serving-layer posit traffic shows up in TELEM snapshots.
static SLICE_POSIT_CHUNKS: Counter = Counter::new("runtime.slice.posit32.chunks");
static SLICE_POSIT_RESCALAR: Counter = Counter::new("runtime.slice.posit32.rescalar_lanes");
static SLICE_POSIT_REQUESTS: Counter = Counter::new("runtime.slice.posit32.requests");

/// Forces the slice counters into the snapshot registry at value zero.
pub(crate) fn register_metrics() {
    SLICE_CHUNKS.register();
    SLICE_RESCALAR.register();
    SLICE_POSIT_CHUNKS.register();
    SLICE_POSIT_RESCALAR.register();
    SLICE_POSIT_REQUESTS.register();
}

/// A lane format the chunk driver batches. The staged kernels evaluate
/// in f64 whatever the format, so a format only supplies its exact
/// widening and its correctly rounding narrowing ([`Representation`]),
/// the round-safety test that certifies a staged double, and the
/// counters its chunks land in.
trait Lane: Representation {
    /// True when narrowing `y` is the correct rounding of every value
    /// within `band · 2^-53` relative of it (see [`crate::round`]).
    fn round_safe(y: f64, band: u64) -> bool;
    /// This format's `(chunks, rescalar lanes)` counters.
    fn counters() -> (&'static Counter, &'static Counter);
}

impl Lane for f32 {
    #[inline(always)]
    fn round_safe(y: f64, band: u64) -> bool {
        crate::round::f32_round_safe(y, band)
    }

    fn counters() -> (&'static Counter, &'static Counter) {
        (&SLICE_CHUNKS, &SLICE_RESCALAR)
    }
}

impl Lane for Posit32 {
    #[inline(always)]
    fn round_safe(y: f64, band: u64) -> bool {
        crate::round::posit32_round_safe(y, band)
    }

    fn counters() -> (&'static Counter, &'static Counter) {
        (&SLICE_POSIT_CHUNKS, &SLICE_POSIT_RESCALAR)
    }
}

/// Resolves one rescalar lane through the scalar two-tier entry. With
/// the `telemetry` feature the lane is also timed and reported to the
/// flight recorder as an exemplar (`rescalar` event carrying the input
/// bits, attributed via the thread's trace context), and the scalar-path
/// nanoseconds accrue into the per-thread fallback accumulator the
/// serving layer drains per batch. The scalar value is computed
/// identically in both configs — tracing observes, never alters.
#[cfg(feature = "telemetry")]
#[inline]
fn rescalar_resolve<L: Lane>(scalar: fn(L) -> L, x: L) -> L {
    let t0 = std::time::Instant::now();
    let v = scalar(x);
    let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    rlibm_obs::trace::rescalar_exemplar(x.to_bits_u32(), ns);
    v
}

#[cfg(not(feature = "telemetry"))]
#[inline(always)]
fn rescalar_resolve<L: Lane>(scalar: fn(L) -> L, x: L) -> L {
    scalar(x)
}

/// Shared chunk driver, generic over the lane format: widen every lane
/// and classify it against the function's fast-path domain `dom` (tested
/// on the widened value), run the staged prefix-tier evaluation, then
/// resolve every lane through the prefix round-safety band. Chunks with
/// prefix-rejected in-domain lanes escalate those lanes through the
/// full-degree staged kernel; lanes the full band rejects too (and
/// special lanes) re-enter the scalar progressive front end.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // tier plumbing: two staged kernels + their bands
fn drive<L: Lane>(
    xs: &[L],
    out: &mut [L],
    dom: impl Fn(f64) -> bool,
    prefix_chunk: impl Fn(&[f64], &mut [f64]),
    prefix_band: u64,
    fast_chunk: impl Fn(&[f64], &mut [f64]),
    band: u64,
    slot: usize,
    scalar: fn(L) -> L,
) {
    assert_eq!(xs.len(), out.len(), "eval_slice: input/output length mismatch");
    let mut xd = [0.0f64; LANES];
    let mut y = [0.0f64; LANES];
    let mut chunks = 0u64;
    let mut rescalar = 0u64;
    let mut prefix_hits = 0u64;
    let mut full_hits = 0u64;
    for (xc, oc) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
        chunks += 1;
        let n = xc.len();
        // Lane bitmask of special (out-of-domain) lanes; LANES = 64 keeps
        // this and `pending` below single words. Placeholder 1.0 keeps
        // every stage total for special lanes; their staged result is
        // discarded in the resolve stage.
        let mut special = 0u64;
        for i in 0..n {
            let x = xc[i].to_f64();
            if dom(x) {
                xd[i] = x;
            } else {
                xd[i] = 1.0;
                special |= 1 << i;
            }
        }
        prefix_chunk(&xd[..n], &mut y[..n]);
        // Lane bitmask of in-domain lanes the prefix band rejected.
        let mut pending = 0u64;
        for i in 0..n {
            if (special >> i) & 1 == 1 {
                rescalar += 1;
                oc[i] = rescalar_resolve(scalar, xc[i]);
            } else if L::round_safe(y[i], prefix_band) {
                prefix_hits += 1;
                oc[i] = L::round_from_f64(y[i]);
            } else {
                pending |= 1 << i;
            }
        }
        if pending != 0 {
            // Compact the rejected lanes and escalate only those: every
            // chunk kernel is lane-independent, so running the full tier
            // on a dense sub-chunk produces the same bits as re-running
            // the whole chunk, without paying for the (typically 63)
            // lanes the prefix tier already shipped.
            let mut xp = [0.0f64; LANES];
            let mut lanes = [0usize; LANES];
            let mut np = 0;
            for (i, &x) in xd.iter().enumerate().take(n) {
                if (pending >> i) & 1 == 1 {
                    xp[np] = x;
                    lanes[np] = i;
                    np += 1;
                }
            }
            fast_chunk(&xp[..np], &mut y[..np]);
            for (j, &i) in lanes[..np].iter().enumerate() {
                if L::round_safe(y[j], band) {
                    full_hits += 1;
                    oc[i] = L::round_from_f64(y[j]);
                } else {
                    rescalar += 1;
                    oc[i] = rescalar_resolve(scalar, xc[i]);
                }
            }
        }
    }
    let (chunk_counter, rescalar_counter) = L::counters();
    chunk_counter.add(chunks);
    rescalar_counter.add(rescalar);
    crate::stats::record_tier_prefix_n(slot, prefix_hits);
    crate::stats::record_tier_full_n(slot, full_hits);
}

// ---------------------------------------------------------------------
// exp family chunks
// ---------------------------------------------------------------------

/// Staged `e^x` over a chunk: reduction array pass, then lookup+Horner.
/// `combined` selects the polynomial tier (prefix or full degree) — the
/// reduction stages are tier-invariant.
#[inline(always)]
fn exp_chunk_with(xd: &[f64], y: &mut [f64], combined: impl Fn(i64, f64) -> f64) {
    let mut k = [0i64; LANES];
    let mut r = [0.0f64; LANES];
    for i in 0..xd.len() {
        let kk = fast::round_even_i64(xd[i] * (64.0 * t::LOG2_E));
        let kf = kk as f64;
        k[i] = kk;
        r[i] = (xd[i] - kf * t::LN2_64_HI) - kf * t::LN2_64_MID;
    }
    for i in 0..xd.len() {
        y[i] = combined(k[i], r[i]);
    }
}

fn exp_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    exp_chunk_with(xd, y, fast::exp_combined_prefix)
}

fn exp_chunk(xd: &[f64], y: &mut [f64]) {
    exp_chunk_with(xd, y, fast::exp_combined_fast)
}

#[inline(always)]
fn exp2_chunk_with(xd: &[f64], y: &mut [f64], combined: impl Fn(i64, f64) -> f64) {
    let mut k = [0i64; LANES];
    let mut r = [0.0f64; LANES];
    for i in 0..xd.len() {
        let kk = fast::round_even_i64(xd[i] * 64.0);
        let tt = xd[i] - (kk as f64) / 64.0;
        k[i] = kk;
        r[i] = tt * t::LN2_HI + tt * t::LN2_LO;
    }
    for i in 0..xd.len() {
        y[i] = combined(k[i], r[i]);
    }
}

fn exp2_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    exp2_chunk_with(xd, y, fast::exp_combined_prefix)
}

fn exp2_chunk(xd: &[f64], y: &mut [f64]) {
    exp2_chunk_with(xd, y, fast::exp_combined_fast)
}

#[inline(always)]
fn exp10_chunk_with(xd: &[f64], y: &mut [f64], combined: impl Fn(i64, f64) -> f64) {
    let mut k = [0i64; LANES];
    let mut r = [0.0f64; LANES];
    for i in 0..xd.len() {
        let kk = fast::round_even_i64(xd[i] * (64.0 * t::LOG2_10));
        let kf = kk as f64;
        let b = kf * t::LN2_64_HI;
        k[i] = kk;
        r[i] = (xd[i] * t::LN10_HI - b) + (xd[i] * t::LN10_LO - kf * t::LN2_64_MID);
    }
    for i in 0..xd.len() {
        y[i] = combined(k[i], r[i]);
    }
}

fn exp10_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    exp10_chunk_with(xd, y, fast::exp_combined_prefix)
}

fn exp10_chunk(xd: &[f64], y: &mut [f64]) {
    exp10_chunk_with(xd, y, fast::exp_combined_fast)
}

// ---------------------------------------------------------------------
// log family chunks
// ---------------------------------------------------------------------

/// Staged log reduction shared by the three logs: `(e, j, u)` arrays,
/// then the `log1p` Horner pass at the tier's degree (`poly` is
/// [`fast::log1p_poly_prefix`] or [`fast::log1p_poly_fast`]).
#[inline(always)]
fn log_stages(
    xd: &[f64],
    e: &mut [i64],
    j: &mut [usize],
    p: &mut [f64],
    poly: impl Fn(f64) -> f64,
) {
    let mut u = [0.0f64; LANES];
    for i in 0..xd.len() {
        let (ei, ji, ui) = fast::reduce_fast(xd[i]);
        e[i] = ei;
        j[i] = ji;
        u[i] = ui;
    }
    for i in 0..xd.len() {
        p[i] = poly(u[i]);
    }
}

#[inline(always)]
fn ln_chunk_with(xd: &[f64], y: &mut [f64], poly: impl Fn(f64) -> f64) {
    let mut e = [0i64; LANES];
    let mut j = [0usize; LANES];
    let mut p = [0.0f64; LANES];
    log_stages(xd, &mut e, &mut j, &mut p, poly);
    for i in 0..xd.len() {
        let ef = e[i] as f64;
        let (fh, fl) = t::ln_f(j[i]);
        let c = ef * t::LN2_HI42 + fh;
        let lo = fl + ef * t::LN2_MID;
        y[i] = c + (p[i] + lo);
    }
}

fn ln_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    ln_chunk_with(xd, y, fast::log1p_poly_prefix)
}

fn ln_chunk(xd: &[f64], y: &mut [f64]) {
    ln_chunk_with(xd, y, fast::log1p_poly_fast)
}

#[inline(always)]
fn log2_chunk_with(xd: &[f64], y: &mut [f64], poly: impl Fn(f64) -> f64) {
    let mut e = [0i64; LANES];
    let mut j = [0usize; LANES];
    let mut p = [0.0f64; LANES];
    log_stages(xd, &mut e, &mut j, &mut p, poly);
    for i in 0..xd.len() {
        let (fh, fl) = t::log2_f(j[i]);
        let c = e[i] as f64 + fh;
        y[i] = c + (p[i] * t::INV_LN2_HI + (fl + p[i] * t::INV_LN2_LO));
    }
}

fn log2_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    log2_chunk_with(xd, y, fast::log1p_poly_prefix)
}

fn log2_chunk(xd: &[f64], y: &mut [f64]) {
    log2_chunk_with(xd, y, fast::log1p_poly_fast)
}

#[inline(always)]
fn log10_chunk_with(xd: &[f64], y: &mut [f64], poly: impl Fn(f64) -> f64) {
    let mut e = [0i64; LANES];
    let mut j = [0usize; LANES];
    let mut p = [0.0f64; LANES];
    log_stages(xd, &mut e, &mut j, &mut p, poly);
    for i in 0..xd.len() {
        let ef = e[i] as f64;
        let (fh, fl) = t::log10_f(j[i]);
        let c = ef * t::LOG10_2_HI + fh;
        y[i] = c
            + (p[i] * t::INV_LN10_HI
                + (fl + ef * t::LOG10_2_LO + p[i] * t::INV_LN10_LO));
    }
}

fn log10_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    log10_chunk_with(xd, y, fast::log1p_poly_prefix)
}

fn log10_chunk(xd: &[f64], y: &mut [f64]) {
    log10_chunk_with(xd, y, fast::log1p_poly_fast)
}

// ---------------------------------------------------------------------
// hyperbolic chunks (big factor through the staged exp pipeline)
// ---------------------------------------------------------------------

#[inline(always)]
fn sinh_chunk_with(xd: &[f64], y: &mut [f64], exp_tier: impl Fn(&[f64], &mut [f64])) {
    let mut a = [0.0f64; LANES];
    for i in 0..xd.len() {
        a[i] = xd[i].abs();
    }
    let mut big = [0.0f64; LANES];
    exp_tier(&a[..xd.len()], &mut big[..xd.len()]);
    for i in 0..xd.len() {
        let v = if a[i] < 0.0625 {
            let x2 = a[i] * a[i];
            a[i] + a[i]
                * x2
                * (1.0 / 6.0
                    + x2 * (1.0 / 120.0 + x2 * (1.0 / 5040.0 + x2 * (1.0 / 362_880.0))))
        } else {
            0.5 * (big[i] - 1.0 / big[i])
        };
        y[i] = if xd[i] < 0.0 { -v } else { v };
    }
}

fn sinh_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    sinh_chunk_with(xd, y, exp_prefix_chunk)
}

fn sinh_chunk(xd: &[f64], y: &mut [f64]) {
    sinh_chunk_with(xd, y, exp_chunk)
}

#[inline(always)]
fn cosh_chunk_with(xd: &[f64], y: &mut [f64], exp_tier: impl Fn(&[f64], &mut [f64])) {
    let mut a = [0.0f64; LANES];
    for i in 0..xd.len() {
        a[i] = xd[i].abs();
    }
    let mut big = [0.0f64; LANES];
    exp_tier(&a[..xd.len()], &mut big[..xd.len()]);
    for i in 0..xd.len() {
        y[i] = if a[i] < 0.0625 {
            let x2 = a[i] * a[i];
            1.0 + x2 * (0.5 + x2 * (1.0 / 24.0 + x2 * (1.0 / 720.0 + x2 * (1.0 / 40_320.0))))
        } else {
            0.5 * (big[i] + 1.0 / big[i])
        };
    }
}

fn cosh_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    cosh_chunk_with(xd, y, exp_prefix_chunk)
}

fn cosh_chunk(xd: &[f64], y: &mut [f64]) {
    cosh_chunk_with(xd, y, exp_chunk)
}

// ---------------------------------------------------------------------
// sinpi / cospi chunks (per-lane: reduction is branch-heavy)
// ---------------------------------------------------------------------

#[inline(always)]
fn sinpi_chunk_with(xd: &[f64], y: &mut [f64], reduced: impl Fn(f64) -> (bool, f64)) {
    for i in 0..xd.len() {
        let a = xd[i].abs();
        let (k, v) = reduced(a);
        let neg = (xd[i] < 0.0) ^ k;
        y[i] = if neg { -v } else { v };
    }
}

fn sinpi_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    sinpi_chunk_with(xd, y, fast::sinpi_prefix_reduced)
}

fn sinpi_chunk(xd: &[f64], y: &mut [f64]) {
    sinpi_chunk_with(xd, y, fast::sinpi_fast_reduced)
}

#[inline(always)]
fn cospi_chunk_with(xd: &[f64], y: &mut [f64], reduced: impl Fn(f64) -> (bool, f64)) {
    for i in 0..xd.len() {
        let (neg, v) = reduced(xd[i].abs());
        y[i] = if neg { -v } else { v };
    }
}

fn cospi_prefix_chunk(xd: &[f64], y: &mut [f64]) {
    cospi_chunk_with(xd, y, fast::cospi_prefix_reduced)
}

fn cospi_chunk(xd: &[f64], y: &mut [f64]) {
    cospi_chunk_with(xd, y, fast::cospi_fast_reduced)
}

// ---------------------------------------------------------------------
// public entry points
// ---------------------------------------------------------------------

/// Routes an entry point through the AVX2 staged pipeline when the
/// `simd` feature is on and the CPU has AVX2; otherwise falls through to
/// the scalar chunk driver below. Expands to nothing without the feature.
macro_rules! simd_dispatch {
    ($fn_name:ident, $xs:expr, $out:expr) => {
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if simd::avx2_available() {
            return simd::$fn_name($xs, $out);
        }
    };
}

/// Batched [`crate::exp`]: bit-identical to the scalar map.
pub fn exp_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(exp_slice, xs, out);
    drive(
        xs,
        out,
        |x| (-106.0..=89.0).contains(&x),
        exp_prefix_chunk,
        fast::EXP_PREFIX_BAND,
        exp_chunk,
        fast::EXP_BAND,
        crate::stats::slot::EXP,
        crate::exp,
    )
}

/// Batched [`crate::exp2`].
pub fn exp2_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(exp2_slice, xs, out);
    drive(
        xs,
        out,
        |x| (-151.0..128.0).contains(&x),
        exp2_prefix_chunk,
        fast::EXP2_PREFIX_BAND,
        exp2_chunk,
        fast::EXP2_BAND,
        crate::stats::slot::EXP2,
        crate::exp2,
    )
}

/// Batched [`crate::exp10`].
pub fn exp10_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(exp10_slice, xs, out);
    drive(
        xs,
        out,
        |x| (-45.5..=f64::from(38.6f32)).contains(&x),
        exp10_prefix_chunk,
        fast::EXP10_PREFIX_BAND,
        exp10_chunk,
        fast::EXP10_BAND,
        crate::stats::slot::EXP10,
        crate::exp10,
    )
}

/// Batched [`crate::ln`].
pub fn ln_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(ln_slice, xs, out);
    drive(
        xs,
        out,
        |x| x > 0.0 && x < f64::INFINITY,
        ln_prefix_chunk,
        fast::LN_PREFIX_BAND,
        ln_chunk,
        fast::LN_BAND,
        crate::stats::slot::LN,
        crate::ln,
    )
}

/// Batched [`crate::log2`].
pub fn log2_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(log2_slice, xs, out);
    drive(
        xs,
        out,
        |x| x > 0.0 && x < f64::INFINITY,
        log2_prefix_chunk,
        fast::LOG2_PREFIX_BAND,
        log2_chunk,
        fast::LOG2_BAND,
        crate::stats::slot::LOG2,
        crate::log2,
    )
}

/// Batched [`crate::log10`].
pub fn log10_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(log10_slice, xs, out);
    drive(
        xs,
        out,
        |x| x > 0.0 && x < f64::INFINITY,
        log10_prefix_chunk,
        fast::LOG10_PREFIX_BAND,
        log10_chunk,
        fast::LOG10_BAND,
        crate::stats::slot::LOG10,
        crate::log10,
    )
}

/// Batched [`crate::sinh`].
pub fn sinh_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(sinh_slice, xs, out);
    let tiny = 2f64.powi(-12);
    drive(
        xs,
        out,
        move |x| x.abs() <= 90.0 && x.abs() >= tiny,
        sinh_prefix_chunk,
        fast::SINH_PREFIX_BAND,
        sinh_chunk,
        fast::SINH_BAND,
        crate::stats::slot::SINH,
        crate::sinh,
    )
}

/// Batched [`crate::cosh`].
pub fn cosh_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(cosh_slice, xs, out);
    let tiny = 2f64.powi(-13);
    drive(
        xs,
        out,
        move |x| x.abs() <= 90.0 && x.abs() >= tiny,
        cosh_prefix_chunk,
        fast::COSH_PREFIX_BAND,
        cosh_chunk,
        fast::COSH_BAND,
        crate::stats::slot::COSH,
        crate::cosh,
    )
}

/// Batched [`crate::sinpi`].
pub fn sinpi_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(sinpi_slice, xs, out);
    drive(
        xs,
        out,
        |x| {
            let a = x.abs();
            x.is_finite() && a < 8_388_608.0 && a >= 2f64.powi(-36) && !is_int_pos(a)
        },
        sinpi_prefix_chunk,
        fast::SINPI_PREFIX_BAND,
        sinpi_chunk,
        fast::SINPI_BAND,
        crate::stats::slot::SINPI,
        crate::sinpi,
    )
}

/// Batched [`crate::cospi`].
pub fn cospi_slice(xs: &[f32], out: &mut [f32]) {
    simd_dispatch!(cospi_slice, xs, out);
    drive(
        xs,
        out,
        |x| {
            let a = x.abs();
            // An integral 2a catches integers AND half-integers (both
            // handled by the scalar front's exact special cases).
            x.is_finite() && (7.77e-5..16_777_216.0).contains(&a) && !is_int_pos(2.0 * a)
        },
        cospi_prefix_chunk,
        fast::COSPI_PREFIX_BAND,
        cospi_chunk,
        fast::COSPI_BAND,
        crate::stats::slot::COSPI,
        crate::cospi,
    )
}

/// Error returned by the by-name slice entry points when the name is not
/// in the paper's function tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFunction(pub String);

impl core::fmt::Display for UnknownFunction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown function {:?}", self.0)
    }
}

impl std::error::Error for UnknownFunction {}

/// Batched evaluation of an f32 function by its paper-table name:
/// `out[i] = f(xs[i])`, bit-identical to the scalar function (special
/// lanes — NaN, ±0, ±inf, out-of-domain — resolve per lane through the
/// scalar entry). Unknown names are a typed error, not a panic.
pub fn eval_slice_f32(name: &str, xs: &[f32], out: &mut [f32]) -> Result<(), UnknownFunction> {
    match name {
        "ln" => ln_slice(xs, out),
        "log2" => log2_slice(xs, out),
        "log10" => log10_slice(xs, out),
        "exp" => exp_slice(xs, out),
        "exp2" => exp2_slice(xs, out),
        "exp10" => exp10_slice(xs, out),
        "sinh" => sinh_slice(xs, out),
        "cosh" => cosh_slice(xs, out),
        "sinpi" => sinpi_slice(xs, out),
        "cospi" => cospi_slice(xs, out),
        _ => return Err(UnknownFunction(name.to_owned())),
    }
    Ok(())
}

/// Batched evaluation of a posit32 function by name: `out[i] = f(xs[i])`,
/// bit-identical to the scalar function. Lanes run the same staged f64
/// chunk kernels as [`eval_slice_f32`], behind the posit decode and
/// encode; each function's domain filter is exactly its scalar entry's
/// filter in [`crate::posit`], so NaR, zero and negative log inputs,
/// saturating exp/sinh/cosh inputs and sinh's `|x| < 2^-13` lanes
/// resolve per lane through that entry (NaR in, NaR out), as do the
/// in-domain lanes both bands reject. Unknown names are a typed error.
pub fn eval_slice_posit32(
    name: &str,
    xs: &[Posit32],
    out: &mut [Posit32],
) -> Result<(), UnknownFunction> {
    use crate::posit::{self as p, LN_MAXPOS, LOG10_MAXPOS};
    use crate::stats::slot;
    // NaR widens to NaN, which every filter below rejects.
    let log_dom = |x: f64| x > 0.0;
    let tiny = 2f64.powi(-13);
    let sinh_dom = move |x: f64| (tiny..=LN_MAXPOS + 1.5).contains(&x.abs());
    match name {
        "ln" => drive(
            xs,
            out,
            log_dom,
            ln_prefix_chunk,
            fast::LN_PREFIX_BAND,
            ln_chunk,
            fast::LN_BAND,
            slot::P32_LN,
            p::ln_p32,
        ),
        "log2" => drive(
            xs,
            out,
            log_dom,
            log2_prefix_chunk,
            fast::LOG2_PREFIX_BAND,
            log2_chunk,
            fast::LOG2_BAND,
            slot::P32_LOG2,
            p::log2_p32,
        ),
        "log10" => drive(
            xs,
            out,
            log_dom,
            log10_prefix_chunk,
            fast::LOG10_PREFIX_BAND,
            log10_chunk,
            fast::LOG10_BAND,
            slot::P32_LOG10,
            p::log10_p32,
        ),
        "exp" => drive(
            xs,
            out,
            |x| x.abs() <= LN_MAXPOS + 0.5,
            exp_prefix_chunk,
            fast::EXP_PREFIX_BAND,
            exp_chunk,
            fast::EXP_BAND,
            slot::P32_EXP,
            p::exp_p32,
        ),
        "exp2" => drive(
            xs,
            out,
            |x| x.abs() <= 120.5,
            exp2_prefix_chunk,
            fast::EXP2_PREFIX_BAND,
            exp2_chunk,
            fast::EXP2_BAND,
            slot::P32_EXP2,
            p::exp2_p32,
        ),
        "exp10" => drive(
            xs,
            out,
            |x| x.abs() <= LOG10_MAXPOS + 0.5,
            exp10_prefix_chunk,
            fast::EXP10_PREFIX_BAND,
            exp10_chunk,
            fast::EXP10_BAND,
            slot::P32_EXP10,
            p::exp10_p32,
        ),
        "sinh" => drive(
            xs,
            out,
            sinh_dom,
            sinh_prefix_chunk,
            fast::SINH_PREFIX_BAND,
            sinh_chunk,
            fast::SINH_BAND,
            slot::P32_SINH,
            p::sinh_p32,
        ),
        "cosh" => drive(
            xs,
            out,
            |x| x.abs() <= LN_MAXPOS + 1.5,
            cosh_prefix_chunk,
            fast::COSH_PREFIX_BAND,
            cosh_chunk,
            fast::COSH_BAND,
            slot::P32_COSH,
            p::cosh_p32,
        ),
        _ => return Err(UnknownFunction(name.to_owned())),
    }
    SLICE_POSIT_REQUESTS.add(xs.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_fp::rng::XorShift64;

    const NAMES: [&str; 10] = [
        "ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh", "sinpi", "cospi",
    ];

    fn adversarial_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            88.9,
            -106.5,
            128.5,
            -151.5,
            38.7,
            -45.7,
            90.5,
            -90.5,
            0.5,
            2.5,
            8_388_609.0,
            1e-8,
            2e-4,
        ];
        let mut rng = XorShift64::new(0x51CE);
        for _ in 0..5000 {
            xs.push(f32::from_bits(rng.next_u32()));
        }
        // Plus a dense in-domain band for each family.
        for i in 0..2000 {
            xs.push(-20.0 + i as f32 * 0.02); // exp/sinh/cosh/trig range
            xs.push(f32::from_bits(0x3F00_0000 + i * 37)); // near 1 for logs
        }
        xs
    }

    #[test]
    fn slices_are_bit_identical_to_scalar() {
        let xs = adversarial_inputs();
        let mut out = vec![0.0f32; xs.len()];
        for name in NAMES {
            eval_slice_f32(name, &xs, &mut out).expect("known name");
            for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name}[{i}]: x = {x:e} ({:#010x}): slice {got:e} vs scalar {want:e}",
                    x.to_bits()
                );
            }
        }
    }

    /// Posit lanes at every edge of the batched domain filters: NaR,
    /// zero, negatives (the logs' domain), ±minpos/±maxpos, and the
    /// patterns on and either side of each saturation threshold and of
    /// sinh's `|x| < 2^-13` cut, both signs.
    fn posit_edge_lanes() -> Vec<Posit32> {
        use crate::posit::{LN_MAXPOS, LOG10_MAXPOS};
        let mut lanes = vec![
            Posit32::NAR,
            Posit32::ZERO,
            Posit32::MINPOS,
            -Posit32::MINPOS,
            Posit32::MAXPOS,
            -Posit32::MAXPOS,
            Posit32::from_f64(-1.0),
            Posit32::from_f64(-0.37),
        ];
        for t in [LN_MAXPOS + 0.5, 120.5, LOG10_MAXPOS + 0.5, LN_MAXPOS + 1.5, 2f64.powi(-13)] {
            let p = Posit32::from_f64(t).to_bits();
            for q in [p - 1, p, p + 1] {
                lanes.push(Posit32::from_bits(q));
                lanes.push(-Posit32::from_bits(q));
            }
        }
        lanes
    }

    #[test]
    fn posit_slice_matches_scalar() {
        let mut rng = XorShift64::new(0x9051);
        let mut xs: Vec<Posit32> =
            (0..3000).map(|_| Posit32::from_bits(rng.next_u32())).collect();
        // Scatter the edge lanes through the 64-lane chunks, at a
        // different lane offset in each chunk.
        for (k, s) in posit_edge_lanes().into_iter().enumerate() {
            xs[(k * 67 + 11) % 3000] = s;
        }
        let mut out = vec![Posit32::ZERO; xs.len()];
        for name in ["ln", "exp", "sinh", "cosh", "log10", "exp2", "exp10", "log2"] {
            eval_slice_posit32(name, &xs, &mut out).expect("known name");
            for (&x, &got) in xs.iter().zip(out.iter()) {
                let want = crate::eval_posit32_by_name(name, x).expect("known name");
                assert_eq!(got, want, "{name}({:#010x})", x.to_bits());
            }
        }
    }

    /// Satellite regression: specials (NaN, ±0, ±inf, subnormals,
    /// saturating magnitudes) scattered *through* a single 64-lane chunk
    /// must resolve per lane exactly like the scalar API — the staged
    /// pipeline may not let a special lane contaminate its neighbours.
    #[test]
    fn specials_scattered_through_one_chunk_resolve_per_lane() {
        let specials = [
            f32::NAN,
            f32::from_bits(0x7FC0_1234), // NaN with a payload
            f32::from_bits(0xFFC0_0001), // negative NaN payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),          // smallest subnormal
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1e30,  // saturates exp-family
            -1e30, // underflows exp-family
        ];
        // Exactly one chunk: specials at scattered lanes, plain in-domain
        // values everywhere else.
        let mut xs = [0.0f32; 64];
        for (i, lane) in xs.iter_mut().enumerate() {
            *lane = 0.25 + i as f32 * 0.37;
        }
        for (k, &s) in specials.iter().enumerate() {
            xs[(k * 9 + 3) % 64] = s;
        }
        let mut out = [0.0f32; 64];
        for name in NAMES {
            eval_slice_f32(name, &xs, &mut out).expect("known name");
            for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name} lane {i}: x = {x:e}: slice {got:e} vs scalar {want:e}"
                );
            }
        }

        // Posit chunk with NaR / min / max scattered among ordinary values.
        let mut pxs = [Posit32::from_f64(1.5); 64];
        for (i, lane) in pxs.iter_mut().enumerate() {
            *lane = Posit32::from_f64(0.3 + i as f64 * 0.21);
        }
        for (k, s) in
            [Posit32::NAR, Posit32::ZERO, Posit32::MINPOS, Posit32::MAXPOS].into_iter().enumerate()
        {
            pxs[(k * 17 + 5) % 64] = s;
        }
        let mut pout = [Posit32::ZERO; 64];
        for name in ["ln", "exp", "sinh", "cosh", "log10", "exp2", "exp10", "log2"] {
            eval_slice_posit32(name, &pxs, &mut pout).expect("known name");
            for (i, (&x, &got)) in pxs.iter().zip(pout.iter()).enumerate() {
                let want = crate::eval_posit32_by_name(name, x).expect("known name");
                assert_eq!(got, want, "{name} lane {i}");
            }
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let mut out = [0.0f32; 1];
        let err = eval_slice_f32("tanh", &[1.0], &mut out).expect_err("unknown");
        assert_eq!(err, UnknownFunction("tanh".to_owned()));
        let mut pout = [Posit32::ZERO; 1];
        assert!(eval_slice_posit32("sinpi", &[Posit32::ZERO], &mut pout).is_err());
    }

    #[test]
    fn empty_and_partial_chunks() {
        let mut out = [];
        exp_slice(&[], &mut out);
        // A length that is not a multiple of the lane width.
        let xs: Vec<f32> = (0..97).map(|i| i as f32 * 0.11 - 5.0).collect();
        let mut out = vec![0.0f32; 97];
        ln_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(out.iter()) {
            let want = crate::ln(x);
            assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut out = vec![0.0f32; 3];
        exp_slice(&[1.0, 2.0], &mut out);
    }
}
