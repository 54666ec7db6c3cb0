//! Plain-double **fast-path kernels** — the paper's actual evaluation
//! regime (`H = double`), recovered.
//!
//! The dd kernels in [`crate::float`] carry double-double pairs through
//! every accuracy-critical step, which buys a ~2^-85 evaluation error at a
//! self-measured 2-3x instruction cost (each `two_prod` is an `fma`
//! libcall on the workspace's baseline x86-64 target). RLIBM-32 never pays
//! that tax: its generated polynomials evaluate in *plain double* and the
//! result is still correctly rounded because the double sits far enough
//! from every rounding boundary of the 32-bit target.
//!
//! This module reproduces that regime as a **certified two-tier design**:
//!
//! 1. every function gets a plain-double kernel (reduction, table lookup,
//!    Horner — no double-double, no `fma` libcalls) with a *statically
//!    derived* relative error bound `BAND · 2^-53`;
//! 2. the front end checks, with one bit-pattern test
//!    ([`crate::round::f32_round_safe`] / `posit32_round_safe`]), whether
//!    the double could lie within that bound of a rounding boundary of the
//!    target grid. If it cannot, rounding the double **is** the correct
//!    rounding and the fast result ships;
//! 3. otherwise (a few parts per million of inputs) the existing dd +
//!    round-to-odd kernel re-runs — Ziv's two-step strategy with a
//!    statically certified first step instead of a dynamically widened
//!    one.
//!
//! # Certification argument
//!
//! Each kernel's bound is derived below from the classical op-by-op model
//! (every +,-,*,/ rounds with relative error <= 2^-53; exact steps are
//! called out) and then padded by 4-7 bits of margin. The bounds are
//! additionally validated empirically: the workspace tests compare the
//! two-tier output **bit-for-bit** against the pure dd kernels over the
//! exhaustive bfloat16 domain and million-input stratified f32/posit32
//! sweeps, and the tier-1 oracle tests (multi-precision Ziv oracle) cover
//! the composed pipeline. A band violation would surface as a bit
//! difference in those sweeps.
//!
//! Per-kernel error derivations (all relative to the final result, in
//! units of 2^-53; `u` denotes one rounding):
//!
//! | kernel | dominant terms | bound | BAND |
//! |---|---|---|---|
//! | `exp`   | reduction exact + 1u, poly ~4u, table combine ~2u | ~8u | 256 |
//! | `exp2`  | `t = x - k/64` exact (Sterbenz), rest as `exp` | ~8u | 256 |
//! | `exp10` | `x·LN10_HI` rounds before a 2^7 cancellation: ~2^7 u | ~160u | 1024 |
//! | `ln`    | `e·LN2_HI42` exact; cancellation vs table is Sterbenz-exact; poly-vs-result amplification <= 2.7x | ~16u | 256 |
//! | `log2`  | `e + table.0` exact in the cancelling case (integer + [1/2,1)) | ~16u | 256 |
//! | `log10` | `e·LOG10_2_HI` exact for the only cancelling `e = -1` | ~24u | 384 |
//! | `sinh`  | `(A - 1/A)` cancels <= coth(1/16) ~ 16x of ~4u | ~70u | 2048 |
//! | `cosh`  | `(A + 1/A)` never cancels | ~8u | 512 |
//! | `sinpi` | recombination terms share a sign; min result 0.0061 amplifies ~3u absolute | ~500u worst, pure-poly ~4u when `N = 0` | 2048 |
//! | `cospi` | Section 5 monotonic recombination, same shape as `sinpi` | ~500u | 2048 |
//!
//! The `sinpi`/`cospi` "amplification" rows deserve a note: for table
//! index `N = 0` (resp. `N' = 256`) the result *is* the polynomial value
//! and stays relatively accurate all the way to the smallest outputs; for
//! `N >= 1` the result is bounded below by `sin(pi/512) ~ 0.0061`, so a
//! ~3·2^-53 absolute error is at most ~500·2^-53 relative. The same
//! argument bounds `ln`/`log2`/`log10` away from their `x -> 1`
//! cancellation: the folded reduction (table index 128 -> exponent+1)
//! routes every input with `|log(x)| < ~0.0015` through the pure-poly
//! branch.
//!
//! All kernels require a **finite, in-domain** input (the front ends
//! filter specials first) and produce a finite double; out-of-range
//! results (f32-subnormal, posit regime > 24) are rejected by the safety
//! test itself, so the kernels never need to reason about them.

use crate::float::exp::pow2i;
use crate::tables as t;

// The certified bands and derived bounds are the numbers in the registry
// rows (`crate::registry`), in the same 2^-53 units: `BAND` is the full
// tier's round-safety band (the table's last column) and `DERIVED` the
// table's worst-case kernel error rounded *up* to a power of two. The
// difference `BAND - DERIVED` is the certification **slack**: a
// perturbation that moves a kernel result by at most that many f64 ulps
// keeps the total error within BAND, so an accepted round-safe test still
// implies a correct cast. The `fault` feature's in-band nudges are sized
// by it (see `crate::fault`).

// ---------------------------------------------------------------------
// Progressive prefix tier (tier 0)
// ---------------------------------------------------------------------
//
// Each function also gets a **prefix kernel**: the same reduction and
// table combine, but evaluating only a low-degree prefix of the
// polynomial (the progressive sets `rlibm_core::polygen::gen_progressive`
// emits). The truncation error is larger, so the prefix result is tested
// against a wider prefix band; the rare escalations (the band is
// still a tiny fraction of the 2^28-scale rounding boundary, so well
// under 1% of inputs) re-run the full-degree kernel, and only *its*
// rejects reach dd. Output bits are unchanged at every tier: both safety
// tests are sound for any in-band error, so whichever tier ships, the
// cast is the correct rounding.
//
// Prefix bands, same 2^-53 relative units. Derivations mirror the full
// table above with the truncated tail added. The prefix kernels also
// read only the **hi words** of the packed tables (half the bytes, one
// u64 decode per entry): the dropped lo word is < 2^-54 of its hi word,
// which is under 1u for the exp family and at most a few hundred u for
// the log family at the fold's ~0.0027 cancellation floor — noise
// against every band below, and any excursion simply escalates a tier.
//
// | prefix kernel | dropped terms | added trunc error | PREFIX_BAND |
// |---|---|---|---|
// | `exp`/`exp2` | r^5/120.. | r^5/120 <= ~351u at |r| <= ln2/128 | 2048 |
// | `exp10` | r^5/120.. | ~351u on top of the ~160u reduction | 4096 |
// | logs | u^4 term of q on | u^6/6 abs; <= ~2300u rel after the fold's 0.0027 floor (x1.44 for log2) | 16384 |
// | `sinh` | via prefix exp | ~351u x coth(1/16) ~ 16 | 16384 |
// | `cosh` | via prefix exp | ~351u, no cancellation | 2048 |
// | `sinpi`/`cospi` | C5, C7 of sp; C6 of cp | C5·r^5 ~ 7.3e-14 abs vs the 0.0061 result floor: ~110000u | 1 << 19 |
//
// The registry rows also carry the derived worst-case prefix errors,
// rounded up to a power of two. The `fault` hook nudges by the
// *full-band* slack (`BAND - DERIVED`) but at the prefix site, so
// soundness needs `PREFIX_DERIVED + (BAND - DERIVED) <= PREFIX_BAND` —
// asserted for every row by the registry tests.

// ---------------------------------------------------------------------
// exp family
// ---------------------------------------------------------------------

/// Degree-7 Taylor for `e^r`, `|r| <= ln2/128`, plain Horner.
///
/// Structured as `1 + r·(1 + r·q(r))` so the relative error stays a few
/// ulps even as `r -> 0`. Truncation `r^8/8! < 2^-75`.
#[inline(always)]
pub(crate) fn exp_poly_fast(r: f64) -> f64 {
    let q = 0.5
        + r * (1.0 / 6.0
            + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r * (1.0 / 5040.0)))));
    1.0 + r * (1.0 + r * q)
}

/// `2^(k/64) · e^r` in plain double. The table's `lo` word is folded in
/// with one add (`p ~ 1`, so `tl·p ~ tl`), recovering ~half a bit.
#[inline(always)]
pub(crate) fn exp_combined_fast(k64: i64, r: f64) -> f64 {
    let i = k64.div_euclid(64);
    let j = k64.rem_euclid(64) as usize;
    let (th, tl) = t::exp2_64(j);
    (th * exp_poly_fast(r) + tl) * pow2i(i)
}

/// Fast `e^x`. Requires finite `|x| <= 91` (so `|k| < 2^14` keeps
/// `k·LN2_64_HI` exact: 39-bit constant x 14-bit integer).
#[inline(always)]
pub(crate) fn exp_fast(x: f64) -> f64 {
    let k = round_even_i64(x * (64.0 * t::LOG2_E));
    let kf = k as f64;
    // x - k·LN2_64_HI is exact (cancellation => Sterbenz); the MID word is
    // a power of two, so its product is exact and the subtraction rounds
    // once: |delta r| <= ulp(ln2/128) ~ 2^-60.
    let r = (x - kf * t::LN2_64_HI) - kf * t::LN2_64_MID;
    exp_combined_fast(k, r)
}

/// Fast `2^x`. Requires finite `|x| <= 155`.
#[inline(always)]
pub(crate) fn exp2_fast(x: f64) -> f64 {
    let k = round_even_i64(x * 64.0);
    let tt = x - (k as f64) / 64.0; // exact: shared grid, Sterbenz
    let r = tt * t::LN2_HI + tt * t::LN2_LO;
    exp_combined_fast(k, r)
}

/// Fast `10^x`. Requires finite `|x| <= 40`.
///
/// The reduced argument cancels ~7 bits of `x·ln10`, and `x·LN10_HI`
/// rounds *before* the cancellation — the dominant ~2^-46 relative error
/// in the table above, absorbed by the exp10 band.
#[inline(always)]
pub(crate) fn exp10_fast(x: f64) -> f64 {
    let k = round_even_i64(x * (64.0 * t::LOG2_10));
    let kf = k as f64;
    let b = kf * t::LN2_64_HI; // exact (|k| < 2^14)
    let r = (x * t::LN10_HI - b) + (x * t::LN10_LO - kf * t::LN2_64_MID);
    exp_combined_fast(k, r)
}

/// Degree-4 prefix of [`exp_poly_fast`] (progressive tier 0): drops the
/// `1/120..1/5040` tail, truncation `r^5/120 <= ~351·2^-53` relative at
/// `|r| <= ln2/128`.
#[inline(always)]
pub(crate) fn exp_poly_prefix(r: f64) -> f64 {
    1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0))))
}

/// [`exp_combined_fast`] with the prefix polynomial.
#[inline(always)]
pub(crate) fn exp_combined_prefix(k64: i64, r: f64) -> f64 {
    let i = k64.div_euclid(64);
    let j = k64.rem_euclid(64) as usize;
    // Hi-only table read: the dropped lo word is < 2^-54·th, under 1u
    // against the 2048u prefix band (see the tier-0 notes above).
    t::exp2_64_hi(j) * exp_poly_prefix(r) * pow2i(i)
}

/// Prefix-tier `e^x` (same reduction as [`exp_fast`]).
#[inline(always)]
pub(crate) fn exp_prefix(x: f64) -> f64 {
    let k = round_even_i64(x * (64.0 * t::LOG2_E));
    let kf = k as f64;
    let r = (x - kf * t::LN2_64_HI) - kf * t::LN2_64_MID;
    exp_combined_prefix(k, r)
}

/// Prefix-tier `2^x`.
#[inline(always)]
pub(crate) fn exp2_prefix(x: f64) -> f64 {
    let k = round_even_i64(x * 64.0);
    let tt = x - (k as f64) / 64.0;
    let r = tt * t::LN2_HI + tt * t::LN2_LO;
    exp_combined_prefix(k, r)
}

/// Prefix-tier `10^x`.
#[inline(always)]
pub(crate) fn exp10_prefix(x: f64) -> f64 {
    let k = round_even_i64(x * (64.0 * t::LOG2_10));
    let kf = k as f64;
    let b = kf * t::LN2_64_HI;
    let r = (x * t::LN10_HI - b) + (x * t::LN10_LO - kf * t::LN2_64_MID);
    exp_combined_prefix(k, r)
}

// ---------------------------------------------------------------------
// log family
// ---------------------------------------------------------------------

/// Plain-double Tang reduction with the **index-128 fold**: `j = 128` is
/// remapped to `(e + 1, j = 0)`, so every input with `|log x| < ~0.0039`
/// lands in the pure-polynomial branch (`e = 0, j = 0`) where the result
/// keeps *relative* accuracy. Returns `(e, j, u)` with `u = (z - F)/F`.
#[inline(always)]
pub(crate) fn reduce_fast(x: f64) -> (i64, usize, f64) {
    debug_assert!(x >= f64::MIN_POSITIVE && x.is_finite());
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut z = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    let mut j = round_even_i64((z - 1.0) * 128.0) as usize; // 0..=128
    if j == 128 {
        e += 1;
        z *= 0.5; // exact
        j = 0;
    }
    let f = 1.0 + j as f64 / 128.0;
    let num = z - f; // exact: same binade, shared grid (Sterbenz at j = 0)
    (e, j, num / f)
}

/// `log1p(u)` for `|u| <= 1/256 + slack`, plain Horner, structured as
/// `u + u^2·q(u)` for small-`u` relative accuracy. Truncation `u^9/9`.
#[inline(always)]
pub(crate) fn log1p_poly_fast(u: f64) -> f64 {
    let q = -0.5
        + u * (1.0 / 3.0
            + u * (-0.25 + u * (0.2 + u * (-1.0 / 6.0 + u * (1.0 / 7.0 - u * 0.125)))));
    u + (u * u) * q
}

/// Fast `ln(x)` for finite positive normal-f64 `x`.
#[inline(always)]
pub(crate) fn ln_fast(x: f64) -> f64 {
    let (e, j, u) = reduce_fast(x);
    let ef = e as f64;
    // ef·LN2_HI42 is exact (42-bit constant x |e| <= 2^11); when it
    // cancels against the table value the sum is Sterbenz-exact.
    let (fh, fl) = t::ln_f(j);
    let c = ef * t::LN2_HI42 + fh;
    let lo = fl + ef * t::LN2_MID;
    c + (log1p_poly_fast(u) + lo)
}

/// Fast `log2(x)`.
#[inline(always)]
pub(crate) fn log2_fast(x: f64) -> f64 {
    let (e, j, u) = reduce_fast(x);
    // Integer + [0, 1): exact whenever it cancels (e = -1, j near 128).
    let (fh, fl) = t::log2_f(j);
    let c = e as f64 + fh;
    let p = log1p_poly_fast(u);
    c + (p * t::INV_LN2_HI + (fl + p * t::INV_LN2_LO))
}

/// Fast `log10(x)`.
#[inline(always)]
pub(crate) fn log10_fast(x: f64) -> f64 {
    let (e, j, u) = reduce_fast(x);
    let ef = e as f64;
    // The only cancelling exponent is e = -1, where the product is exact.
    let (fh, fl) = t::log10_f(j);
    let c = ef * t::LOG10_2_HI + fh;
    let p = log1p_poly_fast(u);
    c + (p * t::INV_LN10_HI + (fl + ef * t::LOG10_2_LO + p * t::INV_LN10_LO))
}

/// Degree-5 prefix of [`log1p_poly_fast`]: `q` keeps terms through
/// `u^3/5`, truncation `u^6/6` absolute.
#[inline(always)]
pub(crate) fn log1p_poly_prefix(u: f64) -> f64 {
    let q = -0.5 + u * (1.0 / 3.0 + u * (-0.25 + u * 0.2));
    u + (u * u) * q
}

/// Prefix-tier `ln(x)`.
#[inline(always)]
pub(crate) fn ln_prefix(x: f64) -> f64 {
    let (e, j, u) = reduce_fast(x);
    let ef = e as f64;
    // Hi-only table reads throughout the log-family prefix tier: the
    // dropped lo word is < 2^-54 absolute, ~200u relative at the fold's
    // cancellation floor — far inside the 16384u prefix band.
    let c = ef * t::LN2_HI42 + t::ln_f_hi(j);
    c + (log1p_poly_prefix(u) + ef * t::LN2_MID)
}

/// Prefix-tier `log2(x)`.
#[inline(always)]
pub(crate) fn log2_prefix(x: f64) -> f64 {
    let (e, j, u) = reduce_fast(x);
    let c = e as f64 + t::log2_f_hi(j);
    let p = log1p_poly_prefix(u);
    c + (p * t::INV_LN2_HI + p * t::INV_LN2_LO)
}

/// Prefix-tier `log10(x)`.
#[inline(always)]
pub(crate) fn log10_prefix(x: f64) -> f64 {
    let (e, j, u) = reduce_fast(x);
    let ef = e as f64;
    let c = ef * t::LOG10_2_HI + t::log10_f_hi(j);
    let p = log1p_poly_prefix(u);
    c + (p * t::INV_LN10_HI + (ef * t::LOG10_2_LO + p * t::INV_LN10_LO))
}

// ---------------------------------------------------------------------
// hyperbolic family
// ---------------------------------------------------------------------

/// Fast `sinh(x)` for finite `2^-11 <= |x| <= 91` (the front ends return
/// `x` itself below 2^-11, where `sinh(x)` rounds to `x` in every 32-bit
/// target). Below 2^-4 the odd Taylor series avoids the `A - 1/A`
/// cancellation entirely; above it the cancellation is bounded by
/// `coth(1/16) ~ 16`.
#[inline(always)]
pub(crate) fn sinh_fast(x: f64) -> f64 {
    let a = x.abs();
    let v = if a < 0.0625 {
        let x2 = a * a;
        a + a * x2
            * (1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (1.0 / 5040.0 + x2 * (1.0 / 362_880.0))))
    } else {
        let big = exp_fast(a);
        0.5 * (big - 1.0 / big)
    };
    if x < 0.0 {
        -v
    } else {
        v
    }
}

/// Fast `cosh(x)` for finite `|x| <= 91`. `A + 1/A` never cancels.
#[inline(always)]
pub(crate) fn cosh_fast(x: f64) -> f64 {
    let a = x.abs();
    if a < 0.0625 {
        let x2 = a * a;
        1.0 + x2 * (0.5 + x2 * (1.0 / 24.0 + x2 * (1.0 / 720.0 + x2 * (1.0 / 40_320.0))))
    } else {
        let big = exp_fast(a);
        0.5 * (big + 1.0 / big)
    }
}

/// Prefix-tier `sinh(x)`: the dominant branch runs [`exp_prefix`]; the
/// small-|x| Taylor branch is already cheap and stays at full degree, so
/// its error remains inside even the full band.
#[inline(always)]
pub(crate) fn sinh_prefix(x: f64) -> f64 {
    let a = x.abs();
    let v = if a < 0.0625 {
        let x2 = a * a;
        a + a * x2
            * (1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (1.0 / 5040.0 + x2 * (1.0 / 362_880.0))))
    } else {
        let big = exp_prefix(a);
        0.5 * (big - 1.0 / big)
    };
    if x < 0.0 {
        -v
    } else {
        v
    }
}

/// Prefix-tier `cosh(x)` (see [`sinh_prefix`] for the branch policy).
#[inline(always)]
pub(crate) fn cosh_prefix(x: f64) -> f64 {
    let a = x.abs();
    if a < 0.0625 {
        let x2 = a * a;
        1.0 + x2 * (0.5 + x2 * (1.0 / 24.0 + x2 * (1.0 / 720.0 + x2 * (1.0 / 40_320.0))))
    } else {
        let big = exp_prefix(a);
        0.5 * (big + 1.0 / big)
    }
}

// ---------------------------------------------------------------------
// sinpi / cospi
// ---------------------------------------------------------------------

/// `sin(pi r)` for exact `r in [0, 1/512]`, plain double, relative
/// accurate as `r -> 0` (leading term rounds once).
#[inline(always)]
pub(crate) fn sinpi_poly_fast(r: f64) -> f64 {
    let r2 = r * r;
    r * t::PI_HI + (r * t::PI_LO + r * r2 * (t::SINPI_C3 + r2 * (t::SINPI_C5 + r2 * t::SINPI_C7)))
}

/// `cos(pi r)` for exact `r in [0, 1/512]`, plain double.
#[inline(always)]
pub(crate) fn cospi_poly_fast(r: f64) -> f64 {
    let r2 = r * r;
    1.0 + (r2 * t::COSPI_C2_HI + (r2 * t::COSPI_C2_LO + r2 * r2 * (t::COSPI_C4 + r2 * t::COSPI_C6)))
}

/// `v.round_ties_even() as i64` for `|v| <= 2^51`, without a libm call.
///
/// `f64::round_ties_even` lowers to a call into the software `rint` on
/// the baseline x86-64 target (no SSE4.1 `roundsd`). Adding `1.5·2^52`
/// moves `v` into the binade `[2^52, 2^53]`, where one ulp is 1, so the
/// add itself rounds `v` to the nearest integer, ties to even (the
/// default rounding mode, which Rust never changes); inside that binade
/// the bit pattern is the value plus a fixed offset, so subtracting the
/// constant's bits leaves the integer. Every reduction in this crate
/// feeds it at most ~2^17 (`|k| <= 64645` in the dd `exp` kernel).
#[inline(always)]
pub(crate) fn round_even_i64(v: f64) -> i64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    (v + SHIFT).to_bits() as i64 - SHIFT.to_bits() as i64
}

/// `floor(x)` for non-negative `x < 2^53` via an exact integer-cast
/// round trip. `f64::floor` lowers to a dynamic libm call on the
/// baseline x86-64 target (no SSE4.1 `roundsd`), which costs more than
/// the whole surrounding reduction; two convert instructions don't.
#[inline(always)]
pub(crate) fn floor_pos(x: f64) -> f64 {
    (x as u64) as f64
}

/// Exact `a mod 2` split, shared with the dd kernel's structure.
#[inline(always)]
fn mod2_split_fast(a: f64) -> (bool, f64) {
    let j = a - 2.0 * floor_pos(a * 0.5);
    if j >= 1.0 {
        (true, j - 1.0)
    } else {
        (false, j)
    }
}

/// Fast `sinpi(|x|)` magnitude + half-period sign for non-integer
/// `2^-36 <= a < 2^23`. Mirrors `sinpi_kernel`: the table's `lo` words are
/// folded with two cheap products (`corr`), recovering the ~2^-54 they
/// carry.
#[inline(always)]
pub(crate) fn sinpi_fast_reduced(a: f64) -> (bool, f64) {
    let (k, l) = mod2_split_fast(a);
    let lp = if l > 0.5 { 1.0 - l } else { l };
    let n = (lp * 512.0) as usize; // as-cast truncation == floor (lp >= 0) // 0..=256
    let r = lp - n as f64 / 512.0; // exact
    let sp = sinpi_poly_fast(r);
    let cp = cospi_poly_fast(r);
    let (sh, sl) = t::sinpi_t(n);
    let (ch, cl) = t::cospi_t(n);
    // N = 0 has (sh, sl) = (0, 0) and (ch, cl) = (1, 0): v = sp exactly,
    // keeping relative accuracy for the smallest results.
    let corr = sl * cp + cl * sp;
    (k, sh * cp + (ch * sp + corr))
}

/// Fast `cospi` magnitude + sign for non-integer, non-half-integer
/// `7.77e-5 <= a < 2^24`. Section 5's monotonic recombination
/// (`L' = N'/512 - R`, both terms share a sign); `N' = 256` has table
/// value 0 and degenerates to the pure `sinpi` polynomial, keeping
/// relative accuracy near the zeros at half-integers.
#[inline(always)]
pub(crate) fn cospi_fast_reduced(a: f64) -> (bool, f64) {
    let (k, l) = mod2_split_fast(a);
    let (m, lp) = if l > 0.5 { (true, 1.0 - l) } else { (false, l) };
    let n = (lp * 512.0) as usize; // as-cast truncation == floor (lp >= 0) // 0..=255 (lp < 1/2 here)
    let v = if n == 0 {
        cospi_poly_fast(lp)
    } else {
        let np = n + 1;
        let r = np as f64 / 512.0 - lp; // exact
        let sp = sinpi_poly_fast(r);
        let cp = cospi_poly_fast(r);
        let (ch, cl) = t::cospi_t(np);
        let (sh, sl) = t::sinpi_t(np);
        let corr = cl * cp + sl * sp;
        ch * cp + (sh * sp + corr)
    };
    (k ^ m, v)
}

/// Degree-3 prefix of [`sinpi_poly_fast`] (drops `C5`, `C7`).
#[inline(always)]
pub(crate) fn sinpi_poly_prefix(r: f64) -> f64 {
    let r2 = r * r;
    r * t::PI_HI + (r * t::PI_LO + r * r2 * t::SINPI_C3)
}

/// Degree-4 prefix of [`cospi_poly_fast`] (drops `C6`).
#[inline(always)]
pub(crate) fn cospi_poly_prefix(r: f64) -> f64 {
    let r2 = r * r;
    1.0 + (r2 * t::COSPI_C2_HI + (r2 * t::COSPI_C2_LO + r2 * r2 * t::COSPI_C4))
}

/// Prefix-tier [`sinpi_fast_reduced`]. On top of the truncated
/// polynomials, the prefix tier drops the table `lo` words and the
/// `corr` fold entirely: the lo words carry ~2^-53 relative, invisible
/// against the certified sinpi prefix band of `2^19 * 2^-53 = 2^-34`,
/// and skipping them halves the tier's packed-table traffic (one u64
/// load + hi decode per entry).
#[inline(always)]
pub(crate) fn sinpi_prefix_reduced(a: f64) -> (bool, f64) {
    let (k, l) = mod2_split_fast(a);
    let lp = if l > 0.5 { 1.0 - l } else { l };
    let n = (lp * 512.0) as usize; // as-cast truncation == floor (lp >= 0)
    let r = lp - n as f64 / 512.0;
    let sp = sinpi_poly_prefix(r);
    let cp = cospi_poly_prefix(r);
    let sh = t::sinpi_t_hi(n);
    let ch = t::cospi_t_hi(n);
    (k, sh * cp + ch * sp)
}

/// Prefix-tier [`cospi_fast_reduced`] (hi-only table words; see
/// [`sinpi_prefix_reduced`]).
#[inline(always)]
pub(crate) fn cospi_prefix_reduced(a: f64) -> (bool, f64) {
    let (k, l) = mod2_split_fast(a);
    let (m, lp) = if l > 0.5 { (true, 1.0 - l) } else { (false, l) };
    let n = (lp * 512.0) as usize; // as-cast truncation == floor (lp >= 0)
    let v = if n == 0 {
        cospi_poly_prefix(lp)
    } else {
        let np = n + 1;
        let r = np as f64 / 512.0 - lp;
        let sp = sinpi_poly_prefix(r);
        let cp = cospi_poly_prefix(r);
        let ch = t::cospi_t_hi(np);
        let sh = t::sinpi_t_hi(np);
        ch * cp + sh * sp
    };
    (k ^ m, v)
}

/// Signs a `(negate, magnitude)` pair from the trig reductions.
#[inline(always)]
fn signed(neg: bool, v: f64) -> f64 {
    if neg {
        -v
    } else {
        v
    }
}

/// `sinpi(x)` for in-domain `x` of either sign (the ladder's full rung).
#[inline(always)]
pub(crate) fn sinpi_fast(x: f64) -> f64 {
    let (k, v) = sinpi_fast_reduced(x.abs());
    signed((x < 0.0) ^ k, v)
}

/// Prefix-tier [`sinpi_fast`].
#[inline(always)]
pub(crate) fn sinpi_prefix(x: f64) -> f64 {
    let (k, v) = sinpi_prefix_reduced(x.abs());
    signed((x < 0.0) ^ k, v)
}

/// `cospi(x)` for in-domain `x` of either sign (the ladder's full rung).
#[inline(always)]
pub(crate) fn cospi_fast(x: f64) -> f64 {
    let (neg, v) = cospi_fast_reduced(x.abs());
    signed(neg, v)
}

/// Prefix-tier [`cospi_fast`].
#[inline(always)]
pub(crate) fn cospi_prefix(x: f64) -> f64 {
    let (neg, v) = cospi_prefix_reduced(x.abs());
    signed(neg, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::exp::{exp10_kernel, exp2_kernel, exp_kernel};
    use crate::float::hyper::{cosh_kernel, sinh_kernel};
    use crate::float::log::{ln_kernel, log10_kernel, log2_kernel};
    use crate::registry::{slot, TIERS};
    use rlibm_fp::rng::XorShift64;

    fn band(s: usize) -> u64 {
        TIERS[s].full_band
    }

    fn prefix_band(s: usize) -> u64 {
        TIERS[s].prefix_band
    }

    /// Checks the fast kernel against the dd kernel on random in-domain
    /// inputs: the observed relative error must stay within the certified
    /// band constant (the dd kernel is ~2^-85 accurate, so the difference
    /// is an excellent proxy for the fast kernel's true error).
    fn assert_within_band(
        fast: impl Fn(f64) -> f64,
        dd: impl Fn(f64) -> crate::dd::Dd,
        lo: f64,
        hi: f64,
        band: u64,
        log_domain: bool,
    ) {
        let mut rng = XorShift64::new(0xFA57);
        for _ in 0..20_000 {
            let x = if log_domain {
                // log-uniform positives
                let e = rng.uniform_f64(-120.0, 120.0);
                rng.uniform_f64(1.0, 2.0) * e.exp2()
            } else {
                rng.uniform_f64(lo, hi)
            };
            let got = fast(x);
            let want = dd(x).to_f64();
            let rel = ((got - want) / want).abs();
            assert!(
                rel <= band as f64 * 2f64.powi(-53),
                "fast kernel out of band at x = {x:e}: rel = {rel:e}, band = {band}"
            );
        }
    }

    #[test]
    fn round_even_i64_matches_round_ties_even() {
        let check = |v: f64| {
            assert_eq!(
                round_even_i64(v),
                v.round_ties_even() as i64,
                "v = {v:e} ({:#x})",
                v.to_bits()
            );
        };
        // Every tie in ±2^17 (the dd exp kernel's |k| <= 64645 and
        // beyond), with the f64 neighbours on both sides.
        for n in -(1i64 << 17)..(1i64 << 17) {
            let tie = n as f64 + 0.5;
            check(tie.next_down());
            check(tie);
            check(tie.next_up());
        }
        for v in [0.0, -0.0, 0.5, -0.5, 1.5, -1.5] {
            check(v);
        }
        // The edge of the helper's stated range.
        for v in [(1u64 << 51) as f64 - 1.0, -((1u64 << 51) as f64 - 1.0)] {
            check(v.next_down());
            check(v);
            check(v.next_up());
        }
        // The log reduction's index (z - 1)·128 in [0, 128]: a dense grid
        // (every 1/4096, ties included) and a stride over the mantissas.
        for i in 0..=(128u32 << 12) {
            check(f64::from(i) / 4096.0);
        }
        for m in (0..1u64 << 52).step_by(0x0100_0000_011b) {
            let z = f64::from_bits(m | 0x3FF0_0000_0000_0000);
            check((z - 1.0) * 128.0);
        }
        let mut rng = XorShift64::new(0x2_0E7E);
        for _ in 0..1_000_000 {
            check(rng.uniform_f64(-1_048_576.0, 1_048_576.0));
        }
    }

    #[test]
    fn exp_family_within_band() {
        assert_within_band(exp_fast, exp_kernel, -87.0, 88.0, band(slot::EXP), false);
        assert_within_band(exp2_fast, exp2_kernel, -149.0, 127.9, band(slot::EXP2), false);
        assert_within_band(exp10_fast, exp10_kernel, -45.0, 38.5, band(slot::EXP10), false);
    }

    #[test]
    fn log_family_within_band() {
        assert_within_band(ln_fast, ln_kernel, 0.0, 0.0, band(slot::LN), true);
        assert_within_band(log2_fast, log2_kernel, 0.0, 0.0, band(slot::LOG2), true);
        assert_within_band(log10_fast, log10_kernel, 0.0, 0.0, band(slot::LOG10), true);
    }

    #[test]
    fn hyper_within_band() {
        assert_within_band(sinh_fast, sinh_kernel, -88.0, 88.0, band(slot::SINH), false);
        assert_within_band(cosh_fast, cosh_kernel, -88.0, 88.0, band(slot::COSH), false);
    }

    #[test]
    fn log_cancellation_strip_within_band() {
        // The x -> 1 strip from both sides: the folded reduction must keep
        // relative accuracy where the dd kernel leans on double-doubles.
        for i in 1..2000u32 {
            for x in [
                1.0 + i as f64 * 2f64.powi(-24),
                1.0 - i as f64 * 2f64.powi(-25),
            ] {
                let got = ln_fast(x);
                let want = ln_kernel(x).to_f64();
                let rel = ((got - want) / want).abs();
                assert!(
                    rel <= band(slot::LN) as f64 * 2f64.powi(-53),
                    "ln_fast({x:e}): rel {rel:e}"
                );
            }
        }
    }

    #[test]
    fn trig_reduced_within_band() {
        let mut rng = XorShift64::new(0x517A);
        for _ in 0..20_000 {
            let a = rng.uniform_f64(2f64.powi(-30), 8_388_607.0);
            if a == a.trunc() {
                continue;
            }
            let (ks, vs) = sinpi_fast_reduced(a);
            let (kd, vd) = crate::float::trig::sinpi_kernel(a);
            assert_eq!(ks, kd);
            let want = vd.to_f64();
            if want != 0.0 {
                let rel = ((vs - want) / want).abs();
                assert!(
                    rel <= band(slot::SINPI) as f64 * 2f64.powi(-53),
                    "sinpi_fast({a:e}): rel {rel:e}"
                );
            }
        }
    }

    #[test]
    fn prefix_kernels_within_prefix_bands() {
        assert_within_band(exp_prefix, exp_kernel, -87.0, 88.0, prefix_band(slot::EXP), false);
        assert_within_band(exp2_prefix, exp2_kernel, -149.0, 127.9, prefix_band(slot::EXP2), false);
        assert_within_band(exp10_prefix, exp10_kernel, -45.0, 38.5, prefix_band(slot::EXP10), false);
        assert_within_band(ln_prefix, ln_kernel, 0.0, 0.0, prefix_band(slot::LN), true);
        assert_within_band(log2_prefix, log2_kernel, 0.0, 0.0, prefix_band(slot::LOG2), true);
        assert_within_band(log10_prefix, log10_kernel, 0.0, 0.0, prefix_band(slot::LOG10), true);
        assert_within_band(sinh_prefix, sinh_kernel, -88.0, 88.0, prefix_band(slot::SINH), false);
        assert_within_band(cosh_prefix, cosh_kernel, -88.0, 88.0, prefix_band(slot::COSH), false);
    }

    #[test]
    fn prefix_trig_within_prefix_bands() {
        let mut rng = XorShift64::new(0x9217);
        for _ in 0..20_000 {
            let a = rng.uniform_f64(2f64.powi(-30), 8_388_607.0);
            if a == a.trunc() {
                continue;
            }
            let (ks, vs) = sinpi_prefix_reduced(a);
            let (kd, vd) = crate::float::trig::sinpi_kernel(a);
            assert_eq!(ks, kd);
            let want = vd.to_f64();
            if want != 0.0 {
                let rel = ((vs - want) / want).abs();
                assert!(
                    rel <= prefix_band(slot::SINPI) as f64 * 2f64.powi(-53),
                    "sinpi_prefix({a:e}): rel {rel:e}"
                );
            }
            let a2 = rng.uniform_f64(1e-4, 16_777_215.0);
            if 2.0 * a2 == (2.0 * a2).trunc() {
                continue;
            }
            let (kc, vc) = cospi_prefix_reduced(a2);
            let (kd2, vd2) = crate::float::trig::cospi_kernel(a2);
            assert_eq!(kc, kd2);
            let want2 = vd2.to_f64();
            if want2 != 0.0 {
                let rel = ((vc - want2) / want2).abs();
                assert!(
                    rel <= prefix_band(slot::COSPI) as f64 * 2f64.powi(-53),
                    "cospi_prefix({a2:e}): rel {rel:e}"
                );
            }
        }
    }

    #[test]
    fn fast_kernels_handle_domain_edges() {
        // exp at the f32 overflow edge stays finite in double.
        assert!(exp_fast(88.9).is_finite());
        assert!(exp2_fast(-150.9) > 0.0);
        // Pure-poly log branch at the fold boundary.
        let y = ln_fast(0.998_046_875); // z = 1.99609375 exactly, j = 128 pre-fold
        assert!((y - 0.998_046_875f64.ln()).abs() < 1e-15);
        // sinh parity.
        assert_eq!(sinh_fast(-3.25), -sinh_fast(3.25));
    }
}
