//! The exponential family: `exp`, `exp2`, `exp10`.
//!
//! All three share one kernel. The input is reduced to
//! `x = (k/64)·ln2 + r` with `|r| <= ln2/128`, so that
//! `f(x) = 2^(k div 64) · 2^((k mod 64)/64) · e^r`: a 64-entry
//! double-double table covers the middle factor and a degree-7 Taylor
//! polynomial (head in double-double) covers `e^r`. This is the paper's
//! table-driven reduction for exp/exp2/exp10 with positive and negative
//! reduced inputs handled uniformly.

use crate::dd::{two_prod, two_sum, Dd};
use crate::lane::round_even_i64;
use crate::registry::f32_entry;
use crate::tables as t;

/// `2^i` as a double, total over every integer: exact for
/// `i in [-1074, 1023]` (subnormal powers included), saturating to
/// `inf` / `0` beyond. The kernels' reductions keep `i` well inside the
/// normal range for in-domain inputs, but inputs near the f32 underflow
/// edge (e.g. `exp2(-150.9)`) legitimately request subnormal scales, and
/// the batched pipeline evaluates garbage lanes that can request
/// anything — so the function must not have a precondition.
#[inline]
pub(crate) fn pow2i(i: i64) -> f64 {
    if i > 1023 {
        f64::INFINITY
    } else if i >= -1022 {
        f64::from_bits(((i + 1023) as u64) << 52)
    } else if i >= -1074 {
        f64::from_bits(1u64 << (i + 1074))
    } else {
        0.0
    }
}

/// `e^r` for `|r| <= ln2/128 + slack`, as a double-double.
#[inline]
fn exp_poly(r: Dd) -> Dd {
    let rh = r.hi;
    // Tail: r^3/6 + ... + r^7/5040, evaluated in plain double on the hi
    // component (absolute value <= 2^-24; its rounding error ~2^-77).
    let tail = rh * rh * rh
        * (1.0 / 6.0
            + rh * (1.0 / 24.0
                + rh * (1.0 / 120.0 + rh * (1.0 / 720.0 + rh * (1.0 / 5040.0)))));
    // Head: 1 + r + r^2/2 in double-double. The cross term 2*rh*r.lo of
    // the square is at ~2^-67 and must be kept.
    let (p, e) = two_prod(rh, rh);
    let half_sq = Dd::new(0.5 * p, 0.5 * (e + 2.0 * rh * r.lo));
    Dd::from_f64(1.0).add(r).add(half_sq).add_f64(tail)
}

/// `2^(k64/64) * e^r` with `k64` in units of 1/64 and `r` the residual.
#[inline]
fn exp_combined(k64: i64, r: Dd) -> Dd {
    let i = k64.div_euclid(64);
    let j = k64.rem_euclid(64) as usize;
    let (th, tl) = t::EXP2_64.entry(j);
    let v = Dd { hi: th, lo: tl }.mul(exp_poly(r));
    v.scale(pow2i(i))
}

/// Kernel: `e^x` as a double-double. `x` must be finite with
/// `|x| <= 700` (callers clamp to their representation's range first).
pub(crate) fn exp_kernel(x: f64) -> Dd {
    debug_assert!(x.is_finite() && x.abs() <= 700.0);
    // k = round(x * 64/ln2): |k| <= 64645 < 2^17; the 39-bit LN2_64_HI
    // keeps k * LN2_64_HI exact up to 2^14, so the clamp range matters.
    let k = round_even_i64(x * (64.0 * t::LOG2_E));
    // r_hi = x - k*LN2_64_HI is exact (both operands on a coarse shared
    // grid, difference representable); the two tail corrections are tiny.
    let kf = k as f64;
    let r_hi = x - kf * t::LN2_64_HI;
    let r = Dd::new(r_hi, -kf * t::LN2_64_MID).add_f64(-kf * t::LN2_64_LO);
    exp_combined(k, r)
}

/// Kernel: `2^x`. `|x| <= 1100`.
pub(crate) fn exp2_kernel(x: f64) -> Dd {
    debug_assert!(x.is_finite() && x.abs() <= 1100.0);
    let k = round_even_i64(x * 64.0);
    // t = x - k/64 is exact: both are multiples of 2^-64-ish grids and
    // the difference is tiny.
    let tt = x - (k as f64) / 64.0;
    // r = t * ln2 as a double-double (t exact, LN2 in two parts).
    let (p, e) = two_prod(tt, t::LN2_HI);
    let r = Dd::new(p, e + tt * t::LN2_LO);
    exp_combined(k, r)
}

/// Kernel: `10^x`. `|x| <= 330`.
pub(crate) fn exp10_kernel(x: f64) -> Dd {
    debug_assert!(x.is_finite() && x.abs() <= 330.0);
    let k = round_even_i64(x * (64.0 * t::LOG2_10));
    let kf = k as f64;
    // u = x*ln10 - k*(ln2/64), double-double with ~7 bits of cancellation
    // absorbed by the ~2^-100 component error.
    let (p, e) = two_prod(x, t::LN10_HI);
    let a = Dd::new(p, e + x * t::LN10_LO);
    let b_hi = kf * t::LN2_64_HI; // exact only for |k| < 2^14; see below
    let (s, se) = two_sum(a.hi, -b_hi);
    let lo = se + a.lo - kf * t::LN2_64_MID - kf * t::LN2_64_LO;
    let r = Dd::new(s, lo);
    exp_combined(k, r)
}

/// Correctly rounded `e^x` for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::exp(0.0f32), 1.0);
/// assert_eq!(rlibm_math::exp(1.0f32), 2.7182817f32);
/// assert_eq!(rlibm_math::exp(f32::NEG_INFINITY), 0.0);
/// ```
pub fn exp(x: f32) -> f32 {
    f32_entry::exp(x)
}

/// Correctly rounded `2^x` for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::exp2(10.0f32), 1024.0);
/// assert_eq!(rlibm_math::exp2(-1.5f32), 0.35355338f32);
/// ```
pub fn exp2(x: f32) -> f32 {
    f32_entry::exp2(x)
}

/// Correctly rounded `10^x` for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::exp10(3.0f32), 1000.0);
/// assert_eq!(rlibm_math::exp10(-1.0f32), 0.1f32);
/// ```
pub fn exp10(x: f32) -> f32 {
    f32_entry::exp10(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values() {
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp2(0.0), 1.0);
        assert_eq!(exp10(0.0), 1.0);
        assert_eq!(exp2(-0.0), 1.0);
    }

    #[test]
    fn exact_powers() {
        for k in -140..=127 {
            // (f32::powi underflows internally for subnormal results;
            // compute the expected value through f64.)
            assert_eq!(exp2(k as f32), 2f64.powi(k) as f32, "2^{k}");
        }
        for k in -10..=10 {
            let want = 10f64.powi(k) as f32;
            assert_eq!(exp10(k as f32), want, "10^{k}");
        }
    }

    #[test]
    fn overflow_and_underflow_boundaries() {
        assert_eq!(exp(88.8f32), f32::INFINITY);
        assert_eq!(exp(-104.0f32), 0.0);
        // Largest x with finite exp: ~88.722839.
        assert!(exp(88.72f32).is_finite());
        // Smallest x with nonzero exp: ~-103.97.
        assert!(exp(-103.9f32) > 0.0);
        assert_eq!(exp2(128.0f32), f32::INFINITY);
        // 2^127.9 = 3.17e38 is still below f32::MAX = 2^128*(1-2^-24).
        assert!(exp2(127.9f32).is_finite());
        assert_eq!(exp2(-149.0f32), f32::from_bits(1));
        assert_eq!(exp2(-151.0f32), 0.0);
    }

    #[test]
    fn pow2i_is_total() {
        assert_eq!(pow2i(0), 1.0);
        assert_eq!(pow2i(-1022), 2f64.powi(-1022));
        assert_eq!(pow2i(1023), 2f64.powi(1023));
        // Overflow clamps to infinity instead of shifting garbage into
        // the exponent field.
        assert_eq!(pow2i(1024), f64::INFINITY);
        assert_eq!(pow2i(i64::MAX), f64::INFINITY);
        // The subnormal branch is exact down to the last f64 bit...
        assert_eq!(pow2i(-1023), 2f64.powi(-1023));
        assert_eq!(pow2i(-1074), f64::from_bits(1));
        // ...and everything below flushes to a clean zero.
        assert_eq!(pow2i(-1075), 0.0);
        assert_eq!(pow2i(i64::MIN), 0.0);
    }

    #[test]
    fn f32_underflow_edge() {
        // Around the f32 subnormal floor 2^-149: the smallest results the
        // exp family can produce, where a non-total pow2i used to be one
        // wide batched k away from undefined behavior.
        assert_eq!(exp2(-149.5f32), f32::from_bits(1)); // 2^-149.5 ~ 0.707*2^-149
        assert_eq!(exp2(-150.0f32), 0.0); // exact tie with 0: even mantissa wins
        assert_eq!(exp2(-149.0f32), f32::from_bits(1));
        assert!(exp2(-148.99f32) >= f32::from_bits(1));
        // exp at its own floor: exp(-103.98) < 2^-150 < exp(-103.97).
        assert_eq!(exp(-103.99f32), 0.0);
        assert_eq!(exp(-103.9f32), f32::from_bits(1));
    }

    #[test]
    fn subnormal_results() {
        // exp2 of -148.5: sqrt(2)*2^-149 -> subnormal f32.
        let y = exp2(-148.5f32);
        assert!(y > 0.0 && y < f32::MIN_POSITIVE);
    }

    #[test]
    fn against_host_on_grid() {
        // The host exp is ~1 ulp; agree within 1 f32 ulp everywhere.
        let mut x = -80.0f32;
        while x < 80.0 {
            let ours = exp(x) as f64;
            let host = (x as f64).exp();
            assert!(
                (ours - host).abs() <= host * 1e-7,
                "exp({x}): {ours} vs {host}"
            );
            x += 0.37;
        }
    }

    #[test]
    fn kernel_accuracy_vs_dd_identity() {
        // e^a * e^-a == 1 to dd precision.
        for &a in &[0.5f64, 3.3, 40.0, -17.2] {
            let p = exp_kernel(a);
            let q = exp_kernel(-a);
            let prod = p.mul(q);
            assert!((prod.to_f64() - 1.0).abs() < 1e-29, "a = {a}");
        }
    }
}
