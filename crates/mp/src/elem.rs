//! Arbitrary-precision elementary functions with rigorous error bounds.
//!
//! Every public function takes an *exact* input (an `f64`, which every
//! 32-bit representation widens to exactly) and a target precision, and
//! returns a result whose total error is at most [`ERR_ULPS`] ulps at that
//! precision. The Ziv loop in [`crate::oracle`] relies on this bound: it
//! widens the result by ±`ERR_ULPS` ulps and retries at doubled precision
//! until both ends round identically in the target representation.
//!
//! Each function reduces its argument with a few [`MpFloat`] operations
//! at the working precision `w = prec + 64` (64 guard bits), then sums
//! one power series in fixed point on [`BigUint`], as [`crate::consts`]
//! does: a term is one integer product and shift and at most one
//! division by a machine word, not three renormalizing `MpFloat` ops.
//! The argument enters the series once, truncated to a scale `w + 16`
//! bits below the leading term's top bit (so tiny arguments keep their
//! relative accuracy), and the sum leaves through one rounding; the
//! private `series` helper carries the error argument. The reductions
//! keep cancellation to a few bits (see each routine), which leaves the
//! claimed bound 2^60 times the error.

use crate::biguint::BigUint;
use crate::consts;
use crate::float::MpFloat;

/// Guaranteed error bound, in ulps at the requested precision, for every
/// function in this module. The true error is far smaller (the working
/// precision carries 64 guard bits); the bound is deliberately generous
/// because the Ziv loop only needs soundness, not tightness.
pub const ERR_ULPS: i64 = 16;

const GUARD: u32 = 64;

/// `e^x` to `prec` bits.
pub fn exp(x: f64, prec: u32) -> MpFloat {
    let w = prec + GUARD;
    let (k, r) = reduce_ln2(x, w);
    exp_taylor(&r, w).0.mul_pow2(k).round(prec)
}

/// `2^x` to `prec` bits.
pub fn exp2(x: f64, prec: u32) -> MpFloat {
    let w = prec + GUARD;
    // Reduce with the *exact* f64 split x = i + t, |t| <= 1/2: both parts
    // are exact, so the only error is in t*ln2 (one rounding) and the
    // series.
    let i = x.round_ties_even();
    let t = x - i; // exact (Sterbenz range)
    let u = MpFloat::from_f64(t, w).mul(&consts::ln2(w + 16), w);
    exp_taylor(&u, w).0.mul_pow2(i as i64).round(prec)
}

/// `10^x` to `prec` bits.
pub fn exp10(x: f64, prec: u32) -> MpFloat {
    let w = prec + GUARD;
    // 10^x = 2^i * e^(x ln10 - i ln2), i = round(x log2 10). The two
    // products cancel to |u| <= ln2/2 + slack; computing both at w + 48
    // bits leaves the difference with ~2^-w relative error even after the
    // ~7 bits of cancellation (|x ln10| <= 2^9 here).
    let i = (x * core::f64::consts::LOG2_10).round_ties_even();
    let wx = w + 48;
    let a = MpFloat::from_f64(x, wx).mul(&consts::ln10(wx), wx);
    let b = MpFloat::from_f64(i, wx).mul(&consts::ln2(wx), wx);
    let u = a.sub(&b, w);
    exp_taylor(&u, w).0.mul_pow2(i as i64).round(prec)
}

/// `ln x` to `prec` bits (`x > 0`).
///
/// # Panics
///
/// Panics if `x <= 0` or non-finite.
pub fn ln(x: f64, prec: u32) -> MpFloat {
    ln_w(x, prec + GUARD).round(prec)
}

/// `log2 x` to `prec` bits (`x > 0`): `ln x · log2 e`, one rounding
/// against the cached constant's 1-ulp error at `w`.
///
/// # Panics
///
/// Panics if `x <= 0` or non-finite.
pub fn log2(x: f64, prec: u32) -> MpFloat {
    let w = prec + GUARD;
    ln_w(x, w).mul(&consts::log2_e(w), prec)
}

/// `log10 x` to `prec` bits (`x > 0`): `ln x · log10 e`, as `log2`.
///
/// # Panics
///
/// Panics if `x <= 0` or non-finite.
pub fn log10(x: f64, prec: u32) -> MpFloat {
    let w = prec + GUARD;
    ln_w(x, w).mul(&consts::log10_e(w), prec)
}

/// `sinh x` to `prec` bits.
pub fn sinh(x: f64, prec: u32) -> MpFloat {
    let w = prec + GUARD;
    let a = x.abs();
    let v = if a < 0.25 {
        // Direct odd Taylor series: no cancellation, relative error
        // preserved down to the tiniest inputs.
        sin_cos_taylor(&MpFloat::from_f64(a, w), w, false, true)
    } else {
        // (A - 1/A)/2 with A = e^a >= e^0.25: |A - 1/A| >= 0.39 A, so the
        // subtraction loses at most ~1.4 bits.
        let (k, r) = reduce_ln2(a, w + 8);
        let (er, inv) = exp_taylor(&r, w + 8);
        er.mul_pow2(k).sub(&inv.mul_pow2(-k), w).mul_pow2(-1)
    };
    round_signed(v, x < 0.0, prec)
}

/// `cosh x` to `prec` bits.
pub fn cosh(x: f64, prec: u32) -> MpFloat {
    let w = prec + GUARD;
    // (A + 1/A)/2 with A = e^|x|: a sum of positives, no cancellation.
    let (k, r) = reduce_ln2(x.abs(), w + 8);
    let (er, inv) = exp_taylor(&r, w + 8);
    er.mul_pow2(k).add(&inv.mul_pow2(-k), w).mul_pow2(-1).round(prec)
}

/// `sin(pi x)` to `prec` bits.
///
/// # Panics
///
/// Panics if `|x| >= 2^53` (integral inputs of that size are exact zeros
/// and must be special-cased by the caller) or `x` is non-finite.
pub fn sinpi(x: f64, prec: u32) -> MpFloat {
    // sinpi(k + l) = ±sinpi(l), and sinpi(1 - l) = sinpi(l).
    let (k, _, l) = half_turn(x);
    round_signed(pi_series(l, prec + GUARD, false), (x < 0.0) ^ k, prec)
}

/// `cos(pi x)` to `prec` bits.
///
/// # Panics
///
/// Panics if `|x| >= 2^53` or `x` is non-finite.
pub fn cospi(x: f64, prec: u32) -> MpFloat {
    // cospi is even; cospi(k + l) = ±cospi(l), cospi(1 - l) = -cospi(l).
    let (k, m, l) = half_turn(x);
    round_signed(pi_series(l, prec + GUARD, true), k ^ m, prec)
}

/// `v` with the sign flipped when `neg`, rounded to `prec` bits.
fn round_signed(v: MpFloat, neg: bool, prec: u32) -> MpFloat {
    if neg { v.neg() } else { v }.round(prec)
}

/// The exact binary reduction of `|x|` for `sinpi` and `cospi`:
/// `|x| mod 2 = k + l` with `k` in {0, 1} and `l` in [0, 1), then `m`
/// set when `l > 1/2` and `l` replaced by `1 - l` (exact, Sterbenz).
///
/// # Panics
///
/// Panics if `|x| >= 2^53` or `x` is non-finite.
fn half_turn(x: f64) -> (bool, bool, f64) {
    assert!(x.is_finite() && x.abs() < 2f64.powi(53));
    let a = x.abs();
    let j = a - 2.0 * (a / 2.0).floor();
    let (k, l) = if j >= 1.0 { (true, j - 1.0) } else { (false, j) };
    if l > 0.5 {
        (k, true, 1.0 - l)
    } else {
        (k, false, l)
    }
}

/// `x = k ln2 + r`: returns `(k, r)` with `r` at working precision `w`,
/// so `e^x = 2^k e^r`.
fn reduce_ln2(x: f64, w: u32) -> (i64, MpFloat) {
    // k from a double estimate: being off by one only widens |r| to ~1.04,
    // which the Taylor series absorbs.
    let k = (x / core::f64::consts::LN_2).round_ties_even() as i64;
    // r = x - k ln2: |x| <= ~2^10 for every caller, so the subtraction
    // cancels at most ~11 bits; 48 extra bits of ln2 keep r's relative
    // error near 2^-w.
    let wx = w + 48;
    let kln2 = consts::ln2(wx).mul_i64(k, wx);
    (k, MpFloat::from_f64(x, wx).sub(&kln2, w))
}

/// Fraction bits for a series whose leading term has its top bit at
/// `msb`: `w + 16` bits below that bit, and never fewer than `w + 16`.
fn frac_bits(w: u32, msb: i64) -> u64 {
    (i64::from(w) + 16 + (-msb).max(0)) as u64
}

/// A fixed-point value with `f` fraction bits, rounded to `w` bits.
fn from_fixed(neg: bool, v: BigUint, f: u64, w: u32) -> MpFloat {
    MpFloat::normalize_round(neg, -(f as i64), v, w, false)
}

/// A power series in fixed point with `f` fraction bits: `t_0 = lead`,
/// `t_k = t_(k-1) · y / d(k)`, and term `k` contributes `t_k / c(k)`.
/// Returns the sums of the even-`k` and of the odd-`k` contributions:
/// their sum is the series with positive terms, their difference the
/// alternating one. The loop stops at the first zero contribution.
///
/// Error, in units of `2^-f`. Each product and quotient truncates once,
/// and nested truncations compose (`⌊⌊a/2^f⌋/d⌋ = ⌊a/(2^f d)⌋`), so a
/// term is short by under 1 unit, plus `y/d(k)` times its predecessor's
/// shortfall, plus `t_(k-1)/d(k)` times that of `y` (under 3: `y` is the
/// truncated argument or its square). Every caller has `y, t_k <= 1.1`
/// and `y/d(k) <= 0.55` from `k = 2` on, so each contribution is short
/// by under 6 and the tail after the first zero is under 16. Below the
/// Ziv ceiling no series reaches 2^12 terms, so each sum is short by
/// under 2^15. Each caller's combination is at least a quarter of its
/// leading term, which [`frac_bits`] puts at `2^(w+16)` or more: its
/// relative error is below `2^(2-w)`, a few ulps at `w`.
fn series(
    lead: BigUint,
    y: &BigUint,
    f: u64,
    d: impl Fn(u64) -> u64,
    c: impl Fn(u64) -> u64,
) -> (BigUint, BigUint) {
    let div = |v: BigUint, d: u64| if d == 1 { v } else { v.div_rem_u64(d).0 };
    let mut sums = [lead.clone(), BigUint::zero()];
    let mut t = lead;
    for k in 1.. {
        t = div(t.mul_shr(y, f), d(k));
        let term = div(t.clone(), c(k));
        if term.is_zero() {
            break;
        }
        let s = &mut sums[(k % 2) as usize];
        *s = s.add(&term);
    }
    let [even, odd] = sums;
    (even, odd)
}

/// `(e^u, e^-u)` at `w` bits for `|u| <= ~1.05`, from one Taylor series
/// (`t_k = t_(k-1) |u| / k`, leading term 1): with `E` and `O` the sums
/// of its even and odd terms, `e^|u| = E + O` and `e^-|u| = E - O`. The
/// difference is at least `e^-1.05 > 1/4` of the leading term (the
/// bound `series` needs), and its ~2 bits of cancellation against
/// `E` are inside that bound.
fn exp_taylor(u: &MpFloat, w: u32) -> (MpFloat, MpFloat) {
    let f = frac_bits(w, 0);
    let (even, odd) = series(BigUint::one().shl(f), &u.to_fixed(f), f, |k| k, |_| 1);
    let (up, down) = (even.add(&odd), even.sub(&odd));
    let (pos, neg) = if u.is_negative() { (down, up) } else { (up, down) };
    (from_fixed(false, pos, f, w), from_fixed(false, neg, f, w))
}

/// `sin u`, `cos u` (`cos`) or, with `hyperbolic`, `sinh u`, for
/// `0 <= u <= ~0.8`: the Taylor series `t_k = t_(k-1) u^2 / d(k)` with
/// `d(k) = (2k)(2k+1)` and leading term `u`, or `(2k-1)(2k)` and 1.
/// The leading term sets the scale, so tiny `u` keep relative accuracy;
/// `sin u >= 0.89 u`, `cos u >= 0.7`, `sinh u >= u`.
fn sin_cos_taylor(u: &MpFloat, w: u32, cos: bool, hyperbolic: bool) -> MpFloat {
    let f = frac_bits(w, if cos || u.is_zero() { 0 } else { u.msb_pos() });
    let x = u.to_fixed(f);
    let y = x.mul_shr(&x, f);
    let (lead, o) = if cos { (BigUint::one().shl(f), 1) } else { (x, 0) };
    let (even, odd) = series(lead, &y, f, |k| (2 * k - o) * (2 * k + 1 - o), |_| 1);
    from_fixed(false, if hyperbolic { even.add(&odd) } else { even.sub(&odd) }, f, w)
}

/// `sin(pi l)`, or `cos(pi l)` when `cos`, for exact `l in [0, 1/2]`:
/// past 1/4 it is the other one at `t = 1/2 - l` (exact), and `u = pi t`
/// rounds once against `pi` at `w + 8` bits.
fn pi_series(l: f64, w: u32, cos: bool) -> MpFloat {
    let (t, cos) = if l <= 0.25 { (l, cos) } else { (0.5 - l, !cos) };
    let u = MpFloat::from_f64(t, w + 8).mul(&consts::pi(w + 8), w);
    sin_cos_taylor(&u, w, cos, false)
}

/// `ln x` at working precision `w`, from `x = m · 2^e` with `m` in
/// `[0.75, 1.5)`: `ln x = e ln2 + ln m`, where `|ln m| <= 0.41` while
/// `|e ln2| >= 0.69` whenever `e != 0`, so at most ~2 bits cancel.
///
/// `m = mant / 2^q` for the odd integer significand `mant` of `x`, so
/// `s = (m - 1)/(m + 1) = (mant - 2^q)/(mant + 2^q)`, in `[-1/7, 1/5]`,
/// is one integer division, truncated at the series' scale. Then
/// `ln m = 2 atanh s = 2 sum_k s^(2k+1)/(2k+1)`: `t_k = t_(k-1) s^2`
/// with leading term `|s|`, contributing `t_k / (2k+1)`, every term of
/// the sign of `s`; `atanh |s| >= |s|`.
///
/// # Panics
///
/// Panics if `x <= 0` or non-finite.
fn ln_w(x: f64, w: u32) -> MpFloat {
    assert!(x.is_finite() && x > 0.0, "log of non-positive value");
    let (_, mant, exp2) = rlibm_fp::bits::decompose_f64(x);
    let bits = 64 - mant.leading_zeros();
    // mant / 2^(bits-1) is in [1, 2); fold [1.5, 2) down to [0.75, 1).
    let q = if 2 * mant >= 3 << (bits - 1) { bits } else { bits - 1 };
    let eln2 = consts::ln2(w + 8).mul_i64(exp2 as i64 + i64::from(q), w + 8);
    let one = 1u64 << q;
    let (neg, num) = if mant < one { (true, one - mant) } else { (false, mant - one) };
    if num == 0 {
        return eln2.round(w);
    }
    let den = mant + one;
    // |s| >= 2^(bits(num) - bits(den) - 1).
    let f = frac_bits(w, i64::from(num.ilog2()) - i64::from(den.ilog2()) - 1);
    let s = BigUint::from_u64(num).shl(f).div_rem_u64(den).0;
    let y = s.mul_shr(&s, f);
    let (even, odd) = series(s, &y, f, |_| 1, |k| 2 * k + 1);
    eln2.add(&from_fixed(neg, even.add(&odd), f - 1, w + 8), w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max acceptable deviation from the f64 std library: std promises a
    /// correctly rounded... no, it promises ~1 ulp. Compare at 2 ulps.
    fn close_f64(a: f64, b: f64) -> bool {
        if a == b {
            return true;
        }
        let ulp = rlibm_fp::bits::ulp_f64(b.abs().max(f64::MIN_POSITIVE));
        (a - b).abs() <= 2.0 * ulp
    }

    #[test]
    fn exp_against_std() {
        for &x in &[0.0, 1.0, -1.0, 0.5, -20.25, 42.0, 87.3, -100.0, 1e-10] {
            let v = exp(x, 128).to_f64();
            assert!(close_f64(v, x.exp()), "exp({x}): {v} vs {}", x.exp());
        }
    }

    #[test]
    fn exp2_exp10_against_std() {
        for &x in &[0.0, 1.0, -1.0, 10.5, -126.7, 37.9] {
            assert!(close_f64(exp2(x, 128).to_f64(), x.exp2()), "exp2({x})");
        }
        for &x in &[0.0, 1.0, -1.0, 5.25, -37.4, 30.1] {
            let v = exp10(x, 128).to_f64();
            let want = 10f64.powf(x);
            assert!(close_f64(v, want), "exp10({x}): {v} vs {want}");
        }
    }

    #[test]
    fn exact_powers() {
        assert_eq!(exp2(10.0, 128).to_f64(), 1024.0);
        assert_eq!(exp10(3.0, 128).to_f64(), 1000.0);
        assert_eq!(exp(0.0, 128).to_f64(), 1.0);
    }

    #[test]
    fn logs_against_std() {
        for &x in &[1.0, 2.0, 0.5, 1e-30, 1e30, std::f64::consts::PI, 0.9999999, 1.0000001, 7e-42] {
            assert!(close_f64(ln(x, 128).to_f64(), x.ln()), "ln({x})");
            assert!(close_f64(log2(x, 128).to_f64(), x.log2()), "log2({x})");
            assert!(close_f64(log10(x, 128).to_f64(), x.log10()), "log10({x})");
        }
    }

    #[test]
    fn log2_of_powers_is_exact() {
        assert_eq!(log2(8.0, 128).to_f64(), 3.0);
        assert_eq!(log2(2f64.powi(-60), 128).to_f64(), -60.0);
        assert_eq!(ln(1.0, 128).to_f64(), 0.0);
    }

    #[test]
    fn hyperbolics_against_std() {
        for &x in &[0.0, 1e-20, 0.1, -0.2, 1.0, -5.5, 20.0, -88.0] {
            assert!(close_f64(sinh(x, 128).to_f64(), x.sinh()), "sinh({x})");
            assert!(close_f64(cosh(x, 128).to_f64(), x.cosh()), "cosh({x})");
        }
    }

    #[test]
    fn sinh_tiny_keeps_relative_accuracy() {
        let x = 2f64.powi(-140);
        // sinh(x) ~ x with relative error x^2/6: indistinguishable at 128
        // bits from x itself only in f64 projection.
        assert_eq!(sinh(x, 128).to_f64(), x);
    }

    #[test]
    fn sinpi_cospi_special_angles() {
        assert_eq!(sinpi(0.5, 128).to_f64(), 1.0);
        assert_eq!(sinpi(1.5, 128).to_f64(), -1.0);
        assert_eq!(sinpi(2.5, 128).to_f64(), 1.0);
        assert_eq!(cospi(1.0, 128).to_f64(), -1.0);
        assert_eq!(cospi(2.0, 128).to_f64(), 1.0);
        assert_eq!(sinpi(0.25, 128).to_f64(), core::f64::consts::FRAC_1_SQRT_2);
        assert_eq!(cospi(0.25, 128).to_f64(), core::f64::consts::FRAC_1_SQRT_2);
        // Odd / even symmetry.
        assert_eq!(sinpi(-0.3, 128).to_f64(), -sinpi(0.3, 128).to_f64());
        assert_eq!(cospi(-0.3, 128).to_f64(), cospi(0.3, 128).to_f64());
    }

    #[test]
    fn sinpi_against_std() {
        for &x in &[0.1f64, 0.3, 0.499, 0.7, 1.25, 123.456, 8388607.3] {
            let want = (core::f64::consts::PI * (x - x.round_ties_even())).sin().abs();
            let got = sinpi(x, 128).to_f64().abs();
            assert!(close_f64(got, want), "sinpi({x}): {got} vs {want}");
        }
    }

    /// Quadrupling the precision must agree with the coarser result to
    /// within ERR_ULPS of its ulps: the empirical check of the error
    /// bound, for every function at 32 to 256 bits, on ordinary arguments
    /// and on the edges of the fixed-point series (tiny leading terms,
    /// the ends of each reduced range, `m` next to 1 in the logs).
    #[test]
    fn precision_escalation_is_consistent() {
        type Elem = fn(f64, u32) -> MpFloat;
        let tiny = 2f64.powi(-52);
        let cases: [(&str, Elem, &[f64]); 10] = [
            ("ln", ln, &[0.7, 3.3, 1.0 + tiny, 1.0 - tiny, 0.75, 1.5, 1e-30]),
            ("log2", log2, &[0.7, 3.3, 1.0 + tiny, 1.0 - tiny, 1.4999, 1e30]),
            ("log10", log10, &[0.7, 3.3, 1.0 + tiny, 1.0 - tiny, 0.75, 7e-42]),
            ("exp", exp, &[0.7, 3.3, -2.6, 55.1, 1e-30, -1e-30, 88.7, -103.2]),
            ("exp2", exp2, &[0.7, -2.6, 0.5, -0.5, 1e-30, 127.9, -149.5]),
            ("exp10", exp10, &[0.7, -2.6, 1e-30, -45.0, 38.5]),
            ("sinh", sinh, &[2f64.powi(-140), 0.2499, 0.25, -0.7, 3.3, 89.5]),
            ("cosh", cosh, &[2f64.powi(-30), 0.2499, -0.7, 3.3, 89.5]),
            ("sinpi", sinpi, &[2f64.powi(-60), 0.25, 0.26, 0.3, -1.7, 8388607.3]),
            ("cospi", cospi, &[2f64.powi(-60), 0.25, 0.26, 0.3, -1.7, 8388607.3]),
        ];
        for (name, f, xs) in cases {
            for &x in xs {
                for p in [32u32, 64, 128, 256] {
                    let lo = f(x, p);
                    let hi = f(x, 4 * p);
                    let diff = lo.sub(&hi, 4 * p);
                    let bound = MpFloat::from_u64(ERR_ULPS as u64, 8).mul_pow2(lo.ulp_exp());
                    assert!(
                        diff.cmp_abs(&bound) != core::cmp::Ordering::Greater,
                        "{name}({x:e}) at {p} bits differs from {} bits by more than {ERR_ULPS} ulps",
                        4 * p
                    );
                }
            }
        }
    }
}
