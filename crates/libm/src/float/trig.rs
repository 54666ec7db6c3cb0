//! `sinpi` and `cospi` — the paper's two case studies (Sections 2 and 5).
//!
//! `sinpi` follows Section 2.1 verbatim: exact binary reduction
//! `x -> J in [0,2) -> L in [0,1) -> L' in [0,1/2]`, then the table split
//! `L' = N/512 + R` with 257-entry `sinpi`/`cospi` tables and two short
//! polynomials over `R in [0, 1/512]`, recombined with
//! `sinpi(L') = sinpi(N/512)·cospi(R) + cospi(N/512)·sinpi(R)`.
//!
//! `cospi` uses Section 5's *monotonic* output compensation: for `N != 0`
//! the split is flipped to `L' = N'/512 - R` with `N' = N + 1`, so the
//! recombination `cospi(N'/512)·cospi(R) + sinpi(N'/512)·sinpi(R)` has no
//! cancellation (both terms share a sign), unlike the textbook identity
//! with its `-sinpi·sinpi` term.

use crate::dd::{two_prod, Dd};
use crate::registry::f32_ladder;
use crate::tables as t;

/// `sin(pi R)` for exact `R in [0, 1/512]`, as a double-double.
#[inline]
pub(crate) fn sinpi_poly(r: f64) -> Dd {
    // Head: pi * R in double-double; tail: C3 R^3 + C5 R^5 + C7 R^7 in
    // plain double (|tail| <= 2^-25, rounding error ~2^-78).
    let (p, e) = two_prod(t::PI_HI, r);
    let head = Dd::new(p, e + t::PI_LO * r);
    let r2 = r * r;
    let tail = r * r2 * (t::SINPI_C3 + r2 * (t::SINPI_C5 + r2 * t::SINPI_C7));
    head.add_f64(tail)
}

/// `cos(pi R)` for exact `R in [0, 1/512]`, as a double-double.
#[inline]
pub(crate) fn cospi_poly(r: f64) -> Dd {
    let (p, e) = two_prod(r, r);
    let r2 = Dd::new(p, e);
    let quad = r2.mul(Dd { hi: t::COSPI_C2_HI, lo: t::COSPI_C2_LO });
    let tail = p * p * (t::COSPI_C4 + p * t::COSPI_C6);
    Dd::from_f64(1.0).add(quad).add_f64(tail)
}

/// Exact reduction of `a in [0, 2^23)` to `(K, L)` with `a mod 2 = K + L`,
/// `K in {0, 1}`, `L in [0, 1)`. Every step is exact in double (the
/// integer-cast round trip is `floor` for this non-negative range, minus
/// the dynamic libm call `f64::floor` costs on baseline x86-64).
#[inline]
fn mod2_split(a: f64) -> (bool, f64) {
    let j = a - 2.0 * (((a * 0.5) as u64) as f64);
    if j >= 1.0 {
        (true, j - 1.0)
    } else {
        (false, j)
    }
}

/// `a == trunc(a)` for non-negative `a < 2^53`, via the same exact
/// integer-cast round trip (avoids the `trunc` libm call).
#[inline(always)]
pub(crate) fn is_int_pos(a: f64) -> bool {
    a == ((a as u64) as f64)
}

/// Kernel: `sinpi(|x|)` with the sign of the half-period, for
/// `0 < a < 2^23`, non-integer. Returns (negate, magnitude dd).
pub(crate) fn sinpi_kernel(a: f64) -> (bool, Dd) {
    let (k, l) = mod2_split(a);
    // Mirror symmetry about 1/2 (1 - L is exact by Sterbenz).
    let lp = if l > 0.5 { 1.0 - l } else { l };
    let n = (lp * 512.0) as usize; // as-cast truncation == floor (lp >= 0) // 0..=256
    let r = lp - n as f64 / 512.0; // exact
    let (sh, sl) = t::SINPI_T.entry(n);
    let s = Dd { hi: sh, lo: sl };
    let (ch, cl) = t::SINPI_T.entry(256 - n); // cos(pi n/512)
    let c = Dd { hi: ch, lo: cl };
    let v = s.mul(cospi_poly(r)).add(c.mul(sinpi_poly(r)));
    (k, v)
}

/// Correctly rounded `sin(pi x)` for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::sinpi(0.5f32), 1.0);
/// assert_eq!(rlibm_math::sinpi(1.0f32), 0.0);
/// assert_eq!(rlibm_math::sinpi(0.25f32), 0.70710677f32);
/// assert_eq!(rlibm_math::sinpi(-0.25f32), -0.70710677f32);
/// ```
pub fn sinpi(x: f32) -> f32 {
    if x.is_nan() || x.is_infinite() {
        return f32::NAN;
    }
    if x == 0.0 {
        return x;
    }
    let a = (x as f64).abs();
    if a >= 8_388_608.0 {
        return 0.0; // every |x| >= 2^23 is an integer
    }
    // Tiny inputs: sinpi(x) = pi*x to well below the rounding interval
    // (the paper's first special class, |x| < 1.17e-7, and smaller).
    if a < 2f64.powi(-36) {
        let (p, e) = two_prod(t::PI_HI, x as f64);
        return crate::round::round_dd_f32(Dd::new(p, e + t::PI_LO * x as f64));
    }
    if is_int_pos(a) {
        return 0.0;
    }
    f32_ladder::sinpi(x as f64)
}

/// `sinpi` through the double-double kernel only (no fast path).
pub fn sinpi_dd(x: f32) -> f32 {
    if x.is_nan() || x.is_infinite() {
        return f32::NAN;
    }
    if x == 0.0 {
        return x;
    }
    let a = (x as f64).abs();
    if a >= 8_388_608.0 {
        return 0.0;
    }
    if a < 2f64.powi(-36) {
        let (p, e) = two_prod(t::PI_HI, x as f64);
        return crate::round::round_dd_f32(Dd::new(p, e + t::PI_LO * x as f64));
    }
    if is_int_pos(a) {
        return 0.0;
    }
    let (k, v) = sinpi_kernel(a);
    let neg = (x < 0.0) ^ k;
    crate::round::round_dd_f32(if neg { v.neg() } else { v })
}

/// Kernel: `cospi(|x|)` with the half-period sign, for non-integer,
/// non-half-integer `0 < a < 2^24`. Returns (negate, magnitude dd).
pub(crate) fn cospi_kernel(a: f64) -> (bool, Dd) {
    let (k, l) = mod2_split(a);
    // Mirror about 1/2 with a sign flip: cospi(L) = (-1)^M cospi(L').
    let (m, lp) = if l > 0.5 { (true, 1.0 - l) } else { (false, l) };
    let n = (lp * 512.0) as usize; // as-cast truncation == floor (lp >= 0) // 0..=255 here (lp < 1/2)
    let v = if n == 0 {
        cospi_poly(lp)
    } else {
        // Section 5's monotonic recombination: L' = N'/512 - R.
        let np = n + 1;
        let r = np as f64 / 512.0 - lp; // exact
        let (ch, cl) = t::SINPI_T.entry(256 - np); // cos(pi np/512)
        let c = Dd { hi: ch, lo: cl };
        let (sh, sl) = t::SINPI_T.entry(np);
        let s = Dd { hi: sh, lo: sl };
        c.mul(cospi_poly(r)).add(s.mul(sinpi_poly(r)))
    };
    (k ^ m, v)
}

/// The sinpi ladder's dd rung: [`sinpi_kernel`] with the sign applied,
/// for signed in-domain `x`.
pub(crate) fn sinpi_kernel_signed(x: f64) -> Dd {
    let (k, v) = sinpi_kernel(x.abs());
    if (x < 0.0) ^ k {
        v.neg()
    } else {
        v
    }
}

/// The cospi ladder's dd rung: [`cospi_kernel`] with the sign applied.
pub(crate) fn cospi_kernel_signed(x: f64) -> Dd {
    let (neg, v) = cospi_kernel(x.abs());
    if neg {
        v.neg()
    } else {
        v
    }
}

/// Correctly rounded `cos(pi x)` for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::cospi(0.0f32), 1.0);
/// assert_eq!(rlibm_math::cospi(1.0f32), -1.0);
/// assert_eq!(rlibm_math::cospi(0.5f32), 0.0);
/// assert_eq!(rlibm_math::cospi(0.75f32), -0.70710677f32);
/// ```
pub fn cospi(x: f32) -> f32 {
    if x.is_nan() || x.is_infinite() {
        return f32::NAN;
    }
    let a = (x as f64).abs(); // cospi is even
    if a >= 16_777_216.0 {
        return 1.0; // |x| >= 2^24: every value is an even integer
    }
    // Paper special class 1: |x| < 7.77e-5 rounds to 1.0. (The general
    // path also gets this right; the early exit matches the paper.)
    if a < 7.77e-5 {
        return 1.0;
    }
    // Integers and half-integers (exact +/-1 and 0 results) share one
    // exact test: `2a < 2^25` is exact, and `2a` is an integer iff `a`
    // is a half-multiple. One integer-cast round trip replaces the two
    // `trunc` libm calls and the dd `mod2_split` the old checks cost.
    let a2 = a + a;
    let h = a2 as u64;
    if a2 == h as f64 {
        if h & 1 == 1 {
            return 0.0; // half-integers are exact zeros
        }
        return if h & 2 == 0 { 1.0 } else { -1.0 }; // even/odd integer
    }
    f32_ladder::cospi(x as f64)
}

/// `cospi` through the double-double kernel only (no fast path).
pub fn cospi_dd(x: f32) -> f32 {
    if x.is_nan() || x.is_infinite() {
        return f32::NAN;
    }
    let a = (x as f64).abs();
    if a >= 16_777_216.0 {
        return 1.0;
    }
    if a < 7.77e-5 {
        return 1.0;
    }
    let a2 = a + a;
    let h = a2 as u64;
    if a2 == h as f64 {
        if h & 1 == 1 {
            return 0.0;
        }
        return if h & 2 == 0 { 1.0 } else { -1.0 };
    }
    let (neg, v) = cospi_kernel(a);
    crate::round::round_dd_f32(if neg { v.neg() } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values() {
        assert!(sinpi(f32::NAN).is_nan());
        assert!(sinpi(f32::INFINITY).is_nan());
        assert!(cospi(f32::NEG_INFINITY).is_nan());
        assert_eq!(sinpi(0.0).to_bits(), 0);
        assert_eq!(sinpi(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(cospi(0.0), 1.0);
    }

    #[test]
    fn integers_and_half_integers() {
        for n in -10..=10i32 {
            assert_eq!(sinpi(n as f32), 0.0, "sinpi({n})");
            let want = if n.rem_euclid(2) == 0 { 1.0 } else { -1.0 };
            assert_eq!(cospi(n as f32), want, "cospi({n})");
        }
        assert_eq!(sinpi(0.5), 1.0);
        assert_eq!(sinpi(1.5), -1.0);
        assert_eq!(sinpi(2.5), 1.0);
        assert_eq!(sinpi(-0.5), -1.0);
        assert_eq!(cospi(0.5), 0.0);
        assert_eq!(cospi(7.5), 0.0);
        assert_eq!(cospi(-2.5), 0.0);
    }

    #[test]
    fn large_inputs() {
        assert_eq!(sinpi(2f32.powi(23)), 0.0);
        assert_eq!(cospi(2f32.powi(24)), 1.0);
        // 2^23 + 1 is an odd integer representable in f32.
        let odd = 8_388_609.0f32;
        assert_eq!(cospi(odd), -1.0);
        assert_eq!(sinpi(odd), 0.0);
    }

    #[test]
    fn symmetry() {
        for &x in &[0.1f32, 0.37, 1.21, 100.63, 0.499] {
            assert_eq!(sinpi(-x), -sinpi(x), "odd at {x}");
            assert_eq!(cospi(-x), cospi(x), "even at {x}");
        }
    }

    #[test]
    fn quarter_values() {
        let s = 0.70710677f32; // RN(sqrt(2)/2)
        assert_eq!(sinpi(0.25), s);
        assert_eq!(sinpi(0.75), s);
        assert_eq!(sinpi(1.25), -s);
        assert_eq!(cospi(0.25), s);
        assert_eq!(cospi(0.75), -s);
        assert_eq!(cospi(1.75), s);
    }

    #[test]
    fn pythagorean_identity_at_kernel_level() {
        for &r in &[1e-4f64, 1e-3, 1.9e-3] {
            let s = sinpi_poly(r);
            let c = cospi_poly(r);
            let id = s.mul(s).add(c.mul(c));
            assert!((id.to_f64() - 1.0).abs() < 1e-28, "r = {r}");
        }
    }

    #[test]
    fn against_host() {
        let mut x = 0.0001f32;
        while x < 1000.0 {
            let hs = (core::f64::consts::PI * x as f64).sin();
            let ours = sinpi(x) as f64;
            // Host error grows with |x| through the pi multiplication.
            let tol = 1e-7 * hs.abs() + (x as f64) * 1e-15 + 1e-12;
            assert!((ours - hs).abs() <= tol, "sinpi({x}): {ours} vs {hs}");
            x *= 1.37;
        }
    }

    #[test]
    fn paper_overview_inputs() {
        // The two inputs from Figure 2 map to the same reduced input and
        // must both be correctly rounded.
        let x1 = 1.953_126_9e-3_f32;
        let x2 = 2.148_437_7e-2_f32;
        let y1 = sinpi(x1);
        let y2 = sinpi(x2);
        // Cross-check against the double computation of sin(pi x).
        assert!((y1 as f64 - (core::f64::consts::PI * x1 as f64).sin()).abs() < 5e-10);
        assert!((y2 as f64 - (core::f64::consts::PI * x2 as f64).sin()).abs() < 4e-9);
    }
}
