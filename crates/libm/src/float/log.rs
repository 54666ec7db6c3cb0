//! The logarithm family: `ln`, `log2`, `log10`.
//!
//! Tang-style table reduction, exactly the structure the paper's
//! generators target: `x = z·2^e` with `z in [1,2)`, `F = 1 + j/128`
//! the nearest table point, `u = (z-F)/F`, and
//! `log(x) = e·log(2) + table[j] + log1p(u)` with `|u| <= 1/256`.
//! Table values and the `log 2` constant are carried as double-doubles;
//! the polynomial's head terms run in double-double so that the whole
//! kernel stays within ~2^-85 relative error.

use crate::dd::{two_prod, two_sum, Dd};
use crate::lane::round_even_i64;
use crate::registry::f32_ladder;
use crate::tables as t;

/// Decomposes a positive finite double into `(e, z)` with `x = z * 2^e`,
/// `z` in `[1, 2)` (handles f32-origin subnormals after upscaling).
#[inline]
fn split(x: f64) -> (i64, f64) {
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let z = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    (e, z)
}

/// `log1p(u)` for `|u| <= 1/256 + slack`, as a double-double.
#[inline]
fn log1p_poly(u: Dd) -> Dd {
    let uh = u.hi;
    // Tail: u^3/3 - u^4/4 + ... - u^8/8 in plain double (|u^3| <= 2^-24).
    let tail = uh * uh * uh
        * (1.0 / 3.0
            + uh * (-1.0 / 4.0
                + uh * (1.0 / 5.0 + uh * (-1.0 / 6.0 + uh * (1.0 / 7.0 - uh / 8.0)))));
    // Head: u - u^2/2 in double-double (cross term kept).
    let (p, e) = two_prod(uh, uh);
    let half_sq = Dd::new(0.5 * p, 0.5 * (e + 2.0 * uh * u.lo));
    u.add(half_sq.neg()).add_f64(tail)
}

/// Shared reduction: returns `(e, j, log1p(u))`.
#[inline]
fn reduce(x: f64) -> (i64, usize, Dd) {
    let (mut e, mut z) = split(x);
    if e == -1023 {
        // f32-origin subnormal widened to f64 is still normal in f64, so
        // this only triggers for genuinely subnormal doubles (not produced
        // by the f32 wrapper, which upscales first). Normalize anyway.
        let scaled = x * 2f64.powi(120);
        let (e2, z2) = split(scaled);
        e = e2 - 120;
        z = z2;
    }
    let j = round_even_i64((z - 1.0) * 128.0) as usize; // 0..=128
    let f = 1.0 + j as f64 / 128.0;
    let num = z - f; // exact: same binade, shared grid
    // u = num / f as a double-double via a Newton residual step.
    let u_hi = num / f;
    let res = (-u_hi).mul_add(f, num); // exact residual via FMA
    let u = Dd::new(u_hi, res / f);
    (e, j, log1p_poly(u))
}

/// Kernel: `ln(x)` for finite positive `x`, as a double-double.
pub(crate) fn ln_kernel(x: f64) -> Dd {
    let (e, j, p) = reduce(x);
    let ef = e as f64;
    // e * LN2_HI42 is exact (42-bit constant, |e| <= 2^11).
    let (fh, fl) = t::LN_F.entry(j);
    let (s, se) = two_sum(ef * t::LN2_HI42, fh);
    let lo = se + fl + ef * t::LN2_MID + ef * t::LN2_LO42;
    Dd::new(s, lo).add(p)
}

/// Kernel: `log2(x)`.
pub(crate) fn log2_kernel(x: f64) -> Dd {
    let (e, j, p) = reduce(x);
    // log2(x) = e + table[j] + p / ln2; e is an exact integer.
    let (fh, fl) = t::LOG2_F.entry(j);
    let (s, se) = two_sum(e as f64, fh);
    let scaled = p.mul(Dd { hi: t::INV_LN2_HI, lo: t::INV_LN2_LO });
    Dd::new(s, se + fl).add(scaled)
}

/// Kernel: `log10(x)`.
pub(crate) fn log10_kernel(x: f64) -> Dd {
    let (e, j, p) = reduce(x);
    let ef = e as f64;
    // e * log10(2) via an exact product split.
    let (eh, el) = two_prod(ef, t::LOG10_2_HI);
    let (fh, fl) = t::LOG10_F.entry(j);
    let (s, se) = two_sum(eh, fh);
    let scaled = p.mul(Dd { hi: t::INV_LN10_HI, lo: t::INV_LN10_LO });
    Dd::new(s, se + el + fl + ef * t::LOG10_2_LO).add(scaled)
}

/// The logarithms' special cases (NaN and negatives give NaN, zeros
/// `-inf`, `+inf` itself); every other input runs the row's `ladder`.
#[inline(always)]
fn log_entry(x: f32, ladder: impl FnOnce(f64) -> f32) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    if x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 {
        return f32::NEG_INFINITY;
    }
    if x == f32::INFINITY {
        return f32::INFINITY;
    }
    ladder(x as f64)
}

/// dd-only front end (tier 2 alone), kept for the `*_dd` reference
/// entry points that the bit-identity tests and benches compare against.
#[inline(always)]
fn log_front_dd(x: f32, kernel: impl Fn(f64) -> Dd) -> f32 {
    if x.is_nan() {
        return f32::NAN;
    }
    if x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 {
        return f32::NEG_INFINITY;
    }
    if x == f32::INFINITY {
        return f32::INFINITY;
    }
    crate::round::round_dd_f32(kernel(x as f64))
}

/// Correctly rounded natural logarithm for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::ln(1.0f32), 0.0);
/// assert_eq!(rlibm_math::ln(0.0f32), f32::NEG_INFINITY);
/// assert!(rlibm_math::ln(-1.0f32).is_nan());
/// assert_eq!(rlibm_math::ln(0.1f32), -2.3025851f32);
/// ```
pub fn ln(x: f32) -> f32 {
    log_entry(x, f32_ladder::ln)
}

/// `ln` through the double-double kernel only (no fast path).
pub fn ln_dd(x: f32) -> f32 {
    log_front_dd(x, ln_kernel)
}

/// Correctly rounded base-2 logarithm for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::log2(8.0f32), 3.0);
/// // The smallest subnormal is an exact power of two:
/// assert_eq!(rlibm_math::log2(f32::from_bits(1)), -149.0);
/// ```
pub fn log2(x: f32) -> f32 {
    log_entry(x, f32_ladder::log2)
}

/// `log2` through the double-double kernel only (no fast path).
pub fn log2_dd(x: f32) -> f32 {
    log_front_dd(x, log2_kernel)
}

/// Correctly rounded base-10 logarithm for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::log10(100.0f32), 2.0);
/// assert_eq!(rlibm_math::log10(1e10f32), 10.0);
/// ```
pub fn log10(x: f32) -> f32 {
    log_entry(x, f32_ladder::log10)
}

/// `log10` through the double-double kernel only (no fast path).
pub fn log10_dd(x: f32) -> f32 {
    log_front_dd(x, log10_kernel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values() {
        for f in [ln, log2, log10] {
            assert!(f(f32::NAN).is_nan());
            assert!(f(-3.0).is_nan());
            assert_eq!(f(0.0), f32::NEG_INFINITY);
            assert_eq!(f(-0.0), f32::NEG_INFINITY);
            assert_eq!(f(f32::INFINITY), f32::INFINITY);
            assert_eq!(f(1.0), 0.0);
        }
    }

    #[test]
    fn exact_cases() {
        for k in -149..=127 {
            let x = 2f64.powi(k) as f32; // f32::powi underflows for subnormals
            assert_eq!(log2(x), k as f32, "log2(2^{k})");
        }
        for k in 0..=10 {
            assert_eq!(log10(10f32.powi(k)), k as f32, "log10(10^{k})");
        }
    }

    #[test]
    fn subnormal_inputs() {
        let x = f32::from_bits(1); // 2^-149
        assert_eq!(log2(x), -149.0);
        assert!(ln(x) < -103.0 && ln(x) > -104.0);
    }

    #[test]
    fn inverse_identities() {
        // exp(ln(x)) returns to x up to the f32 quantization of ln(x),
        // whose rounding is amplified by exp: tol ~ x * ulp(ln x) / 2.
        let mut x = 1e-30f32;
        while x < 1e30 {
            let l = ln(x);
            let y = crate::exp(l);
            let tol = 2.0 * rlibm_fp::bits::ulp_f32(x) as f64
                + (x as f64) * rlibm_fp::bits::ulp_f32(l) as f64 * 0.75;
            assert!(((y - x) as f64).abs() <= tol, "roundtrip at {x}: {y}");
            x *= 3.7;
        }
    }

    #[test]
    fn against_host_on_grid() {
        let mut x = 1e-35f64;
        while x < 1e35 {
            let ours = ln(x as f32) as f64;
            let host = (x as f32 as f64).ln();
            assert!((ours - host).abs() <= host.abs() * 1e-7 + 1e-9, "ln({x})");
            let o2 = log10(x as f32) as f64;
            let h2 = (x as f32 as f64).log10();
            assert!((o2 - h2).abs() <= h2.abs() * 1e-7 + 1e-9, "log10({x})");
            x *= 2.31;
        }
    }

    #[test]
    fn near_one_accuracy() {
        // The cancellation-prone region x slightly below 1.
        for i in 1..100u32 {
            let x = 1.0f32 - i as f32 * f32::EPSILON;
            let ours = ln(x) as f64;
            let host = (x as f64).ln();
            assert!(
                (ours - host).abs() <= host.abs() * 1e-7,
                "ln({x}) = {ours} vs {host}"
            );
        }
    }
}
