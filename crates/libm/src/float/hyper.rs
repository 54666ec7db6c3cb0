//! Hyperbolic functions: `sinh`, `cosh`.
//!
//! Output compensation for these needs *two* elementary function values —
//! the paper's Algorithm 2 case: `sinh(x) = (A - 1/A)/2` and
//! `cosh(x) = (A + 1/A)/2` with `A = e^x`. Above `|x| = 2^-8` the
//! subtraction cancels at most ~8 bits, which the double-double carries
//! comfortably; below it `sinh` switches to its odd Taylor series (no
//! cancellation, relative accuracy down to the smallest subnormals).

use crate::dd::{two_prod, Dd};
use crate::float::exp::exp_kernel;
use crate::registry::f32_entry;

/// Kernel: `sinh(x)` for finite `|x| <= 91`.
pub(crate) fn sinh_kernel(x: f64) -> Dd {
    let a = x.abs();
    let v = if a < 0.00390625 {
        // |x| < 2^-8: x + x^3/6 + x^5/120 + x^7/5040, tail in plain double.
        let x2 = a * a;
        let tail = a * x2 * (1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (1.0 / 5040.0)));
        Dd::new(a, tail)
    } else {
        let big = exp_kernel(a);
        let inv = big.recip();
        big.add(inv.neg()).scale(0.5)
    };
    if x < 0.0 {
        v.neg()
    } else {
        v
    }
}

/// Kernel: `cosh(x)` for finite `|x| <= 91`.
pub(crate) fn cosh_kernel(x: f64) -> Dd {
    let a = x.abs();
    if a < 0.00390625 {
        // 1 + x^2/2 + x^4/24 (x^2/2 in double-double, the rest tiny).
        let (p, e) = two_prod(a, a);
        let x2 = Dd::new(p, e);
        let head = Dd::from_f64(1.0).add(x2.scale(0.5));
        head.add_f64(p * p * (1.0 / 24.0))
    } else {
        let big = exp_kernel(a);
        let inv = big.recip();
        big.add(inv).scale(0.5)
    }
}

/// Correctly rounded hyperbolic sine for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::sinh(0.0f32), 0.0);
/// assert_eq!(rlibm_math::sinh(-0.0f32), -0.0);
/// assert_eq!(rlibm_math::sinh(1.0f32), 1.1752012f32);
/// assert_eq!(rlibm_math::sinh(f32::INFINITY), f32::INFINITY);
/// ```
pub fn sinh(x: f32) -> f32 {
    f32_entry::sinh(x)
}

/// Correctly rounded hyperbolic cosine for `f32`.
///
/// # Example
///
/// ```
/// assert_eq!(rlibm_math::cosh(0.0f32), 1.0);
/// assert_eq!(rlibm_math::cosh(1.0f32), 1.5430807f32);
/// assert_eq!(rlibm_math::cosh(f32::NEG_INFINITY), f32::INFINITY);
/// ```
pub fn cosh(x: f32) -> f32 {
    f32_entry::cosh(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_values() {
        assert!(sinh(f32::NAN).is_nan());
        assert!(cosh(f32::NAN).is_nan());
        assert_eq!(sinh(f32::INFINITY), f32::INFINITY);
        assert_eq!(sinh(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(cosh(f32::NEG_INFINITY), f32::INFINITY);
        assert_eq!(cosh(0.0), 1.0);
        assert_eq!(sinh(0.0).to_bits(), 0);
        assert_eq!(sinh(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn odd_even_symmetry() {
        for &x in &[0.001f32, 0.1, 1.7, 10.0, 50.0] {
            assert_eq!(sinh(-x), -sinh(x));
            assert_eq!(cosh(-x), cosh(x));
        }
    }

    #[test]
    fn tiny_inputs_are_linear() {
        // sinh(x) rounds to x for tiny x; cosh rounds to 1.
        for &x in &[1e-20f32, 2e-30, f32::from_bits(1), f32::MIN_POSITIVE] {
            assert_eq!(sinh(x), x, "sinh({x:e})");
            assert_eq!(cosh(x), 1.0);
        }
    }

    #[test]
    fn overflow_boundary() {
        assert_eq!(sinh(89.5f32), f32::INFINITY);
        assert!(sinh(88.0f32).is_finite());
        assert_eq!(cosh(89.5f32), f32::INFINITY);
    }

    #[test]
    fn identity_cosh2_minus_sinh2() {
        // cosh^2 - sinh^2 == 1, checked in dd at kernel level.
        for &x in &[0.5f64, 2.0, 10.5, 0.002] {
            let s = sinh_kernel(x);
            let c = cosh_kernel(x);
            let id = c.mul(c).add(s.mul(s).neg());
            assert!((id.to_f64() - 1.0).abs() < 1e-25, "x = {x}");
        }
    }

    #[test]
    fn against_host() {
        let mut x = -85.0f32;
        while x < 85.0 {
            let hs = (x as f64).sinh();
            let hc = (x as f64).cosh();
            assert!(((sinh(x) as f64) - hs).abs() <= hs.abs() * 1e-7 + 1e-45, "sinh({x})");
            assert!(((cosh(x) as f64) - hc).abs() <= hc * 1e-7, "cosh({x})");
            x += 0.73;
        }
    }
}
