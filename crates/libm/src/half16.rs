//! Correctly rounded IEEE binary16 ("half") functions. Like the bfloat16
//! set, small enough for exhaustive validation; unlike bfloat16, the
//! format has a narrow exponent range (±15) with a wide significand, so
//! its special-case thresholds ([`crate::front`]'s binary16 cuts) sit in
//! very different places — a useful stress on the front ends.

use rlibm_fp::Half;

use crate::front::reference;
use crate::kernel;

/// Correctly rounded natural logarithm for binary16.
///
/// ```
/// use rlibm_fp::Half;
/// assert_eq!(rlibm_math::half16::ln_f16(Half::ONE).to_f64(), 0.0);
/// ```
pub fn ln_f16(x: Half) -> Half {
    reference::<Half, kernel::Ln>(x)
}

/// Correctly rounded base-2 logarithm for binary16.
///
/// ```
/// use rlibm_fp::Half;
/// let y = rlibm_math::half16::log2_f16(Half::from_f64(8.0));
/// assert_eq!(y.to_f64(), 3.0);
/// ```
pub fn log2_f16(x: Half) -> Half {
    reference::<Half, kernel::Log2>(x)
}

/// Correctly rounded base-10 logarithm for binary16.
///
/// ```
/// use rlibm_fp::Half;
/// let y = rlibm_math::half16::log10_f16(Half::from_f64(100.0));
/// assert_eq!(y.to_f64(), 2.0);
/// ```
pub fn log10_f16(x: Half) -> Half {
    reference::<Half, kernel::Log10>(x)
}

/// Correctly rounded `e^x` for binary16 (overflows above `ln 65504+`).
///
/// ```
/// use rlibm_fp::Half;
/// assert_eq!(rlibm_math::half16::exp_f16(Half::ZERO).to_f64(), 1.0);
/// assert_eq!(rlibm_math::half16::exp_f16(Half::from_f64(12.0)).to_f64(), f64::INFINITY);
/// ```
pub fn exp_f16(x: Half) -> Half {
    reference::<Half, kernel::Exp>(x)
}

/// Correctly rounded `2^x` for binary16.
///
/// ```
/// use rlibm_fp::Half;
/// assert_eq!(rlibm_math::half16::exp2_f16(Half::from_f64(-3.0)).to_f64(), 0.125);
/// ```
pub fn exp2_f16(x: Half) -> Half {
    reference::<Half, kernel::Exp2>(x)
}

/// Correctly rounded `10^x` for binary16.
///
/// ```
/// use rlibm_fp::Half;
/// assert_eq!(rlibm_math::half16::exp10_f16(Half::from_f64(2.0)).to_f64(), 100.0);
/// ```
pub fn exp10_f16(x: Half) -> Half {
    reference::<Half, kernel::Exp10>(x)
}

/// Correctly rounded hyperbolic sine for binary16.
///
/// ```
/// use rlibm_fp::Half;
/// let z = rlibm_math::half16::sinh_f16(Half::ZERO);
/// assert_eq!(z.to_f64(), 0.0);
/// ```
pub fn sinh_f16(x: Half) -> Half {
    reference::<Half, kernel::Sinh>(x)
}

/// Correctly rounded hyperbolic cosine for binary16.
///
/// ```
/// use rlibm_fp::Half;
/// assert_eq!(rlibm_math::half16::cosh_f16(Half::ZERO).to_f64(), 1.0);
/// ```
pub fn cosh_f16(x: Half) -> Half {
    reference::<Half, kernel::Cosh>(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials() {
        assert!(ln_f16(Half::from_f64(-1.0)).is_nan());
        assert_eq!(ln_f16(Half::ZERO).to_f64(), f64::NEG_INFINITY);
        assert_eq!(exp_f16(Half::NEG_INFINITY).to_f64(), 0.0);
        assert!(cosh_f16(Half::NAN).is_nan());
    }

    #[test]
    fn overflow_boundaries() {
        // ln(65504) = 11.0899...: exp overflows just above.
        assert!(exp_f16(Half::from_f64(11.0)).is_finite());
        assert!(exp_f16(Half::from_f64(11.1)).is_infinite());
        assert!(exp2_f16(Half::from_f64(15.9)).is_finite());
        assert!(exp2_f16(Half::from_f64(16.0)).is_infinite());
    }

    #[test]
    fn subnormal_results() {
        // exp2(-24.5) lands among binary16 subnormals.
        let y = exp2_f16(Half::from_f64(-24.5));
        assert!(y.to_f64() > 0.0 && y.to_f64() < 2f64.powi(-14));
    }
}
