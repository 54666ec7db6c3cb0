//! Correctly rounded bfloat16 functions (the original RLIBM's 16-bit
//! target, kept because the full generation pipeline can be validated
//! *exhaustively* against them — see the workspace integration tests).
//!
//! Every bfloat16 widens exactly to `f64`; each function is its front end
//! at bfloat16's cuts ([`crate::front`]), then the shared dd kernel and
//! one [`crate::round::round_dd`] rounding.

use rlibm_fp::BFloat16;

use crate::front::reference;
use crate::kernel;

/// Correctly rounded natural logarithm for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let y = rlibm_math::bf16::ln_bf16(BFloat16::from_f64(1.0));
/// assert_eq!(y.to_f64(), 0.0);
/// ```
pub fn ln_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Ln>(x)
}

/// Correctly rounded base-2 logarithm for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let y = rlibm_math::bf16::log2_bf16(BFloat16::from_f64(8.0));
/// assert_eq!(y.to_f64(), 3.0);
/// ```
pub fn log2_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Log2>(x)
}

/// Correctly rounded base-10 logarithm for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let y = rlibm_math::bf16::log10_bf16(BFloat16::from_f64(100.0));
/// assert_eq!(y.to_f64(), 2.0);
/// ```
pub fn log10_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Log10>(x)
}

/// Correctly rounded `e^x` for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let y = rlibm_math::bf16::exp_bf16(BFloat16::from_f64(1.0));
/// assert_eq!(y.to_f64(), 2.71875);
/// ```
pub fn exp_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Exp>(x)
}

/// Correctly rounded `2^x` for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let y = rlibm_math::bf16::exp2_bf16(BFloat16::from_f64(-3.0));
/// assert_eq!(y.to_f64(), 0.125);
/// ```
pub fn exp2_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Exp2>(x)
}

/// Correctly rounded `10^x` for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let y = rlibm_math::bf16::exp10_bf16(BFloat16::from_f64(2.0));
/// assert_eq!(y.to_f64(), 100.0);
/// ```
pub fn exp10_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Exp10>(x)
}

/// Correctly rounded hyperbolic sine for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let z = rlibm_math::bf16::sinh_bf16(BFloat16::ZERO);
/// assert_eq!(z.to_f64(), 0.0);
/// ```
pub fn sinh_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Sinh>(x)
}

/// Correctly rounded hyperbolic cosine for bfloat16.
///
/// ```
/// use rlibm_fp::BFloat16;
/// let y = rlibm_math::bf16::cosh_bf16(BFloat16::ZERO);
/// assert_eq!(y.to_f64(), 1.0);
/// ```
pub fn cosh_bf16(x: BFloat16) -> BFloat16 {
    reference::<BFloat16, kernel::Cosh>(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials() {
        assert!(ln_bf16(BFloat16::from_f64(-2.0)).is_nan());
        assert_eq!(exp_bf16(BFloat16::NEG_INFINITY).to_f64(), 0.0);
        assert_eq!(exp_bf16(BFloat16::INFINITY).to_f64(), f64::INFINITY);
        assert!(cosh_bf16(BFloat16::NAN).is_nan());
    }

    #[test]
    fn saturation_thresholds_are_sound() {
        // Just inside the early exits the kernels must agree with them.
        assert_eq!(exp_bf16(BFloat16::from_f64(-93.0)).to_f64(), 0.0);
        assert!(exp_bf16(BFloat16::from_f64(-91.0)).to_f64() >= 0.0);
        // 2^-134 is exactly half the smallest subnormal: ties to even = 0.
        assert_eq!(exp2_bf16(BFloat16::from_f64(-134.0)).to_f64(), 0.0);
        assert_eq!(exp2_bf16(BFloat16::from_f64(-133.0)).to_f64(), 2f64.powi(-133));
    }

    #[test]
    fn against_host_samples() {
        for bits in (0x3C00u16..0x42A0).step_by(17) {
            let x = BFloat16::from_bits(bits);
            let ours = exp_bf16(x).to_f64();
            let host = x.to_f64().exp();
            assert!((ours - host).abs() <= host * 0.004, "exp({x})");
        }
    }
}
