//! Correctly rounded posit16 functions — the *original* RLIBM's posit
//! target (the paper extends that work to 32 bits). With only 65 536
//! patterns, every function is validated exhaustively in the workspace
//! tests, the same end-to-end guarantee the 16-bit RLIBM paper made.
//! Each is its front end at posit16's cuts ([`crate::front`]), then the
//! shared dd kernel and one correct rounding.

use rlibm_posit::Posit16;

use crate::front::reference;
use crate::kernel;

/// Correctly rounded natural logarithm for posit16.
///
/// ```
/// use rlibm_posit::Posit16;
/// assert_eq!(rlibm_math::p16::ln_p16(Posit16::ONE).to_f64(), 0.0);
/// assert!(rlibm_math::p16::ln_p16(Posit16::ZERO).is_nar());
/// ```
pub fn ln_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Ln>(x)
}

/// Correctly rounded base-2 logarithm for posit16.
///
/// ```
/// use rlibm_posit::Posit16;
/// let y = rlibm_math::p16::log2_p16(Posit16::from_f64(8.0));
/// assert_eq!(y.to_f64(), 3.0);
/// ```
pub fn log2_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Log2>(x)
}

/// Correctly rounded base-10 logarithm for posit16.
///
/// ```
/// use rlibm_posit::Posit16;
/// let y = rlibm_math::p16::log10_p16(Posit16::from_f64(100.0));
/// assert_eq!(y.to_f64(), 2.0);
/// ```
pub fn log10_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Log10>(x)
}

/// Correctly rounded `e^x` for posit16 (saturating).
///
/// ```
/// use rlibm_posit::Posit16;
/// assert_eq!(rlibm_math::p16::exp_p16(Posit16::ZERO), Posit16::ONE);
/// let big = Posit16::from_f64(100.0);
/// assert_eq!(rlibm_math::p16::exp_p16(big), Posit16::MAXPOS);
/// ```
pub fn exp_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Exp>(x)
}

/// Correctly rounded `2^x` for posit16.
///
/// ```
/// use rlibm_posit::Posit16;
/// let y = rlibm_math::p16::exp2_p16(Posit16::from_f64(-3.0));
/// assert_eq!(y.to_f64(), 0.125);
/// ```
pub fn exp2_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Exp2>(x)
}

/// Correctly rounded `10^x` for posit16.
///
/// ```
/// use rlibm_posit::Posit16;
/// let y = rlibm_math::p16::exp10_p16(Posit16::from_f64(2.0));
/// assert_eq!(y.to_f64(), 100.0);
/// ```
pub fn exp10_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Exp10>(x)
}

/// Correctly rounded hyperbolic sine for posit16.
///
/// ```
/// use rlibm_posit::Posit16;
/// assert_eq!(rlibm_math::p16::sinh_p16(Posit16::ZERO), Posit16::ZERO);
/// ```
pub fn sinh_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Sinh>(x)
}

/// Correctly rounded hyperbolic cosine for posit16.
///
/// ```
/// use rlibm_posit::Posit16;
/// assert_eq!(rlibm_math::p16::cosh_p16(Posit16::ZERO), Posit16::ONE);
/// ```
pub fn cosh_p16(x: Posit16) -> Posit16 {
    reference::<Posit16, kernel::Cosh>(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials() {
        for f in [ln_p16, log2_p16, log10_p16] {
            assert!(f(Posit16::NAR).is_nar());
            assert!(f(Posit16::ZERO).is_nar());
            assert!(f(Posit16::from_f64(-2.0)).is_nar());
        }
        assert_eq!(exp_p16(Posit16::ZERO), Posit16::ONE);
        assert_eq!(cosh_p16(Posit16::ZERO), Posit16::ONE);
    }

    #[test]
    fn saturation() {
        assert_eq!(exp_p16(Posit16::MAXPOS), Posit16::MAXPOS);
        assert_eq!(exp_p16(-Posit16::MAXPOS), Posit16::MINPOS);
        assert_eq!(exp2_p16(Posit16::from_f64(30.0)), Posit16::MAXPOS);
        assert_eq!(sinh_p16(Posit16::from_f64(-25.0)), -Posit16::MAXPOS);
    }

    #[test]
    fn exact_powers() {
        assert_eq!(log2_p16(Posit16::MAXPOS).to_f64(), 28.0);
        assert_eq!(log2_p16(Posit16::MINPOS).to_f64(), -28.0);
        assert_eq!(exp2_p16(Posit16::from_f64(10.0)).to_f64(), 1024.0);
        assert_eq!(exp10_p16(Posit16::from_f64(3.0)).to_f64(), 1000.0);
    }
}
