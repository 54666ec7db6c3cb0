//! The eight correctly rounded posit32 functions (the paper's Table 2 —
//! the first correctly rounded math library for 32-bit posits).
//!
//! Every posit32 widens exactly to `f64` and runs the f32 functions'
//! kernels and front ends ([`crate::front`]), at posit32's own cuts and
//! with posit semantics: saturation at `maxpos`/`minpos` instead of
//! overflow/underflow (the exact property the re-purposed double
//! libraries get wrong in Table 2), and `NaR` for domain errors.

use rlibm_posit::Posit32;

use crate::registry::posit32_entry;

/// Correctly rounded natural logarithm for posit32.
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// let e = Posit32::from_f64(core::f64::consts::E);
/// let y = rlibm_math::posit::ln_p32(e);
/// assert!((y.to_f64() - 1.0).abs() < 1e-7);
/// assert!(rlibm_math::posit::ln_p32(Posit32::ZERO).is_nar());
/// ```
pub fn ln_p32(x: Posit32) -> Posit32 {
    posit32_entry::ln(x)
}

/// Correctly rounded base-2 logarithm for posit32.
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// let y = rlibm_math::posit::log2_p32(Posit32::from_f64(8.0));
/// assert_eq!(y.to_f64(), 3.0);
/// ```
pub fn log2_p32(x: Posit32) -> Posit32 {
    posit32_entry::log2(x)
}

/// Correctly rounded base-10 logarithm for posit32.
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// let y = rlibm_math::posit::log10_p32(Posit32::from_f64(1000.0));
/// assert_eq!(y.to_f64(), 3.0);
/// ```
pub fn log10_p32(x: Posit32) -> Posit32 {
    posit32_entry::log10(x)
}

/// Correctly rounded `e^x` for posit32 (saturating, never NaR for real
/// inputs).
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// assert_eq!(rlibm_math::posit::exp_p32(Posit32::ZERO), Posit32::ONE);
/// // Saturation instead of overflow:
/// let big = Posit32::from_f64(1e6);
/// assert_eq!(rlibm_math::posit::exp_p32(big), Posit32::MAXPOS);
/// ```
pub fn exp_p32(x: Posit32) -> Posit32 {
    posit32_entry::exp(x)
}

/// Correctly rounded `2^x` for posit32.
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// let y = rlibm_math::posit::exp2_p32(Posit32::from_f64(10.0));
/// assert_eq!(y.to_f64(), 1024.0);
/// ```
pub fn exp2_p32(x: Posit32) -> Posit32 {
    posit32_entry::exp2(x)
}

/// Correctly rounded `10^x` for posit32.
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// let y = rlibm_math::posit::exp10_p32(Posit32::from_f64(3.0));
/// assert_eq!(y.to_f64(), 1000.0);
/// ```
pub fn exp10_p32(x: Posit32) -> Posit32 {
    posit32_entry::exp10(x)
}

/// Correctly rounded hyperbolic sine for posit32.
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// assert_eq!(rlibm_math::posit::sinh_p32(Posit32::ZERO), Posit32::ZERO);
/// let big = Posit32::from_f64(200.0);
/// assert_eq!(rlibm_math::posit::sinh_p32(big), Posit32::MAXPOS);
/// ```
pub fn sinh_p32(x: Posit32) -> Posit32 {
    posit32_entry::sinh(x)
}

/// Correctly rounded hyperbolic cosine for posit32.
///
/// # Example
///
/// ```
/// use rlibm_posit::Posit32;
/// assert_eq!(rlibm_math::posit::cosh_p32(Posit32::ZERO), Posit32::ONE);
/// ```
pub fn cosh_p32(x: Posit32) -> Posit32 {
    posit32_entry::cosh(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64) -> Posit32 {
        Posit32::from_f64(x)
    }

    #[test]
    fn nar_propagates() {
        for f in [ln_p32, log2_p32, log10_p32, exp_p32, exp2_p32, exp10_p32, sinh_p32, cosh_p32]
        {
            assert!(f(Posit32::NAR).is_nar());
        }
    }

    #[test]
    fn log_domain_errors_are_nar() {
        for f in [ln_p32, log2_p32, log10_p32] {
            assert!(f(Posit32::ZERO).is_nar());
            assert!(f(p(-1.0)).is_nar());
        }
    }

    #[test]
    fn saturation_no_overflow_or_underflow() {
        // The paper's Table 2 point: posits saturate; double libraries
        // overflow to inf (-> NaR) or underflow to 0. Ours must saturate.
        assert_eq!(exp_p32(p(100.0)), Posit32::MAXPOS);
        assert_eq!(exp_p32(p(-100.0)), Posit32::MINPOS);
        assert_eq!(exp_p32(Posit32::MAXPOS), Posit32::MAXPOS);
        assert_eq!(exp_p32(-Posit32::MAXPOS), Posit32::MINPOS);
        assert_eq!(exp2_p32(p(200.0)), Posit32::MAXPOS);
        assert_eq!(exp2_p32(p(-200.0)), Posit32::MINPOS);
        assert_eq!(exp10_p32(p(40.0)), Posit32::MAXPOS);
        assert_eq!(sinh_p32(p(-90.0)), -Posit32::MAXPOS);
        assert_eq!(cosh_p32(p(-90.0)), Posit32::MAXPOS);
    }

    #[test]
    fn tapered_precision_region() {
        use rlibm_fp::Representation;
        // Near 1.0 posit32 has MORE precision than f32 (27 fraction bits):
        // ln around 1 must honour the finer grid.
        let x = Posit32::ONE.next_up().unwrap();
        let y = ln_p32(x);
        // ln(1 + 2^-27) ~ 2^-27.
        assert!((y.to_f64() - 2f64.powi(-27)).abs() < 2f64.powi(-50));
    }

    #[test]
    fn extremes_of_log() {
        assert_eq!(log2_p32(Posit32::MAXPOS).to_f64(), 120.0);
        assert_eq!(log2_p32(Posit32::MINPOS).to_f64(), -120.0);
    }

    #[test]
    fn against_host() {
        let mut v = 1e-20f64;
        while v < 1e20 {
            let x = p(v);
            let xd = x.to_f64();
            let ours = ln_p32(x).to_f64();
            let host = xd.ln();
            assert!((ours - host).abs() <= host.abs() * 1e-8 + 1e-12, "ln({v:e})");
            v *= 9.7;
        }
    }
}
