//! The eight correctly rounded posit32 functions (the paper's Table 2 —
//! the first correctly rounded math library for 32-bit posits).
//!
//! Every posit32 widens exactly to `f64`; the shared double-double kernels
//! evaluate there and [`crate::round::round_dd`] performs the single
//! correct rounding back, honouring posit semantics: saturation at
//! `maxpos`/`minpos` instead of overflow/underflow (the exact property the
//! re-purposed double libraries get wrong in Table 2), and `NaR` for
//! domain errors.

use rlibm_posit::Posit32;

use crate::float::exp::{exp10_kernel, exp2_kernel, exp_kernel};
use crate::float::hyper::{cosh_kernel, sinh_kernel};
use crate::float::log::{ln_kernel, log10_kernel, log2_kernel};
use crate::round::round_dd;

/// `ln 2^120` — results beyond this saturate posit32's `maxpos = 2^120`.
/// The batched entry ([`crate::eval_slice_posit32`]) filters on the same
/// thresholds.
pub(crate) const LN_MAXPOS: f64 = 83.17766166719343;
/// `log10 2^120`.
pub(crate) const LOG10_MAXPOS: f64 = 36.123599478912376;

/// Common three-tier front end for the logarithm family: prefix
/// polynomial, full-degree plain-double kernel on escalation, dd only
/// when the posit safety test rejects both.
#[inline(always)]
fn log_front(
    x: Posit32,
    prefix: impl Fn(f64) -> f64,
    prefix_band: u64,
    fast: impl Fn(f64) -> f64,
    band: u64,
    slot: usize,
    kernel: impl Fn(f64) -> crate::dd::Dd,
) -> Posit32 {
    if x.is_nar() || x.is_zero() || x.is_negative() {
        // ln(0) = -inf and ln(negative) = NaN both map to NaR in posits.
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    let y = crate::fault::perturb(slot, prefix(xd));
    if crate::round::posit32_round_safe(y, prefix_band) {
        crate::stats::record_tier_prefix(slot);
        return Posit32::from_f64(y);
    }
    let y = fast(xd);
    if crate::round::posit32_round_safe(y, band) {
        crate::stats::record_tier_full(slot);
        return Posit32::from_f64(y);
    }
    crate::stats::record_fallback(slot);
    round_dd(kernel(xd))
}

/// dd-only front end for the logarithm family (tier 2 alone).
#[inline(always)]
fn log_front_dd(x: Posit32, kernel: impl Fn(f64) -> crate::dd::Dd) -> Posit32 {
    if x.is_nar() || x.is_zero() || x.is_negative() {
        return Posit32::NAR;
    }
    round_dd(kernel(x.to_f64()))
}

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
    log_front(
        x,
        crate::fast::ln_prefix,
        crate::fast::LN_PREFIX_BAND,
        crate::fast::ln_fast,
        crate::fast::LN_BAND,
        crate::stats::slot::P32_LN,
        ln_kernel,
    )
}

/// `ln_p32` through the double-double kernel only (no fast path).
pub fn ln_p32_dd(x: Posit32) -> Posit32 {
    log_front_dd(x, ln_kernel)
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
    log_front(
        x,
        crate::fast::log2_prefix,
        crate::fast::LOG2_PREFIX_BAND,
        crate::fast::log2_fast,
        crate::fast::LOG2_BAND,
        crate::stats::slot::P32_LOG2,
        log2_kernel,
    )
}

/// `log2_p32` through the double-double kernel only (no fast path).
pub fn log2_p32_dd(x: Posit32) -> Posit32 {
    log_front_dd(x, log2_kernel)
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
    log_front(
        x,
        crate::fast::log10_prefix,
        crate::fast::LOG10_PREFIX_BAND,
        crate::fast::log10_fast,
        crate::fast::LOG10_BAND,
        crate::stats::slot::P32_LOG10,
        log10_kernel,
    )
}

/// `log10_p32` through the double-double kernel only (no fast path).
pub fn log10_p32_dd(x: Posit32) -> Posit32 {
    log_front_dd(x, log10_kernel)
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
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd > LN_MAXPOS + 0.5 {
        return Posit32::MAXPOS;
    }
    if xd < -(LN_MAXPOS + 0.5) {
        return Posit32::MINPOS;
    }
    let y = crate::fault::perturb(crate::stats::slot::P32_EXP, crate::fast::exp_prefix(xd));
    if crate::round::posit32_round_safe(y, crate::fast::EXP_PREFIX_BAND) {
        crate::stats::record_tier_prefix(crate::stats::slot::P32_EXP);
        return Posit32::from_f64(y);
    }
    let y = crate::fast::exp_fast(xd);
    if crate::round::posit32_round_safe(y, crate::fast::EXP_BAND) {
        crate::stats::record_tier_full(crate::stats::slot::P32_EXP);
        return Posit32::from_f64(y);
    }
    crate::stats::record_fallback(crate::stats::slot::P32_EXP);
    round_dd(exp_kernel(xd))
}

/// `exp_p32` through the double-double kernel only (no fast path).
pub fn exp_p32_dd(x: Posit32) -> Posit32 {
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd > LN_MAXPOS + 0.5 {
        return Posit32::MAXPOS;
    }
    if xd < -(LN_MAXPOS + 0.5) {
        return Posit32::MINPOS;
    }
    round_dd(exp_kernel(xd))
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
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd > 120.5 {
        return Posit32::MAXPOS;
    }
    if xd < -120.5 {
        return Posit32::MINPOS;
    }
    let y = crate::fault::perturb(crate::stats::slot::P32_EXP2, crate::fast::exp2_prefix(xd));
    if crate::round::posit32_round_safe(y, crate::fast::EXP2_PREFIX_BAND) {
        crate::stats::record_tier_prefix(crate::stats::slot::P32_EXP2);
        return Posit32::from_f64(y);
    }
    let y = crate::fast::exp2_fast(xd);
    if crate::round::posit32_round_safe(y, crate::fast::EXP2_BAND) {
        crate::stats::record_tier_full(crate::stats::slot::P32_EXP2);
        return Posit32::from_f64(y);
    }
    crate::stats::record_fallback(crate::stats::slot::P32_EXP2);
    round_dd(exp2_kernel(xd))
}

/// `exp2_p32` through the double-double kernel only (no fast path).
pub fn exp2_p32_dd(x: Posit32) -> Posit32 {
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd > 120.5 {
        return Posit32::MAXPOS;
    }
    if xd < -120.5 {
        return Posit32::MINPOS;
    }
    round_dd(exp2_kernel(xd))
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
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd > LOG10_MAXPOS + 0.5 {
        return Posit32::MAXPOS;
    }
    if xd < -(LOG10_MAXPOS + 0.5) {
        return Posit32::MINPOS;
    }
    let y = crate::fault::perturb(crate::stats::slot::P32_EXP10, crate::fast::exp10_prefix(xd));
    if crate::round::posit32_round_safe(y, crate::fast::EXP10_PREFIX_BAND) {
        crate::stats::record_tier_prefix(crate::stats::slot::P32_EXP10);
        return Posit32::from_f64(y);
    }
    let y = crate::fast::exp10_fast(xd);
    if crate::round::posit32_round_safe(y, crate::fast::EXP10_BAND) {
        crate::stats::record_tier_full(crate::stats::slot::P32_EXP10);
        return Posit32::from_f64(y);
    }
    crate::stats::record_fallback(crate::stats::slot::P32_EXP10);
    round_dd(exp10_kernel(xd))
}

/// `exp10_p32` through the double-double kernel only (no fast path).
pub fn exp10_p32_dd(x: Posit32) -> Posit32 {
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd > LOG10_MAXPOS + 0.5 {
        return Posit32::MAXPOS;
    }
    if xd < -(LOG10_MAXPOS + 0.5) {
        return Posit32::MINPOS;
    }
    round_dd(exp10_kernel(xd))
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
    if x.is_nar() {
        return Posit32::NAR;
    }
    if x.is_zero() {
        return Posit32::ZERO;
    }
    let xd = x.to_f64();
    if xd > LN_MAXPOS + 1.5 {
        return Posit32::MAXPOS;
    }
    if xd < -(LN_MAXPOS + 1.5) {
        return -Posit32::MAXPOS;
    }
    // |x| < 2^-13: sinh(x) - x = x³/6 + ... is below half the posit
    // quantum (<= 24 fraction bits out here), so sinh(x) rounds to x.
    if xd.abs() < 2f64.powi(-13) {
        return x;
    }
    let y = crate::fault::perturb(crate::stats::slot::P32_SINH, crate::fast::sinh_prefix(xd));
    if crate::round::posit32_round_safe(y, crate::fast::SINH_PREFIX_BAND) {
        crate::stats::record_tier_prefix(crate::stats::slot::P32_SINH);
        return Posit32::from_f64(y);
    }
    let y = crate::fast::sinh_fast(xd);
    if crate::round::posit32_round_safe(y, crate::fast::SINH_BAND) {
        crate::stats::record_tier_full(crate::stats::slot::P32_SINH);
        return Posit32::from_f64(y);
    }
    crate::stats::record_fallback(crate::stats::slot::P32_SINH);
    round_dd(sinh_kernel(xd))
}

/// `sinh_p32` through the double-double kernel only (no fast path).
pub fn sinh_p32_dd(x: Posit32) -> Posit32 {
    if x.is_nar() {
        return Posit32::NAR;
    }
    if x.is_zero() {
        return Posit32::ZERO;
    }
    let xd = x.to_f64();
    if xd > LN_MAXPOS + 1.5 {
        return Posit32::MAXPOS;
    }
    if xd < -(LN_MAXPOS + 1.5) {
        return -Posit32::MAXPOS;
    }
    round_dd(sinh_kernel(xd))
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
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd.abs() > LN_MAXPOS + 1.5 {
        return Posit32::MAXPOS;
    }
    let y = crate::fault::perturb(crate::stats::slot::P32_COSH, crate::fast::cosh_prefix(xd));
    if crate::round::posit32_round_safe(y, crate::fast::COSH_PREFIX_BAND) {
        crate::stats::record_tier_prefix(crate::stats::slot::P32_COSH);
        return Posit32::from_f64(y);
    }
    let y = crate::fast::cosh_fast(xd);
    if crate::round::posit32_round_safe(y, crate::fast::COSH_BAND) {
        crate::stats::record_tier_full(crate::stats::slot::P32_COSH);
        return Posit32::from_f64(y);
    }
    crate::stats::record_fallback(crate::stats::slot::P32_COSH);
    round_dd(cosh_kernel(xd))
}

/// `cosh_p32` through the double-double kernel only (no fast path).
pub fn cosh_p32_dd(x: Posit32) -> Posit32 {
    if x.is_nar() {
        return Posit32::NAR;
    }
    let xd = x.to_f64();
    if xd.abs() > LN_MAXPOS + 1.5 {
        return Posit32::MAXPOS;
    }
    round_dd(cosh_kernel(xd))
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
