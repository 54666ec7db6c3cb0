//! Baseline library models for the paper's comparisons (Table 1, Table 2,
//! Figures 3 and 4).
//!
//! The paper compares RLIBM-32 against Intel libm, glibc libm (float and
//! double), CR-LIBM and MetaLibm. None of those can be linked here, so
//! this module implements one representative of each *failure class* the
//! evaluation depends on:
//!
//! * [`float32`] — a mainstream "single-precision libm": double-precision
//!   arithmetic inside (like glibc's `expf`/`sinf`), but with a cheap
//!   table-free reduction and mini-max-style polynomial whose total error
//!   (~2^-30 relative) leaves the result wrong for roughly one input in
//!   10^4–10^6, matching the X(1.7E5)…X(3.0E7) counts of Table 1.
//! * [`double64`] — "re-purposing a double library": the host's `f64`
//!   functions rounded down to the target. Almost correct for floats
//!   (double rounding bites on a handful of inputs) and badly wrong for
//!   posits (overflow to `inf` becomes NaR, underflow to `0` loses
//!   `minpos` — the Table 2 failure mode with hundreds of millions of
//!   wrong results).
//! * [`crlibm`] — a correctly rounded *double* library: our own
//!   double-double kernels plus a Ziv-style confirmation pass (the source
//!   of CR-LIBM's ~2x slowdown), rounded first to double and then to the
//!   target — correct in double, wrong for float exactly on the
//!   double-rounding cases.

/// The model of a mainstream single-precision libm.
pub mod float32 {
    use crate::lane::round_even_i64;

    /// `e^x`: cheap reduction + degree-5 polynomial, no lookup table.
    pub fn exp(x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        if x > 89.0 {
            return f32::INFINITY;
        }
        if x < -106.0 {
            return 0.0;
        }
        let xd = x as f64;
        let k = round_even_i64(xd * core::f64::consts::LOG2_E);
        let r = xd - k as f64 * core::f64::consts::LN_2; // one rounding: ~2^-53 abs
        // Degree-5 Taylor: truncation ~r^6/720 ~ 2^-33 relative.
        let p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r / 120.0))));
        (p * super::pow2_f64(k)) as f32
    }

    /// `2^x` via `exp(x ln 2)` (compounding the reduction error).
    pub fn exp2(x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        if x >= 128.0 {
            return f32::INFINITY;
        }
        if x < -151.0 {
            return 0.0;
        }
        let xd = x as f64;
        let k = round_even_i64(xd);
        let r = (xd - k as f64) * core::f64::consts::LN_2;
        let p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r / 120.0))));
        (p * super::pow2_f64(k)) as f32
    }

    /// `10^x` via `2^(x log2 10)`.
    pub fn exp10(x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        if x > 38.6 {
            return f32::INFINITY;
        }
        if x < -45.5 {
            return 0.0;
        }
        let xd = x as f64 * core::f64::consts::LOG2_10; // rounding here hurts
        let k = round_even_i64(xd);
        let r = (xd - k as f64) * core::f64::consts::LN_2;
        let p = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r / 120.0))));
        (p * super::pow2_f64(k)) as f32
    }

    /// `ln`: atanh-series over the full `[1, 2)` mantissa (no table).
    pub fn ln(x: f32) -> f32 {
        if x.is_nan() || x < 0.0 {
            return f32::NAN;
        }
        if x == 0.0 {
            return f32::NEG_INFINITY;
        }
        if x.is_infinite() {
            return f32::INFINITY;
        }
        let xd = x as f64;
        let bits = xd.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let mut z = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
        let mut e = e;
        if z > core::f64::consts::SQRT_2 {
            z *= 0.5;
            e += 1;
        }
        // ln z = 2 atanh(s), s = (z-1)/(z+1), |s| <= 0.172; degree 9 odd:
        // truncation ~s^11/11 ~ 2^-31.5 relative.
        let s = (z - 1.0) / (z + 1.0);
        let s2 = s * s;
        let p = 2.0 * s * (1.0 + s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * (1.0 / 7.0 + s2 / 9.0))));
        (e as f64 * core::f64::consts::LN_2 + p) as f32
    }

    /// `log2` via `ln / ln 2`.
    pub fn log2(x: f32) -> f32 {
        if x.is_nan() || x < 0.0 {
            return f32::NAN;
        }
        if x == 0.0 {
            return f32::NEG_INFINITY;
        }
        if x.is_infinite() {
            return f32::INFINITY;
        }
        let xd = x as f64;
        let bits = xd.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let z = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
        let s = (z - 1.0) / (z + 1.0);
        let s2 = s * s;
        let p = 2.0 * s * (1.0 + s2 * (1.0 / 3.0 + s2 * (1.0 / 5.0 + s2 * (1.0 / 7.0 + s2 / 9.0))));
        (e as f64 + p * core::f64::consts::LOG2_E) as f32
    }

    /// `log10` via `ln / ln 10`.
    pub fn log10(x: f32) -> f32 {
        if x.is_nan() || x < 0.0 {
            return f32::NAN;
        }
        if x == 0.0 {
            return f32::NEG_INFINITY;
        }
        if x.is_infinite() {
            return f32::INFINITY;
        }
        let l = ln(x) as f64; // two roundings stacked: visibly wrong often
        (l / core::f64::consts::LN_10) as f32
    }

    /// `sinh` from two exponentials (cancellation below 1 is unprotected
    /// beyond a linear shortcut — a classic float-libm shape).
    pub fn sinh(x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        if x.abs() < 6e-4 {
            return x;
        }
        if x > 90.0 {
            return f32::INFINITY;
        }
        if x < -90.0 {
            return f32::NEG_INFINITY;
        }
        let a = exp(x.abs()) as f64;
        let v = 0.5 * (a - 1.0 / a);
        if x < 0.0 {
            (-v) as f32
        } else {
            v as f32
        }
    }

    /// `cosh` from two exponentials.
    pub fn cosh(x: f32) -> f32 {
        if x.is_nan() {
            return f32::NAN;
        }
        if x.abs() > 90.0 {
            return f32::INFINITY;
        }
        let a = exp(x.abs()) as f64;
        (0.5 * (a + 1.0 / a)) as f32
    }

    /// `sin(pi x)` with a plain `pi * x` and the host sine.
    pub fn sinpi(x: f32) -> f32 {
        if x.is_nan() || x.is_infinite() {
            return f32::NAN;
        }
        let a = x as f64;
        if a.abs() >= 8_388_608.0 {
            return 0.0;
        }
        // pi*x rounds before the sine: the paper's Intel column shape.
        ((core::f64::consts::PI * a).sin()) as f32
    }

    /// `cos(pi x)` likewise.
    pub fn cospi(x: f32) -> f32 {
        if x.is_nan() || x.is_infinite() {
            return f32::NAN;
        }
        let a = (x as f64).abs();
        if a >= 16_777_216.0 {
            return 1.0;
        }
        ((core::f64::consts::PI * a).cos()) as f32
    }
}

/// `2^k` handling the subnormal tail by two-step scaling.
fn pow2_f64(k: i64) -> f64 {
    if (-1022..=1023).contains(&k) {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else if k > 1023 {
        f64::INFINITY
    } else {
        f64::from_bits((1u64 << 52).wrapping_add(0)) * 0.0 + 2f64.powi(k as i32)
    }
}

/// The model of "re-purpose a double-precision library".
pub mod double64 {
    use rlibm_posit::Posit32;

    /// Dispatches to the host double libm by function index (the order of
    /// [`rlibm_mp::Func::ALL`], but without depending on that crate).
    /// Unknown names yield NaN — the baseline model stays total.
    pub fn eval_f64(name: &str, x: f64) -> f64 {
        match name {
            "ln" => x.ln(),
            "log2" => x.log2(),
            "log10" => x.log10(),
            "exp" => x.exp(),
            "exp2" => x.exp2(),
            "exp10" => 10f64.powf(x),
            "sinh" => x.sinh(),
            "cosh" => x.cosh(),
            "sinpi" => (core::f64::consts::PI * x).sin(),
            "cospi" => (core::f64::consts::PI * x).cos(),
            _ => f64::NAN,
        }
    }

    /// Double result rounded to `f32` — the double-rounding failure mode.
    pub fn to_f32(name: &str, x: f32) -> f32 {
        eval_f64(name, x as f64) as f32
    }

    /// Double result rounded to posit32 — the saturation failure mode
    /// (overflow -> inf -> NaR; underflow -> 0 instead of minpos).
    pub fn to_posit32(name: &str, x: Posit32) -> Posit32 {
        if x.is_nar() {
            return Posit32::NAR;
        }
        Posit32::from_f64(eval_f64(name, x.to_f64()))
    }
}

/// The model of CR-LIBM: correctly rounded in *double*, then rounded to
/// the target (plus the Ziv confirmation pass that costs the ~2x of
/// Figure 3c).
pub mod crlibm {
    use crate::dd::Dd;
    use crate::float::exp::{exp10_kernel, exp2_kernel, exp_kernel};
    use crate::float::hyper::{cosh_kernel, sinh_kernel};
    use crate::float::log::{ln_kernel, log10_kernel, log2_kernel};

    fn kernel(name: &str, x: f64) -> Option<Dd> {
        Some(match name {
            "ln" => ln_kernel(x),
            "log2" => log2_kernel(x),
            "log10" => log10_kernel(x),
            "exp" => exp_kernel(x),
            "exp2" => exp2_kernel(x),
            "exp10" => exp10_kernel(x),
            "sinh" => sinh_kernel(x),
            "cosh" => cosh_kernel(x),
            _ => return None,
        })
    }

    /// Correctly rounded double, then cast: wrong for f32 exactly on
    /// double-rounding cases. The Ziv-style confirmation re-evaluates and
    /// cross-checks (mirroring CR-LIBM's two-phase cost profile).
    pub fn to_f32(name: &str, x: f32) -> f32 {
        let xd = x as f64;
        if !in_domain(name, xd) {
            return super::double64::to_f32(name, x);
        }
        // in_domain() only admits the eight kernel names, so both lookups
        // succeed; fall back to the double64 model otherwise to stay total.
        let (Some(first), Some(second)) = (kernel(name, xd), kernel(name, xd)) else {
            return super::double64::to_f32(name, x);
        };
        let d = first.to_f64();
        // Confirmation pass (the second onion layer).
        assert!(d == second.to_f64(), "Ziv confirmation must agree");
        d as f32 // double rounding: the Table 1 CR-LIBM column
    }

    fn in_domain(name: &str, x: f64) -> bool {
        match name {
            "ln" | "log2" | "log10" => x.is_finite() && x > 0.0,
            "exp" | "exp2" | "exp10" => x.is_finite() && x.abs() < 300.0,
            "sinh" | "cosh" => x.is_finite() && x.abs() < 90.0,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_posit::Posit32;

    #[test]
    fn float32_baseline_is_usually_right_but_not_always() {
        // Accuracy must be good enough to look plausible...
        let mut wrong = 0u32;
        let mut total = 0u32;
        for i in 0..200_000u32 {
            let x = f32::from_bits(0x3D80_0000 + i * 16); // spread over [~0.06, ~1)
            let base = float32::exp(x);
            let ours = crate::exp(x);
            total += 1;
            if base != ours {
                wrong += 1;
            }
        }
        // ...but a visible fraction of inputs must misround (Table 1).
        assert!(wrong > 0, "the float baseline should misround somewhere");
        assert!(wrong < total / 50, "but not be garbage ({wrong}/{total})");
    }

    #[test]
    fn double64_posit_fails_on_saturation() {
        let big = Posit32::from_f64(1000.0);
        let naive = double64::to_posit32("exp", big);
        // exp(1000) overflows f64 -> inf -> NaR: the Table 2 failure.
        assert!(naive.is_nar());
        // The correct answer saturates:
        assert_eq!(crate::posit::exp_p32(big), Posit32::MAXPOS);
        // Underflow loses minpos:
        let neg = Posit32::from_f64(-1000.0);
        assert!(double64::to_posit32("exp", neg).is_zero());
        assert_eq!(crate::posit::exp_p32(neg), Posit32::MINPOS);
    }

    #[test]
    fn crlibm_is_correct_in_double_but_double_rounds() {
        // On generic inputs it matches our correctly rounded f32...
        let mut agree = 0;
        for i in 0..1000 {
            let x = 0.5f32 + i as f32 * 0.001;
            if crlibm::to_f32("exp", x) == crate::exp(x) {
                agree += 1;
            }
        }
        assert!(agree >= 999, "CR-LIBM repurposing is almost always right");
    }

    #[test]
    fn pow2_f64_range() {
        assert_eq!(pow2_f64(10), 1024.0);
        assert_eq!(pow2_f64(-1030), 2f64.powi(-1030));
        assert_eq!(pow2_f64(2000), f64::INFINITY);
    }
}
