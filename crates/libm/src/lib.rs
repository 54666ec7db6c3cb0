//! # rlibm-math — the correctly rounded math library
//!
//! The runtime library produced by the RLIBM-32 approach (Lim &
//! Nagarakatte, PLDI 2021), reimplemented in Rust:
//!
//! * the **ten `f32` functions** of the paper's Table 1 — [`ln`],
//!   [`log2`], [`log10`], [`exp`], [`exp2`], [`exp10`], [`sinh`],
//!   [`cosh`], [`sinpi`], [`cospi`];
//! * the **eight posit32 functions** of Table 2 in [`posit`] — the first
//!   correctly rounded library for 32-bit posits;
//! * **bfloat16 functions** in [`bf16`] (exhaustively validated in the
//!   workspace tests);
//! * the **baseline models** in [`baselines`] used by the evaluation
//!   harnesses to reproduce the paper's comparisons.
//!
//! Every function follows the paper's published structure: special-case
//! filter, range reduction in double, table lookup, short polynomial,
//! output compensation — evaluated in **two tiers**. Tier 1 (the
//! private `fast` module) runs that structure in plain double with a statically
//! derived worst-case error band; a few integer ops on the result's
//! bit pattern ([`round::f32_round_safe`] / [`round::posit32_round_safe`])
//! certify the final cast is the correct rounding. The rare inputs
//! landing inside an unsafe band re-run the double-double kernels
//! ([`dd`]) with round-to-odd composition ([`round`]) — bit-identical
//! results, constructive accuracy argument, no double rounding. The
//! dd-only paths stay exported (`*_dd`) for certification sweeps, the
//! [`slice`] module batches tier 1 as structure-of-arrays chunks
//! ([`eval_slice_f32`] / [`eval_slice_posit32`]), and the
//! `fallback-counters` feature ([`stats`]) counts dd fallbacks for the
//! bench harnesses.
//!
//! # Quickstart
//!
//! ```
//! // float32:
//! assert_eq!(rlibm_math::log2(1024.0f32), 10.0);
//! assert_eq!(rlibm_math::sinpi(0.5f32), 1.0);
//!
//! // posit32:
//! use rlibm_posit::Posit32;
//! let x = Posit32::from_f64(2.0);
//! assert_eq!(rlibm_math::posit::log2_p32(x).to_f64(), 1.0);
//! ```

// Tests may round with the std methods; library code may not (clippy.toml).
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod baselines;
pub mod bf16;
pub mod dd;
pub(crate) mod fast;
pub mod fault;
pub mod float;
pub mod half16;
pub mod p16;
pub mod posit;
pub mod round;
pub mod slice;
pub mod stats;
pub mod tables;
pub mod tables_codec;
pub mod tiers;

pub use float::{cosh, cospi, exp, exp10, exp2, ln, log10, log2, sinh, sinpi};
pub use slice::{eval_slice_f32, eval_slice_posit32, UnknownFunction};

/// Resolves one of the ten f32 functions by its paper-table name, or
/// `None` for an unknown name. Harnesses resolve once and call through
/// the pointer (no string comparison in the timed loop).
pub fn f32_fn_by_name(name: &str) -> Option<fn(f32) -> f32> {
    Some(match name {
        "ln" => ln,
        "log2" => log2,
        "log10" => log10,
        "exp" => exp,
        "exp2" => exp2,
        "exp10" => exp10,
        "sinh" => sinh,
        "cosh" => cosh,
        "sinpi" => sinpi,
        "cospi" => cospi,
        _ => return None,
    })
}

/// Resolves the dd-only (tier 2) variant of an f32 function by name —
/// the reference implementation the two-tier fast path must match
/// bit-for-bit, and the baseline the benches measure the fast path
/// against.
pub fn f32_dd_fn_by_name(name: &str) -> Option<fn(f32) -> f32> {
    Some(match name {
        "ln" => float::log::ln_dd,
        "log2" => float::log::log2_dd,
        "log10" => float::log::log10_dd,
        "exp" => float::exp::exp_dd,
        "exp2" => float::exp::exp2_dd,
        "exp10" => float::exp::exp10_dd,
        "sinh" => float::hyper::sinh_dd,
        "cosh" => float::hyper::cosh_dd,
        "sinpi" => float::trig::sinpi_dd,
        "cospi" => float::trig::cospi_dd,
        _ => return None,
    })
}

/// Resolves a posit32 function by name (see [`f32_fn_by_name`]).
pub fn posit32_fn_by_name(
    name: &str,
) -> Option<fn(rlibm_posit::Posit32) -> rlibm_posit::Posit32> {
    Some(match name {
        "ln" => posit::ln_p32,
        "log2" => posit::log2_p32,
        "log10" => posit::log10_p32,
        "exp" => posit::exp_p32,
        "exp2" => posit::exp2_p32,
        "exp10" => posit::exp10_p32,
        "sinh" => posit::sinh_p32,
        "cosh" => posit::cosh_p32,
        _ => return None,
    })
}

/// Resolves the dd-only (tier 2) variant of a posit32 function by name.
pub fn posit32_dd_fn_by_name(
    name: &str,
) -> Option<fn(rlibm_posit::Posit32) -> rlibm_posit::Posit32> {
    Some(match name {
        "ln" => posit::ln_p32_dd,
        "log2" => posit::log2_p32_dd,
        "log10" => posit::log10_p32_dd,
        "exp" => posit::exp_p32_dd,
        "exp2" => posit::exp2_p32_dd,
        "exp10" => posit::exp10_p32_dd,
        "sinh" => posit::sinh_p32_dd,
        "cosh" => posit::cosh_p32_dd,
        _ => return None,
    })
}

/// Resolves a float32-baseline function by name.
pub fn baseline_f32_fn_by_name(name: &str) -> Option<fn(f32) -> f32> {
    Some(match name {
        "ln" => baselines::float32::ln,
        "log2" => baselines::float32::log2,
        "log10" => baselines::float32::log10,
        "exp" => baselines::float32::exp,
        "exp2" => baselines::float32::exp2,
        "exp10" => baselines::float32::exp10,
        "sinh" => baselines::float32::sinh,
        "cosh" => baselines::float32::cosh,
        "sinpi" => baselines::float32::sinpi,
        "cospi" => baselines::float32::cospi,
        _ => return None,
    })
}

/// Evaluates one of the ten f32 functions by its paper-table name.
/// Convenience for harnesses that iterate over `Func::ALL`.
pub fn eval_f32_by_name(name: &str, x: f32) -> Option<f32> {
    f32_fn_by_name(name).map(|f| f(x))
}

/// Evaluates one of the eight posit32 functions by name.
pub fn eval_posit32_by_name(name: &str, x: rlibm_posit::Posit32) -> Option<rlibm_posit::Posit32> {
    posit32_fn_by_name(name).map(|f| f(x))
}

/// Evaluates one of the eight posit16 functions by name.
pub fn eval_posit16_by_name(name: &str, x: rlibm_posit::Posit16) -> Option<rlibm_posit::Posit16> {
    Some(match name {
        "ln" => p16::ln_p16(x),
        "log2" => p16::log2_p16(x),
        "log10" => p16::log10_p16(x),
        "exp" => p16::exp_p16(x),
        "exp2" => p16::exp2_p16(x),
        "exp10" => p16::exp10_p16(x),
        "sinh" => p16::sinh_p16(x),
        "cosh" => p16::cosh_p16(x),
        _ => return None,
    })
}

/// Evaluates one of the eight binary16 functions by name.
pub fn eval_half_by_name(name: &str, x: rlibm_fp::Half) -> Option<rlibm_fp::Half> {
    Some(match name {
        "ln" => half16::ln_f16(x),
        "log2" => half16::log2_f16(x),
        "log10" => half16::log10_f16(x),
        "exp" => half16::exp_f16(x),
        "exp2" => half16::exp2_f16(x),
        "exp10" => half16::exp10_f16(x),
        "sinh" => half16::sinh_f16(x),
        "cosh" => half16::cosh_f16(x),
        _ => return None,
    })
}

/// Evaluates one of the eight bfloat16 functions by name.
pub fn eval_bf16_by_name(name: &str, x: rlibm_fp::BFloat16) -> Option<rlibm_fp::BFloat16> {
    Some(match name {
        "ln" => bf16::ln_bf16(x),
        "log2" => bf16::log2_bf16(x),
        "log10" => bf16::log10_bf16(x),
        "exp" => bf16::exp_bf16(x),
        "exp2" => bf16::exp2_bf16(x),
        "exp10" => bf16::exp10_bf16(x),
        "sinh" => bf16::sinh_bf16(x),
        "cosh" => bf16::cosh_bf16(x),
        _ => return None,
    })
}
