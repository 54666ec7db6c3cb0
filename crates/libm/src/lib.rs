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
//! * the same eight functions for the **16-bit formats** of the original
//!   RLIBM — bfloat16 in [`bf16`], IEEE binary16 in [`half16`] and
//!   posit16 in [`p16`] — each exhaustively validated in the workspace
//!   tests;
//! * the **baseline models** in [`baselines`] used by the evaluation
//!   harnesses to reproduce the paper's comparisons.
//!
//! Every function follows the paper's published structure: special-case
//! filter, range reduction in double, table lookup, short polynomial,
//! output compensation. The filter is written once per function for
//! every format (the private `front` module, generic over the output
//! format). The rest is evaluated in **two tiers**. Tier 1 (the private
//! `kernel` module, one generic kernel per function) runs that
//! structure in plain double with a statically derived worst-case error
//! band; a few integer ops on the result's bit pattern
//! ([`round::f32_round_safe`], or [`round::posit32_safe_narrow`], which
//! also encodes) certify the final cast is the correct rounding. The
//! rare inputs landing inside an unsafe band re-run the double-double
//! kernels ([`dd`]) with round-to-odd composition ([`round`]) —
//! bit-identical results, constructive accuracy argument, no double
//! rounding. The dd-only references (the same front ends, then the dd
//! kernel) stay reachable through [`f32_dd_fn_by_name`] /
//! [`posit32_dd_fn_by_name`] for certification sweeps; the 16-bit
//! functions are those references at their formats. The [`slice`]
//! module batches tier 1 over 64-lane chunks, four lanes at a time on
//! AVX2 ([`eval_slice_f32`] / [`eval_slice_posit32`]), and the
//! `telemetry` feature ([`stats`]) counts which tier shipped each call
//! for the bench harnesses. Every per-function list — names, slots, tier parameters,
//! dispatch — comes from one table, [`registry`].
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
pub(crate) mod kernel;
pub(crate) mod lane;
pub mod fault;
pub mod float;
pub(crate) mod front;
pub mod half16;
pub mod p16;
pub mod posit;
pub mod registry;
pub mod round;
pub mod slice;
pub mod stats;
pub mod tables;
pub mod tables_codec;

pub use float::{cosh, cospi, exp, exp10, exp2, ln, log10, log2, sinh, sinpi};
pub use registry::{F32_NAMES, POSIT32_NAMES};
pub use slice::{eval_slice_f32, eval_slice_posit32, UnknownFunction};

use registry::{F32Row, Posit32Row};
use rlibm_posit::Posit32;

/// Resolves one of the ten f32 functions by its paper-table name, or
/// `None` for an unknown name. Harnesses resolve once and call through
/// the pointer (no string comparison in the timed loop).
pub fn f32_fn_by_name(name: &str) -> Option<fn(f32) -> f32> {
    F32Row::by_name(name).map(|r| r.scalar)
}

/// Resolves the dd-only (tier 2) variant of an f32 function by name —
/// the reference implementation the two-tier fast path must match
/// bit-for-bit, and the baseline the benches measure the fast path
/// against.
pub fn f32_dd_fn_by_name(name: &str) -> Option<fn(f32) -> f32> {
    F32Row::by_name(name).map(|r| r.dd)
}

/// Resolves a posit32 function by name (see [`f32_fn_by_name`]).
pub fn posit32_fn_by_name(name: &str) -> Option<fn(Posit32) -> Posit32> {
    Posit32Row::by_name(name).map(|r| r.scalar)
}

/// Resolves the dd-only (tier 2) variant of a posit32 function by name.
pub fn posit32_dd_fn_by_name(name: &str) -> Option<fn(Posit32) -> Posit32> {
    Posit32Row::by_name(name).map(|r| r.dd)
}

/// Resolves a float32-baseline function by name.
pub fn baseline_f32_fn_by_name(name: &str) -> Option<fn(f32) -> f32> {
    F32Row::by_name(name).map(|r| r.baseline)
}

/// Evaluates one of the ten f32 functions by its paper-table name.
/// Convenience for harnesses that iterate over [`F32_NAMES`].
pub fn eval_f32_by_name(name: &str, x: f32) -> Option<f32> {
    f32_fn_by_name(name).map(|f| f(x))
}

/// Evaluates one of the eight posit32 functions by name.
pub fn eval_posit32_by_name(name: &str, x: Posit32) -> Option<Posit32> {
    posit32_fn_by_name(name).map(|f| f(x))
}

/// Evaluates one of the eight posit16 functions by name.
pub fn eval_posit16_by_name(name: &str, x: rlibm_posit::Posit16) -> Option<rlibm_posit::Posit16> {
    Posit32Row::by_name(name).map(|r| (r.p16)(x))
}

/// Evaluates one of the eight binary16 functions by name.
pub fn eval_half_by_name(name: &str, x: rlibm_fp::Half) -> Option<rlibm_fp::Half> {
    Posit32Row::by_name(name).map(|r| (r.half)(x))
}

/// Evaluates one of the eight bfloat16 functions by name.
pub fn eval_bf16_by_name(name: &str, x: rlibm_fp::BFloat16) -> Option<rlibm_fp::BFloat16> {
    Posit32Row::by_name(name).map(|r| (r.bf16)(x))
}
