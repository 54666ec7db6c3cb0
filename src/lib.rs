//! # rlibm — correctly rounded 32-bit math libraries in Rust
//!
//! A from-scratch Rust reproduction of **RLIBM-32** (Lim & Nagarakatte,
//! *High Performance Correctly Rounded Math Libraries for 32-bit Floating
//! Point Representations*, PLDI 2021).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`fp`] — bit-level float utilities and 16-bit software floats.
//! * [`posit`] — posit32/posit16 arithmetic built from scratch.
//! * [`mp`] — the multi-precision oracle (MPFR substitute).
//! * [`lp`] — the exact rational LP solver (SoPlex substitute).
//! * [`gen`] — the RLIBM-32 generator (rounding intervals, reduced
//!   intervals, domain splitting, counterexample-guided polynomials).
//! * [`math`] — the generated correctly rounded library for `f32`,
//!   `posit32` and `bfloat16`.
//! * [`obs`] — zero-dependency telemetry (counters, log2 histograms,
//!   span timers). Compiles to no-ops unless the `telemetry` feature of
//!   this crate (or of any crate in the build graph) is enabled.
//!
//! # Quickstart
//!
//! ```
//! // Correctly rounded float32 functions:
//! let y = rlibm::math::exp(1.0f32);
//! assert_eq!(y, 2.7182817f32);
//! let z = rlibm::math::log2(8.0f32);
//! assert_eq!(z, 3.0);
//! ```

pub use rlibm_core as gen;
pub use rlibm_fp as fp;
pub use rlibm_lp as lp;
pub use rlibm_math as math;
pub use rlibm_mp as mp;
pub use rlibm_obs as obs;
pub use rlibm_posit as posit;

/// The stack-wide error taxonomy: every typed failure a library crate
/// can surface, under one roof for callers that drive the whole
/// pipeline (oracle → LP → generator → runtime library).
///
/// Each layer keeps its own narrow error type — [`mp::OracleError`] for
/// the Ziv precision ceiling, [`lp::LpError`] for simplex cycling and
/// malformed constraint systems, [`gen::pipeline::GenError`] for the
/// end-to-end generator (which internally wraps the other two), and
/// [`math::UnknownFunction`] for by-name dispatch — and `RlibmError`
/// provides the `From` lattice so `?` composes across layers.
#[derive(Debug, Clone, PartialEq)]
pub enum RlibmError {
    /// The Ziv oracle hit its precision ceiling (or an unexpected zero).
    Oracle(mp::OracleError),
    /// The exact rational / f64 simplex failed (cycling, dimensions).
    Lp(lp::LpError),
    /// The end-to-end generator failed.
    Generator(gen::pipeline::GenError),
    /// A by-name lookup in the runtime library missed.
    UnknownFunction(math::UnknownFunction),
}

impl From<mp::OracleError> for RlibmError {
    fn from(e: mp::OracleError) -> Self {
        RlibmError::Oracle(e)
    }
}

impl From<lp::LpError> for RlibmError {
    fn from(e: lp::LpError) -> Self {
        RlibmError::Lp(e)
    }
}

impl From<gen::pipeline::GenError> for RlibmError {
    fn from(e: gen::pipeline::GenError) -> Self {
        RlibmError::Generator(e)
    }
}

impl From<math::UnknownFunction> for RlibmError {
    fn from(e: math::UnknownFunction) -> Self {
        RlibmError::UnknownFunction(e)
    }
}

impl core::fmt::Display for RlibmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RlibmError::Oracle(e) => write!(f, "oracle: {e}"),
            RlibmError::Lp(e) => write!(f, "lp: {e}"),
            RlibmError::Generator(e) => write!(f, "generator: {e}"),
            RlibmError::UnknownFunction(e) => write!(f, "lookup: {e}"),
        }
    }
}

impl std::error::Error for RlibmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RlibmError::Oracle(e) => Some(e),
            RlibmError::Lp(e) => Some(e),
            RlibmError::Generator(e) => Some(e),
            RlibmError::UnknownFunction(e) => Some(e),
        }
    }
}
