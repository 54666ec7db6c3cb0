//! Exact rational linear programming (the SoPlex substitute).
//!
//! RLIBM-32 frames "find polynomial coefficients that land inside every
//! rounding interval" as a linear program and insists on an *exact
//! rational* solver: a floating point LP can misclassify feasibility right
//! at the boundary, which is exactly where correctly rounded libraries
//! live. This crate provides:
//!
//! * [`simplex`] — one two-phase primal simplex with Dantzig pricing, a
//!   Bland anti-cycling fallback and warm re-entry, generic over its
//!   field: `f64` as the fast *basis oracle*, [`rlibm_mp::Rational`] as
//!   the exact reference (SoPlex's iterative refinement).
//! * [`fit`] — the polynomial-fitting front end: maximum-margin interval
//!   fitting via the dual LP (rows = number of coefficients, so tens of
//!   thousands of constraints stay cheap), with every fit verified in
//!   exact arithmetic.
//!
//! The solver is bounded and panic-free: pivot budgets surface as
//! [`LpError::Cycling`] and malformed inputs as
//! [`LpError::DimensionMismatch`], so a degenerate basis can never hang
//! or abort a generator run.
//!
//! # Example
//!
//! ```
//! use rlibm_lp::fit::{max_margin_fit, FitConstraint};
//!
//! // Find c0 + c1*x passing through two windows:
//! let cons = vec![
//!     FitConstraint::from_point(0.0, 0.9, 1.1, &[0, 1]),
//!     FitConstraint::from_point(1.0, 2.9, 3.1, &[0, 1]),
//! ];
//! let fit = max_margin_fit(&cons, 2).expect("solver ok").expect("feasible");
//! assert!(!fit.margin.is_negative());
//! ```

pub mod error;
pub mod fit;
pub mod simplex;

pub use error::LpError;
pub use fit::{max_margin_fit, max_margin_fit_warm, FitConstraint, FitResult, FitWarmStart};
pub use simplex::{solve_standard_form, StandardResult};
