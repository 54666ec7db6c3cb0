//! Posit arithmetic built from scratch for the RLIBM-32 reproduction.
//!
//! The paper develops the *first* correctly rounded elementary functions for
//! the 32-bit posit type. That requires a full posit substrate: decoding,
//! encoding with correct (saturating) rounding, exact conversions to the
//! evaluation precision `f64`, and ordinary arithmetic for applications.
//! This crate provides all of it, for [`Posit32`] (es = 2) and [`Posit16`]
//! (es = 1, the original RLIBM 16-bit target).
//!
//! # Example
//!
//! ```
//! use rlibm_posit::Posit32;
//!
//! let x = Posit32::from_f64(2.0);
//! let y = Posit32::from_f64(0.5);
//! assert_eq!((x * y).to_f64(), 1.0);
//!
//! // Posits saturate instead of overflowing:
//! let huge = Posit32::MAXPOS;
//! assert_eq!(huge * huge, Posit32::MAXPOS);
//! ```

pub mod arith;
mod codec32;
pub mod format;
pub mod types;

pub use format::{Decoded, PositFormat};
pub use types::{Posit16, Posit32};
