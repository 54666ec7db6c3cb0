//! The generator workloads: ten fp16 domains, one per function, that
//! `gen_bench` times and `tests/gen_pin.rs` pins coefficient by
//! coefficient.
//!
//! Each is an identity-reduction Half run on a domain sized so that
//! generation *succeeds*: the log family on `[1, 2)`, the exp family on
//! `±[2^-8, 2^-2]`, sinh/cosh on `[2^-6, 2^-2]`, sinpi/cospi on
//! `[2^-8, 2^-2]`, with odd/even term sets matching each function's parity.

use rlibm_core::pipeline::{oracle_case, GeneratorSpec};
use rlibm_core::reduced::ReductionCase;
use rlibm_core::validate::all_16bit;
use rlibm_fp::Half;
use rlibm_mp::oracle::is_special_case;
use rlibm_mp::Func;

/// Per-function generation workload: the input domain (over f64-widened
/// Half values) and the polynomial term exponents.
pub struct GenDomain {
    /// The function generated.
    pub func: Func,
    /// Term exponents of the polynomial.
    pub terms: Vec<u32>,
    /// Lower end of the `|x|` domain (inclusive).
    pub lo: f64,
    /// Upper end of the `|x|` domain (exclusive).
    pub hi: f64,
    /// Whether negative inputs are in the domain too.
    pub both_signs: bool,
}

/// The ten domains, in `Func` order.
pub fn gen_domains() -> Vec<GenDomain> {
    let w = |func, terms: Vec<u32>, lo: f64, hi: f64, both_signs| GenDomain {
        func,
        terms,
        lo,
        hi,
        both_signs,
    };
    vec![
        // Log family on one binade (the pipeline e2e test proves this
        // shape feasible for log2 at degree 7).
        w(Func::Ln, (0..=7).collect(), 1.0, 2.0, false),
        w(Func::Log2, (0..=7).collect(), 1.0, 2.0, false),
        w(Func::Log10, (0..=7).collect(), 1.0, 2.0, false),
        // Exp family near zero, both signs.
        w(Func::Exp, (0..=6).collect(), 2f64.powi(-8), 2f64.powi(-2), true),
        w(Func::Exp2, (0..=6).collect(), 2f64.powi(-8), 2f64.powi(-2), true),
        w(Func::Exp10, (0..=6).collect(), 2f64.powi(-8), 2f64.powi(-2), true),
        // Parity-matched term sets for the odd/even functions.
        w(Func::Sinh, vec![1, 3, 5], 2f64.powi(-6), 2f64.powi(-2), false),
        w(Func::Cosh, vec![0, 2, 4], 2f64.powi(-6), 2f64.powi(-2), false),
        w(Func::SinPi, vec![1, 3, 5, 7], 2f64.powi(-8), 2f64.powi(-2), false),
        // cospi needs the x^6 term: at x=1/4 the degree-4 truncation
        // error (pi x)^6/720 ~ 3.3e-4 exceeds a Half rounding interval.
        w(Func::CosPi, vec![0, 2, 4, 6], 2f64.powi(-8), 2f64.powi(-2), false),
    ]
}

impl GenDomain {
    /// Every finite, non-special Half in the domain, in bit-pattern order.
    pub fn inputs(&self) -> Vec<Half> {
        all_16bit::<Half>()
            .filter(|x| {
                let v = x.to_f64();
                let m = v.abs();
                v.is_finite()
                    && (self.lo..self.hi).contains(&m)
                    && (self.both_signs || v > 0.0)
                    && !is_special_case(self.func, v)
            })
            .collect()
    }
}

/// One oracle case-construction pass over `inputs`: the pipeline's
/// [`oracle_case`] for each input, identity reduction, run serially.
///
/// # Panics
///
/// If the oracle fails on an input.
pub fn oracle_cases(func: Func, inputs: &[Half]) -> Vec<ReductionCase> {
    let spec = GeneratorSpec::identity(func, Vec::new());
    let case = |&x: &Half| {
        let fail = |e| panic!("{}: oracle failed on {}: {e}", func.name(), x.to_f64());
        oracle_case(&spec, x).map(|case| case.unwrap_or_else(fail))
    };
    inputs.iter().filter_map(case).collect()
}
