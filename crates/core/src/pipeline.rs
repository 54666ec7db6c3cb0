//! The end-to-end generator (Algorithm 1, `CorrectPolys`).
//!
//! Wires the oracle, rounding intervals, reduced-interval deduction,
//! domain splitting and counterexample-guided polynomial generation into
//! one driver: given an elementary function, a range reduction, an output
//! compensation and a set of target inputs, produce piecewise polynomials
//! for every component function such that the composed evaluation is
//! correctly rounded for every input.

use crate::approx::{gen_approx, ApproxConfig, ApproxError, SignSplitApprox};
use crate::interval::rounding_interval;
use crate::reduced::{
    deduce_reduced_intervals, merge_by_reduced_input, ReducedError, ReductionCase,
};
use rlibm_fp::Representation;
use rlibm_mp::{
    try_correctly_rounded, try_correctly_rounded_f64, Func, OracleError, DEFAULT_PREC_CEILING,
};
use rlibm_obs::SpanTimer;
use std::sync::Arc;
use std::time::Instant;

// Phase spans for the end-to-end generator (no-ops unless built with the
// `telemetry` feature). `pipeline.generate` wraps the whole run; the
// oracle sweep and the assembly phase nest inside it, so the snapshot
// shows where a generation run's wall-clock actually goes.
static GENERATE_SPAN: SpanTimer = SpanTimer::new("pipeline.generate");
static ORACLE_CASES_SPAN: SpanTimer = SpanTimer::new("pipeline.oracle_cases");
static ASSEMBLE_SPAN: SpanTimer = SpanTimer::new("pipeline.assemble");

/// Range reduction in `H`: `x -> r`.
pub type RangeReduce = Arc<dyn Fn(f64) -> f64 + Send + Sync>;
/// Output compensation in `H`: `(component values at r, x) -> y`.
pub type OutputComp = Arc<dyn Fn(&[f64], f64) -> f64 + Send + Sync>;

/// A full generation task description.
pub struct GeneratorSpec {
    /// The elementary function being approximated.
    pub func: Func,
    /// The component functions `f_i` evaluated at the reduced input
    /// (often just `[func]`; two for the sinpi/cospi/sinh/cosh families).
    pub components: Vec<Func>,
    /// Range reduction `RR_H`.
    pub range_reduce: RangeReduce,
    /// Output compensation `OC_H` (must be monotone in the component
    /// value vector, per Algorithm 2's requirement).
    pub output_comp: OutputComp,
    /// Piecewise generation settings (one per component).
    pub approx_cfgs: Vec<ApproxConfig>,
}

impl GeneratorSpec {
    /// The trivial spec: no range reduction (`r = x`), output is the
    /// single component's value. Useful for narrow domains and tests.
    pub fn identity(func: Func, terms: Vec<u32>) -> GeneratorSpec {
        let cfg = ApproxConfig {
            polygen: crate::polygen::PolyGenConfig { terms, ..Default::default() },
            ..Default::default()
        };
        GeneratorSpec {
            func,
            components: vec![func],
            range_reduce: Arc::new(|x| x),
            output_comp: Arc::new(|vals, _| vals[0]),
            approx_cfgs: vec![cfg],
        }
    }
}

/// Failures of the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// The Ziv oracle hit its precision ceiling on some input.
    Oracle(OracleError),
    /// Reduced-interval deduction failed (Algorithm 2's exits).
    Reduced(ReducedError),
    /// Piecewise generation failed for a component.
    Approx(ApproxError),
}

impl From<OracleError> for GenError {
    fn from(e: OracleError) -> Self {
        GenError::Oracle(e)
    }
}

impl From<ReducedError> for GenError {
    fn from(e: ReducedError) -> Self {
        GenError::Reduced(e)
    }
}

impl From<ApproxError> for GenError {
    fn from(e: ApproxError) -> Self {
        GenError::Approx(e)
    }
}

impl core::fmt::Display for GenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GenError::Oracle(e) => write!(f, "oracle failed: {e}"),
            GenError::Reduced(e) => write!(f, "reduced-interval deduction failed: {e:?}"),
            GenError::Approx(e) => write!(f, "piecewise generation failed: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

/// Table 3 row material for one generation run.
#[derive(Debug, Clone, Default)]
pub struct GenStats {
    /// Wall-clock seconds spent generating.
    pub seconds: f64,
    /// Number of distinct reduced inputs.
    pub reduced_inputs: usize,
    /// Sub-domain count per component.
    pub piecewise_sizes: Vec<usize>,
    /// Maximum degree per component.
    pub degrees: Vec<u32>,
    /// Maximum term count per component.
    pub term_counts: Vec<usize>,
    /// Total LP invocations.
    pub lp_calls: usize,
}

/// The output of [`generate`]: per-component piecewise polynomials plus
/// the spec's reduction/compensation closures for evaluation.
pub struct GeneratedFunction {
    components: Vec<SignSplitApprox>,
    range_reduce: RangeReduce,
    output_comp: OutputComp,
    stats: GenStats,
}

impl GeneratedFunction {
    /// Evaluates the generated implementation in `H` (no final rounding:
    /// the caller rounds into its target representation).
    pub fn eval(&self, x: f64) -> f64 {
        let r = (self.range_reduce)(x);
        let vals: Vec<f64> = self.components.iter().map(|a| a.eval(r)).collect();
        (self.output_comp)(&vals, x)
    }

    /// The per-component piecewise approximations.
    pub fn components(&self) -> &[SignSplitApprox] {
        &self.components
    }

    /// Generation statistics (Table 3 material).
    pub fn stats(&self) -> &GenStats {
        &self.stats
    }
}

/// Runs Algorithm 1 over the given target inputs.
///
/// Inputs whose oracle result has no rounding interval (NaN/infinite
/// results — the special cases a library front-end filters before the
/// polynomial path) are skipped.
pub fn generate<T: Representation>(
    spec: &GeneratorSpec,
    inputs: &[T],
) -> Result<GeneratedFunction, GenError> {
    assert_eq!(spec.components.len(), spec.approx_cfgs.len());
    let _span = GENERATE_SPAN.start();
    let start = Instant::now();
    let cases = oracle_cases(spec, inputs)?;
    assemble(spec, &cases, start)
}

/// Algorithm 1 lines 3-6: oracle + rounding interval per input. Every
/// input is independent and each one pays for two oracle evaluations
/// (Ziv loops), so this sweep runs on all cores; the order-preserving
/// map keeps `cases` identical to the serial loop's output for any
/// thread count. Any oracle failure (precision ceiling) aborts the sweep.
fn oracle_cases<T: Representation>(
    spec: &GeneratorSpec,
    inputs: &[T],
) -> Result<Vec<ReductionCase>, GenError> {
    let _span = ORACLE_CASES_SPAN.start();
    crate::par::par_map(inputs, crate::par::num_threads(), |&x| oracle_case(spec, x))
        .into_iter()
        .flatten()
        .collect()
}

/// One input's case: the oracle's result in `T`, its rounding interval,
/// the reduced input and the component values there. `None` for inputs
/// the library front-end handles instead of the polynomial: NaN, special
/// and exactly representable cases (their degenerate rounding intervals
/// would force the LP to zero margin), and results with no rounding
/// interval.
///
/// # Errors
///
/// [`GenError::Oracle`] if a Ziv loop hits its precision ceiling.
pub fn oracle_case<T: Representation>(
    spec: &GeneratorSpec,
    x: T,
) -> Option<Result<ReductionCase, GenError>> {
    if x.is_nan() {
        return None;
    }
    let xf = x.to_f64();
    if rlibm_mp::oracle::is_special_case(spec.func, xf) {
        return None;
    }
    let y: T = match try_correctly_rounded(spec.func, x, DEFAULT_PREC_CEILING) {
        Ok(y) => y,
        Err(e) => return Some(Err(GenError::Oracle(e))),
    };
    let target = rounding_interval(y)?;
    let r = (spec.range_reduce)(xf);
    let mut component_values = Vec::with_capacity(spec.components.len());
    for &fi in &spec.components {
        match try_correctly_rounded_f64(fi, r, DEFAULT_PREC_CEILING) {
            Ok(v) => component_values.push(v),
            Err(e) => return Some(Err(GenError::Oracle(e))),
        }
    }
    Some(Ok(ReductionCase { x: xf, target, r, component_values }))
}

/// Algorithms 2-4 over the case set.
fn assemble(
    spec: &GeneratorSpec,
    cases: &[ReductionCase],
    start: Instant,
) -> Result<GeneratedFunction, GenError> {
    let _span = ASSEMBLE_SPAN.start();
    // Algorithm 2.
    let per_component = deduce_reduced_intervals(cases, spec.output_comp.as_ref())?;
    // Merge duplicates, then Algorithm 3 + 4 per component.
    let mut components = Vec::with_capacity(per_component.len());
    let mut stats = GenStats::default();
    for (i, constraints) in per_component.iter().enumerate() {
        let merged = merge_by_reduced_input(constraints, i)?;
        stats.reduced_inputs = stats.reduced_inputs.max(merged.len());
        let (approx, astats) = gen_approx(&merged, &spec.approx_cfgs[i])?;
        stats.lp_calls += astats.lp_calls;
        stats.piecewise_sizes.push(approx.domains());
        let max_deg = approx
            .negative
            .iter()
            .chain(approx.non_negative.iter())
            .map(|p| p.max_degree())
            .max()
            .unwrap_or(0);
        let max_terms = approx
            .negative
            .iter()
            .chain(approx.non_negative.iter())
            .map(|p| p.max_terms())
            .max()
            .unwrap_or(0);
        stats.degrees.push(max_deg);
        stats.term_counts.push(max_terms);
        components.push(approx);
    }
    stats.seconds = start.elapsed().as_secs_f64();
    Ok(GeneratedFunction {
        components,
        range_reduce: Arc::clone(&spec.range_reduce),
        output_comp: Arc::clone(&spec.output_comp),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{all_16bit, validate};
    use rlibm_fp::{BFloat16, Half};
    use rlibm_mp::round_mp;

    #[test]
    fn identity_pipeline_exp_bfloat16() {
        let spec = GeneratorSpec::identity(Func::Exp, vec![0, 1, 2, 3, 4, 5, 6]);
        let inputs: Vec<BFloat16> = all_16bit::<BFloat16>()
            .filter(|x: &BFloat16| {
                x.is_finite()
                    && x.to_f64().abs() <= 1.0
                    && !rlibm_mp::oracle::is_special_case(Func::Exp, x.to_f64())
            })
            .collect();
        assert!(inputs.len() > 10_000);
        let g = generate(&spec, &inputs).expect("generation succeeds");
        let report = validate(
            Func::Exp,
            |x: BFloat16| BFloat16::from_f64(g.eval(x.to_f64())),
            inputs.iter().copied(),
        );
        assert!(
            report.all_correct(),
            "exp wrong for {} of {} inputs; first: {:?}",
            report.wrong,
            report.total,
            report.examples.first()
        );
        assert!(g.stats().reduced_inputs > 1000);
        assert!(g.stats().lp_calls >= 1);
    }

    #[test]
    fn identity_pipeline_log2_half_precision() {
        // log2 over [1, 2) for binary16: a classic reduced domain.
        let spec = GeneratorSpec::identity(Func::Log2, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let inputs: Vec<Half> = all_16bit::<Half>()
            .filter(|x: &Half| {
                x.is_finite()
                    && x.to_f64() >= 1.0
                    && x.to_f64() < 2.0
                    && !rlibm_mp::oracle::is_special_case(Func::Log2, x.to_f64())
            })
            .collect();
        assert_eq!(inputs.len(), 1023); // 1024 minus the exact case log2(1)
        let g = generate(&spec, &inputs).expect("generation succeeds");
        let report = validate(
            Func::Log2,
            |x: Half| Half::from_f64(g.eval(x.to_f64())),
            inputs.iter().copied(),
        );
        assert!(report.all_correct(), "{} wrong", report.wrong);
    }

    #[test]
    fn multi_component_pipeline() {
        // A toy two-function reduction: approximate sinpi on [1/512, 1/4]
        // through the identity r = x but demanding BOTH sinpi(r) and
        // cospi(r) polynomials, composed as y = s * 1 + c * 0 ... use a
        // genuine OC: y = sinpi(x/2 + x/2) = s*c + c*s = 2 s c with
        // r = x/2. (sinpi(2r) = 2 sinpi(r) cospi(r).)
        let spec = GeneratorSpec {
            func: Func::SinPi,
            components: vec![Func::SinPi, Func::CosPi],
            range_reduce: Arc::new(|x| x * 0.5),
            output_comp: Arc::new(|vals, _| 2.0 * vals[0] * vals[1]),
            approx_cfgs: vec![
                ApproxConfig {
                    polygen: crate::polygen::PolyGenConfig {
                        terms: vec![1, 3, 5],
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ApproxConfig {
                    polygen: crate::polygen::PolyGenConfig {
                        terms: vec![0, 2, 4],
                        ..Default::default()
                    },
                    ..Default::default()
                },
            ],
        };
        let inputs: Vec<BFloat16> = all_16bit::<BFloat16>()
            .filter(|x: &BFloat16| {
                let v = x.to_f64();
                (1.0 / 512.0..=0.25).contains(&v)
            })
            .collect();
        assert!(inputs.len() > 500);
        let g = generate(&spec, &inputs).expect("generation succeeds");
        let report = validate(
            Func::SinPi,
            |x: BFloat16| BFloat16::from_f64(g.eval(x.to_f64())),
            inputs.iter().copied(),
        );
        assert!(
            report.all_correct(),
            "sinpi-via-double-angle wrong for {} of {}",
            report.wrong,
            report.total
        );
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn oracle_round_trip_consistency() {
        // round_mp of the oracle's own MpFloat path must agree with
        // correctly_rounded — a wiring sanity check for the pipeline.
        let x = BFloat16::from_f64(0.71875);
        let via_t: BFloat16 = rlibm_mp::correctly_rounded(Func::Ln, x);
        let via_f64 = rlibm_mp::correctly_rounded_f64(Func::Ln, x.to_f64());
        // The doubly-rounded value agrees here because ln(0.71875) is far
        // from a bfloat16 boundary.
        assert_eq!(BFloat16::from_f64(via_f64).to_bits(), via_t.to_bits());
        let _ = round_mp::<BFloat16>(&rlibm_mp::elem::ln(0.71875, 128));
    }
}
