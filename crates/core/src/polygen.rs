//! Counterexample-guided polynomial generation (Algorithm 4,
//! `GenPolynomial`).
//!
//! The generator never hands the LP solver more than a *sample* of the
//! reduced constraints: it solves, validates the rounded-to-double
//! coefficients against the *entire* constraint set in `H`, adds every
//! violated constraint to the sample (the counterexamples), and repeats.
//! Two refinement mechanisms from the paper are implemented:
//!
//! * **Search-and-refine for real coefficients** (Section 3.4): the LP's
//!   exact rational coefficients are rounded to `f64`; if the rounded
//!   polynomial violates a *sampled* constraint, that constraint's
//!   interval is shrunk by one double on the violated side and the LP is
//!   re-solved, until rounding is harmless.
//! * **Sample-size threshold**: if the sample grows past the configured
//!   threshold the sub-domain is declared infeasible, triggering a domain
//!   split upstream.
//!
//! Two generation-side performance mechanisms ride on the loop structure:
//! LP re-solves within one attempt are **warm-started** from the previous
//! optimal basis (the CEGIS moves — appending counterexample columns and
//! shrinking sampled intervals — both leave the old basis feasible, so
//! the solver can skip phase 1; any stale basis falls back to a cold
//! solve inside `rlibm_lp`), and counterexamples are **deduplicated** by
//! content before joining the sample (a violator bit-identical to an
//! already-sampled constraint adds an LP column without adding
//! information).

use crate::par;
use crate::poly::Polynomial;
use crate::reduced::ReducedConstraint;
use rlibm_fp::bits::{next_down_f64, next_up_f64};
use rlibm_lp::fit::{max_margin_fit_warm, FitConstraint, FitWarmStart};
use rlibm_lp::LpError;
use rlibm_obs::{Counter, Histogram, SpanTimer};
use std::collections::HashSet;

// Generation telemetry (no-ops unless built with the `telemetry`
// feature). The counters aggregate the same quantities `PolyGenStats`
// reports per call — the registry view adds up across the many
// sub-domain runs of a full pipeline, failures included.
static POLYGEN_RUNS: Counter = Counter::new("polygen.runs");
static POLYGEN_FAILURES: Counter = Counter::new("polygen.failures");
static POLYGEN_LP_CALLS: Counter = Counter::new("polygen.lp_calls");
static POLYGEN_LP_RESTARTS: Counter = Counter::new("polygen.lp_restarts");
static POLYGEN_DUP_COUNTEREXAMPLES: Counter = Counter::new("polygen.dup_counterexamples");
static POLYGEN_CEGIS_ROUNDS: Histogram = Histogram::new("polygen.cegis_rounds");
static POLYGEN_FINAL_SAMPLE: Histogram = Histogram::new("polygen.final_sample");
static POLYGEN_SPAN: SpanTimer = SpanTimer::new("polygen.gen_polynomial");

/// Below this many constraints the full-set counterexample check runs
/// serially — thread spawn/merge overhead would exceed the sweep itself.
const PAR_CHECK_MIN: usize = 4096;

/// How many times a simplex `Cycling` verdict triggers a restart with a
/// fresh (shifted, denser) constraint sample before giving up. Cycling is
/// a property of the particular basis sequence, so a different sample
/// almost always clears it.
const MAX_LP_RESTARTS: usize = 3;

/// Cap on LP re-solves in the coefficient search-and-refine loop.
const MAX_REFINEMENTS: usize = 64;

/// Tunables for Algorithm 4.
#[derive(Debug, Clone)]
pub struct PolyGenConfig {
    /// Term exponents of the polynomial to generate (e.g. `[0,1,2,3]`;
    /// `[1,3,5]` for the paper's odd quintic).
    pub terms: Vec<u32>,
    /// Initial uniform sample size.
    pub initial_sample: usize,
    /// Give up when the sample exceeds this (the paper used 50 000; tests
    /// here use far smaller constraint sets so the default is 4 000).
    pub max_sample: usize,
    /// Intervals at most this wide are "highly constrained" and are always
    /// added to the initial sample (the paper's `epsilon`).
    pub highly_constrained_width: f64,
    /// Carry the optimal LP basis across re-solves within one attempt
    /// (phase-1 skipping). Solver-level fallbacks keep this safe; the
    /// switch exists for differential testing against the cold path.
    pub warm_start: bool,
}

impl Default for PolyGenConfig {
    fn default() -> Self {
        PolyGenConfig {
            terms: vec![0, 1, 2, 3],
            initial_sample: 48,
            max_sample: 4_000,
            highly_constrained_width: 0.0,
            warm_start: true,
        }
    }
}

/// Why generation failed, mirroring Algorithm 4's `(false, 0)` exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolyGenError {
    /// The LP proved no polynomial with these terms satisfies the sampled
    /// constraints (so none satisfies the full set either).
    Infeasible,
    /// The counterexample sample outgrew the threshold.
    SampleOverflow,
    /// Rounding the rational coefficients to `f64` could not be repaired
    /// within the refinement budget.
    RefinementExhausted,
    /// The LP solver itself failed — cycling that survived every
    /// fresh-sample restart, or malformed constraint dimensions.
    Solver(LpError),
}

impl core::fmt::Display for PolyGenError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PolyGenError::Infeasible => write!(f, "no polynomial with these terms is feasible"),
            PolyGenError::SampleOverflow => write!(f, "counterexample sample outgrew the limit"),
            PolyGenError::RefinementExhausted => {
                write!(f, "coefficient rounding could not be repaired within budget")
            }
            PolyGenError::Solver(e) => write!(f, "LP solver failed: {e}"),
        }
    }
}

impl std::error::Error for PolyGenError {}

/// Statistics of one generation run (feeds the Table 3 harness).
#[derive(Debug, Clone, Default)]
pub struct PolyGenStats {
    /// LP solver invocations.
    pub lp_calls: usize,
    /// Counterexample rounds (full validations that found violations).
    pub cegis_rounds: usize,
    /// Final sample size.
    pub final_sample: usize,
    /// Fresh-sample restarts forced by simplex cycling.
    pub lp_restarts: usize,
    /// Counterexamples dropped because a bit-identical `(r, lo, hi)`
    /// constraint was already in the sample (no information gain).
    pub dup_counterexamples: usize,
}

/// Runs Algorithm 4 on one sub-domain's constraints (sorted by `r`).
///
/// On success the returned polynomial, evaluated in `f64` with Horner's
/// method, produces a value inside the reduced interval for *every*
/// constraint — this is validated exhaustively before returning.
pub fn gen_polynomial(
    constraints: &[ReducedConstraint],
    cfg: &PolyGenConfig,
) -> Result<(Polynomial, PolyGenStats), PolyGenError> {
    let _span = POLYGEN_SPAN.start();
    POLYGEN_RUNS.add(1);
    let (result, stats) = gen_polynomial_impl(constraints, cfg);
    // Registry gets the per-run stats whether the run succeeded or not;
    // the final-sample histogram only makes sense for completed runs.
    POLYGEN_LP_CALLS.add(stats.lp_calls as u64);
    POLYGEN_LP_RESTARTS.add(stats.lp_restarts as u64);
    POLYGEN_DUP_COUNTEREXAMPLES.add(stats.dup_counterexamples as u64);
    POLYGEN_CEGIS_ROUNDS.record(stats.cegis_rounds as u64);
    match result {
        Ok(poly) => {
            POLYGEN_FINAL_SAMPLE.record(stats.final_sample as u64);
            Ok((poly, stats))
        }
        Err(e) => {
            POLYGEN_FAILURES.add(1);
            Err(e)
        }
    }
}

fn gen_polynomial_impl(
    constraints: &[ReducedConstraint],
    cfg: &PolyGenConfig,
) -> (Result<Polynomial, PolyGenError>, PolyGenStats) {
    let mut stats = PolyGenStats::default();
    if constraints.is_empty() {
        let poly = Polynomial::new(cfg.terms.clone(), vec![0.0; cfg.terms.len()]);
        return (Ok(poly), stats);
    }
    // Restart-with-fresh-samples backoff: a simplex `Cycling` verdict is a
    // property of one basis sequence, so re-seed the sample (shifted and
    // denser) and try again a bounded number of times before surfacing it.
    let mut attempt = 0;
    loop {
        match gen_attempt(constraints, cfg, attempt, &mut stats) {
            Ok(poly) => return (Ok(poly), stats),
            Err(PolyGenError::Solver(LpError::Cycling { .. })) if attempt < MAX_LP_RESTARTS => {
                attempt += 1;
                stats.lp_restarts += 1;
            }
            Err(e) => return (Err(e), stats),
        }
    }
}

/// One full Algorithm-4 run from a fresh initial sample. `attempt > 0`
/// shifts the sample phase and doubles its density so a cycling-prone
/// basis is not rebuilt verbatim.
fn gen_attempt(
    constraints: &[ReducedConstraint],
    cfg: &PolyGenConfig,
    attempt: usize,
    stats: &mut PolyGenStats,
) -> Result<Polynomial, PolyGenError> {
    // Initial sample: uniform over the (sorted) constraints, proportional
    // to their distribution (Section 3.4), plus all highly constrained
    // intervals.
    let mut in_sample = vec![false; constraints.len()];
    let want = cfg.initial_sample.max(1).saturating_mul(1 << attempt.min(8));
    let step = (constraints.len() / want).max(1);
    for i in (attempt % step..constraints.len()).step_by(step) {
        in_sample[i] = true;
    }
    if let Some(last) = in_sample.last_mut() {
        *last = true;
    }
    if cfg.highly_constrained_width > 0.0 {
        for (i, c) in constraints.iter().enumerate() {
            if c.interval.width() <= cfg.highly_constrained_width {
                in_sample[i] = true;
            }
        }
    }

    // Mutable copies of the sampled intervals (search-and-refine shrinks
    // them; the originals stay as the validation target).
    let mut work: Vec<ReducedConstraint> = constraints.to_vec();

    // Content identity of every sampled constraint (original, unshrunk
    // values): a counterexample whose exact (r, lo, hi) bits are already
    // sampled would duplicate an LP column without adding information.
    let content_key = |c: &ReducedConstraint| {
        (c.r.to_bits(), c.interval.lo.to_bits(), c.interval.hi.to_bits())
    };
    let mut sample_keys: HashSet<(u64, u64, u64)> = constraints
        .iter()
        .zip(&in_sample)
        .filter(|(_, s)| **s)
        .map(|(c, _)| content_key(c))
        .collect();

    // The previous round's optimal LP basis, keyed by constraint index
    // (stable within an attempt: the sample only grows). Carrying it
    // forward lets the solver re-enter at the old optimum; any staleness
    // is handled by the solver's own cold fallback.
    let mut warm: Option<FitWarmStart> = None;

    loop {
        let sample_count = in_sample.iter().filter(|s| **s).count();
        if sample_count > cfg.max_sample {
            return Err(PolyGenError::SampleOverflow);
        }
        // Inner loop: solve + coefficient-rounding refinement.
        let poly = {
            let mut refinements = 0;
            loop {
                let (fit_cons, ids): (Vec<FitConstraint>, Vec<u64>) = work
                    .iter()
                    .enumerate()
                    .zip(&in_sample)
                    .filter(|(_, s)| **s)
                    .map(|((i, c), _)| {
                        (
                            FitConstraint::from_point(
                                c.r,
                                c.interval.lo,
                                c.interval.hi,
                                &cfg.terms,
                            ),
                            i as u64,
                        )
                    })
                    .unzip();
                stats.lp_calls += 1;
                let prev = if cfg.warm_start { warm.take() } else { None };
                let fit = match max_margin_fit_warm(
                    &fit_cons,
                    cfg.terms.len(),
                    &ids,
                    prev.as_ref(),
                ) {
                    Ok(Some((fit, ws))) => {
                        warm = Some(ws);
                        fit
                    }
                    Ok(None) => return Err(PolyGenError::Infeasible),
                    Err(e) => return Err(PolyGenError::Solver(e)),
                };
                let poly = Polynomial::new(cfg.terms.clone(), fit.coeffs_f64());
                // Check the *sampled* constraints in H; shrink the first
                // violated one and re-solve (search-and-refine).
                let mut violated = None;
                for (i, c) in work.iter().enumerate() {
                    if !in_sample[i] {
                        continue;
                    }
                    let v = poly.eval(c.r);
                    if v < c.interval.lo {
                        violated = Some((i, false));
                        break;
                    }
                    if v > c.interval.hi {
                        violated = Some((i, true));
                        break;
                    }
                }
                match violated {
                    None => break poly,
                    Some((i, high_side)) => {
                        refinements += 1;
                        if refinements > MAX_REFINEMENTS {
                            return Err(PolyGenError::RefinementExhausted);
                        }
                        let iv = &mut work[i].interval;
                        if high_side {
                            let new_hi = next_down_f64(iv.hi);
                            if new_hi < iv.lo {
                                return Err(PolyGenError::Infeasible);
                            }
                            iv.hi = new_hi;
                        } else {
                            let new_lo = next_up_f64(iv.lo);
                            if new_lo > iv.hi {
                                return Err(PolyGenError::Infeasible);
                            }
                            iv.lo = new_lo;
                        }
                    }
                }
            }
        };
        // Full validation against the ORIGINAL constraints; collect
        // counterexamples (Algorithm 4's Check). This is the loop that
        // touches every constraint on every CEGIS round, so large
        // constraint sets are swept on all cores; `par_filter_indices`
        // returns the violations sorted ascending, which makes the sample
        // evolution (and therefore the whole run) thread-count-invariant.
        let violations = if constraints.len() >= PAR_CHECK_MIN {
            par::par_filter_indices(constraints.len(), par::num_threads(), |i| {
                let c = &constraints[i];
                !in_sample[i] && !c.interval.contains(poly.eval(c.r))
            })
        } else {
            (0..constraints.len())
                .filter(|&i| {
                    let c = &constraints[i];
                    !in_sample[i] && !c.interval.contains(poly.eval(c.r))
                })
                .collect()
        };
        // Append, skipping content duplicates. A skipped violator is
        // still safe: its bit-identical twin joins (or is already in) the
        // sample, and a polynomial satisfying the twin's interval — even
        // after shrinking, which only tightens it — satisfies the
        // duplicate's identical original interval too. For the same
        // reason a round with violations always admits at least one new
        // sample point, so progress is preserved.
        let mut new_counterexamples = 0usize;
        for i in violations {
            if sample_keys.insert(content_key(&constraints[i])) {
                in_sample[i] = true;
                new_counterexamples += 1;
            } else {
                stats.dup_counterexamples += 1;
            }
        }
        if new_counterexamples == 0 {
            // Could still have violations on sampled-and-shrunk points?
            // No: sampled points were validated against the *shrunk*
            // intervals, which are subsets of the originals.
            debug_assert!(constraints
                .iter()
                .all(|c| c.interval.contains(poly.eval(c.r))));
            stats.final_sample = in_sample.iter().filter(|s| **s).count();
            return Ok(poly);
        }
        stats.cegis_rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;

    fn constraints_from_fn(
        f: impl Fn(f64) -> f64,
        xs: impl Iterator<Item = f64>,
        half_width: f64,
    ) -> Vec<ReducedConstraint> {
        xs.map(|x| {
            let y = f(x);
            ReducedConstraint {
                r: x,
                interval: Interval::new(y - half_width, y + half_width),
            }
        })
        .collect()
    }

    #[test]
    fn fits_exp_on_small_domain() {
        // e^r on [0, ln2/128] with generous windows: a cubic suffices.
        let n = 2000;
        let cons = constraints_from_fn(
            |x| x.exp(),
            (0..n).map(|i| i as f64 * 0.0054 / n as f64),
            1e-12,
        );
        let cfg = PolyGenConfig { terms: vec![0, 1, 2, 3], ..Default::default() };
        let (poly, stats) = gen_polynomial(&cons, &cfg).expect("feasible");
        assert!(stats.lp_calls >= 1);
        for c in &cons {
            assert!(c.interval.contains(poly.eval(c.r)));
        }
        // The fitted coefficients resemble the Taylor series of e^r.
        assert!((poly.coeffs()[0] - 1.0).abs() < 1e-9);
        assert!((poly.coeffs()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn counterexamples_are_used() {
        // A tiny initial sample forces CEGIS rounds on a wiggly function.
        let n = 3000;
        let cons = constraints_from_fn(
            |x| (core::f64::consts::PI * x).sin(),
            (1..n).map(|i| i as f64 * 0.002 / n as f64),
            5e-14,
        );
        let cfg = PolyGenConfig {
            terms: vec![1, 3],
            initial_sample: 3,
            ..Default::default()
        };
        let (poly, _stats) = gen_polynomial(&cons, &cfg).expect("feasible");
        for c in &cons {
            assert!(c.interval.contains(poly.eval(c.r)), "violated at {}", c.r);
        }
    }

    #[test]
    fn infeasible_degree_is_detected() {
        // A line cannot track a parabola to 1e-9 over [0,1].
        let cons = constraints_from_fn(|x| x * x, (0..200).map(|i| i as f64 / 200.0), 1e-9);
        let cfg = PolyGenConfig { terms: vec![0, 1], ..Default::default() };
        match gen_polynomial(&cons, &cfg) {
            Err(PolyGenError::Infeasible) => {}
            other => panic!("expected infeasible, got {other:?}"),
        }
    }

    #[test]
    fn singleton_sample_handles_tight_interval() {
        // One very tight constraint plus loose ones: the tight one must be
        // marked highly constrained and sampled from the start.
        let mut cons = constraints_from_fn(|x| 1.0 + x, (0..100).map(|i| i as f64 / 100.0), 1e-3);
        cons[50].interval = Interval::new(1.5, 1.5 + 1e-15);
        let cfg = PolyGenConfig {
            terms: vec![0, 1],
            initial_sample: 4,
            highly_constrained_width: 1e-12,
            ..Default::default()
        };
        let (poly, _) = gen_polynomial(&cons, &cfg).expect("feasible");
        assert!(cons[50].interval.contains(poly.eval(cons[50].r)));
    }

    #[test]
    fn empty_constraints_give_zero_poly() {
        let cfg = PolyGenConfig::default();
        let (poly, _) = gen_polynomial(&[], &cfg).expect("trivially feasible");
        assert_eq!(poly.eval(0.5), 0.0);
    }

    #[test]
    fn parallel_counterexample_path_matches_small_run() {
        // Above PAR_CHECK_MIN the full-set check runs on the parallel
        // engine; the generated polynomial must still satisfy every
        // constraint and the run must stay deterministic.
        let n = PAR_CHECK_MIN + 2000;
        let cons = constraints_from_fn(
            |x| x.exp(),
            (0..n).map(|i| i as f64 * 0.0054 / n as f64),
            1e-12,
        );
        let cfg = PolyGenConfig {
            terms: vec![0, 1, 2, 3],
            initial_sample: 3,
            ..Default::default()
        };
        let (poly_a, stats_a) = gen_polynomial(&cons, &cfg).expect("feasible");
        let (poly_b, stats_b) = gen_polynomial(&cons, &cfg).expect("feasible");
        assert_eq!(poly_a.coeffs(), poly_b.coeffs(), "generation must be deterministic");
        assert_eq!(stats_a.lp_calls, stats_b.lp_calls);
        for c in &cons {
            assert!(c.interval.contains(poly_a.eval(c.r)));
        }
    }

    #[test]
    fn warm_and_cold_cegis_generate_identical_polynomials() {
        // The warm-started LP chain must not change *what* is generated,
        // only how fast: same polynomial bits, same CEGIS trajectory.
        // The wiggly low-sample workload forces several counterexample
        // rounds plus refinement re-solves, so the warm path is genuinely
        // exercised (first call cold, every later call warm).
        let n = 3000;
        let cons = constraints_from_fn(
            |x| (core::f64::consts::PI * x).sin(),
            (1..n).map(|i| i as f64 * 0.002 / n as f64),
            5e-14,
        );
        let warm_cfg = PolyGenConfig {
            terms: vec![1, 3],
            initial_sample: 3,
            warm_start: true,
            ..Default::default()
        };
        let cold_cfg = PolyGenConfig { warm_start: false, ..warm_cfg.clone() };
        let (poly_w, stats_w) = gen_polynomial(&cons, &warm_cfg).expect("warm feasible");
        let (poly_c, stats_c) = gen_polynomial(&cons, &cold_cfg).expect("cold feasible");
        assert_eq!(poly_w.coeffs(), poly_c.coeffs(), "coefficient bits must match");
        assert_eq!(stats_w.lp_calls, stats_c.lp_calls);
        assert_eq!(stats_w.cegis_rounds, stats_c.cegis_rounds);
        assert_eq!(stats_w.final_sample, stats_c.final_sample);
    }

    #[test]
    fn duplicate_counterexamples_are_dropped() {
        // Wide windows around y = x, plus a bit-identical *pair* of tight
        // off-center constraints hidden between initial sample points.
        // The first fit (y = x, the max-margin center) violates both
        // twins; the CEGIS round must admit exactly one and count the
        // other as a duplicate instead of growing the LP.
        let mut cons = constraints_from_fn(|x| x, (0..100).map(|i| i as f64 / 100.0), 0.1);
        let twin = ReducedConstraint {
            r: 0.505,
            interval: Interval::new(0.555 - 1e-6, 0.555 + 1e-6),
        };
        cons.splice(51..51, [twin, twin]);
        let cfg = PolyGenConfig {
            terms: vec![0, 1],
            initial_sample: 8, // step 12: indices 0, 12, ..., 96 — twins at 51/52 unsampled
            ..Default::default()
        };
        let (poly, stats) = gen_polynomial(&cons, &cfg).expect("feasible");
        for c in &cons {
            assert!(c.interval.contains(poly.eval(c.r)), "violated at {}", c.r);
        }
        assert_eq!(stats.dup_counterexamples, 1, "stats: {stats:?}");
        assert!(stats.cegis_rounds >= 1);
    }

    #[test]
    fn stats_track_work() {
        let cons = constraints_from_fn(|x| x.exp(), (0..500).map(|i| i as f64 * 1e-5), 1e-11);
        let cfg = PolyGenConfig {
            terms: vec![0, 1, 2, 3],
            initial_sample: 2,
            ..Default::default()
        };
        let (_, stats) = gen_polynomial(&cons, &cfg).expect("feasible");
        assert!(stats.final_sample >= 2);
        assert!(stats.lp_calls >= 1);
    }
}
