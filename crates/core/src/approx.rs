//! Piecewise polynomial generation (Algorithm 3, `GenApproxFunc` /
//! `GenApproxHelper` / `GenPiecewise`).
//!
//! Tries a single polynomial over the whole reduced domain first; when
//! counterexample-guided generation fails (infeasible degree or sample
//! overflow), the domain is split into `2^n` bit-pattern sub-domains with
//! increasing `n` until every sub-domain admits a polynomial. Negative and
//! non-negative reduced inputs are handled separately (their double bit
//! patterns share no prefix).

use crate::poly::Polynomial;
use crate::polygen::{gen_polynomial, PolyGenConfig, PolyGenError, PolyGenStats};
use crate::reduced::ReducedConstraint;
use crate::split::BitPatternSplitter;

/// A piecewise polynomial over one sign class of reduced inputs.
#[derive(Debug, Clone)]
pub struct PiecewiseApprox {
    /// Sub-domain selector (identity when there is a single polynomial).
    splitter: BitPatternSplitter,
    /// One polynomial per sub-domain. Sub-domains with no constraints get
    /// a zero polynomial (they are never reached by valid reduced inputs).
    polys: Vec<Polynomial>,
}

impl PiecewiseApprox {
    /// Evaluates the approximation at a reduced input.
    #[inline]
    pub fn eval(&self, r: f64) -> f64 {
        self.polys[self.splitter.index(r)].eval(r)
    }

    /// Number of sub-domains.
    pub fn domains(&self) -> usize {
        self.polys.len()
    }

    /// Maximum polynomial degree across sub-domains (Table 3's "Degree").
    pub fn max_degree(&self) -> u32 {
        self.polys.iter().map(Polynomial::degree).max().unwrap_or(0)
    }

    /// Maximum number of nonzero terms (Table 3's "# of Terms").
    pub fn max_terms(&self) -> usize {
        self.polys.iter().map(Polynomial::num_terms).max().unwrap_or(0)
    }
}

/// A generated approximation for a full reduced domain: up to one
/// piecewise polynomial per sign class.
#[derive(Debug, Clone)]
pub struct SignSplitApprox {
    /// Approximation for negative reduced inputs (`L-`), if any exist.
    pub negative: Option<PiecewiseApprox>,
    /// Approximation for non-negative reduced inputs (`L+`), if any.
    pub non_negative: Option<PiecewiseApprox>,
}

impl SignSplitApprox {
    /// Evaluates using the sign-appropriate piecewise polynomial. Returns
    /// NaN when no polynomial was generated for the input's sign class —
    /// such inputs are outside the generated domain by construction, and
    /// NaN is the honest "no value" answer for a total function.
    pub fn eval(&self, r: f64) -> f64 {
        let side = if r.is_sign_negative() {
            self.negative.as_ref()
        } else {
            self.non_negative.as_ref()
        };
        match side {
            Some(p) => p.eval(r),
            None => f64::NAN,
        }
    }

    /// Total number of sub-domains across both sign classes.
    pub fn domains(&self) -> usize {
        self.negative.as_ref().map_or(0, PiecewiseApprox::domains)
            + self.non_negative.as_ref().map_or(0, PiecewiseApprox::domains)
    }
}

/// Configuration for Algorithm 3.
#[derive(Debug, Clone)]
pub struct ApproxConfig {
    /// Polynomial generation settings (terms, sample limits).
    pub polygen: PolyGenConfig,
    /// Maximum `n` for `2^n` sub-domains (the paper capped at `2^14`).
    pub max_split_bits: u32,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig { polygen: PolyGenConfig::default(), max_split_bits: 14 }
    }
}

/// Aggregate statistics over a generation run.
#[derive(Debug, Clone, Default)]
pub struct ApproxStats {
    /// Total LP calls across all sub-domains and split attempts.
    pub lp_calls: usize,
    /// Total counterexample rounds.
    pub cegis_rounds: usize,
    /// Split attempts (values of `n` tried).
    pub split_attempts: usize,
}

impl ApproxStats {
    fn absorb(&mut self, s: &PolyGenStats) {
        self.lp_calls += s.lp_calls;
        self.cegis_rounds += s.cegis_rounds;
    }
}

/// Errors from the piecewise generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApproxError {
    /// Even `2^max_split_bits` sub-domains were not enough.
    SplitLimitReached,
    /// The LP solver failed in a way more splitting cannot fix (cycling
    /// that survived its restarts, malformed dimensions).
    Solver(rlibm_lp::LpError),
}

impl core::fmt::Display for ApproxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ApproxError::SplitLimitReached => write!(f, "split limit reached"),
            ApproxError::Solver(e) => write!(f, "LP solver failed: {e}"),
        }
    }
}

impl std::error::Error for ApproxError {}

/// Algorithm 3's `GenApproxFunc`: generates piecewise polynomials for all
/// reduced constraints, splitting by sign first and then by bit pattern.
///
/// The input must already be merged per reduced input (see
/// [`crate::reduced::merge_by_reduced_input`]).
pub fn gen_approx(
    constraints: &[ReducedConstraint],
    cfg: &ApproxConfig,
) -> Result<(SignSplitApprox, ApproxStats), ApproxError> {
    let mut stats = ApproxStats::default();
    let (neg, pos): (Vec<_>, Vec<_>) = constraints
        .iter()
        .copied()
        .partition(|c| c.r.is_sign_negative());
    let negative = if neg.is_empty() {
        None
    } else {
        Some(gen_approx_helper(&neg, cfg, &mut stats)?)
    };
    let non_negative = if pos.is_empty() {
        None
    } else {
        Some(gen_approx_helper(&pos, cfg, &mut stats)?)
    };
    Ok((SignSplitApprox { negative, non_negative }, stats))
}

/// Algorithm 3's `GenApproxHelper`: increase the number of sub-domains
/// until every one is feasible.
fn gen_approx_helper(
    constraints: &[ReducedConstraint],
    cfg: &ApproxConfig,
    stats: &mut ApproxStats,
) -> Result<PiecewiseApprox, ApproxError> {
    debug_assert!(!constraints.is_empty());
    let r_min = constraints
        .iter()
        .map(|c| c.r)
        .fold(f64::INFINITY, f64::min);
    let r_max = constraints
        .iter()
        .map(|c| c.r)
        .fold(f64::NEG_INFINITY, f64::max);
    // For negative inputs min/max as *values*; the splitter only needs the
    // two extremes' bit patterns, order-agnostic.
    'split: for n in 0..=cfg.max_split_bits {
        stats.split_attempts += 1;
        let splitter = BitPatternSplitter::new(r_min.min(r_max), r_max.max(r_min), n);
        let mut buckets: Vec<Vec<ReducedConstraint>> = vec![Vec::new(); splitter.domains()];
        for c in constraints {
            buckets[splitter.index(c.r)].push(*c);
        }
        let mut polys = Vec::with_capacity(splitter.domains());
        for bucket in &buckets {
            match gen_polynomial(bucket, &cfg.polygen) {
                Ok((poly, pstats)) => {
                    stats.absorb(&pstats);
                    polys.push(poly);
                }
                Err(PolyGenError::Infeasible)
                | Err(PolyGenError::SampleOverflow)
                | Err(PolyGenError::RefinementExhausted) => {
                    continue 'split;
                }
                Err(PolyGenError::Solver(e)) => {
                    // Splitting the domain cannot repair a solver failure;
                    // surface it instead of burning the split budget.
                    return Err(ApproxError::Solver(e));
                }
            }
        }
        return Ok(PiecewiseApprox { splitter, polys });
    }
    Err(ApproxError::SplitLimitReached)
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
    fn single_polynomial_when_easy() {
        let cons = constraints_from_fn(
            |x| (core::f64::consts::PI * x).sin(),
            (1..2000).map(|i| i as f64 / 1024e3),
            1e-13,
        );
        let cfg = ApproxConfig {
            polygen: PolyGenConfig { terms: vec![1, 3, 5], ..Default::default() },
            ..Default::default()
        };
        let (approx, stats) = gen_approx(&cons, &cfg).expect("feasible");
        let pw = approx.non_negative.as_ref().unwrap();
        assert_eq!(pw.domains(), 1, "a quintic odd poly must fit in one piece");
        assert_eq!(stats.split_attempts, 1);
        for c in &cons {
            assert!(c.interval.contains(approx.eval(c.r)));
        }
    }

    #[test]
    fn splits_when_one_piece_is_not_enough() {
        // A low-degree polynomial over a wiggly wide domain: needs splits.
        let cons = constraints_from_fn(
            |x| (10.0 * x).sin(),
            (0..4000).map(|i| 1.0 + i as f64 / 4000.0 * 0.9999),
            1e-7,
        );
        let cfg = ApproxConfig {
            polygen: PolyGenConfig {
                terms: vec![0, 1, 2],
                max_sample: 400,
                ..Default::default()
            },
            max_split_bits: 10,
        };
        let (approx, stats) = gen_approx(&cons, &cfg).expect("feasible with splits");
        let pw = approx.non_negative.as_ref().unwrap();
        assert!(pw.domains() > 1, "must have split");
        assert!(stats.split_attempts > 1);
        for c in &cons {
            assert!(
                c.interval.contains(approx.eval(c.r)),
                "violated at r = {}",
                c.r
            );
        }
    }

    #[test]
    fn negative_and_positive_split() {
        // exp-like data on both sides of zero (the paper's exp/exp2/exp10
        // case: "we created two piecewise polynomials: one for the
        // negative reduced inputs and another for positive").
        let cons = constraints_from_fn(
            |x| x.exp(),
            (-1000..1000).filter(|&i| i != 0).map(|i| i as f64 * 5e-6),
            1e-13,
        );
        let cfg = ApproxConfig {
            polygen: PolyGenConfig { terms: vec![0, 1, 2, 3], ..Default::default() },
            ..Default::default()
        };
        let (approx, _) = gen_approx(&cons, &cfg).expect("feasible");
        assert!(approx.negative.is_some());
        assert!(approx.non_negative.is_some());
        for c in &cons {
            assert!(c.interval.contains(approx.eval(c.r)));
        }
    }

    #[test]
    fn split_limit_is_reported() {
        // Impossible windows (zero width around a high-degree shape with a
        // degree-0 polynomial) exhaust the split budget.
        let cons = constraints_from_fn(|x| x, (0..64).map(|i| 1.0 + i as f64 / 64.0 * 0.999), 1e-9);
        let cfg = ApproxConfig {
            polygen: PolyGenConfig { terms: vec![0], ..Default::default() },
            max_split_bits: 2,
        };
        assert!(matches!(
            gen_approx(&cons, &cfg),
            Err(ApproxError::SplitLimitReached)
        ));
    }

    #[test]
    fn domain_accounting() {
        let cons = constraints_from_fn(|x| x * x, (1..100).map(|i| i as f64 / 100.0), 1e-9);
        let cfg = ApproxConfig {
            polygen: PolyGenConfig { terms: vec![0, 1, 2], ..Default::default() },
            ..Default::default()
        };
        let (approx, _) = gen_approx(&cons, &cfg).expect("feasible");
        assert_eq!(approx.domains(), approx.non_negative.as_ref().unwrap().domains());
    }
}
