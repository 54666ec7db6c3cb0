//! Polynomial fitting as exact linear programming.
//!
//! The paper's `GetCoeffsUsingLP` (Algorithm 4) asks: given reduced inputs
//! `r_i` with reduced intervals `[l_i, h_i]`, find polynomial coefficients
//! `c` such that `l_i <= P(r_i) <= h_i` for every `i`. We solve the
//! *maximum margin* variant — maximize `delta` such that
//! `l_i + delta <= P(r_i) <= h_i - delta` — which yields coefficients
//! centered inside the feasible polytope (so rounding them to doubles
//! rarely violates a constraint, cutting down the search-and-refine loop).
//!
//! Because there are only `k = degree + 1` coefficients but up to tens of
//! thousands of constraints, we hand the simplex the *dual*: `k + 1` rows
//! instead of `2m`, making each pivot O(k·m) instead of O(m²). The primal
//! coefficients are recovered from the optimal dual basis by solving the
//! `k+1` active constraints as an exact linear system.

use crate::error::LpError;
use crate::simplex::{solve, Field, StandardResult};
use rlibm_mp::Rational;
use std::collections::HashMap;

/// One linear constraint `lo <= sum_j basis_j * c_j <= hi` on the
/// polynomial coefficients `c`.
#[derive(Debug, Clone)]
pub struct FitConstraint {
    /// The value of each polynomial basis function at the constraint point
    /// (e.g. `[1, r, r^2, ...]` for a dense polynomial, `[r, r^3, r^5]`
    /// for an odd one).
    pub basis: Vec<Rational>,
    /// Lower interval endpoint.
    pub lo: Rational,
    /// Upper interval endpoint.
    pub hi: Rational,
}

impl FitConstraint {
    /// Builds the constraint for a reduced input `r` (an exact double) with
    /// rounding interval `[lo, hi]` (exact doubles) and the given term
    /// exponents (e.g. `[0, 1, 2, 3]` for a dense cubic, `[1, 3, 5]` for
    /// the paper's odd quintic for `sinpi`).
    pub fn from_point(r: f64, lo: f64, hi: f64, term_exponents: &[u32]) -> FitConstraint {
        let rq = Rational::from_f64(r);
        let basis = term_exponents
            .iter()
            .map(|&e| pow_rational(&rq, e))
            .collect();
        FitConstraint {
            basis,
            lo: Rational::from_f64(lo),
            hi: Rational::from_f64(hi),
        }
    }
}

fn pow_rational(r: &Rational, e: u32) -> Rational {
    let mut acc = Rational::one();
    for _ in 0..e {
        acc = acc.mul(r);
    }
    acc
}

/// A successful fit.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The exact rational coefficients, one per basis function.
    pub coeffs: Vec<Rational>,
    /// The margin `delta >= 0` by which every constraint is interior.
    pub margin: Rational,
}

impl FitResult {
    /// Coefficients rounded to `f64` (each with one correct rounding).
    pub fn coeffs_f64(&self) -> Vec<f64> {
        self.coeffs.iter().map(Rational::to_f64).collect()
    }
}

/// Stable identity of one dual column across CEGIS rounds.
///
/// Between LP calls the sample grows (counterexamples append) so raw
/// column *indices* shift; what stays meaningful is *which constraint's
/// which bound* a dual variable belongs to. Warm bases are therefore
/// keyed by caller-supplied constraint ids and translated back to column
/// indices against each round's constraint slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmCol {
    /// The dual variable of constraint `id`'s upper (`hi`) or lower
    /// (`lo`) primal inequality.
    Constraint {
        /// Caller-assigned stable id of the constraint.
        id: u64,
        /// `true` for the `hi` bound's dual variable, `false` for `lo`'s.
        upper: bool,
    },
    /// An artificial left basic at zero in tableau row `row` (a redundant
    /// dual row; row count `k + 1` is fixed across rounds, so the slot
    /// translates directly).
    Artificial {
        /// Tableau row index of the basic artificial.
        row: usize,
    },
}

/// Optimal-basis snapshot handed back by [`max_margin_fit_warm`], to be
/// fed to the next call on a grown sample. Treat as opaque.
#[derive(Debug, Clone, Default)]
pub struct FitWarmStart {
    cols: Vec<WarmCol>,
}

/// Finds coefficients maximizing the margin, or `Ok(None)` when no
/// polynomial with this basis satisfies every interval.
///
/// Following SoPlex's iterative-refinement architecture, the solve runs in
/// two layers: a fast `f64` simplex proposes an optimal basis; the basis's
/// active constraints are then re-solved and the full constraint set
/// re-verified in **exact rational arithmetic**. Only when the floating
/// point basis fails exact verification does the slow exact simplex run.
/// A returned fit therefore always satisfies every constraint exactly; an
/// `Ok(None)` is exact whenever the exact path ran, and is a (practically
/// always correct) floating point verdict otherwise — a wrong `Ok(None)`
/// merely causes an unnecessary domain split upstream, never an incorrect
/// library.
///
/// # Errors
///
/// [`LpError::DimensionMismatch`] if constraints disagree on the basis
/// length; [`LpError::Cycling`] if the *exact* simplex exhausts its pivot
/// budget (an `f64`-layer budget exhaustion silently falls through to the
/// exact layer). Callers respond to `Cycling` by resampling.
///
/// # Example
///
/// ```
/// use rlibm_lp::fit::{max_margin_fit, FitConstraint};
/// // Fit c0 + c1 x through [0.9, 1.1] at x = 0 and [1.9, 2.1] at x = 1.
/// let cons = vec![
///     FitConstraint::from_point(0.0, 0.9, 1.1, &[0, 1]),
///     FitConstraint::from_point(1.0, 1.9, 2.1, &[0, 1]),
/// ];
/// let fit = max_margin_fit(&cons, 2).expect("solver ok").expect("feasible");
/// let c = fit.coeffs_f64();
/// assert!((c[0] - 1.0).abs() < 0.2 && (c[1] - 1.0).abs() < 0.4);
/// ```
pub fn max_margin_fit(
    constraints: &[FitConstraint],
    num_coeffs: usize,
) -> Result<Option<FitResult>, LpError> {
    let ids: Vec<u64> = (0..constraints.len() as u64).collect();
    Ok(max_margin_fit_warm(constraints, num_coeffs, &ids, None)?.map(|(fit, _)| fit))
}

/// [`max_margin_fit`] with warm-started re-solves for CEGIS loops.
///
/// `ids[i]` is a caller-chosen stable identity for `constraints[i]` —
/// stable meaning that when the caller re-invokes with a grown constraint
/// set (the CEGIS move: counterexamples append, intervals never change
/// identity), a surviving constraint keeps its id. The returned
/// [`FitWarmStart`] snapshots the optimal basis in id space; feeding it
/// to the next call lets both simplex layers skip phase 1 and re-enter at
/// the previous optimum, which is typically a handful of pivots from the
/// new one. Warm entry is strictly best-effort: any mismatch falls back
/// to the cold path inside the solver (counted by the
/// `lp.*.warm_fallbacks` telemetry), so correctness is untouched — a
/// returned fit is still exactly verified against every constraint.
///
/// # Errors
///
/// As [`max_margin_fit`], plus [`LpError::DimensionMismatch`] when `ids`
/// and `constraints` disagree in length. Duplicate ids make the id space
/// ambiguous and simply disable warm entry for that call.
pub fn max_margin_fit_warm(
    constraints: &[FitConstraint],
    num_coeffs: usize,
    ids: &[u64],
    warm: Option<&FitWarmStart>,
) -> Result<Option<(FitResult, FitWarmStart)>, LpError> {
    if constraints.is_empty() {
        return Ok(Some((
            FitResult {
                coeffs: vec![Rational::zero(); num_coeffs],
                margin: Rational::zero(),
            },
            FitWarmStart::default(),
        )));
    }
    if ids.len() != constraints.len() {
        return Err(LpError::DimensionMismatch {
            what: "constraint ids",
            expected: constraints.len(),
            got: ids.len(),
        });
    }
    let k = num_coeffs;
    for c in constraints {
        if c.basis.len() != k {
            return Err(LpError::DimensionMismatch {
                what: "constraint basis",
                expected: k,
                got: c.basis.len(),
            });
        }
        debug_assert!(c.lo <= c.hi, "empty interval");
    }
    let m = constraints.len();
    // Primal: min -delta over z = (c_0..c_{k-1}, delta) subject to
    //   ( a_i, 1) . z <= h_i      and      (-a_i, 1) . z <= -l_i.
    // Dual (what we actually solve): min q^T y, D^T y = (0,..,0,1), y >= 0
    // with one dual variable per primal inequality.
    let rows = k + 1;
    let cols = 2 * m;

    // Translate the id-space warm basis into this round's column indices.
    // An unknown id or bad row means the snapshot predates a sample reset:
    // silently solve cold (the solver-level fallback counters only track
    // warm attempts that reached the solver and failed there).
    let warm_cols: Option<Vec<usize>> = warm.and_then(|ws| {
        let index_of: HashMap<u64, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        if index_of.len() != ids.len() {
            return None; // duplicate ids: id space is ambiguous
        }
        ws.cols
            .iter()
            .map(|&wc| match wc {
                WarmCol::Constraint { id, upper } => index_of
                    .get(&id)
                    .map(|&i| 2 * i + usize::from(!upper)),
                WarmCol::Artificial { row } => (row < rows).then_some(cols + row),
            })
            .collect()
    });
    // Snapshot a solved basis back into id space.
    let snapshot = |basis: &[usize]| FitWarmStart {
        cols: basis
            .iter()
            .map(|&bj| {
                if bj < cols {
                    WarmCol::Constraint { id: ids[bj / 2], upper: bj % 2 == 0 }
                } else {
                    WarmCol::Artificial { row: bj - cols }
                }
            })
            .collect(),
    };

    // ---- Fast layer: f64 simplex proposes a basis. ----
    let budget = 2000 + 80 * m;
    let warm_cols = warm_cols.as_deref();
    let (a, b, c) = dual_lp::<f64>(constraints, k);
    if let Ok(StandardResult::Optimal { basis, .. }) = solve(&a, &b, &c, budget, warm_cols) {
        if let Some(fit) = recover_exact(&basis, constraints, k, cols) {
            if fit.margin.is_negative() {
                if warm_cols.is_none() {
                    // Exactly-computed optimum of the proposed basis is
                    // negative: no polynomial fits (modulo basis
                    // optimality, see the doc comment).
                    return Ok(None);
                }
                // A warm-started proposal must not decide infeasibility:
                // near a zero-margin optimum the warm pivot path can
                // terminate one vertex away from the cold path's, and an
                // "infeasible" verdict aborts the whole sub-domain. Fall
                // through to the exact layer for an exact verdict.
            } else if verify_exact(constraints, &fit.coeffs) {
                let ws = snapshot(&basis);
                return Ok(Some((fit, ws)));
            }
        }
    }

    // ---- Exact layer: rational simplex fallback. ----
    let (a, b, c) = dual_lp::<Rational>(constraints, k);
    let exact_result = solve(&a, &b, &c, budget, warm_cols)?;
    let (basis, objective) = match exact_result {
        StandardResult::Optimal { basis, objective, .. } => (basis, objective),
        StandardResult::Infeasible => {
            unreachable!("the dual of an always-feasible bounded primal cannot be infeasible")
        }
        // Dual unbounded <=> primal infeasible (cannot happen: delta is
        // free). Budget exhaustion propagates as LpError::Cycling above.
        StandardResult::Unbounded => return Ok(None),
    };
    if objective.is_negative() {
        return Ok(None);
    }
    let Some(fit) = recover_exact(&basis, constraints, k, cols) else {
        return Ok(None);
    };
    debug_assert_eq!(fit.margin, objective, "margin must equal the dual optimum");
    debug_assert!(verify_exact(constraints, &fit.coeffs));
    let ws = snapshot(&basis);
    Ok(Some((fit, ws)))
}

/// The dual LP in field `F`: `min q^T y, D^T y = (0,..,0,1), y >= 0`,
/// one column per primal inequality — constraint `i`'s `hi` bound in
/// column `2i`, its `lo` bound in column `2i + 1` — and `k + 1` rows.
fn dual_lp<F: Field>(constraints: &[FitConstraint], k: usize) -> (Vec<Vec<F>>, Vec<F>, Vec<F>) {
    let cols = 2 * constraints.len();
    let mut a = vec![vec![F::zero(); cols]; k + 1];
    let mut c = vec![F::zero(); cols];
    for (i, con) in constraints.iter().enumerate() {
        for (j, bj) in con.basis.iter().enumerate() {
            let v = F::from_rational(bj);
            a[j][2 * i + 1] = v.neg();
            a[j][2 * i] = v;
        }
        a[k][2 * i] = F::one();
        a[k][2 * i + 1] = F::one();
        c[2 * i] = F::from_rational(&con.hi);
        c[2 * i + 1] = F::from_rational(&con.lo).neg();
    }
    let mut b = vec![F::zero(); k + 1];
    b[k] = F::one();
    (a, b, c)
}

/// Solves the `k+1` active primal constraints named by a dual basis as an
/// exact linear system, recovering `(coefficients, margin)`.
fn recover_exact(
    basis: &[usize],
    constraints: &[FitConstraint],
    k: usize,
    cols: usize,
) -> Option<FitResult> {
    let (mut sys, mut rhs): (Vec<Vec<Rational>>, Vec<Rational>) = basis
        .iter()
        .map(|&bj| {
            if bj >= cols {
                // Artificial basic at zero pins the corresponding primal
                // coordinate to zero.
                let mut row = vec![Rational::zero(); k + 1];
                row[bj - cols] = Rational::one();
                return (row, Rational::zero());
            }
            // Column 2i is constraint i's ( a_i, 1) . z <= h_i, column
            // 2i + 1 its (-a_i, 1) . z <= -l_i.
            let (con, upper) = (&constraints[bj / 2], bj % 2 == 0);
            let sign = |v: &Rational| if upper { v.clone() } else { v.neg() };
            let row = con.basis.iter().map(sign).chain([Rational::one()]).collect();
            (row, if upper { con.hi.clone() } else { con.lo.neg() })
        })
        .unzip();
    let mut coeffs = solve_linear_system(&mut sys, &mut rhs)?;
    let margin = coeffs.pop()?;
    Some(FitResult { coeffs, margin })
}

/// Exact feasibility check of a coefficient vector against every
/// constraint (margin not required: the caller wants plain containment).
fn verify_exact(constraints: &[FitConstraint], coeffs: &[Rational]) -> bool {
    constraints.iter().all(|con| {
        let mut v = Rational::zero();
        for (b, c) in con.basis.iter().zip(coeffs) {
            if !c.is_zero() && !b.is_zero() {
                v = v.add(&b.mul(c));
            }
        }
        v >= con.lo && v <= con.hi
    })
}

/// Exact Gaussian elimination with partial (first-nonzero) pivoting.
/// Returns `None` for a singular system (degenerate dual basis).
// The elimination reads row `col` while writing row `r`; index loops keep
// that two-row access pattern visible.
#[allow(clippy::needless_range_loop)]
fn solve_linear_system(a: &mut [Vec<Rational>], b: &mut [Rational]) -> Option<Vec<Rational>> {
    let n = b.len();
    for col in 0..n {
        let pivot_row = (col..n).find(|&r| !a[r][col].is_zero())?;
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let p = a[col][col].clone();
        for r in 0..n {
            if r == col || a[r][col].is_zero() {
                continue;
            }
            let factor = a[r][col].div(&p);
            for j in col..n {
                if !a[col][j].is_zero() {
                    a[r][j] = a[r][j].sub(&factor.mul(&a[col][j]));
                }
            }
            b[r] = b[r].sub(&factor.mul(&b[col]));
        }
    }
    let mut x = vec![Rational::zero(); n];
    for i in 0..n {
        x[i] = b[i].div(&a[i][i]);
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_a_line_through_two_windows() {
        let cons = vec![
            FitConstraint::from_point(0.0, -0.1, 0.1, &[0, 1]),
            FitConstraint::from_point(1.0, 0.9, 1.1, &[0, 1]),
        ];
        let fit = max_margin_fit(&cons, 2).expect("lp").expect("feasible");
        assert!(!fit.margin.is_negative());
        let c = fit.coeffs_f64();
        // P(0) in [-0.1, 0.1], P(1) in [0.9, 1.1].
        assert!((-0.1..=0.1).contains(&c[0]));
        assert!((0.9..=1.1).contains(&(c[0] + c[1])));
    }

    #[test]
    fn margin_is_maximized() {
        // Single constraint: value at 0 in [0, 2]. Max margin = 1, value 1.
        let cons = vec![FitConstraint::from_point(0.0, 0.0, 2.0, &[0])];
        let fit = max_margin_fit(&cons, 1).expect("lp").expect("feasible");
        assert_eq!(fit.margin, Rational::one());
        assert_eq!(fit.coeffs[0], Rational::one());
    }

    #[test]
    fn detects_infeasible_windows() {
        // A degree-0 polynomial cannot be in [0, 0.1] and [1, 1.1] at once.
        let cons = vec![
            FitConstraint::from_point(0.5, 0.0, 0.1, &[0]),
            FitConstraint::from_point(0.7, 1.0, 1.1, &[0]),
        ];
        assert!(max_margin_fit(&cons, 1).expect("lp").is_none());
    }

    #[test]
    fn quadratic_through_three_tight_windows() {
        // y = x^2 sampled at 3 points with tiny windows.
        let eps = 1e-9;
        let cons: Vec<_> = [0.25, 0.5, 0.75]
            .iter()
            .map(|&x| FitConstraint::from_point(x, x * x - eps, x * x + eps, &[0, 1, 2]))
            .collect();
        let fit = max_margin_fit(&cons, 3).expect("lp").expect("feasible");
        let c = fit.coeffs_f64();
        assert!(c[0].abs() < 1e-6, "c0 = {}", c[0]);
        assert!(c[1].abs() < 1e-5, "c1 = {}", c[1]);
        assert!((c[2] - 1.0).abs() < 1e-5, "c2 = {}", c[2]);
    }

    #[test]
    fn odd_basis_for_sine_like_data() {
        // sin(pi r) on tiny domain fits c1 r + c3 r^3 with c1 ~ pi.
        let pts = [0.0001f64, 0.0005, 0.001, 0.0015, 0.00195];
        let cons: Vec<_> = pts
            .iter()
            .map(|&r| {
                let y = (core::f64::consts::PI * r).sin();
                FitConstraint::from_point(r, y - 1e-13, y + 1e-13, &[1, 3])
            })
            .collect();
        let fit = max_margin_fit(&cons, 2).expect("lp").expect("feasible");
        let c = fit.coeffs_f64();
        assert!((c[0] - core::f64::consts::PI).abs() < 1e-4, "c1 = {}", c[0]);
        assert!(c[1] < 0.0, "cubic term of sin must be negative: {}", c[1]);
    }

    #[test]
    fn singleton_intervals_force_interpolation() {
        // Exact point constraints: margin must be 0 and the line exact.
        let cons = vec![
            FitConstraint::from_point(0.0, 1.0, 1.0, &[0, 1]),
            FitConstraint::from_point(2.0, 5.0, 5.0, &[0, 1]),
        ];
        let fit = max_margin_fit(&cons, 2).expect("lp").expect("feasible");
        assert!(fit.margin.is_zero());
        assert_eq!(fit.coeffs[0], Rational::from_i64(1));
        assert_eq!(fit.coeffs[1], Rational::from_i64(2));
    }

    #[test]
    fn many_constraints_stay_fast() {
        // 400 constraints around y = 1 + x/2: the dual has only 3 rows.
        let mut cons = Vec::new();
        for i in 0..400 {
            let x = i as f64 / 400.0;
            let y = 1.0 + 0.5 * x;
            cons.push(FitConstraint::from_point(x, y - 1e-6, y + 1e-6, &[0, 1]));
        }
        let fit = max_margin_fit(&cons, 2).expect("lp").expect("feasible");
        let c = fit.coeffs_f64();
        assert!((c[0] - 1.0).abs() < 1e-5);
        assert!((c[1] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn warm_chain_reproduces_cold_fits_exactly() {
        // Simulate a CEGIS loop: start with a seed sample, append one
        // constraint per round (keeping ids stable), and carry the warm
        // basis forward. The cubic target is *not* representable by the
        // quadratic basis, so the max-margin optimum is pinned by genuine
        // approximation error and is unique (no equal-margin vertex
        // ties, the generic situation for real rounding intervals). The
        // warm fit must then be *identical* — same exact rational
        // coefficients — to a cold fit of the same constraint set: warm
        // entry may only change the pivot path, not the optimum.
        let curve = |x: f64| 0.3 + 0.7 * x - 0.4 * x * x + 0.9 * x * x * x;
        let mk = |i: usize| {
            let x = 0.05 + i as f64 * 0.11 + (i * i % 7) as f64 * 0.013;
            // Width chosen so the best-quadratic error binds (margin < w,
            // making the optimum unique) while staying feasible as the
            // appended points stretch the domain.
            let w = 0.08;
            FitConstraint::from_point(x, curve(x) - w, curve(x) + w, &[0, 1, 2])
        };
        let mut cons: Vec<FitConstraint> = (0..8).map(mk).collect();
        let mut ids: Vec<u64> = (0..8).collect();
        let mut warm: Option<FitWarmStart> = None;
        for round in 0..6 {
            let (fit, ws) = max_margin_fit_warm(&cons, 3, &ids, warm.as_ref())
                .expect("lp")
                .expect("feasible");
            let cold = max_margin_fit(&cons, 3).expect("lp").expect("feasible");
            assert_eq!(fit.margin, cold.margin, "round {round}");
            assert_eq!(fit.coeffs, cold.coeffs, "round {round}");
            let i = 8 + round;
            cons.push(mk(i));
            ids.push(i as u64);
            warm = Some(ws);
        }
    }

    #[test]
    fn mismatched_ids_are_a_typed_error() {
        let cons = vec![FitConstraint::from_point(0.0, 0.0, 2.0, &[0])];
        assert!(matches!(
            max_margin_fit_warm(&cons, 1, &[], None),
            Err(LpError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn stale_warm_start_still_fits() {
        // A warm start naming ids that no longer exist must fall back
        // cleanly and still produce a verified fit.
        let cons = vec![FitConstraint::from_point(0.0, 0.0, 2.0, &[0])];
        let (_, ws) = max_margin_fit_warm(&cons, 1, &[7], None)
            .expect("lp")
            .expect("feasible");
        let cons2 = vec![FitConstraint::from_point(0.0, 0.0, 4.0, &[0])];
        let (fit, _) = max_margin_fit_warm(&cons2, 1, &[99], Some(&ws))
            .expect("lp")
            .expect("feasible");
        assert_eq!(fit.coeffs[0], Rational::from_i64(2));
        assert_eq!(fit.margin, Rational::from_i64(2));
    }
}
