//! Two-phase primal simplex, generic over the field it pivots in.
//!
//! Solves `min c·x` subject to `A x = b`, `x >= 0`. The one algorithm runs
//! in two fields, following SoPlex's iterative-refinement design (Gleixner,
//! Steffy, Wolter, ISSAC'12, the paper's citation [17]):
//!
//! * `f64`, the *basis oracle*: fast, and almost surely right about which
//!   basis is optimal. [`crate::fit`] re-solves that basis's active
//!   constraints exactly and verifies every constraint in rational
//!   arithmetic.
//! * [`Rational`], the reference: every pivot is exact, which is what makes
//!   SoPlex (in its exact mode) the solver of choice in the paper — a
//!   floating point solver can return "feasible" coefficients that violate
//!   a rounding interval by a hair. It runs only when the `f64` proposal
//!   fails exact verification, and it is the only source of infeasibility
//!   verdicts.
//!
//! Pivoting uses Dantzig's rule for speed with an automatic switch to
//! Bland's rule (which provably terminates) if degeneracy drags on. What
//! differs between the fields — comparison tolerances, the Bland switch
//! point, the warm pivot-row choice, the row-update kernel and the
//! telemetry counters — lives in [`Field`] and nowhere else.

use crate::error::LpError;
use core::cmp::Ordering;
use rlibm_mp::Rational;
use rlibm_obs::Counter;

/// One field's solver telemetry (no-ops unless built with the `telemetry`
/// feature). Pivot counts dominate generation cost once tableau entries
/// grow, so the exact/f64 pivot ratio is the number to watch when tuning
/// the basis-oracle refinement path.
pub(crate) struct Counters {
    solves: Counter,
    pivots: Counter,
    cycling: Counter,
    warm_starts: Counter,
    warm_fallbacks: Counter,
}

static F64_COUNTERS: Counters = Counters {
    solves: Counter::new("lp.f64.solves"),
    pivots: Counter::new("lp.f64.pivots"),
    cycling: Counter::new("lp.f64.cycling"),
    warm_starts: Counter::new("lp.f64.warm_starts"),
    warm_fallbacks: Counter::new("lp.f64.warm_fallbacks"),
};
static EXACT_COUNTERS: Counters = Counters {
    solves: Counter::new("lp.exact.solves"),
    pivots: Counter::new("lp.exact.pivots"),
    cycling: Counter::new("lp.exact.cycling"),
    warm_starts: Counter::new("lp.exact.warm_starts"),
    warm_fallbacks: Counter::new("lp.exact.warm_fallbacks"),
};

/// Forces both fields' simplex counters into the snapshot registry at
/// zero. The exact layer only runs when the f64 proposal fails
/// certification, so without this a clean run would omit its counters
/// entirely and a report could not distinguish "never needed" from "not
/// linked".
pub fn register_metrics() {
    for c in [&F64_COUNTERS, &EXACT_COUNTERS] {
        for m in [&c.solves, &c.pivots, &c.cycling, &c.warm_starts, &c.warm_fallbacks] {
            m.register();
        }
    }
}

/// The arithmetic the simplex pivots in, and every decision that depends
/// on it being exact or not.
pub(crate) trait Field: Clone + PartialOrd {
    /// Bland's rule takes over after this many times `total columns`
    /// degenerate pivots in a row.
    const BLAND_AFTER: usize;
    const COUNTERS: &'static Counters;
    fn zero() -> Self;
    fn one() -> Self;
    /// The field's value of an exact rational.
    fn from_rational(q: &Rational) -> Self;
    /// Exactly zero (a skippable term).
    fn is_zero(&self) -> bool;
    fn neg(&self) -> Self;
    fn add(&self, other: &Self) -> Self;
    fn sub(&self, other: &Self) -> Self;
    fn mul(&self, other: &Self) -> Self;
    fn div(&self, other: &Self) -> Self;
    /// The sign, `Equal` inside the field's tolerance of zero.
    fn sign(&self) -> Ordering;
    /// Ratio-test order, `Equal` inside the field's tolerance.
    fn ratio_order(&self, other: &Self) -> Ordering;
    /// The row to pivot a warm column in on, from `(row, entry)` over the
    /// unclaimed rows.
    fn warm_row<'a>(column: impl Iterator<Item = (usize, &'a Self)>) -> Option<usize>
    where
        Self: 'a;
    /// `row /= p`.
    fn scale_row(row: &mut [Self], p: &Self);
    /// `row -= factor * pivot_row`.
    fn eliminate(row: &mut [Self], factor: &Self, pivot_row: &[Self]);
}

/// Tolerance of the f64 sign, ratio and warm-pivot tests.
const EPS: f64 = 1e-9;

impl Field for f64 {
    const BLAND_AFTER: usize = 4;
    const COUNTERS: &'static Counters = &F64_COUNTERS;
    fn zero() -> f64 {
        0.0
    }
    fn one() -> f64 {
        1.0
    }
    fn from_rational(q: &Rational) -> f64 {
        q.to_f64()
    }
    fn is_zero(&self) -> bool {
        *self == 0.0
    }
    fn neg(&self) -> f64 {
        -*self
    }
    fn add(&self, other: &f64) -> f64 {
        self + other
    }
    fn sub(&self, other: &f64) -> f64 {
        self - other
    }
    fn mul(&self, other: &f64) -> f64 {
        self * other
    }
    fn div(&self, other: &f64) -> f64 {
        self / other
    }
    fn sign(&self) -> Ordering {
        if *self < -EPS {
            Ordering::Less
        } else if *self > EPS {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    }
    fn ratio_order(&self, other: &f64) -> Ordering {
        if *self < other - EPS {
            Ordering::Less
        } else if *self < other + EPS {
            Ordering::Equal
        } else {
            Ordering::Greater
        }
    }
    /// Partial pivoting: the warm columns are linearly independent if the
    /// old basis still makes sense, so a greedy largest-|entry| assignment
    /// (the first on a tie) succeeds unless the basis is stale.
    fn warm_row<'a>(column: impl Iterator<Item = (usize, &'a f64)>) -> Option<usize> {
        let big = column.filter(|(_, v)| v.abs() > EPS);
        big.min_by(|(_, a), (_, b)| b.abs().total_cmp(&a.abs())).map(|(i, _)| i)
    }
    fn scale_row(row: &mut [f64], p: &f64) {
        for v in row {
            *v /= p;
        }
    }
    fn eliminate(row: &mut [f64], factor: &f64, pivot_row: &[f64]) {
        for (v, p) in row.iter_mut().zip(pivot_row) {
            *v -= factor * p;
        }
    }
}

impl Field for Rational {
    const BLAND_AFTER: usize = 2;
    const COUNTERS: &'static Counters = &EXACT_COUNTERS;
    fn zero() -> Rational {
        Rational::zero()
    }
    fn one() -> Rational {
        Rational::one()
    }
    fn from_rational(q: &Rational) -> Rational {
        q.clone()
    }
    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }
    fn neg(&self) -> Rational {
        Rational::neg(self)
    }
    fn add(&self, other: &Rational) -> Rational {
        Rational::add(self, other)
    }
    fn sub(&self, other: &Rational) -> Rational {
        Rational::sub(self, other)
    }
    fn mul(&self, other: &Rational) -> Rational {
        Rational::mul(self, other)
    }
    fn div(&self, other: &Rational) -> Rational {
        Rational::div(self, other)
    }
    fn sign(&self) -> Ordering {
        self.signum().cmp(&0)
    }
    fn ratio_order(&self, other: &Rational) -> Ordering {
        self.cmp(other)
    }
    /// Any nonzero entry is a valid pivot; first-match keeps the entry
    /// deterministic.
    fn warm_row<'a>(mut column: impl Iterator<Item = (usize, &'a Rational)>) -> Option<usize> {
        column.find(|(_, v)| !v.is_zero()).map(|(i, _)| i)
    }
    /// Zeros stay zero: entries grow to thousands of bits, so skipping
    /// them is most of the speed.
    fn scale_row(row: &mut [Rational], p: &Rational) {
        for v in row {
            if !v.is_zero() {
                *v = Rational::div(v, p);
            }
        }
    }
    fn eliminate(row: &mut [Rational], factor: &Rational, pivot_row: &[Rational]) {
        for (v, p) in row.iter_mut().zip(pivot_row) {
            if !p.is_zero() {
                *v = Rational::sub(v, &Rational::mul(factor, p));
            }
        }
    }
}

/// Outcome of a standard-form solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StandardResult<F = Rational> {
    /// An optimal basic solution.
    Optimal {
        /// Values of all variables (length = number of columns).
        x: Vec<F>,
        /// Objective value `c·x`.
        objective: F,
        /// Column indices of the final basis, one per row.
        basis: Vec<usize>,
    },
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// Exact simplex solver for `min c·x, A x = b, x >= 0`.
///
/// # Example
///
/// ```
/// use rlibm_lp::simplex::solve_standard_form;
/// use rlibm_mp::Rational;
/// let r = Rational::from_i64;
/// // min -x0 s.t. x0 + x1 = 4, x0 <= 3 (x0 + x2 = 3): optimum x0 = 3.
/// let a = vec![vec![r(1), r(1), r(0)], vec![r(1), r(0), r(1)]];
/// let b = vec![r(4), r(3)];
/// let c = vec![r(-1), r(0), r(0)];
/// match solve_standard_form(&a, &b, &c, 100_000) {
///     Ok(rlibm_lp::simplex::StandardResult::Optimal { x, .. }) => {
///         assert_eq!(x[0], r(3));
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
///
/// # Errors
///
/// As [`solve`].
pub fn solve_standard_form(
    a: &[Vec<Rational>],
    b: &[Rational],
    c: &[Rational],
    max_pivots: usize,
) -> Result<StandardResult, LpError> {
    solve(a, b, c, max_pivots, None)
}

/// Solves `min c·x, A x = b, x >= 0` in the field `F`.
///
/// With `warm`, the optimal basis of a previous related solve with the
/// same rows, it first tries to re-enter the simplex there. The two moves
/// a CEGIS loop makes between LP calls — appending columns (new
/// counterexamples become dual variables) and rewriting the objective
/// (interval refinement) — both leave an old basis primal feasible, so
/// phase 1 can be skipped: rebuild the tableau, pivot the warm columns
/// back in, drive basic artificials out as the cold path does after
/// phase 1, and run phase 2 directly. Any snag (stale index, dependent
/// column, negative rhs, exhausted budget) falls back to the cold
/// two-phase solve; warm starting can only change speed, never the
/// validity of the answer.
///
/// # Errors
///
/// [`LpError::DimensionMismatch`] if the matrix dimensions are
/// inconsistent; [`LpError::Cycling`] when the `max_pivots` budget runs
/// out before optimality (callers respond by splitting domains or
/// resampling). A failed warm entry is not an error, only a counted
/// fallback.
pub(crate) fn solve<F: Field>(
    a: &[Vec<F>],
    b: &[F],
    c: &[F],
    max_pivots: usize,
    warm: Option<&[usize]>,
) -> Result<StandardResult<F>, LpError> {
    let counters = F::COUNTERS;
    counters.solves.add(1);
    let dims = check_dims(a, b, c);
    if let Some(warm) = warm {
        if let Ok(n) = dims {
            if let Some(res) = warm_entry(a, b, c, n, max_pivots, warm) {
                counters.warm_starts.add(1);
                return Ok(res);
            }
        }
        counters.warm_fallbacks.add(1);
    }
    let n = dims?;
    let cycling = || {
        counters.cycling.add(1);
        Err(LpError::Cycling { pivots: max_pivots })
    };

    // Phase 1: one artificial per row (after sign-normalizing b >= 0),
    // minimize their sum.
    let mut t = Tableau::new(a, b, n, max_pivots);
    let m = t.rows.len();
    let cost: Vec<F> = (0..n + m).map(|j| if j >= n { F::one() } else { F::zero() }).collect();
    match t.run(n + m, &cost) {
        Phase::Optimal => {}
        Phase::Unbounded => unreachable!("phase-1 objective cannot be unbounded"),
        Phase::OutOfBudget => return cycling(),
    }
    // Phase-1 objective = sum of basic artificial values.
    let mut infeasibility = F::zero();
    for (row, &bj) in t.rows.iter().zip(&t.basis) {
        if bj >= n {
            infeasibility = infeasibility.add(&row[n + m]);
        }
    }
    if infeasibility.sign().is_gt() {
        return Ok(StandardResult::Infeasible);
    }
    t.drive_out_artificials();
    match t.phase2(c) {
        Some(res) => Ok(res),
        None => cycling(),
    }
}

/// The column count, or the first inconsistent dimension.
fn check_dims<F>(a: &[Vec<F>], b: &[F], c: &[F]) -> Result<usize, LpError> {
    let n = a.first().map_or(c.len(), Vec::len);
    let ragged = a.iter().map(Vec::len).find(|&len| len != n).unwrap_or(n);
    let dims = [
        ("rhs length", a.len(), b.len()),
        ("constraint row", n, ragged),
        ("objective length", n, c.len()),
    ];
    match dims.into_iter().find(|&(_, expected, got)| expected != got) {
        Some((what, expected, got)) => Err(LpError::DimensionMismatch { what, expected, got }),
        None => Ok(n),
    }
}

/// The warm-entry body: `None` means "fall back to the cold solve".
fn warm_entry<F: Field>(
    a: &[Vec<F>],
    b: &[F],
    c: &[F],
    n: usize,
    max_pivots: usize,
    warm: &[usize],
) -> Option<StandardResult<F>> {
    let m = a.len();
    if warm.len() != m {
        return None;
    }
    let mut t = Tableau::new(a, b, n, max_pivots);
    let mut in_basis = vec![false; n + m];
    for &j in warm {
        if j >= n + m || in_basis[j] {
            return None; // stale or duplicated column: basis unusable
        }
        in_basis[j] = true;
    }
    // Artificial warm columns are already basic in their own row (the
    // identity block), so row i is claimed while column n + i is in the
    // basis; structural ones must be pivoted in, each claiming a row.
    let claimed = &mut in_basis[n..];
    for &j in warm.iter().filter(|&&j| j < n) {
        let unclaimed = t.rows.iter().enumerate().filter(|&(i, _)| !claimed[i]);
        let i = F::warm_row(unclaimed.map(|(i, row)| (i, &row[j])))?;
        if t.pivots_left == 0 {
            return None;
        }
        t.pivots_left -= 1;
        t.pivot(i, j);
        claimed[i] = true;
    }
    // The rebuilt basis must be primal feasible (rhs >= 0) with every
    // still-basic artificial at zero; otherwise phase 1 is really needed
    // and the cold path should run it.
    for (row, &bj) in t.rows.iter().zip(&t.basis) {
        let rhs = &row[n + m];
        if rhs.sign().is_lt() || (bj >= n && rhs.sign().is_gt()) {
            return None;
        }
    }
    t.drive_out_artificials();
    t.phase2(c)
}

/// Result of one simplex phase.
enum Phase {
    Optimal,
    Unbounded,
    OutOfBudget,
}

/// A sign-normalized `[A | I | b]` tableau with one artificial per row,
/// its basis, and what is left of the pivot budget.
struct Tableau<F> {
    rows: Vec<Vec<F>>,
    basis: Vec<usize>,
    /// Structural column count; artificials are columns `n..n + m`.
    n: usize,
    pivots_left: usize,
}

impl<F: Field> Tableau<F> {
    fn new(a: &[Vec<F>], b: &[F], n: usize, max_pivots: usize) -> Tableau<F> {
        let m = a.len();
        let rows = a.iter().zip(b).enumerate().map(|(i, (ai, bi))| {
            let flip = *bi < F::zero();
            let signed = |v: &F| if flip { v.neg() } else { v.clone() };
            let mut row = Vec::with_capacity(n + m + 1);
            row.extend(ai.iter().map(signed));
            row.extend((0..m).map(|k| if k == i { F::one() } else { F::zero() }));
            row.push(signed(bi));
            row
        });
        let rows = rows.collect();
        Tableau { rows, basis: (n..n + m).collect(), n, pivots_left: max_pivots }
    }

    /// Pivots every basic artificial, each at value zero, out of its row
    /// on the row's first nonzero structural entry. A row that is zero on
    /// every structural column is redundant: its artificial stays basic
    /// at zero, which is harmless for phase 2, since its column is barred
    /// from entering and no pivot on a structural column changes its
    /// all-zero row. A row that is not must not keep one, or phase 2
    /// could raise it above zero and solve another problem.
    fn drive_out_artificials(&mut self) {
        for i in 0..self.rows.len() {
            if self.basis[i] >= self.n {
                if let Some(j) = (0..self.n).find(|&j| self.rows[i][j].sign().is_ne()) {
                    self.pivot(i, j);
                }
            }
        }
    }

    /// Phase 2 on the original costs, artificial columns barred from
    /// entering at cost zero; `None` when the budget runs out.
    fn phase2(mut self, c: &[F]) -> Option<StandardResult<F>> {
        let (n, m) = (self.n, self.rows.len());
        let cost: Vec<F> = c.iter().cloned().chain(core::iter::repeat_n(F::zero(), m)).collect();
        match self.run(n, &cost) {
            Phase::Optimal => {}
            Phase::Unbounded => return Some(StandardResult::Unbounded),
            Phase::OutOfBudget => return None,
        }
        let mut x = vec![F::zero(); n];
        for (row, &bj) in self.rows.iter().zip(&self.basis) {
            if bj < n {
                x[bj] = row[n + m].clone();
            }
        }
        let mut objective = F::zero();
        for (cj, xj) in c.iter().zip(&x) {
            if !xj.is_zero() {
                objective = objective.add(&cj.mul(xj));
            }
        }
        Some(StandardResult::Optimal { x, objective, basis: self.basis })
    }

    /// The pricing and ratio-test loop. Columns `>= enter_limit` never
    /// enter the basis.
    fn run(&mut self, enter_limit: usize, cost: &[F]) -> Phase {
        let total = self.n + self.rows.len();
        let mut degenerate_streak = 0usize;
        loop {
            // Reduced costs computed directly: rc_j = c_j - sum_i cb_i T[i][j].
            let bland = degenerate_streak > F::BLAND_AFTER * total;
            let mut entering: Option<(usize, F)> = None;
            for j in 0..enter_limit {
                if self.basis.contains(&j) {
                    continue;
                }
                let mut rc = cost[j].clone();
                for (row, &bi) in self.rows.iter().zip(&self.basis) {
                    let (cb, tij) = (&cost[bi], &row[j]);
                    if !cb.is_zero() && !tij.is_zero() {
                        rc = rc.sub(&cb.mul(tij));
                    }
                }
                if rc.sign().is_lt() {
                    if bland {
                        entering = Some((j, rc));
                        break; // Bland: first improving column
                    }
                    match &entering {
                        Some((_, best)) if rc >= *best => {}
                        _ => entering = Some((j, rc)),
                    }
                }
            }
            let Some((j_in, _)) = entering else {
                return Phase::Optimal;
            };
            // Ratio test (Bland tie-break on smallest basis index).
            let mut leave: Option<(usize, F)> = None;
            for (i, row) in self.rows.iter().enumerate() {
                if !row[j_in].sign().is_gt() {
                    continue;
                }
                let ratio = row[total].div(&row[j_in]);
                let better = leave.as_ref().is_none_or(|(li, lr)| match ratio.ratio_order(lr) {
                    Ordering::Less => true,
                    Ordering::Equal => self.basis[i] < self.basis[*li],
                    Ordering::Greater => false,
                });
                if better {
                    leave = Some((i, ratio));
                }
            }
            let Some((i_out, ratio)) = leave else {
                return Phase::Unbounded;
            };
            degenerate_streak = if ratio.sign().is_ne() { 0 } else { degenerate_streak + 1 };
            if self.pivots_left == 0 {
                return Phase::OutOfBudget;
            }
            self.pivots_left -= 1;
            self.pivot(i_out, j_in);
        }
    }

    /// Gauss-Jordan pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        F::COUNTERS.pivots.add(1);
        let mut pivot_row = core::mem::take(&mut self.rows[row]);
        let p = pivot_row[col].clone();
        debug_assert!(p.sign().is_ne());
        F::scale_row(&mut pivot_row, &p);
        // The pivot entry itself becomes exactly 1.
        pivot_row[col] = F::one();
        for r in &mut self.rows {
            // The pivot row's slot is empty while it is taken out.
            let Some(factor) = r.get(col).filter(|f| !f.is_zero()).cloned() else {
                continue;
            };
            F::eliminate(r, &factor, &pivot_row);
            r[col] = F::zero();
        }
        self.rows[row] = pivot_row;
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(x: f64) -> Rational {
        Rational::from_f64(x)
    }

    /// A matrix in field `F` from exactly representable f64 literals.
    fn mat<F: Field>(rows: &[&[f64]]) -> Vec<Vec<F>> {
        rows.iter().map(|r| vec_of(r)).collect()
    }

    fn vec_of<F: Field>(v: &[f64]) -> Vec<F> {
        v.iter().map(|&x| F::from_rational(&q(x))).collect()
    }

    /// Equality within `tol` in f64; exact equality in the rationals.
    trait Close {
        fn close(&self, other: &Self, tol: f64) -> bool;
    }

    impl Close for f64 {
        fn close(&self, other: &f64, tol: f64) -> bool {
            (self - other).abs() < tol
        }
    }

    impl Close for Rational {
        fn close(&self, other: &Rational, _tol: f64) -> bool {
            self == other
        }
    }

    /// Runs a check over both fields.
    macro_rules! both_fields {
        ($check:ident) => {
            $check::<f64>();
            $check::<Rational>();
        };
    }

    // min -x - y s.t. x + 2y + s1 = 4; 3x + y + s2 = 6. Vertices: the
    // optimum is at x = 8/5, y = 6/5 with objective -14/5.
    fn small<F: Field>() -> (Vec<Vec<F>>, Vec<F>, Vec<F>) {
        let a = mat(&[&[1.0, 2.0, 1.0, 0.0], &[3.0, 1.0, 0.0, 1.0]]);
        (a, vec_of(&[4.0, 6.0]), vec_of(&[-1.0, -1.0, 0.0, 0.0]))
    }

    fn small_objective<F: Field>() -> F {
        F::from_rational(&Rational::from_ratio_i64(-14, 5))
    }

    // Multiple redundant rows force degenerate pivots.
    fn degenerate<F: Field>() -> (Vec<Vec<F>>, Vec<F>, Vec<F>) {
        let a = mat(&[
            &[1.0, 1.0, 1.0, 0.0, 0.0],
            &[2.0, 2.0, 0.0, 1.0, 0.0],
            &[1.0, 1.0, 0.0, 0.0, 1.0],
        ]);
        (a, vec_of(&[2.0, 4.0, 2.0]), vec_of(&[-1.0, -2.0, 0.0, 0.0, 0.0]))
    }

    #[test]
    fn simple_optimum() {
        fn check<F: Field + Close + core::fmt::Debug>() {
            let (a, b, c) = small::<F>();
            match solve(&a, &b, &c, 10_000, None) {
                Ok(StandardResult::Optimal { x, objective, .. }) => {
                    let r = |n, d| F::from_rational(&Rational::from_ratio_i64(n, d));
                    assert!(x[0].close(&r(8, 5), 1e-9), "{x:?}");
                    assert!(x[1].close(&r(6, 5), 1e-9), "{x:?}");
                    assert!(objective.close(&small_objective(), 1e-9), "{objective:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        both_fields!(check);
    }

    #[test]
    fn detects_infeasible() {
        fn check<F: Field + core::fmt::Debug>() {
            // x = 1 and x = 2 simultaneously.
            let a = mat::<F>(&[&[1.0], &[1.0]]);
            let r = solve(&a, &vec_of(&[1.0, 2.0]), &vec_of(&[0.0]), 10_000, None);
            assert!(matches!(r, Ok(StandardResult::Infeasible)), "{r:?}");
        }
        both_fields!(check);
    }

    #[test]
    fn detects_unbounded() {
        fn check<F: Field + core::fmt::Debug>() {
            // min -x s.t. x - y = 0: x can grow forever.
            let a = mat::<F>(&[&[1.0, -1.0]]);
            let r = solve(&a, &vec_of(&[0.0]), &vec_of(&[-1.0, 0.0]), 10_000, None);
            assert!(matches!(r, Ok(StandardResult::Unbounded)), "{r:?}");
        }
        both_fields!(check);
    }

    #[test]
    fn no_constraints_with_a_negative_cost_is_unbounded() {
        fn check<F: Field + core::fmt::Debug>() {
            let r = solve::<F>(&[], &[], &vec_of(&[1.0, -1.0]), 10, None);
            assert!(matches!(r, Ok(StandardResult::Unbounded)), "{r:?}");
            let r = solve::<F>(&[], &[], &vec_of(&[1.0, 0.0]), 10, None);
            assert!(matches!(r, Ok(StandardResult::Optimal { .. })), "{r:?}");
        }
        both_fields!(check);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // -x = -3 => x = 3.
        let r = Rational::from_i64;
        match solve_standard_form(&[vec![r(-1)]], &[r(-3)], &[r(1)], 10_000) {
            Ok(StandardResult::Optimal { x, .. }) => assert_eq!(x[0], r(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn solution_satisfies_constraints_exactly() {
        // Random-ish fractional system solved exactly.
        let r = Rational::from_i64;
        let rr = Rational::from_ratio_i64;
        let a = vec![
            vec![rr(1, 3), rr(2, 7), r(1), r(0)],
            vec![rr(5, 2), rr(-1, 4), r(0), r(1)],
        ];
        let b = vec![rr(10, 21), rr(9, 4)];
        let c = vec![r(-2), r(-3), r(0), r(0)];
        match solve_standard_form(&a, &b, &c, 10_000) {
            Ok(StandardResult::Optimal { x, .. }) => assert_feasible(&a, &b, &x),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `A x = b, x >= 0`, exactly.
    fn assert_feasible(a: &[Vec<Rational>], b: &[Rational], x: &[Rational]) {
        for (row, rhs) in a.iter().zip(b) {
            let mut lhs = Rational::zero();
            for (aij, xj) in row.iter().zip(x) {
                lhs = lhs.add(&aij.mul(xj));
            }
            assert_eq!(lhs, *rhs, "exact equality must hold");
        }
        for xj in x {
            assert!(!xj.is_negative());
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        let (a, b, c) = degenerate::<Rational>();
        match solve_standard_form(&a, &b, &c, 100_000) {
            Ok(StandardResult::Optimal { objective, .. }) => {
                assert_eq!(objective, Rational::from_i64(-4));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_is_a_typed_error() {
        // Both problems need several pivots; a budget of zero must
        // surface as LpError::Cycling, never a panic or a spin.
        fn check<F: Field + core::fmt::Debug>() {
            for (a, b, c) in [small::<F>(), degenerate::<F>()] {
                assert_eq!(solve(&a, &b, &c, 0, None).err(), Some(LpError::Cycling { pivots: 0 }));
            }
        }
        both_fields!(check);
    }

    #[test]
    fn warm_restart_from_own_optimum() {
        fn check<F: Field + Close + core::fmt::Debug>() {
            let (a, b, c) = small::<F>();
            let cold = solve(&a, &b, &c, 10_000, None);
            let Ok(StandardResult::Optimal { x, objective, basis }) = cold else {
                panic!("cold solve failed")
            };
            // Re-solving from the optimum must hit the same optimum with no
            // phase-1 work (an already-optimal basis needs zero phase-2
            // pivots, so a budget covering only the basis-entry pivots
            // suffices).
            match solve(&a, &b, &c, basis.len(), Some(&basis)) {
                Ok(StandardResult::Optimal { x: wx, objective: wo, basis: wb }) => {
                    assert!(wo.close(&objective, 1e-12), "{wo:?} vs {objective:?}");
                    assert!(wx.iter().zip(&x).all(|(w, c)| w.close(c, 1e-12)), "{wx:?} vs {x:?}");
                    let (mut sorted, mut cold_sorted) = (wb, basis);
                    sorted.sort_unstable();
                    cold_sorted.sort_unstable();
                    assert_eq!(sorted, cold_sorted);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        both_fields!(check);
    }

    #[test]
    fn warm_survives_appended_columns_and_changed_objective() {
        // The CEGIS moves: append columns, rewrite the objective. The old
        // basis indices survive verbatim and the warm answer must equal
        // the cold one.
        fn check<F: Field + Close + core::fmt::Debug>() {
            let a1 = mat::<F>(&[&[1.0, 0.0], &[0.0, 1.0]]);
            let b = vec_of::<F>(&[2.0, 3.0]);
            let Ok(StandardResult::Optimal { basis, .. }) =
                solve(&a1, &b, &vec_of(&[-1.0, -1.0]), 1000, None)
            else {
                panic!("round 1 failed")
            };
            let c2 = vec_of::<F>(&[-1.0, -2.0, -10.0, 0.0]);
            for last in [1.0, 0.5] {
                let a2 = mat::<F>(&[&[1.0, 0.0, 1.0, 2.0], &[0.0, 1.0, 1.0, last]]);
                let warm = solve(&a2, &b, &c2, 1000, Some(&basis)).expect("warm");
                let cold = solve(&a2, &b, &c2, 1000, None).expect("cold");
                let (
                    StandardResult::Optimal { objective: wo, .. },
                    StandardResult::Optimal { objective: co, .. },
                ) = (warm, cold)
                else {
                    panic!("expected optimal from both paths")
                };
                assert!(wo.close(&co, 1e-9), "warm {wo:?} vs cold {co:?}");
            }
        }
        both_fields!(check);
    }

    #[test]
    fn stale_warm_basis_falls_back_to_cold() {
        fn check<F: Field + Close + core::fmt::Debug>() {
            let (a, b, c) = small::<F>();
            // Out-of-range, duplicated and short bases: all must quietly
            // cold-solve.
            for bogus in [vec![99usize, 0], vec![1usize, 1], vec![0usize]] {
                match solve(&a, &b, &c, 10_000, Some(&bogus)) {
                    Ok(StandardResult::Optimal { objective, .. }) => {
                        assert!(objective.close(&small_objective(), 1e-9), "{objective:?}");
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        both_fields!(check);
    }

    #[test]
    fn warm_artificial_in_a_live_row_is_driven_out() {
        // min -10 x0 s.t. -x0 + x1 = 0, x1 + x2 = 1: optimum x0 = x1 = 1.
        // The warm basis {a0, x2} keeps artificial a0 basic at zero in row
        // 0, which is not zero on x0 and x1. Left there, phase 2 raises a0
        // with x0 and reports the LP unbounded.
        fn check<F: Field + Close + core::fmt::Debug>() {
            let a = mat::<F>(&[&[-1.0, 1.0, 0.0], &[0.0, 1.0, 1.0]]);
            let (b, c) = (vec_of::<F>(&[0.0, 1.0]), vec_of::<F>(&[-10.0, 0.0, 0.0]));
            let cold = solve(&a, &b, &c, 1000, None);
            let warm = warm_entry(&a, &b, &c, 3, 1000, &[3, 2]);
            match (cold, warm) {
                (
                    Ok(StandardResult::Optimal { x, objective, .. }),
                    Some(StandardResult::Optimal { x: wx, objective: wo, .. }),
                ) => {
                    assert!(objective.close(&F::from_rational(&Rational::from_i64(-10)), 1e-9));
                    assert!(wo.close(&objective, 1e-9), "warm {wo:?} vs cold {objective:?}");
                    assert!(wx.iter().zip(&x).all(|(w, c)| w.close(c, 1e-9)), "{wx:?} vs {x:?}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        both_fields!(check);
    }

    #[test]
    fn ragged_matrix_is_a_typed_error() {
        fn check<F: Field + core::fmt::Debug>() {
            let a = vec![vec_of::<F>(&[1.0, 2.0]), vec_of(&[1.0])];
            let r = solve(&a, &vec_of(&[1.0, 2.0]), &vec_of(&[0.0, 0.0]), 100, None);
            assert!(matches!(r, Err(LpError::DimensionMismatch { .. })), "{r:?}");
        }
        both_fields!(check);
    }

    /// Seeded sweep of small random integer LPs through both fields: the
    /// statuses agree, the f64 objective is within tolerance of the exact
    /// one, the exact solution satisfies `A x = b, x >= 0` exactly, and
    /// warm re-entry from each cold optimum returns that optimum without
    /// a phase-2 pivot.
    #[test]
    fn both_fields_agree_on_random_lps() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |lo: i64, hi: i64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            lo + (z % (hi - lo + 1) as u64) as i64
        };
        let mut seen = [0usize; 3];
        for case in 0..400 {
            let m = draw(1, 4) as usize;
            let n = draw(1, 6) as usize;
            let a: Vec<Vec<f64>> =
                (0..m).map(|_| (0..n).map(|_| draw(-3, 3) as f64).collect()).collect();
            let b: Vec<f64> = (0..m).map(|_| draw(-4, 4) as f64).collect();
            let c: Vec<f64> = (0..n).map(|_| draw(-3, 3) as f64).collect();
            let rows: Vec<&[f64]> = a.iter().map(Vec::as_slice).collect();
            let (aq, bq, cq) = (mat::<Rational>(&rows), vec_of::<Rational>(&b), vec_of(&c));
            let exact = solve(&aq, &bq, &cq, 10_000, None).expect("exact");
            let float = solve(&a, &b, &c, 10_000, None).expect("f64");
            match (&exact, &float) {
                (
                    StandardResult::Optimal { x, objective, basis },
                    StandardResult::Optimal { objective: fo, basis: fb, .. },
                ) => {
                    seen[0] += 1;
                    let eo = objective.to_f64();
                    assert!((fo - eo).abs() <= 1e-9 * (1.0 + eo.abs()), "case {case}: {fo}, {eo}");
                    assert_feasible(&aq, &bq, x);
                    // A budget of exactly the entry pivots leaves none for
                    // phase 2: the warm entry must land on the optimum.
                    let entry = |basis: &[usize]| basis.iter().filter(|&&j| j < n).count();
                    let warm = warm_entry(&aq, &bq, &cq, n, entry(basis), basis);
                    let Some(StandardResult::Optimal { x: wx, objective: wo, .. }) = warm else {
                        panic!("case {case}: exact warm entry failed: {warm:?}")
                    };
                    assert_eq!((&wx, &wo), (x, objective), "case {case}");
                    let warm = warm_entry(&a, &b, &c, n, entry(fb), fb);
                    let Some(StandardResult::Optimal { objective: wo, .. }) = warm else {
                        panic!("case {case}: f64 warm entry failed: {warm:?}")
                    };
                    assert!((wo - fo).abs() <= 1e-9 * (1.0 + fo.abs()), "case {case}");
                }
                (StandardResult::Infeasible, StandardResult::Infeasible) => seen[1] += 1,
                (StandardResult::Unbounded, StandardResult::Unbounded) => seen[2] += 1,
                _ => panic!("case {case}: exact {exact:?} vs f64 {float:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s >= 20), "optimal/infeasible/unbounded cases: {seen:?}");
    }
}
