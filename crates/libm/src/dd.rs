//! Double-double ("dd") arithmetic primitives.
//!
//! The paper evaluates everything in `H = double`. Our kernels carry the
//! handful of accuracy-critical steps (table value × polynomial, final
//! summation) as unevaluated hi + lo pairs, which keeps the evaluation
//! error near 2^-90 relative — far below the half-ulp-of-double level at
//! which double rounding into a 32-bit target could ever matter. The final
//! hi/lo pair is rounded *once* into the target by [`crate::round`].
//!
//! All error-free transformations are the classical ones (Dekker, Knuth).
//! `two_prod` computes its error term with `f64::mul_add`. The workspace
//! builds for baseline x86-64 (no `target-cpu` flag, so no hardware
//! FMA), where `mul_add` is a call into the software `fma`: the shipped
//! build has one such call at every `two_prod` site, all on the dd tier
//! or on `sinpi`/`cospi`'s tiny-input path (`|x| < 2^-36`), none on the
//! plain-double tiers that ship almost every result. A Dekker-split
//! `two_prod` (no `fma`) was measured as a replacement and came out
//! mixed: dd `exp10` about 7% faster, dd `exp` and `ln` 2–4% slower,
//! dd `log2`/`log10` 16–24% slower (EXPERIMENTS.md, Figure 3).

/// Error-free sum: returns `(s, e)` with `s = fl(a+b)` and `a+b = s + e`
/// exactly. (Knuth's TwoSum — no magnitude precondition.)
#[inline(always)]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Error-free sum assuming `|a| >= |b|` (Dekker's FastTwoSum).
#[inline(always)]
pub fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Error-free product: `(p, e)` with `a * b = p + e` exactly, via FMA.
#[inline(always)]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

/// A double-double value `hi + lo` with `|lo| <= ulp(hi)/2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dd {
    /// Leading component.
    pub hi: f64,
    /// Trailing component.
    pub lo: f64,
}

impl Dd {
    /// Wraps a plain double.
    #[inline(always)]
    pub fn from_f64(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }

    /// Builds from components, renormalizing.
    #[inline(always)]
    pub fn new(hi: f64, lo: f64) -> Dd {
        let (h, l) = quick_two_sum(hi, lo);
        Dd { hi: h, lo: l }
    }

    /// The value collapsed to one double (one rounding).
    #[inline(always)]
    pub fn to_f64(self) -> f64 {
        self.hi + self.lo
    }

    /// dd + dd (error ~2^-104 relative).
    ///
    /// Named methods rather than `std::ops` impls: the kernels chain these
    /// by value and the explicit names keep dd-vs-f64 variants apart.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn add(self, other: Dd) -> Dd {
        let (s, e) = two_sum(self.hi, other.hi);
        let e = e + self.lo + other.lo;
        let (hi, lo) = quick_two_sum(s, e);
        Dd { hi, lo }
    }

    /// dd + f64.
    #[inline(always)]
    pub fn add_f64(self, b: f64) -> Dd {
        let (s, e) = two_sum(self.hi, b);
        let e = e + self.lo;
        let (hi, lo) = quick_two_sum(s, e);
        Dd { hi, lo }
    }

    /// dd * dd (error ~2^-102 relative).
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn mul(self, other: Dd) -> Dd {
        let (p, e) = two_prod(self.hi, other.hi);
        let e = e + self.hi * other.lo + self.lo * other.hi;
        let (hi, lo) = quick_two_sum(p, e);
        Dd { hi, lo }
    }

    /// dd * f64.
    #[inline(always)]
    pub fn mul_f64(self, b: f64) -> Dd {
        let (p, e) = two_prod(self.hi, b);
        let e = e + self.lo * b;
        let (hi, lo) = quick_two_sum(p, e);
        Dd { hi, lo }
    }

    /// Reciprocal 1 / dd via one Newton step from the double estimate.
    #[inline(always)]
    pub fn recip(self) -> Dd {
        let y0 = 1.0 / self.hi;
        // r = 1 - self * y0 computed accurately with FMA.
        let r = (-self.hi).mul_add(y0, 1.0) - self.lo * y0;
        // y = y0 + y0 * r  (error ~ r^2 ~ 2^-104).
        let (p, e) = two_prod(y0, r);
        let (hi, lo) = quick_two_sum(y0, p + e);
        Dd { hi, lo }
    }

    /// Negation (exact).
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn neg(self) -> Dd {
        Dd { hi: -self.hi, lo: -self.lo }
    }

    /// Exact scaling by a power of two (`factor` must be a power of two).
    #[inline(always)]
    pub fn scale(self, factor: f64) -> Dd {
        Dd { hi: self.hi * factor, lo: self.lo * factor }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_is_error_free() {
        let a = 1.0;
        let b = 2f64.powi(-60);
        let (s, e) = two_sum(a, b);
        assert_eq!(s, 1.0);
        assert_eq!(e, b);
        let (s2, e2) = two_sum(b, a); // no ordering requirement
        assert_eq!((s2, e2), (s, e));
    }

    #[test]
    fn two_prod_is_error_free() {
        let a = 1.0 + 2f64.powi(-30);
        let b = 1.0 + 2f64.powi(-31);
        let (p, e) = two_prod(a, b);
        // Exact product = 1 + 2^-30 + 2^-31 + 2^-61: p holds the first
        // three terms (they fit in 53 bits), e holds exactly the last.
        assert_eq!(p, 1.0 + 2f64.powi(-30) + 2f64.powi(-31));
        assert_eq!(e, 2f64.powi(-61));
    }

    #[test]
    fn dd_add_tracks_tiny_components() {
        let a = Dd::from_f64(1.0);
        let b = Dd::from_f64(2f64.powi(-70));
        let c = a.add(b);
        assert_eq!(c.hi, 1.0);
        assert_eq!(c.lo, 2f64.powi(-70));
    }

    #[test]
    fn dd_mul_matches_reference() {
        // (1 + 2^-40)^2 = 1 + 2^-39 + 2^-80.
        let a = Dd::from_f64(1.0 + 2f64.powi(-40));
        let sq = a.mul(a);
        assert_eq!(sq.hi, 1.0 + 2f64.powi(-39));
        assert_eq!(sq.lo, 2f64.powi(-80));
    }

    #[test]
    fn dd_recip_is_accurate() {
        let x = Dd::from_f64(3.0);
        let r = x.recip();
        // 1/3 in dd: hi = nearest double, lo refines it.
        assert_eq!(r.hi, 1.0 / 3.0);
        let back = r.mul(x);
        assert!((back.hi - 1.0).abs() < 1e-30);
        assert!((back.hi + back.lo - 1.0).abs() < 1e-30);
    }

    #[test]
    fn scale_is_exact() {
        let x = Dd::new(1.5, 2f64.powi(-60));
        let y = x.scale(0.25);
        assert_eq!(y.hi, 0.375);
        assert_eq!(y.lo, 2f64.powi(-62));
    }
}
