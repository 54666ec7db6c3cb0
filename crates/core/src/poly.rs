//! Polynomials with sparse term lists and Horner evaluation in `H = f64`.
//!
//! The paper exploits structure: `sinpi(R)` gets an *odd* polynomial
//! (`c1 r + c3 r^3 + c5 r^5`), `cospi(R)` an *even* one. A term-exponent
//! list expresses all of these; evaluation factors the common stride so
//! the runtime cost matches a dense Horner of the compressed degree
//! (paper Section 4.1: "polynomial evaluation uses Horner's method").

/// A polynomial with explicit term exponents, evaluated in `f64`.
///
/// # Example
///
/// ```
/// use rlibm_core::poly::Polynomial;
/// // 2x + 3x^3 (odd polynomial):
/// let p = Polynomial::new(vec![1, 3], vec![2.0, 3.0]);
/// assert_eq!(p.eval(2.0), 2.0 * 2.0 + 3.0 * 8.0);
/// assert_eq!(p.degree(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// Term exponents, strictly increasing (e.g. `[0,1,2,3]` or `[1,3,5]`).
    terms: Vec<u32>,
    /// One coefficient per term.
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Builds a polynomial from exponents and coefficients.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or the exponents are not strictly
    /// increasing.
    pub fn new(terms: Vec<u32>, coeffs: Vec<f64>) -> Polynomial {
        assert_eq!(terms.len(), coeffs.len(), "terms/coeffs length mismatch");
        assert!(terms.windows(2).all(|w| w[0] < w[1]), "exponents must increase");
        Polynomial { terms, coeffs }
    }

    /// Term exponents.
    pub fn terms(&self) -> &[u32] {
        &self.terms
    }

    /// Coefficients, aligned with [`Self::terms`].
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Highest exponent.
    pub fn degree(&self) -> u32 {
        *self.terms.last().unwrap_or(&0)
    }

    /// Number of (potentially) nonzero terms — the paper's "# of Terms"
    /// column in Table 3.
    pub fn num_terms(&self) -> usize {
        self.coeffs.iter().filter(|c| **c != 0.0).count()
    }

    /// Horner evaluation in `f64`, factoring common strides: an
    /// `[1,3,5,...]` odd polynomial evaluates as `r * Q(r^2)`.
    #[inline]
    pub fn eval(&self, r: f64) -> f64 {
        if self.coeffs.is_empty() {
            return 0.0;
        }
        // Detect a uniform stride (dense: 1; odd/even: 2).
        let n = self.terms.len();
        if n == 1 {
            return self.coeffs[0] * powi_f64(r, self.terms[0]);
        }
        let stride = self.terms[1] - self.terms[0];
        let uniform = self
            .terms
            .windows(2)
            .all(|w| w[1] - w[0] == stride);
        if uniform && stride >= 1 {
            let x = powi_f64(r, stride);
            let mut acc = self.coeffs[n - 1];
            for i in (0..n - 1).rev() {
                acc = acc * x + self.coeffs[i];
            }
            return acc * powi_f64(r, self.terms[0]);
        }
        // General sparse Horner.
        let mut acc = self.coeffs[n - 1];
        for i in (0..n - 1).rev() {
            let gap = self.terms[i + 1] - self.terms[i];
            acc = acc * powi_f64(r, gap) + self.coeffs[i];
        }
        acc * powi_f64(r, self.terms[0])
    }
}

#[inline]
fn powi_f64(r: f64, e: u32) -> f64 {
    match e {
        0 => 1.0,
        1 => r,
        2 => r * r,
        3 => r * r * r,
        _ => {
            let h = powi_f64(r, e / 2);
            if e.is_multiple_of(2) {
                h * h
            } else {
                h * h * r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_eval_matches_naive() {
        let p = Polynomial::new(vec![0, 1, 2, 3], vec![1.0, -2.0, 0.5, 4.0]);
        for &x in &[0.0, 1.0, -1.5, 0.3, 7.2] {
            let naive = 1.0 - 2.0 * x + 0.5 * x * x + 4.0 * x * x * x;
            assert!((p.eval(x) - naive).abs() <= 1e-12 * naive.abs().max(1.0));
        }
        assert_eq!(p.degree(), 3);
        assert_eq!(p.num_terms(), 4);
    }

    #[test]
    fn odd_polynomial_is_odd() {
        let p = Polynomial::new(vec![1, 3, 5], vec![3.25, -5.16, 2.55]);
        for &x in &[0.1, 0.5, 1.3] {
            assert_eq!(p.eval(-x), -p.eval(x));
        }
    }

    #[test]
    fn even_polynomial_is_even() {
        let p = Polynomial::new(vec![0, 2, 4], vec![1.0, -4.93, 4.05]);
        for &x in &[0.1, 0.5, 1.3] {
            assert_eq!(p.eval(-x), p.eval(x));
        }
    }

    #[test]
    fn single_term() {
        let p = Polynomial::new(vec![4], vec![2.0]);
        assert_eq!(p.eval(3.0), 162.0);
    }

    #[test]
    fn irregular_terms() {
        // 1 + x^2 + x^7
        let p = Polynomial::new(vec![0, 2, 7], vec![1.0, 1.0, 1.0]);
        let x = 1.5f64;
        let naive = 1.0 + x * x + x.powi(7);
        assert!((p.eval(x) - naive).abs() < 1e-10);
    }
}
