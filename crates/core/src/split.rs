//! Bit-pattern based domain splitting (Algorithm 3, `SplitDomain`).
//!
//! To make piecewise polynomials cheap at runtime, the sub-domain of a
//! reduced input must be computable from its bits: the paper finds the
//! longest common prefix of `R_min` and `R_max` in the double bit-string
//! and uses the next `n` bits as the table index — "two bitwise operations
//! (an and and a shift)" at runtime.

/// Maps reduced inputs to one of `2^n` sub-domains using `n` bits of the
/// double representation after the common prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitPatternSplitter {
    /// Number of index bits (`n`); `2^n` sub-domains.
    index_bits: u32,
    /// Right-shift amount applied to the raw bits.
    shift: u32,
    /// Mask applied after the shift.
    mask: u64,
}

impl BitPatternSplitter {
    /// Builds a splitter for reduced inputs in `[r_min, r_max]` (both of
    /// the same sign, as guaranteed by the +/- split in `GenApproxFunc`)
    /// with `2^index_bits` sub-domains.
    ///
    /// # Panics
    ///
    /// Panics if the inputs straddle zero / differ in sign, or if the
    /// requested index bits exceed the available mantissa bits.
    pub fn new(r_min: f64, r_max: f64, index_bits: u32) -> BitPatternSplitter {
        assert!(r_min <= r_max, "empty domain");
        assert!(
            r_min.is_sign_negative() == r_max.is_sign_negative(),
            "split positive and negative reduced inputs first (Algorithm 3 lines 2-3)"
        );
        let a = r_min.to_bits();
        let b = r_max.to_bits();
        let common = if a == b { 64 - index_bits } else { (a ^ b).leading_zeros() };
        assert!(
            common + index_bits <= 64,
            "not enough bits below the common prefix"
        );
        let shift = 64 - common - index_bits;
        BitPatternSplitter {
            index_bits,
            shift,
            mask: if index_bits == 0 { 0 } else { (1u64 << index_bits) - 1 },
        }
    }

    /// Number of sub-domains (`2^n`).
    pub fn domains(&self) -> usize {
        1usize << self.index_bits
    }

    /// The sub-domain of a reduced input: exactly the paper's two bitwise
    /// operations (shift + and).
    #[inline]
    pub fn index(&self, r: f64) -> usize {
        ((r.to_bits() >> self.shift) & self.mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_structure() {
        // Section 2.2 / Figure 2(d): reduced inputs for sinpi lie in
        // [2^-52, 2^-9]... their double bit patterns share the first six
        // bits (sign + top exponent bits), and 5 bits after that pick one
        // of 32 sub-domains.
        let r_min = 2f64.powi(-52);
        let r_max = 2f64.powi(-9) * 1.999;
        let s = BitPatternSplitter::new(r_min, r_max, 5);
        assert_eq!(s.domains(), 32);
        assert_eq!(64 - s.index_bits - s.shift, 6, "common prefix length");
        // The paper's concrete reduced input and its sub-domain: R =
        // 1.86264514923095703125e-09 = 0x3E20000000000000; the six common
        // bits are 001111, the next five are 10001 = 17.
        let r: f64 = 1.862_645_149_230_957e-9;
        assert_eq!(r.to_bits(), 0x3E20000000000000);
        assert_eq!(s.index(r), 0b10001);
    }

    #[test]
    fn indices_are_monotone_for_positive_inputs() {
        // For positive doubles, bit order == value order, so sub-domain
        // indices are non-decreasing in r.
        let s = BitPatternSplitter::new(0.5, 0.999, 4);
        let mut prev = 0;
        for i in 0..1000 {
            let r = 0.5 + 0.499 * (i as f64 / 1000.0);
            let idx = s.index(r);
            assert!(idx >= prev, "index must not decrease");
            assert!(idx < 16);
            prev = idx;
        }
    }

    #[test]
    fn endpoints_land_in_first_and_last_buckets_region() {
        let s = BitPatternSplitter::new(1.0, 1.9999999, 3);
        assert_eq!(s.index(1.0), 0);
        assert_eq!(s.index(1.9999999), 7);
    }

    #[test]
    fn zero_index_bits_means_single_domain() {
        let s = BitPatternSplitter::new(0.25, 0.3, 0);
        assert_eq!(s.domains(), 1);
        assert_eq!(s.index(0.26), 0);
        assert_eq!(s.index(0.29), 0);
    }

    #[test]
    fn degenerate_single_point_domain() {
        let s = BitPatternSplitter::new(0.75, 0.75, 2);
        assert_eq!(s.domains(), 4);
        let _ = s.index(0.75); // must not panic
    }

    #[test]
    fn negative_domain() {
        let s = BitPatternSplitter::new(-1.9999, -1.0, 3);
        // For negative doubles bit order is reversed w.r.t. value order;
        // grouping is still consistent (same bits -> same bucket).
        assert_eq!(s.index(-1.0), s.index(-1.0));
        assert!(s.index(-1.5) < 8);
    }

    #[test]
    #[should_panic(expected = "split positive and negative")]
    fn mixed_signs_panic() {
        let _ = BitPatternSplitter::new(-1.0, 1.0, 3);
    }
}
