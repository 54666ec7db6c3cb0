//! The [`Representation`] trait: the target type `T` of the paper.
//!
//! RLIBM-32 generates libraries for multiple 32-bit representations (IEEE
//! float, posit32) and its precursor handled 16-bit types. Everything the
//! oracle and the generator need from a target representation is captured
//! here: exact widening to `f64` (the evaluation precision `H`), correct
//! rounding *from* `f64`, and total-order navigation for interval
//! computation and exhaustive enumeration.

use crate::small::SmallFormat;

/// A finite-precision rounding target (the representation `T` in the paper).
///
/// # Contract
///
/// * `to_f64` is **exact** for every non-NaN value — every implementor is a
///   subset of `f64` (true for f32, bfloat16, binary16, posit32, posit16).
/// * `round_from_f64` is the representation's canonical rounding (IEEE
///   round-to-nearest-even for the float family; posit rounding with
///   saturation for posits) and is **monotone** in the f64 total order.
/// * `next_up`/`next_down` walk the non-NaN values in numeric order.
pub trait Representation: Copy + core::fmt::Debug + PartialEq + Send + Sync + 'static {
    /// Short human-readable name ("float32", "posit32", ...).
    const NAME: &'static str;
    /// Total bit width of the representation (≤ 32).
    const BITS: u32;

    /// Reconstructs a value from its bit pattern (low `BITS` bits used).
    fn from_bits_u32(bits: u32) -> Self;
    /// The value's bit pattern in the low `BITS` bits.
    fn to_bits_u32(self) -> u32;
    /// Exact conversion to `f64` (NaN maps to NaN, infinities to
    /// infinities; posit NaR maps to NaN).
    fn to_f64(self) -> f64;
    /// Correct single rounding of an `f64` into this representation.
    fn round_from_f64(x: f64) -> Self;
    /// True for NaN (or posit NaR).
    fn is_nan(self) -> bool;
    /// Numeric successor among non-NaN values, or `None` at the top.
    fn next_up(self) -> Option<Self>;
    /// Numeric predecessor among non-NaN values, or `None` at the bottom.
    fn next_down(self) -> Option<Self>;
}

impl Representation for f32 {
    const NAME: &'static str = "float32";
    const BITS: u32 = 32;

    fn from_bits_u32(bits: u32) -> Self {
        f32::from_bits(bits)
    }

    #[inline]
    fn to_bits_u32(self) -> u32 {
        self.to_bits()
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn round_from_f64(x: f64) -> Self {
        x as f32 // IEEE-correct single rounding, ties to even
    }

    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }

    fn next_up(self) -> Option<Self> {
        if self.is_nan() || self == f32::INFINITY {
            None
        } else {
            Some(crate::bits::next_up_f32(self))
        }
    }

    fn next_down(self) -> Option<Self> {
        if self.is_nan() || self == f32::NEG_INFINITY {
            None
        } else {
            Some(crate::bits::next_down_f32(self))
        }
    }
}

macro_rules! small_float_repr {
    ($ty:ty, $fmt:expr, $name:literal) => {
        impl Representation for $ty {
            const NAME: &'static str = $name;
            const BITS: u32 = 16;

            fn from_bits_u32(bits: u32) -> Self {
                <$ty>::from_bits(bits as u16)
            }

            fn to_bits_u32(self) -> u32 {
                self.to_bits() as u32
            }

            fn to_f64(self) -> f64 {
                $fmt.decode(self.to_bits())
            }

            fn round_from_f64(x: f64) -> Self {
                <$ty>::from_bits($fmt.round_from_f64(x))
            }

            fn is_nan(self) -> bool {
                <$ty>::is_nan(self)
            }

            fn next_up(self) -> Option<Self> {
                if self.is_nan() {
                    return None;
                }
                let fmt = $fmt;
                let bits = self.to_bits();
                if bits == fmt.inf_bits() {
                    return None; // +inf has no successor
                }
                let sign = bits >> 15 == 1;
                let next = if bits == 0x8000 {
                    // -0.0 steps to the smallest positive subnormal,
                    // matching f64 semantics used throughout the generator.
                    1
                } else if sign {
                    bits - 1
                } else {
                    bits + 1
                };
                Some(<$ty>::from_bits(next))
            }

            fn next_down(self) -> Option<Self> {
                if self.is_nan() {
                    return None;
                }
                let fmt = $fmt;
                let bits = self.to_bits();
                if bits == fmt.inf_bits() | 0x8000 {
                    return None; // -inf has no predecessor
                }
                let sign = bits >> 15 == 1;
                let next = if bits == 0 {
                    0x8001 // +0.0 steps down to the smallest negative subnormal
                } else if sign {
                    bits + 1
                } else {
                    bits - 1
                };
                Some(<$ty>::from_bits(next))
            }
        }
    };
}

small_float_repr!(crate::BFloat16, SmallFormat::BFLOAT16, "bfloat16");
small_float_repr!(crate::Half, SmallFormat::BINARY16, "binary16");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BFloat16, Half};

    #[test]
    fn f32_repr_roundtrip() {
        for &x in &[0.0f32, -0.0, 1.5, f32::MAX, f32::MIN_POSITIVE] {
            assert_eq!(f32::from_bits_u32(x.to_bits_u32()), x);
            assert_eq!(x.to_f64() as f32, x);
        }
    }

    #[test]
    fn f32_round_from_f64_is_single_rounding() {
        let y = 1.0f32;
        let above = crate::bits::midpoint_f32(y, crate::bits::next_up_f32(y));
        assert_eq!(f32::round_from_f64(above), y, "tie to even");
        assert_eq!(
            f32::round_from_f64(crate::bits::next_up_f64(above)),
            crate::bits::next_up_f32(y)
        );
    }

    #[test]
    fn next_up_walks_entire_bf16_line() {
        // Walk from -inf to +inf and count the steps: there are
        // 2 * (2^15 - 2^7) + 1 non-NaN values minus ... easier: count.
        let mut v = BFloat16::from_bits(0xFF80); // -inf
        let mut count = 1u32;
        while let Some(n) = v.next_up() {
            assert!(n.to_f64() > v.to_f64() || (v.to_f64() == 0.0 && n.to_f64() == 0.0));
            v = n;
            count += 1;
            assert!(count < 70000, "runaway walk");
        }
        assert_eq!(v.to_bits(), 0x7F80, "walk must end at +inf");
        // Total non-NaN patterns: 2^16 minus NaNs (2 * (2^7 - 1)) minus one
        // (the walk visits -0.0's numeric twin +0.0 but skips -0.0 itself
        // when stepping up from the negative side... it does visit both).
        let nan_patterns = 2 * ((1u32 << 7) - 1);
        // The walk from -inf visits every non-NaN pattern except -0.0
        // (next_up from the smallest negative subnormal goes to -0.0? No:
        // our next_up maps -min_subnormal -> 0x8000 which *is* -0.0).
        assert_eq!(count, (1u32 << 16) - nan_patterns - 1);
    }

    #[test]
    fn half_ordering_is_monotone() {
        let mut prev = Half::from_bits(0xFC00).to_f64(); // -inf
        let mut v = Half::from_bits(0xFC00);
        while let Some(n) = v.next_up() {
            let f = n.to_f64();
            assert!(f >= prev, "{f} < {prev}");
            prev = f;
            v = n;
        }
    }

    #[test]
    fn round_from_f64_monotone_bf16() {
        // Monotonicity of the rounding function is a trait contract the
        // generator's interval binary search depends on.
        let xs = [-1e30, -5.5, -1.0, -1e-3, 0.0, 1e-42, 0.7, 1.0, 3.25, 2.5e20];
        let mut prev = BFloat16::round_from_f64(xs[0]).to_f64();
        for &x in &xs[1..] {
            let r = BFloat16::round_from_f64(x).to_f64();
            assert!(r >= prev);
            prev = r;
        }
    }
}
