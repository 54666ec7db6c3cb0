//! Arbitrary-precision signed integers (a sign + [`BigUint`] magnitude).

use crate::biguint::BigUint;
use core::cmp::Ordering;

/// An arbitrary-precision signed integer.
///
/// Canonical form: zero is always non-negative.
///
/// # Example
///
/// ```
/// use rlibm_mp::BigInt;
/// let a = BigInt::from_i64(-7);
/// let b = BigInt::from_i64(3);
/// assert_eq!((&a * &b).to_i64(), -21);
/// assert_eq!((&a + &b).to_i64(), -4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BigInt {
    negative: bool,
    mag: BigUint,
}

impl BigInt {
    /// Zero.
    pub fn zero() -> Self {
        BigInt { negative: false, mag: BigUint::zero() }
    }

    /// One.
    pub fn one() -> Self {
        BigInt { negative: false, mag: BigUint::one() }
    }

    /// Constructs from an `i64`.
    pub fn from_i64(x: i64) -> Self {
        BigInt {
            negative: x < 0,
            mag: BigUint::from_u64(x.unsigned_abs()),
        }
    }

    /// Constructs from a sign and magnitude.
    pub fn from_biguint(negative: bool, mag: BigUint) -> Self {
        BigInt {
            negative: negative && !mag.is_zero(),
            mag,
        }
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// True for zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// True for strictly negative values.
    pub fn is_negative(&self) -> bool {
        self.negative
    }

    /// Sign: -1, 0 or 1.
    pub fn signum(&self) -> i32 {
        if self.mag.is_zero() {
            0
        } else if self.negative {
            -1
        } else {
            1
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt { negative: false, mag: self.mag.clone() }
    }

    /// Negation.
    pub fn neg(&self) -> BigInt {
        BigInt::from_biguint(!self.negative, self.mag.clone())
    }

    /// Addition.
    pub fn add(&self, other: &BigInt) -> BigInt {
        if self.negative == other.negative {
            BigInt::from_biguint(self.negative, self.mag.add(&other.mag))
        } else {
            match self.mag.cmp(&other.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_biguint(self.negative, self.mag.sub(&other.mag))
                }
                Ordering::Less => {
                    BigInt::from_biguint(other.negative, other.mag.sub(&self.mag))
                }
            }
        }
    }

    /// Subtraction.
    pub fn sub(&self, other: &BigInt) -> BigInt {
        self.add(&other.neg())
    }

    /// Multiplication.
    pub fn mul(&self, other: &BigInt) -> BigInt {
        BigInt::from_biguint(self.negative != other.negative, self.mag.mul(&other.mag))
    }

    /// Truncated division with remainder: `self = q * other + r` with
    /// `|r| < |other|` and `r` having the sign of `self` (or zero).
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = self.mag.div_rem(&other.mag);
        (
            BigInt::from_biguint(self.negative != other.negative, q),
            BigInt::from_biguint(self.negative, r),
        )
    }

    /// The value as an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit.
    pub fn to_i64(&self) -> i64 {
        if self.mag.is_zero() {
            return 0;
        }
        let m = self.mag.to_u64();
        if self.negative {
            assert!(m <= 1u64 << 63, "BigInt::to_i64 overflow");
            (m as i128).wrapping_neg() as i64
        } else {
            assert!(m < 1u64 << 63, "BigInt::to_i64 overflow");
            m as i64
        }
    }

    /// Approximate conversion to `f64` (correctly rounded, RNE).
    pub fn to_f64(&self) -> f64 {
        if self.mag.is_zero() {
            return 0.0;
        }
        let len = self.mag.bit_len();
        let v = if len <= 63 {
            self.mag.to_u64() as f64
        } else {
            // Take top 55 bits (53 + round + need-sticky) with sticky.
            let shift = len - 55;
            let top = self.mag.shr(shift).to_u64();
            let sticky = self.mag.any_low_bits(shift);
            let mut t = top << 1; // make room for the sticky bit
            if sticky {
                t |= 1;
            }
            // t has 56 bits; f64 conversion rounds once. The sticky bit is
            // below the rounding position, so this is a correct single
            // rounding overall (round-to-odd style composition).
            t as f64 * 2f64.powi((shift as i32) - 1)
        };
        if self.negative {
            -v
        } else {
            v
        }
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.mag.cmp(&other.mag),
            (true, true) => other.mag.cmp(&self.mag),
        }
    }
}

macro_rules! bigint_ops {
    ($trait:ident, $method:ident) => {
        impl core::ops::$trait for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                BigInt::$method(self, rhs)
            }
        }
    };
}

bigint_ops!(Add, add);
bigint_ops!(Sub, sub);
bigint_ops!(Mul, mul);

impl core::ops::Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt::neg(self)
    }
}

impl core::fmt::Display for BigInt {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.negative {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_arithmetic() {
        let a = BigInt::from_i64(-5);
        let b = BigInt::from_i64(3);
        assert_eq!(a.add(&b).to_i64(), -2);
        assert_eq!(a.sub(&b).to_i64(), -8);
        assert_eq!(a.mul(&b).to_i64(), -15);
        assert_eq!(b.sub(&a).to_i64(), 8);
    }

    #[test]
    fn zero_is_canonical() {
        let a = BigInt::from_i64(-5);
        let z = a.add(&BigInt::from_i64(5));
        assert!(z.is_zero());
        assert!(!z.is_negative());
        assert_eq!(z.signum(), 0);
    }

    #[test]
    fn truncated_division() {
        let a = BigInt::from_i64(-7);
        let b = BigInt::from_i64(2);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.to_i64(), -3);
        assert_eq!(r.to_i64(), -1);
        // Invariant: a == q*b + r.
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn ordering() {
        let vals: Vec<BigInt> = [-100i64, -1, 0, 1, 99].iter().map(|&x| BigInt::from_i64(x)).collect();
        for w in vals.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn to_f64_exact_and_rounded() {
        assert_eq!(BigInt::from_i64(-42).to_f64(), -42.0);
        let big = BigInt::from_biguint(false, crate::BigUint::from_u64(1).shl(100));
        assert_eq!(big.to_f64(), 2f64.powi(100));
        // 2^100 + 1 rounds down to 2^100.
        let big1 = BigInt::from_biguint(
            false,
            crate::BigUint::from_u64(1).shl(100).add(&crate::BigUint::one()),
        );
        assert_eq!(big1.to_f64(), 2f64.powi(100));
        // 2^100 + 2^47 is an exact tie -> rounds to even (down).
        let tie = BigInt::from_biguint(
            false,
            crate::BigUint::from_u64(1).shl(100).add(&crate::BigUint::from_u64(1).shl(47)),
        );
        assert_eq!(tie.to_f64(), 2f64.powi(100));
        // 2^100 + 2^47 + 1 must round up.
        let above = BigInt::from_biguint(false, tie.magnitude().add(&crate::BigUint::one()));
        assert_eq!(above.to_f64(), 2f64.powi(100) + 2f64.powi(48));
    }

    #[test]
    fn i64_boundaries() {
        assert_eq!(BigInt::from_i64(i64::MIN).to_i64(), i64::MIN);
        assert_eq!(BigInt::from_i64(i64::MAX).to_i64(), i64::MAX);
    }

    #[test]
    fn display() {
        assert_eq!(BigInt::from_i64(-123).to_string(), "-123");
        assert_eq!(BigInt::zero().to_string(), "0");
    }
}
