//! Arbitrary-precision binary floating point (the MPFR substitute).
//!
//! [`MpFloat`] is sign × mantissa × 2^exp with an arbitrary-precision
//! mantissa. The paper uses MPFR with up to 400 bits of precision to
//! compute oracle results; this module provides the same capability:
//! round-to-nearest-even arithmetic at any requested precision, exact
//! conversions from `f64`, and correctly rounding conversions *to* `f64`
//! including a round-to-odd variant that composes safely with a second
//! rounding into any ≤32-bit target representation.

use crate::biguint::BigUint;
use core::cmp::Ordering;

/// An arbitrary-precision binary floating point number.
///
/// Value = `(-1)^sign * mant * 2^exp`, with `mant` normalized so that
/// `mant.bit_len() == prec` for nonzero values. One ulp is `2^exp`.
///
/// # Example
///
/// ```
/// use rlibm_mp::MpFloat;
/// let a = MpFloat::from_f64(0.1, 128);
/// let b = MpFloat::from_f64(0.2, 128);
/// let c = a.add(&b, 128);
/// // The sum of the doubles 0.1 and 0.2 is not the double 0.3 -- and the
/// // 128-bit computation shows it exactly:
/// assert_ne!(c.to_f64(), 0.3);
/// assert_eq!(c.to_f64(), 0.30000000000000004);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpFloat {
    sign: bool,
    exp: i64,
    mant: BigUint,
    prec: u32,
}

impl MpFloat {
    /// Zero at the given precision.
    pub fn zero(prec: u32) -> Self {
        MpFloat { sign: false, exp: 0, mant: BigUint::zero(), prec }
    }

    /// Exact conversion from `u64`.
    pub fn from_u64(x: u64, prec: u32) -> Self {
        Self::normalize_round(false, 0, BigUint::from_u64(x), prec, false)
    }

    /// Exact conversion from `i64`.
    pub fn from_i64(x: i64, prec: u32) -> Self {
        Self::normalize_round(x < 0, 0, BigUint::from_u64(x.unsigned_abs()), prec, false)
    }

    /// Conversion from a finite `f64` (exact whenever `prec >= 53`).
    ///
    /// # Panics
    ///
    /// Panics on NaN or infinity.
    pub fn from_f64(x: f64, prec: u32) -> Self {
        assert!(x.is_finite(), "MpFloat::from_f64 of non-finite");
        let (sign, mant, exp) = rlibm_fp::bits::decompose_f64(x);
        Self::normalize_round(sign, exp as i64, BigUint::from_u64(mant), prec, false)
    }

    /// Builds a value from raw parts, normalizing the mantissa to `prec`
    /// bits with round-to-nearest-even. `sticky` declares that nonzero bits
    /// were already discarded strictly below `mant`'s LSB.
    pub fn normalize_round(sign: bool, exp: i64, mant: BigUint, prec: u32, sticky: bool) -> Self {
        assert!(prec >= 2, "precision too small");
        if mant.is_zero() {
            // A pure sticky residue can't be represented; callers that care
            // (none do: sticky always accompanies a nonzero kept part in
            // this crate) would need a directed mode.
            return Self::zero(prec);
        }
        let len = mant.bit_len();
        if len <= prec as u64 {
            let shift = prec as u64 - len;
            // Shifting left is exact; the sticky residue (if any) is below
            // the round position so RNE keeps the mantissa unchanged.
            return MpFloat { sign, exp: exp - shift as i64, mant: mant.shl(shift), prec };
        }
        let drop = len - prec as u64;
        let mut kept = mant.shr(drop);
        let round_bit = mant.bit(drop - 1);
        let st = mant.any_low_bits(drop - 1) || sticky;
        let mut e = exp + drop as i64;
        if round_bit && (st || kept.bit(0)) {
            kept = kept.add(&BigUint::one());
            if kept.bit_len() > prec as u64 {
                kept = kept.shr(1);
                e += 1;
            }
        }
        MpFloat { sign, exp: e, mant: kept, prec }
    }

    /// True for zero.
    pub fn is_zero(&self) -> bool {
        self.mant.is_zero()
    }

    /// True for strictly negative values.
    pub fn is_negative(&self) -> bool {
        self.sign && !self.is_zero()
    }

    /// The working precision in bits.
    pub fn prec(&self) -> u32 {
        self.prec
    }

    /// Exponent of one ulp (`2^exp`); meaningful for nonzero values.
    pub fn ulp_exp(&self) -> i64 {
        self.exp
    }

    /// Position of the most significant bit: the value's magnitude is in
    /// `[2^msb_pos, 2^(msb_pos + 1))`.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn msb_pos(&self) -> i64 {
        assert!(!self.is_zero());
        self.exp + self.mant.bit_len() as i64 - 1
    }

    /// Negation (exact).
    pub fn neg(&self) -> MpFloat {
        let mut r = self.clone();
        if !r.is_zero() {
            r.sign = !r.sign;
        }
        r
    }

    /// Absolute value (exact).
    pub fn abs(&self) -> MpFloat {
        let mut r = self.clone();
        r.sign = false;
        r
    }

    /// Exact scaling by `2^k`.
    pub fn mul_pow2(&self, k: i64) -> MpFloat {
        let mut r = self.clone();
        if !r.is_zero() {
            r.exp += k;
        }
        r
    }

    /// Magnitude comparison.
    pub fn cmp_abs(&self, other: &MpFloat) -> Ordering {
        match (self.is_zero(), other.is_zero()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            _ => {}
        }
        match self.msb_pos().cmp(&other.msb_pos()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        // Same magnitude class: compare mantissas aligned to a common scale.
        let (a, b) = align(&self.mant, self.exp, &other.mant, other.exp);
        a.cmp(&b)
    }

    /// Numeric comparison. Not `Ord::cmp`: `MpFloat` deliberately does
    /// not implement `Ord` (NaN-free by construction, but precision-carrying
    /// equality would be misleading).
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, other: &MpFloat) -> Ordering {
        match (self.is_negative(), other.is_negative()) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => self.cmp_abs(other),
            (true, true) => other.cmp_abs(self),
        }
    }

    /// Addition rounded to `prec` bits.
    pub fn add(&self, other: &MpFloat, prec: u32) -> MpFloat {
        if self.is_zero() {
            return Self::normalize_round(
                other.sign,
                other.exp,
                other.mant.clone(),
                prec,
                false,
            );
        }
        if other.is_zero() {
            return Self::normalize_round(self.sign, self.exp, self.mant.clone(), prec, false);
        }
        // Order by magnitude so `hi` dominates.
        let (hi, lo) = if self.cmp_abs(other) != Ordering::Less {
            (self, other)
        } else {
            (other, self)
        };
        // Align both operands at a common ulp `base`: at least `prec` bits
        // below hi's leading bit plus G guard bits, even when hi itself
        // carries fewer than `prec` significant bits (a short operand's own
        // ulp would round the sum at hi's precision, not at `prec`). When
        // the magnitudes are within a binade of each other the sum may
        // cancel to anything, so `base` also reaches down to lo's ulp and
        // the difference is exact before its one rounding.
        const G: i64 = 3; // guard bits
        let msb = hi.msb_pos();
        let mut base = hi.exp.min(msb - prec as i64) - G;
        if lo.msb_pos() >= msb - 1 {
            base = base.min(lo.exp);
        }
        let a = hi.mant.shl((hi.exp - base) as u64);
        let s = lo.exp - base;
        let (b, mut sticky) = if s >= 0 {
            (lo.mant.shl(s as u64), false)
        } else {
            let sh = (-s) as u64;
            (lo.mant.shr(sh), lo.mant.any_low_bits(sh))
        };
        if hi.sign == lo.sign {
            Self::normalize_round(hi.sign, base, a.add(&b), prec, sticky)
        } else {
            let mut diff = a.sub(&b);
            if sticky {
                // True subtrahend slightly larger: borrow one, the residue
                // stays strictly positive (sticky remains set).
                diff = diff.sub(&BigUint::one());
            }
            if diff.is_zero() && !sticky {
                return Self::zero(prec);
            }
            if diff.is_zero() {
                // Positive residue below one guard ulp.
                diff = BigUint::one();
                sticky = false;
            }
            Self::normalize_round(hi.sign, base, diff, prec, sticky)
        }
    }

    /// Subtraction rounded to `prec` bits.
    pub fn sub(&self, other: &MpFloat, prec: u32) -> MpFloat {
        self.add(&other.neg(), prec)
    }

    /// Multiplication rounded to `prec` bits.
    pub fn mul(&self, other: &MpFloat, prec: u32) -> MpFloat {
        if self.is_zero() || other.is_zero() {
            return Self::zero(prec);
        }
        Self::normalize_round(
            self.sign != other.sign,
            self.exp + other.exp,
            self.mant.mul(&other.mant),
            prec,
            false,
        )
    }

    /// Division rounded to `prec` bits.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div(&self, other: &MpFloat, prec: u32) -> MpFloat {
        assert!(!other.is_zero(), "MpFloat division by zero");
        if self.is_zero() {
            return Self::zero(prec);
        }
        // Produce a quotient with at least prec + 2 bits.
        let la = self.mant.bit_len() as i64;
        let lb = other.mant.bit_len() as i64;
        let k = (prec as i64 + 2 + lb - la).max(0) as u64;
        let num = self.mant.shl(k);
        let (q, r) = num.div_rem(&other.mant);
        debug_assert!(q.bit_len() >= prec as u64 + 2);
        Self::normalize_round(
            self.sign != other.sign,
            self.exp - other.exp - k as i64,
            q,
            prec,
            !r.is_zero(),
        )
    }

    /// Re-rounds this value to a (usually lower) precision with RNE.
    pub fn round(&self, prec: u32) -> MpFloat {
        Self::normalize_round(self.sign, self.exp, self.mant.clone(), prec, false)
    }

    /// Multiplication by a signed machine integer, rounded to `prec` bits.
    pub fn mul_i64(&self, m: i64, prec: u32) -> MpFloat {
        let v = self.mul_u64(m.unsigned_abs(), prec);
        if m < 0 {
            v.neg()
        } else {
            v
        }
    }

    /// Multiplication by a small unsigned integer, rounded to `prec` bits.
    pub fn mul_u64(&self, m: u64, prec: u32) -> MpFloat {
        if m == 0 || self.is_zero() {
            return Self::zero(prec);
        }
        Self::normalize_round(self.sign, self.exp, self.mant.mul_u64(m), prec, false)
    }

    /// Division by a small unsigned integer, rounded to `prec` bits.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_u64(&self, d: u64, prec: u32) -> MpFloat {
        assert!(d != 0);
        if self.is_zero() {
            return Self::zero(prec);
        }
        let k = prec as u64 + 2 + 64;
        let (q, r) = self.mant.shl(k).div_rem_u64(d);
        Self::normalize_round(self.sign, self.exp - k as i64, q, prec, r != 0)
    }

    /// `floor(|self| · 2^f)`: the magnitude in fixed point with `f`
    /// fraction bits, truncated (how [`crate::elem`]'s series take it).
    pub(crate) fn to_fixed(&self, f: u64) -> BigUint {
        let s = self.exp + f as i64;
        self.mant.shl(s.max(0) as u64).shr((-s).max(0) as u64)
    }

    /// The value shifted by `n` of its own ulps: `self + n * 2^exp`,
    /// computed exactly (the result's precision may grow by one bit).
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn offset_ulps(&self, n: i64) -> MpFloat {
        assert!(!self.is_zero(), "offset_ulps on zero");
        // Work on the signed value: magnitude mant with sign.
        let delta = BigUint::from_u64(n.unsigned_abs());
        let (sign, mant) = if (n >= 0) != self.sign {
            // Same direction as the value: magnitude grows.
            (self.sign, self.mant.add(&delta))
        } else if self.mant >= delta {
            (self.sign, self.mant.sub(&delta))
        } else {
            (!self.sign, delta.sub(&self.mant))
        };
        let prec = (mant.bit_len() as u32).max(2);
        Self::normalize_round(sign, self.exp, mant, prec, false)
    }

    /// Correctly rounded (RNE) conversion to `f64`, handling the subnormal
    /// range and overflow to infinity.
    pub fn to_f64(&self) -> f64 {
        self.convert_f64(false)
    }

    /// Round-to-odd conversion to `f64`: exact values convert exactly;
    /// inexact values truncate toward zero and force the last bit to 1.
    ///
    /// Round-to-odd at 53 bits followed by round-to-nearest into any
    /// representation with at most 51 significant bits is equivalent to a
    /// single correct rounding — this is how the oracle rounds into every
    /// 32-bit target without double-rounding errors.
    pub fn to_f64_round_odd(&self) -> f64 {
        self.convert_f64(true)
    }

    fn convert_f64(&self, round_odd: bool) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let msb = self.msb_pos();
        if msb > 1023 {
            // Overflow: round-odd saturates just inside the range so a
            // subsequent rounding still sees "huge finite"; RNE overflows.
            return apply_sign(
                if round_odd { f64::MAX } else { f64::INFINITY },
                self.sign,
            );
        }
        if msb < -1074 {
            // Below the smallest subnormal: round-odd keeps a nonzero trace.
            if round_odd {
                return apply_sign(f64::from_bits(1), self.sign);
            }
            // RNE: anything at or below half the smallest subnormal is 0;
            // above rounds to the smallest subnormal.
            return if msb < -1075 {
                apply_sign(0.0, self.sign)
            } else {
                // Magnitude in [2^-1075, 2^-1074): compare with the tie.
                // Exactly 2^-1075 iff the mantissa is a pure power of two.
                let exact_tie = self.mant.trailing_zeros() == self.mant.bit_len() - 1;
                if exact_tie && !round_odd {
                    apply_sign(0.0, self.sign) // tie to even (zero)
                } else {
                    apply_sign(f64::from_bits(1), self.sign)
                }
            };
        }
        // Available precision: 53 bits in the normal range, fewer for
        // subnormals.
        let avail: u64 = if msb >= -1022 {
            53
        } else {
            (53 - (-1022 - msb)) as u64
        };
        let len = self.mant.bit_len();
        let (kept, inexact) = if len <= avail {
            (self.mant.shl(avail - len), false)
        } else {
            let drop = len - avail;
            let k = self.mant.shr(drop);
            let round_bit = self.mant.bit(drop - 1);
            let sticky = self.mant.any_low_bits(drop - 1);
            if round_odd {
                (k, round_bit || sticky)
            } else {
                let mut k = k;
                if round_bit && (sticky || k.bit(0)) {
                    k = k.add(&BigUint::one());
                }
                (k, false)
            }
        };
        let mut m = if kept.bit_len() <= 64 { kept.to_u64() } else { unreachable!() };
        let mut e2 = msb - avail as i64 + 1; // value = m * 2^e2 (before any carry)
        if m == 1u64 << avail {
            // RNE carry into the next binade.
            m >>= 1;
            e2 += 1;
            if msb + 1 > 1023 {
                return apply_sign(f64::INFINITY, self.sign);
            }
        }
        if round_odd && inexact {
            m |= 1;
        }
        apply_sign(exact_scale(m, e2), self.sign)
    }
}

/// Aligns two mantissas to a common exponent for exact comparison.
fn align(a: &BigUint, ea: i64, b: &BigUint, eb: i64) -> (BigUint, BigUint) {
    if ea >= eb {
        (a.shl((ea - eb) as u64), b.clone())
    } else {
        (a.clone(), b.shl((eb - ea) as u64))
    }
}

fn apply_sign(v: f64, sign: bool) -> f64 {
    if sign {
        -v
    } else {
        v
    }
}

/// `m * 2^e2` computed exactly (the caller guarantees representability).
fn exact_scale(m: u64, e2: i64) -> f64 {
    debug_assert!(m <= 1u64 << 53);
    let mut v = m as f64;
    let mut e = e2;
    // Two-step scaling keeps every intermediate exact: the first step stays
    // within the normal range.
    while e > 900 {
        v *= 2f64.powi(900);
        e -= 900;
    }
    while e < -900 {
        v *= 2f64.powi(-900);
        e += 900;
    }
    v * 2f64.powi(e as i32)
}

impl core::fmt::Display for MpFloat {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:e}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mp(x: f64) -> MpFloat {
        MpFloat::from_f64(x, 128)
    }

    #[test]
    fn f64_roundtrip_exact() {
        for &x in &[0.0, 1.0, -1.5, 0.1, 1e300, -1e-300, f64::MIN_POSITIVE, f64::from_bits(1)] {
            assert_eq!(mp(x).to_f64(), x, "x = {x:e}");
            assert_eq!(mp(x).to_f64_round_odd(), x, "round-odd must be exact here");
        }
    }

    #[test]
    fn normalization_invariant() {
        let v = mp(3.0);
        assert_eq!(v.mant.bit_len(), 128);
        assert_eq!(v.msb_pos(), 1);
    }

    #[test]
    fn add_sub_basics() {
        assert_eq!(mp(1.5).add(&mp(2.25), 128).to_f64(), 3.75);
        assert_eq!(mp(1.5).sub(&mp(2.25), 128).to_f64(), -0.75);
        assert!(mp(7.0).sub(&mp(7.0), 128).is_zero());
        assert_eq!(mp(-1.0).add(&mp(0.0), 128).to_f64(), -1.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // (1 + 2^-100) - 1 at 128 bits must be exactly 2^-100.
        let one = mp(1.0);
        let tiny = mp(2f64.powi(-100));
        let sum = one.add(&tiny, 128);
        let diff = sum.sub(&one, 128);
        assert_eq!(diff.to_f64(), 2f64.powi(-100));
    }

    /// `sign · m · 2^exp`, exactly, at the precision of `m` (at least 2).
    fn exact(sign: bool, m: &BigUint, exp: i64) -> MpFloat {
        MpFloat::normalize_round(sign, exp, m.clone(), (m.bit_len() as u32).max(2), false)
    }

    /// A random mantissa of exactly `len` bits.
    fn mantissa(rng: &mut rlibm_fp::rng::XorShift64, len: u64) -> BigUint {
        let mut m = BigUint::one();
        while m.bit_len() < len {
            let take = (len - m.bit_len()).min(32);
            m = m.shl(take).add(&BigUint::from_u64(rng.next_u64() >> (64 - take)));
        }
        m
    }

    /// `a + b` by exact aligned `BigUint` arithmetic, then one rounding.
    fn reference_add(a: &MpFloat, b: &MpFloat, prec: u32) -> MpFloat {
        if a.is_zero() || b.is_zero() {
            let v = if a.is_zero() { b } else { a };
            return MpFloat::normalize_round(v.sign, v.exp, v.mant.clone(), prec, false);
        }
        let e = a.exp.min(b.exp);
        let (x, y) = (a.mant.shl((a.exp - e) as u64), b.mant.shl((b.exp - e) as u64));
        let (sign, m) = if a.sign == b.sign {
            (a.sign, x.add(&y))
        } else if x.cmp(&y) != Ordering::Less {
            (a.sign, x.sub(&y))
        } else {
            (b.sign, y.sub(&x))
        };
        if m.is_zero() {
            return MpFloat::zero(prec);
        }
        MpFloat::normalize_round(sign, e, m, prec, false)
    }

    /// `add` agrees with exact addition plus one rounding for operands of
    /// every mantissa length (1, 39, 53 and the target precision, plus a
    /// longer one), both orders, both signs, every alignment from equal
    /// exponents to far apart, and near-total cancellation (an operand
    /// against its own rounding to fewer bits, perturbed in the last bits).
    #[test]
    fn add_matches_exact_sum_rounded_once() {
        let mut rng = rlibm_fp::rng::XorShift64::new(0xADD5);
        for prec in [53u32, 160] {
            let lens = [1u64, 39, 53, prec as u64, prec as u64 + 40];
            for &la in &lens {
                for &lb in &lens {
                    for shift in [0i64, 1, 2, 3, 38, 52, 60, prec as i64 - 1, prec as i64 + 5, 300] {
                        for _ in 0..8 {
                            let ma = mantissa(&mut rng, la);
                            let a = exact(false, &ma, -(la as i64));
                            let mut mb = mantissa(&mut rng, lb);
                            if shift == 0 && lb >= la {
                                // Near-total cancellation: b is a's value
                                // extended to lb bits, plus a few low ulps.
                                let low = BigUint::from_u64(rng.next_u64() >> 60);
                                mb = ma.shl(lb - la).add(&low);
                                if mb.bit_len() > lb {
                                    mb = ma.shl(lb - la);
                                }
                            }
                            let b = exact(false, &mb, -(lb as i64) - shift);
                            for (sa, sb) in [(false, false), (false, true), (true, false), (true, true)] {
                                let x = if sa { a.neg() } else { a.clone() };
                                let y = if sb { b.neg() } else { b.clone() };
                                let want = reference_add(&x, &y, prec);
                                for got in [x.add(&y, prec), y.add(&x, prec)] {
                                    assert_eq!(got, want, "prec {prec}, lens {la}/{lb}, shift {shift}");
                                }
                            }
                        }
                    }
                }
            }
        }
        // The case that exposed the bug: a 160-bit constant minus its own
        // 39-bit rounding must keep every bit of the difference.
        let ln2_64 = crate::consts::ln2(160).mul_pow2(-6);
        let hi39 = ln2_64.round(39);
        assert_eq!(ln2_64.sub(&hi39, 160), reference_add(&ln2_64, &hi39.neg(), 160));
    }

    #[test]
    fn rounding_to_precision() {
        // 2^60 + 1 rounded to 53 bits loses the 1 (RNE, below half-ulp).
        let v = MpFloat::from_u64((1u64 << 60) + 1, 61);
        let r = MpFloat::normalize_round(false, 0, BigUint::from_u64((1u64 << 60) + 1), 53, false);
        assert_eq!(r.to_f64(), 2f64.powi(60));
        assert_eq!(v.to_f64(), 2f64.powi(60)); // f64 conversion rounds the same way
        // 2^60 + 2^7 is an exact tie at 53 bits -> even (down).
        let tie = MpFloat::normalize_round(false, 0, BigUint::from_u64((1u64 << 60) + (1 << 7)), 53, false);
        assert_eq!(tie.to_f64(), 2f64.powi(60));
        // ...but with sticky set it must round up.
        let up = MpFloat::normalize_round(false, 0, BigUint::from_u64((1u64 << 60) + (1 << 7)), 53, true);
        assert_eq!(up.to_f64(), 2f64.powi(60) + 2f64.powi(8));
    }

    #[test]
    fn mul_div_inverse() {
        let a = mp(1.7);
        let b = mp(0.3);
        let p = a.mul(&b, 192);
        let q = p.div(&b, 192);
        // One rounding each way: must agree with a to ~190 bits, so the
        // f64 projection is identical.
        assert_eq!(q.to_f64(), 1.7);
    }

    #[test]
    fn div_matches_rational() {
        let a = mp(1.0);
        let b = mp(3.0);
        let third = a.div(&b, 128);
        assert_eq!(third.to_f64(), 1.0 / 3.0);
        let r = crate::Rational::from_ratio_i64(1, 3);
        assert_eq!(third.to_f64(), r.to_f64());
    }

    #[test]
    fn small_int_helpers() {
        let x = mp(10.0).div_u64(4, 128);
        assert_eq!(x.to_f64(), 2.5);
        let y = mp(2.5).mul_u64(3, 128);
        assert_eq!(y.to_f64(), 7.5);
    }

    #[test]
    fn comparison() {
        assert_eq!(mp(1.0).cmp(&mp(2.0)), Ordering::Less);
        assert_eq!(mp(-1.0).cmp(&mp(-2.0)), Ordering::Greater);
        assert_eq!(mp(-1.0).cmp(&mp(1.0)), Ordering::Less);
        assert_eq!(mp(1.5).cmp(&mp(1.5)), Ordering::Equal);
        assert_eq!(mp(0.0).cmp(&mp(0.0)), Ordering::Equal);
    }

    #[test]
    fn offset_ulps_walks_neighbours() {
        let v = mp(1.0);
        let up = v.offset_ulps(1);
        let down = v.offset_ulps(-1);
        assert!(up.cmp(&v) == Ordering::Greater);
        assert!(down.cmp(&v) == Ordering::Less);
        // 1 ulp at 128-bit precision of 1.0 is 2^-127.
        assert_eq!(up.sub(&v, 128).to_f64(), 2f64.powi(-127));
        // Crossing zero.
        let tiny = MpFloat::from_u64(1, 2);
        let neg = tiny.offset_ulps(-3);
        assert!(neg.is_negative());
    }

    #[test]
    fn round_odd_composes_with_f32_rounding() {
        // Build a value strictly between the f32 tie 1 + 2^-24 and the next
        // double: RNE to f64 would land exactly ON the tie and then
        // double-round to 1.0; round-odd keeps it off the tie.
        let tie = mp(1.0 + 2f64.powi(-24));
        let just_above = tie.offset_ulps(1); // way below one f64 ulp above
        let via_odd = just_above.to_f64_round_odd() as f32;
        assert_eq!(via_odd, 1.0 + 2f32.powi(-23), "round-odd must avoid the double-rounding trap");
        let via_rne = just_above.to_f64() as f32;
        assert_eq!(via_rne, 1.0, "plain RNE double-rounds here (expected)");
    }

    #[test]
    fn subnormal_f64_conversion() {
        // A value needing subnormal precision: 3 * 2^-1073 = 6 quanta.
        // (NB: 2f64.powi(-1073) evaluates to 0 -- powi overflows internally
        // -- so the expected value is built from raw bits.)
        let v = MpFloat::from_u64(3, 8).mul_pow2(-1073);
        assert_eq!(v.to_f64(), f64::from_bits(6));
        // Below the smallest subnormal.
        let tiny = MpFloat::from_u64(1, 8).mul_pow2(-1200);
        assert_eq!(tiny.to_f64(), 0.0);
        assert_eq!(tiny.to_f64_round_odd(), f64::from_bits(1));
        // Exactly half the smallest subnormal ties to zero.
        let half = MpFloat::from_u64(1, 8).mul_pow2(-1075);
        assert_eq!(half.to_f64(), 0.0);
        // Just above the half rounds up.
        let above = MpFloat::from_u64(3, 8).mul_pow2(-1076);
        assert_eq!(above.to_f64(), f64::from_bits(1));
    }

    #[test]
    fn overflow_conversion() {
        let big = MpFloat::from_u64(1, 8).mul_pow2(2000);
        assert_eq!(big.to_f64(), f64::INFINITY);
        assert_eq!(big.to_f64_round_odd(), f64::MAX);
        assert_eq!(big.neg().to_f64(), f64::NEG_INFINITY);
    }
}
