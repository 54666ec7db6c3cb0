//! Arbitrary-precision unsigned integers.
//!
//! A minimal, dependency-free bignum tailored to what the RLIBM-32 pipeline
//! needs: mantissa arithmetic for [`crate::MpFloat`] (add/sub/mul/div/shift
//! on numbers of a few thousand bits) and exact rational arithmetic for the
//! LP solver. Little-endian `u64` limbs, canonical form (no trailing zero
//! limbs).
//!
//! Two generation-hot-path optimizations (DESIGN.md "Generator
//! performance"):
//!
//! * **Inline small values.** The exact simplex churns through rationals
//!   whose components overwhelmingly fit in one or two limbs, and the Ziv
//!   oracle's working precision starts at 128 bits — whose products,
//!   guard-shifted sums and normalization shifts are 129–256 bits wide.
//!   Storing 0–4 limbs directly in the struct ([`Repr::Inline`]) keeps all
//!   of those off the heap. The representation is canonical — any value
//!   that fits [`INLINE_LIMBS`] limbs is *always* `Inline`, so structural
//!   equality over the limb slice is value equality.
//! * **Karatsuba multiplication** above [`KARATSUBA_THRESHOLD`] limbs
//!   (the Ziv oracle's `MpFloat` mantissas reach thousands of bits at
//!   high precisions); schoolbook below, where simplicity beats
//!   asymptotics.

use core::cmp::Ordering;

/// Limbs stored without allocation. Four limbs cover every 256-bit value:
/// the LP-intermediate rational components (overwhelmingly 1–2 limbs) and
/// the Ziv oracle's entire 128-bit-precision working set, including the
/// double-width mantissa products it normalizes back down. Two limbs put
/// the oracle's mantissas exactly *at* the boundary, so every product
/// heap-allocated (the PR-5 `ns_oracle` regression); four puts the whole
/// first Ziv round inside it.
const INLINE_LIMBS: usize = 4;

/// Operands with at least this many limbs on both sides multiply via
/// Karatsuba; below it, schoolbook wins on constant factors.
const KARATSUBA_THRESHOLD: usize = 32;

/// Canonical limb storage: values of at most [`INLINE_LIMBS`] limbs are
/// always `Inline` (unused inline limbs are zero); `Heap` vectors always
/// have more than [`INLINE_LIMBS`] limbs with a nonzero top limb.
#[derive(Debug, Clone)]
enum Repr {
    Inline { len: u8, limbs: [u64; INLINE_LIMBS] },
    Heap(Vec<u64>),
}

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use rlibm_mp::BigUint;
/// let a = BigUint::from_u64(u64::MAX);
/// let b = &a * &a;
/// let (q, r) = b.div_rem(&a);
/// assert_eq!(q, a);
/// assert!(r.is_zero());
/// ```
#[derive(Debug, Clone)]
pub struct BigUint {
    repr: Repr,
}

impl Default for BigUint {
    fn default() -> Self {
        Self::zero()
    }
}

impl PartialEq for BigUint {
    fn eq(&self, other: &Self) -> bool {
        self.limbs() == other.limbs()
    }
}

impl Eq for BigUint {}

impl core::hash::Hash for BigUint {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

/// Drops high zero limbs from a slice view.
fn trim(mut s: &[u64]) -> &[u64] {
    while let Some((&0, rest)) = s.split_last() {
        s = rest;
    }
    s
}

/// Schoolbook product into a zeroed buffer of exactly `a.len() + b.len()`
/// limbs (the fixed-scratch and heap paths share this core).
fn mul_schoolbook_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = x as u128 * y as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry > 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
}

/// Schoolbook product of two normalized limb slices.
fn mul_schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    mul_schoolbook_into(&mut out, a, b);
    out
}

/// `out = a + b` over raw limbs into a zeroed buffer one limb longer than
/// the longer operand.
fn add_limbs_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut carry = 0u64;
    for (i, &x) in long.iter().enumerate() {
        let y = short.get(i).copied().unwrap_or(0);
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    out[long.len()] = carry;
}

/// `a + b` over raw limb slices (result may carry one extra limb).
fn add_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len().max(b.len()) + 1];
    add_limbs_into(&mut out, a, b);
    out
}

/// `out = limbs << (64*limb_shift + bit_shift)` into a zeroed buffer of
/// exactly `limbs.len() + limb_shift + 1` limbs.
fn shl_into(out: &mut [u64], limbs: &[u64], limb_shift: usize, bit_shift: u32) {
    for (i, &l) in limbs.iter().enumerate() {
        out[i + limb_shift] |= l << bit_shift;
        if bit_shift > 0 {
            out[i + limb_shift + 1] |= l >> (64 - bit_shift);
        }
    }
}

/// `out = src >> bit_shift` (sub-limb shift only) into a buffer of exactly
/// `src.len()` limbs.
fn shr_into(out: &mut [u64], src: &[u64], bit_shift: u32) {
    for i in 0..src.len() {
        out[i] = src[i] >> bit_shift;
        if bit_shift > 0 && i + 1 < src.len() {
            out[i] |= src[i + 1] << (64 - bit_shift);
        }
    }
}

/// `out = limbs / d`, returning the remainder; `out` is exactly
/// `limbs.len()` limbs and `d` is nonzero.
fn div_limbs_u64_into(out: &mut [u64], limbs: &[u64], d: u64) -> u64 {
    let mut rem = 0u128;
    for i in (0..limbs.len()).rev() {
        let cur = (rem << 64) | limbs[i] as u128;
        out[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    rem as u64
}

/// `a -= b` over raw limbs; requires `a >= b` as integers.
fn sub_limbs_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (i, slot) in a.iter_mut().enumerate() {
        let y = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = slot.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *slot = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0, "limb subtraction underflow");
}

/// `acc[shift..] += x`, propagating the carry inside `acc` (the caller
/// sizes `acc` so the carry cannot run off the end).
fn add_into(acc: &mut [u64], x: &[u64], shift: usize) {
    let mut carry = 0u64;
    let mut i = 0;
    while i < x.len() || carry > 0 {
        let y = x.get(i).copied().unwrap_or(0);
        let slot = &mut acc[shift + i];
        let (s1, c1) = slot.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry);
        *slot = s2;
        carry = (c1 as u64) + (c2 as u64);
        i += 1;
    }
}

/// Karatsuba above the threshold, schoolbook below. Inputs normalized;
/// output may have high zero limbs (callers re-normalize).
fn mul_limbs(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    if a.len().min(b.len()) < KARATSUBA_THRESHOLD {
        return mul_schoolbook(a, b);
    }
    // Split both operands at half the shorter one so every quarter is
    // nonempty: a = a1·2^(64m) + a0, b likewise, then the three-product
    // identity a·b = z2·2^(128m) + (z1 - z2 - z0)·2^(64m) + z0 with
    // z1 = (a0+a1)(b0+b1).
    let m = a.len().min(b.len()) / 2;
    let (a0, a1) = a.split_at(m);
    let (b0, b1) = b.split_at(m);
    let (a0, b0) = (trim(a0), trim(b0));
    let z0 = mul_limbs(a0, b0);
    let z2 = mul_limbs(a1, b1);
    let sa = add_limbs(a0, a1);
    let sb = add_limbs(b0, b1);
    let mut z1 = mul_limbs(trim(&sa), trim(&sb));
    sub_limbs_in_place(&mut z1, &z0);
    sub_limbs_in_place(&mut z1, &z2);
    let mut out = vec![0u64; a.len() + b.len()];
    add_into(&mut out, &z0, 0);
    add_into(&mut out, trim(&z1), m);
    add_into(&mut out, &z2, 2 * m);
    out
}

impl BigUint {
    /// Builds the canonical representation from (possibly denormalized)
    /// little-endian limbs.
    fn from_norm_vec(mut v: Vec<u64>) -> Self {
        while v.last() == Some(&0) {
            v.pop();
        }
        if v.len() <= INLINE_LIMBS {
            let mut limbs = [0u64; INLINE_LIMBS];
            limbs[..v.len()].copy_from_slice(&v);
            BigUint { repr: Repr::Inline { len: v.len() as u8, limbs } }
        } else {
            BigUint { repr: Repr::Heap(v) }
        }
    }

    /// As [`Self::from_norm_vec`] but from a fixed-size scratch array,
    /// allocating only when the value needs more than [`INLINE_LIMBS`]
    /// limbs.
    fn from_limb_array(s: &[u64]) -> Self {
        let s = trim(s);
        if s.len() <= INLINE_LIMBS {
            let mut limbs = [0u64; INLINE_LIMBS];
            limbs[..s.len()].copy_from_slice(s);
            BigUint { repr: Repr::Inline { len: s.len() as u8, limbs } }
        } else {
            BigUint { repr: Repr::Heap(s.to_vec()) }
        }
    }

    /// The canonical little-endian limb slice (empty for zero).
    fn limbs(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, limbs } => &limbs[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// The whole value as a `u128` when it fits in two limbs. Inline
    /// values can be wider than that (up to [`INLINE_LIMBS`] limbs), so
    /// the length gate is load-bearing — the `u128` fast paths keyed on
    /// this must not see truncated values.
    fn as_u128(&self) -> Option<u128> {
        match &self.repr {
            // Unused inline limbs are zero by the canonical invariant.
            Repr::Inline { len, limbs } if *len <= 2 => {
                Some(limbs[0] as u128 | (limbs[1] as u128) << 64)
            }
            _ => None,
        }
    }

    /// Zero.
    pub fn zero() -> Self {
        BigUint { repr: Repr::Inline { len: 0, limbs: [0; INLINE_LIMBS] } }
    }

    /// One.
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    /// Constructs from a `u64`.
    pub fn from_u64(x: u64) -> Self {
        let mut limbs = [0u64; INLINE_LIMBS];
        limbs[0] = x;
        BigUint { repr: Repr::Inline { len: (x != 0) as u8, limbs } }
    }

    /// Constructs from a `u128`.
    pub fn from_u128(x: u128) -> Self {
        let lo = x as u64;
        let hi = (x >> 64) as u64;
        if hi == 0 {
            Self::from_u64(lo)
        } else {
            let mut limbs = [0u64; INLINE_LIMBS];
            limbs[0] = lo;
            limbs[1] = hi;
            BigUint { repr: Repr::Inline { len: 2, limbs } }
        }
    }

    /// True for zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Inline { len: 0, .. })
    }

    /// True for one.
    pub fn is_one(&self) -> bool {
        matches!(&self.repr, Repr::Inline { len: 1, limbs } if limbs[0] == 1)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&top) => (limbs.len() as u64) * 64 - top.leading_zeros() as u64,
        }
    }

    /// The bit at index `i` (little-endian, index 0 = LSB).
    pub fn bit(&self, i: u64) -> bool {
        let limbs = self.limbs();
        let limb = (i / 64) as usize;
        if limb >= limbs.len() {
            return false;
        }
        (limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Number of trailing zero bits.
    ///
    /// # Panics
    ///
    /// Panics on zero (which has no well-defined answer).
    pub fn trailing_zeros(&self) -> u64 {
        assert!(!self.is_zero(), "trailing_zeros of zero");
        for (i, &l) in self.limbs().iter().enumerate() {
            if l != 0 {
                return i as u64 * 64 + l.trailing_zeros() as u64;
            }
        }
        unreachable!()
    }

    /// True when any of the low `n` bits is set (used for sticky-bit
    /// computations when rounding mantissas).
    pub fn any_low_bits(&self, n: u64) -> bool {
        let limbs = self.limbs();
        let full = (n / 64) as usize;
        for &l in limbs.iter().take(full) {
            if l != 0 {
                return true;
            }
        }
        let rem = n % 64;
        if rem > 0 && full < limbs.len() {
            return limbs[full] & ((1u64 << rem) - 1) != 0;
        }
        false
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: u64) -> BigUint {
        if self.is_zero() {
            return Self::zero();
        }
        if let Some(a) = self.as_u128() {
            if self.bit_len() + n <= 128 {
                return Self::from_u128(a << n);
            }
        }
        let limbs = self.limbs();
        let limb_shift = (n / 64) as usize;
        let bit_shift = (n % 64) as u32;
        let out_len = limbs.len() + limb_shift + 1;
        if out_len <= INLINE_LIMBS + 1 {
            let mut out = [0u64; INLINE_LIMBS + 1];
            shl_into(&mut out[..out_len], limbs, limb_shift, bit_shift);
            return Self::from_limb_array(&out[..out_len]);
        }
        let mut out = vec![0u64; out_len];
        shl_into(&mut out, limbs, limb_shift, bit_shift);
        Self::from_norm_vec(out)
    }

    /// Right shift by `n` bits (bits shifted out are discarded).
    pub fn shr(&self, n: u64) -> BigUint {
        if let Some(a) = self.as_u128() {
            return if n >= 128 { Self::zero() } else { Self::from_u128(a >> n) };
        }
        let limbs = self.limbs();
        let limb_shift = (n / 64) as usize;
        if limb_shift >= limbs.len() {
            return Self::zero();
        }
        let bit_shift = (n % 64) as u32;
        let src = &limbs[limb_shift..];
        if src.len() <= INLINE_LIMBS {
            let mut out = [0u64; INLINE_LIMBS];
            shr_into(&mut out[..src.len()], src, bit_shift);
            return Self::from_limb_array(&out[..src.len()]);
        }
        let mut out = vec![0u64; src.len()];
        shr_into(&mut out, src, bit_shift);
        Self::from_norm_vec(out)
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        if let (Some(a), Some(b)) = (self.as_u128(), other.as_u128()) {
            let (s, carried) = a.overflowing_add(b);
            if !carried {
                return Self::from_u128(s);
            }
            return Self::from_limb_array(&[s as u64, (s >> 64) as u64, 1]);
        }
        let (a, b) = (self.limbs(), other.limbs());
        let out_len = a.len().max(b.len()) + 1;
        if out_len <= INLINE_LIMBS + 1 {
            let mut out = [0u64; INLINE_LIMBS + 1];
            add_limbs_into(&mut out[..out_len], a, b);
            return Self::from_limb_array(&out[..out_len]);
        }
        Self::from_norm_vec(add_limbs(a, b))
    }

    /// Subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        if let (Some(a), Some(b)) = (self.as_u128(), other.as_u128()) {
            return Self::from_u128(a - b);
        }
        let a = self.limbs();
        if a.len() <= INLINE_LIMBS {
            let mut out = [0u64; INLINE_LIMBS];
            out[..a.len()].copy_from_slice(a);
            sub_limbs_in_place(&mut out[..a.len()], other.limbs());
            return Self::from_limb_array(&out[..a.len()]);
        }
        let mut out = a.to_vec();
        sub_limbs_in_place(&mut out, other.limbs());
        Self::from_norm_vec(out)
    }

    /// Multiplication (schoolbook up to [`KARATSUBA_THRESHOLD`] limbs,
    /// Karatsuba above).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        if let (Some(a), Some(b)) = (self.as_u128(), other.as_u128()) {
            // Single-limb operands stay entirely in u128.
            if (a >> 64) == 0 && (b >> 64) == 0 {
                return Self::from_u128(a * b);
            }
            // Two-limb operands fill at most a fixed 4-limb scratch.
            // Four partial products; the column sums below stay within
            // u128 (mid < 3*2^64, p11 + carry <= 2^128 - 1).
            let (a0, a1) = (a as u64, (a >> 64) as u64);
            let (b0, b1) = (b as u64, (b >> 64) as u64);
            let p00 = a0 as u128 * b0 as u128;
            let p01 = a0 as u128 * b1 as u128;
            let p10 = a1 as u128 * b0 as u128;
            let p11 = a1 as u128 * b1 as u128;
            let mid = (p00 >> 64) + (p01 as u64 as u128) + (p10 as u64 as u128);
            let high = p11 + (mid >> 64) + (p01 >> 64) + (p10 >> 64);
            let out = [p00 as u64, mid as u64, high as u64, (high >> 64) as u64];
            return Self::from_limb_array(&out);
        }
        let (a, b) = (self.limbs(), other.limbs());
        // Wider inline operands (the oracle's 129..256-bit intermediates
        // at escalated Ziv precisions) still fit a fixed double-width
        // scratch.
        let out_len = a.len() + b.len();
        if out_len <= 2 * INLINE_LIMBS {
            let mut out = [0u64; 2 * INLINE_LIMBS];
            mul_schoolbook_into(&mut out[..out_len], a, b);
            return Self::from_limb_array(&out[..out_len]);
        }
        Self::from_norm_vec(mul_limbs(a, b))
    }

    /// `floor(self · other / 2^n)`, the fixed-point product: inline
    /// operands multiply and shift in stack scratch, with no heap buffer.
    pub(crate) fn mul_shr(&self, other: &BigUint, n: u64) -> BigUint {
        let (a, b) = (self.limbs(), other.limbs());
        let (len, skip) = (a.len() + b.len(), (n / 64) as usize);
        if len > 2 * INLINE_LIMBS || skip >= len {
            return self.mul(other).shr(n);
        }
        let (mut prod, mut out) = ([0u64; 2 * INLINE_LIMBS], [0u64; 2 * INLINE_LIMBS]);
        mul_schoolbook_into(&mut prod[..len], a, b);
        shr_into(&mut out[..len - skip], &prod[skip..len], (n % 64) as u32);
        Self::from_limb_array(&out[..len - skip])
    }

    /// Multiplication by a `u64`.
    pub fn mul_u64(&self, m: u64) -> BigUint {
        if m == 0 || self.is_zero() {
            return Self::zero();
        }
        if let Some(a) = self.as_u128() {
            let lo = (a as u64) as u128 * m as u128;
            let hi = ((a >> 64) as u64) as u128 * m as u128;
            let mid = hi + (lo >> 64);
            let out = [lo as u64, mid as u64, (mid >> 64) as u64];
            return Self::from_limb_array(&out);
        }
        let limbs = self.limbs();
        if limbs.len() <= INLINE_LIMBS {
            let mut out = [0u64; INLINE_LIMBS + 1];
            mul_schoolbook_into(&mut out[..limbs.len() + 1], limbs, &[m]);
            return Self::from_limb_array(&out[..limbs.len() + 1]);
        }
        let mut out = Vec::with_capacity(limbs.len() + 1);
        let mut carry = 0u128;
        for &a in limbs {
            let t = a as u128 * m as u128 + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        Self::from_norm_vec(out)
    }

    /// Division by a `u64` divisor, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        if let Some(a) = self.as_u128() {
            return (Self::from_u128(a / d as u128), (a % d as u128) as u64);
        }
        let limbs = self.limbs();
        if limbs.len() <= INLINE_LIMBS {
            let mut out = [0u64; INLINE_LIMBS];
            let rem = div_limbs_u64_into(&mut out[..limbs.len()], limbs, d);
            return (Self::from_limb_array(&out[..limbs.len()]), rem);
        }
        let mut out = vec![0u64; limbs.len()];
        let rem = div_limbs_u64_into(&mut out, limbs, d);
        (Self::from_norm_vec(out), rem)
    }

    /// Division, returning `(quotient, remainder)`.
    ///
    /// Uses a base-2^64 schoolbook (Knuth Algorithm D style with a
    /// normalize-and-estimate inner loop simplified to per-bit refinement
    /// for the correction step).
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, d: &BigUint) -> (BigUint, BigUint) {
        assert!(!d.is_zero(), "division by zero");
        if let (Some(a), Some(b)) = (self.as_u128(), d.as_u128()) {
            return (Self::from_u128(a / b), Self::from_u128(a % b));
        }
        let d_limbs = d.limbs();
        if d_limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(d_limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        match self.cmp(d) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        // Normalize so the divisor's top bit is set.
        let shift = 64 - ((d.bit_len() - 1) % 64 + 1);
        let u = self.shl(shift);
        let v = d.shl(shift);
        let n = v.limbs().len();
        let m = u.limbs().len() - n;
        let v_top = v.limbs()[n - 1];
        let v_second = if n >= 2 { v.limbs()[n - 2] } else { 0 };

        let mut rem = u.clone();
        let mut q_limbs = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate q_hat from the top limbs of rem relative to position j.
            let r2 = rem.limbs().get(j + n).copied().unwrap_or(0);
            let r1 = rem.limbs().get(j + n - 1).copied().unwrap_or(0);
            let r0 = rem.limbs().get(j + n - 2).copied().unwrap_or(0);
            let top = ((r2 as u128) << 64) | r1 as u128;
            let mut q_hat = if r2 >= v_top {
                u64::MAX as u128
            } else {
                top / v_top as u128
            };
            let mut r_hat = top - q_hat * v_top as u128;
            // Refine: classic two-limb check.
            while r_hat <= u64::MAX as u128
                && q_hat * v_second as u128 > ((r_hat << 64) | r0 as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
            }
            let mut q_hat = q_hat as u64;
            // Subtract q_hat * v << (64*j) from rem; fix up if negative.
            let prod = v.mul_u64(q_hat).shl(64 * j as u64);
            if prod > rem {
                q_hat -= 1;
                let prod2 = v.mul_u64(q_hat).shl(64 * j as u64);
                debug_assert!(prod2 <= rem);
                rem = rem.sub(&prod2);
            } else {
                rem = rem.sub(&prod);
            }
            q_limbs[j] = q_hat;
        }
        let q = Self::from_norm_vec(q_limbs);
        let r = rem.shr(shift);
        debug_assert!(&q.mul(d).add(&r) == self);
        (q, r)
    }

    /// The value as a `u64`. Every caller first reduces the value below
    /// 2^64 (by shifting or a `bit_len` check); values wider than one limb
    /// are an internal invariant violation caught in debug builds.
    pub fn to_u64(&self) -> u64 {
        debug_assert!(self.limbs().len() <= 1, "BigUint::to_u64 overflow");
        self.limbs().first().copied().unwrap_or(0)
    }

    /// The top 64 significant bits as a `u64` with MSB set (undefined for
    /// zero). Together with `bit_len` this summarizes the magnitude.
    pub fn top_bits(&self) -> u64 {
        assert!(!self.is_zero());
        let len = self.bit_len();
        if len <= 64 {
            self.limbs()[0] << (64 - len)
        } else {
            self.shr(len - 64).to_u64()
        }
    }

    /// Greatest common divisor.
    ///
    /// Binary (Stein) gcd — only shifts and subtractions, so the inner
    /// loop is cheap limb traffic instead of full divisions. When the
    /// operand sizes are far apart one Euclidean reduction first brings
    /// them together (a pure subtract-and-shift loop would grind through
    /// the size gap 64 bits at a time).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        if a.limbs().len() + 2 < b.limbs().len() {
            b = b.div_rem(&a).1;
            if b.is_zero() {
                return a;
            }
        } else if b.limbs().len() + 2 < a.limbs().len() {
            a = a.div_rem(&b).1;
            if a.is_zero() {
                return b;
            }
        }
        let az = a.trailing_zeros();
        let bz = b.trailing_zeros();
        let k = az.min(bz);
        a = a.shr(az);
        b = b.shr(bz);
        // Invariant: a and b odd.
        loop {
            if a > b {
                core::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                return a.shl(k);
            }
            b = b.shr(b.trailing_zeros());
        }
    }

    /// `self^exp` by binary exponentiation.
    pub fn pow(&self, mut exp: u64) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.mul(&base);
            }
            exp >>= 1;
            if exp > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.limbs(), other.limbs());
        match a.len().cmp(&b.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl core::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl core::ops::Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}

impl core::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

impl core::fmt::Display for BigUint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10_000_000_000_000_000_000);
            digits.push(r);
            cur = q;
        }
        if let Some(top) = digits.pop() {
            write!(f, "{top}")?;
        }
        for d in digits.iter().rev() {
            write!(f, "{d:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a decimal string.
    fn big(s: &str) -> BigUint {
        assert!(!s.is_empty(), "empty decimal string");
        let mut acc = BigUint::zero();
        for c in s.chars() {
            let d = c.to_digit(10).unwrap_or_else(|| panic!("invalid decimal digit {c:?}"));
            acc = acc.mul_u64(10).add(&BigUint::from_u64(u64::from(d)));
        }
        acc
    }

    #[test]
    fn basic_construction() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::from_u64(42).to_u64(), 42);
        assert_eq!(BigUint::from_u128(u128::MAX).bit_len(), 128);
    }

    #[test]
    fn add_with_carries() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(1);
        let c = a.add(&b);
        assert_eq!(c, BigUint::from_u128(1u128 << 64));
        assert_eq!(c.bit_len(), 65);
    }

    #[test]
    fn sub_with_borrows() {
        let a = BigUint::from_u128(1u128 << 64);
        let b = BigUint::from_u64(1);
        assert_eq!(a.sub(&b), BigUint::from_u64(u64::MAX));
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn mul_matches_u128() {
        let a = BigUint::from_u64(0xDEAD_BEEF_CAFE_F00D);
        let b = BigUint::from_u64(0x1234_5678_9ABC_DEF0);
        let c = a.mul(&b);
        let expect = 0xDEAD_BEEF_CAFE_F00Du128 * 0x1234_5678_9ABC_DEF0u128;
        assert_eq!(c, BigUint::from_u128(expect));
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_u64(0b1011);
        assert_eq!(a.shl(130).shr(130), a);
        assert_eq!(a.shl(1).to_u64(), 0b10110);
        assert_eq!(a.shr(2).to_u64(), 0b10);
        assert!(a.shr(64).is_zero());
        assert_eq!(a.shl(64).bit_len(), 68);
    }

    #[test]
    fn bit_access() {
        let a = BigUint::from_u64(0b1010).shl(100);
        assert!(a.bit(101));
        assert!(!a.bit(100));
        assert!(a.bit(103));
        assert_eq!(a.trailing_zeros(), 101);
        assert!(a.any_low_bits(102));
        assert!(!a.any_low_bits(101));
    }

    #[test]
    fn division_small() {
        let a = big("123456789012345678901234567890");
        let (q, r) = a.div_rem_u64(97);
        assert_eq!(q.mul_u64(97).add(&BigUint::from_u64(r)), a);
        assert!(r < 97);
    }

    #[test]
    fn division_multi_limb() {
        let a = big("340282366920938463463374607431768211455123456789");
        let d = big("18446744073709551629");
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn division_exercises_qhat_correction() {
        // Divisor with max top limb forces the q_hat estimate paths.
        let d = BigUint::from_u128(((u64::MAX as u128) << 64) | 1);
        let a = d.mul(&big("987654321987654321987654321")).add(&BigUint::from_u64(7));
        let (q, r) = a.div_rem(&d);
        assert_eq!(q, big("987654321987654321987654321"));
        assert_eq!(r.to_u64(), 7);
    }

    #[test]
    fn division_by_larger_and_equal() {
        let a = BigUint::from_u64(5);
        let d = big("99999999999999999999");
        let (q, r) = a.div_rem(&d);
        assert!(q.is_zero());
        assert_eq!(r, a);
        let (q2, r2) = d.div_rem(&d);
        assert!(q2.is_one());
        assert!(r2.is_zero());
    }

    #[test]
    fn gcd_works() {
        let a = big("123456789012345678901234567890");
        let b = big("987654321098765432109876543210");
        let g = a.gcd(&b);
        let (_, ra) = a.div_rem(&g);
        let (_, rb) = b.div_rem(&g);
        assert!(ra.is_zero() && rb.is_zero());
        assert_eq!(BigUint::from_u64(12).gcd(&BigUint::from_u64(18)).to_u64(), 6);
    }

    #[test]
    fn gcd_handles_disparate_sizes_and_powers_of_two() {
        // Size gap > 2 limbs exercises the initial Euclidean reduction.
        let small = BigUint::from_u64(3 << 5);
        let huge = BigUint::from_u64(3).shl(1000);
        assert_eq!(small.gcd(&huge), BigUint::from_u64(3 << 5));
        assert_eq!(huge.gcd(&small), BigUint::from_u64(3 << 5));
        let a = BigUint::from_u64(7).shl(200);
        let b = BigUint::from_u64(7).shl(100);
        assert_eq!(a.gcd(&b), b);
        assert!(a.gcd(&BigUint::zero()) == a);
        assert!(BigUint::zero().gcd(&b) == b);
    }

    #[test]
    fn pow_and_display() {
        let t = BigUint::from_u64(10).pow(25);
        assert_eq!(t.to_string(), "10000000000000000000000000");
        assert_eq!(BigUint::from_u64(2).pow(100), BigUint::one().shl(100));
        assert_eq!(BigUint::zero().to_string(), "0");
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "123456789098765432101112131415161718192021222324252627282930";
        assert_eq!(big(s).to_string(), s);
    }

    #[test]
    fn top_bits() {
        let a = BigUint::from_u64(1).shl(100);
        assert_eq!(a.top_bits(), 1u64 << 63);
        assert_eq!(BigUint::from_u64(3).top_bits(), 3u64 << 62);
    }

    /// Values that fit [`INLINE_LIMBS`] limbs must always be stored
    /// inline, including results that *shrink* back across the boundary.
    #[test]
    fn representation_is_canonical_across_the_inline_boundary() {
        let two64 = BigUint::from_u128(1u128 << 64);
        // The oracle's 256-bit mantissa products sit exactly at the top of
        // the inline range.
        let top4 = BigUint::one().shl(255); // 4 limbs: inline
        assert!(matches!(top4.repr, Repr::Inline { len: 4, .. }));
        let big5 = BigUint::one().shl(256); // 5 limbs: heap
        assert!(matches!(big5.repr, Repr::Heap(_)));
        let shrunk = big5.sub(&BigUint::one()); // 2^256 - 1: exactly 4 limbs
        assert!(matches!(shrunk.repr, Repr::Inline { len: 4, .. }));
        assert_eq!(shrunk.bit_len(), 256);
        let back = shrunk.add(&BigUint::one());
        assert!(matches!(back.repr, Repr::Heap(_)));
        assert_eq!(back, big5);
        let q = big5.div_rem(&two64).0; // 2^192: 4 limbs
        assert!(matches!(q.repr, Repr::Inline { len: 4, .. }));
        assert_eq!(q, BigUint::one().shl(192));
    }

    /// Inline values wider than two limbs must bypass the `u128` fast
    /// paths untruncated: every op on 3–4-limb operands has to agree with
    /// the slice-based reference routines.
    #[test]
    fn wide_inline_values_bypass_the_u128_fast_paths() {
        let vals: Vec<BigUint> = [
            BigUint::from_u128(u128::MAX),
            BigUint::from_u128(0xDEAD_BEEF_CAFE_F00D).shl(130),
            BigUint::one().shl(128),                       // 3 limbs
            BigUint::one().shl(192).sub(&BigUint::one()),  // 3 limbs, all ones
            BigUint::one().shl(255),                       // 4 limbs
            BigUint::one().shl(256).sub(&BigUint::one()),  // 4 limbs, all ones
        ]
        .to_vec();
        for a in &vals {
            for b in &vals {
                let want_mul =
                    BigUint::from_norm_vec(mul_schoolbook(a.limbs(), b.limbs()));
                assert_eq!(a.mul(b), want_mul, "{a} * {b}");
                let want_add = BigUint::from_norm_vec(add_limbs(a.limbs(), b.limbs()));
                assert_eq!(a.add(b), want_add, "{a} + {b}");
                let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
                assert_eq!(hi.sub(lo).add(lo), *hi, "{hi} - {lo}");
            }
            assert_eq!(a.shl(37).shr(37), *a, "{a} shift roundtrip");
            assert_eq!(a.shl(64).shr(1).shr(63), *a, "{a} limb-shift roundtrip");
            let m = 0x1234_5678_9ABC_DEF0u64;
            assert_eq!(
                a.mul_u64(m),
                a.mul(&BigUint::from_u64(m)),
                "{a} * small"
            );
            let (q, r) = a.div_rem_u64(97);
            assert_eq!(q.mul_u64(97).add(&BigUint::from_u64(r)), *a, "{a} / 97");
        }
    }

    #[test]
    fn inline_mul_covers_all_limb_count_combinations() {
        let vals: [u128; 6] = [
            1,
            0xFFFF_FFFF_FFFF_FFFF,
            0x1_0000_0000_0000_0000,
            u128::MAX,
            0xDEAD_BEEF_CAFE_F00D_1234_5678_9ABC_DEF0,
            0x8000_0000_0000_0000_0000_0000_0000_0000,
        ];
        for &a in &vals {
            for &b in &vals {
                let got = BigUint::from_u128(a).mul(&BigUint::from_u128(b));
                // Reference: schoolbook over the raw limb slices.
                let want = BigUint::from_norm_vec(mul_schoolbook(
                    trim(&[a as u64, (a >> 64) as u64]),
                    trim(&[b as u64, (b >> 64) as u64]),
                ));
                assert_eq!(got, want, "{a:#x} * {b:#x}");
            }
        }
    }

    #[test]
    fn karatsuba_matches_schoolbook_above_threshold() {
        // Deterministic pseudo-random limbs spanning the threshold.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (la, lb) in [(32, 32), (33, 64), (64, 64), (65, 40), (100, 33)] {
            let a: Vec<u64> = (0..la).map(|_| next()).collect();
            let b: Vec<u64> = (0..lb).map(|_| next()).collect();
            let (a, b) = (trim(&a).to_vec(), trim(&b).to_vec());
            let kara = BigUint::from_norm_vec(mul_limbs(&a, &b));
            let school = BigUint::from_norm_vec(mul_schoolbook(&a, &b));
            assert_eq!(kara, school, "sizes {la}x{lb}");
        }
    }

    /// The stack-scratch fixed-point product agrees with `mul` then `shr`
    /// for operands on both sides of the inline bound and shifts that
    /// keep or drop every limb.
    #[test]
    fn mul_shr_matches_mul_then_shr() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (la, lb) in [(1, 1), (2, 3), (4, 4), (3, 5), (5, 5)] {
            let a = BigUint::from_norm_vec((0..la).map(|_| next()).collect());
            let b = BigUint::from_norm_vec((0..lb).map(|_| next()).collect());
            for n in [0, 1, 63, 64, 127, 200, 255, 64 * (la + lb) as u64, 1000] {
                assert_eq!(a.mul_shr(&b, n), a.mul(&b).shr(n), "{la}x{lb} >> {n}");
            }
        }
    }
}
