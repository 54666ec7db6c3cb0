//! Arbitrary-precision mathematical constants.
//!
//! Computed on demand with integer (fixed-point) series, or one division
//! for the reciprocals, and cached per precision. Each constant is
//! returned correctly rounded to the requested precision with at most
//! 1 ulp of error (the computation carries 64 guard bits).

use crate::biguint::BigUint;
use crate::float::MpFloat;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

const GUARD: u32 = 64;

#[derive(PartialEq, Eq, Hash, Clone, Copy)]
enum Which {
    Ln2,
    Ln10,
    Pi,
    Log2E,
    Log10E,
}

fn cache() -> &'static Mutex<HashMap<(Which, u32), MpFloat>> {
    static CACHE: OnceLock<Mutex<HashMap<(Which, u32), MpFloat>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn cached(which: Which, prec: u32, compute: impl FnOnce(u32) -> MpFloat) -> MpFloat {
    // A poisoned lock only means another thread panicked mid-insert; the
    // map still holds only fully computed constants, so recover it.
    if let Some(v) = cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&(which, prec))
    {
        return v.clone();
    }
    let v = compute(prec);
    cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert((which, prec), v.clone());
    v
}

/// `ln 2` to `prec` bits (error < 1 ulp).
///
/// Series: `ln 2 = sum_{k>=1} 1 / (k 2^k)`, one bit per term.
pub fn ln2(prec: u32) -> MpFloat {
    cached(Which::Ln2, prec, |prec| {
        let f = (prec + GUARD) as u64; // fixed-point fraction bits
        let mut sum = BigUint::zero();
        for k in 1..=f {
            // floor(2^f / (k 2^k)) = floor(2^(f-k) / k)
            let (t, _) = BigUint::one().shl(f - k).div_rem_u64(k);
            if t.is_zero() {
                break;
            }
            sum = sum.add(&t);
        }
        MpFloat::normalize_round(false, -(f as i64), sum, prec, true)
    })
}

/// `ln 10` to `prec` bits (error < 1 ulp).
///
/// `ln 10 = 3 ln 2 + ln(5/4)` with `ln(5/4) = 2 atanh(1/9)`.
pub fn ln10(prec: u32) -> MpFloat {
    cached(Which::Ln10, prec, |prec| {
        let f = (prec + GUARD) as u64;
        // 2 atanh(1/9) = sum_k 2 / ((2k+1) 9^(2k+1))
        let mut sum = BigUint::zero();
        let mut pow9 = BigUint::from_u64(9);
        let mut k = 0u64;
        loop {
            let denom_small = 2 * k + 1;
            let num = BigUint::one().shl(f + 1);
            let (t1, _) = num.div_rem(&pow9);
            let (t, _) = t1.div_rem_u64(denom_small);
            if t.is_zero() {
                break;
            }
            sum = sum.add(&t);
            pow9 = pow9.mul_u64(81);
            k += 1;
        }
        let ln54 = MpFloat::normalize_round(false, -(f as i64), sum, prec + GUARD, true);
        let three_ln2 = ln2(prec + GUARD).mul_u64(3, prec + GUARD);
        three_ln2.add(&ln54, prec)
    })
}

/// `pi` to `prec` bits (error < 1 ulp).
///
/// Machin's formula: `pi = 16 atan(1/5) - 4 atan(1/239)`.
pub fn pi(prec: u32) -> MpFloat {
    cached(Which::Pi, prec, |prec| {
        let f = (prec + GUARD) as u64;
        let a5 = atan_inv_fixed(5, f);
        let a239 = atan_inv_fixed(239, f);
        
        a5.mul_u64(16, prec + GUARD).sub(&a239.mul_u64(4, prec + GUARD), prec)
    })
}

/// `log2 e = 1 / ln 2` to `prec` bits (error < 1 ulp): one division at
/// `prec + 64` bits, cached, so `log2` multiplies where it would divide.
pub(crate) fn log2_e(prec: u32) -> MpFloat {
    cached(Which::Log2E, prec, |p| MpFloat::from_u64(1, 2).div(&ln2(p + GUARD), p))
}

/// `log10 e = 1 / ln 10` to `prec` bits (error < 1 ulp), as [`log2_e`].
pub(crate) fn log10_e(prec: u32) -> MpFloat {
    cached(Which::Log10E, prec, |p| MpFloat::from_u64(1, 2).div(&ln10(p + GUARD), p))
}

/// `atan(1/x)` as an `MpFloat`, computed in fixed point with `f` fraction
/// bits: `sum_k (-1)^k / ((2k+1) x^(2k+1))`.
fn atan_inv_fixed(x: u64, f: u64) -> MpFloat {
    let x2 = x * x; // fits: x <= 239
    let mut pos = BigUint::zero();
    let mut neg = BigUint::zero();
    let mut powx = BigUint::from_u64(x);
    let mut k = 0u64;
    loop {
        let num = BigUint::one().shl(f);
        let (t1, _) = num.div_rem(&powx);
        let (t, _) = t1.div_rem_u64(2 * k + 1);
        if t.is_zero() {
            break;
        }
        if k.is_multiple_of(2) {
            pos = pos.add(&t);
        } else {
            neg = neg.add(&t);
        }
        powx = powx.mul_u64(x2);
        k += 1;
    }
    let sum = pos.sub(&neg);
    MpFloat::normalize_round(false, -(f as i64), sum, (f - 8) as u32, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln2_matches_f64() {
        assert_eq!(ln2(64).to_f64(), core::f64::consts::LN_2);
        assert_eq!(ln2(256).to_f64(), core::f64::consts::LN_2);
    }

    #[test]
    fn ln10_matches_f64() {
        assert_eq!(ln10(128).to_f64(), core::f64::consts::LN_10);
    }

    #[test]
    fn pi_matches_f64() {
        assert_eq!(pi(128).to_f64(), core::f64::consts::PI);
    }

    #[test]
    fn constants_consistent_across_precisions() {
        // The 128-bit value must be a prefix of the 512-bit value: their
        // difference is below 1 ulp of the coarser precision.
        for (lo, hi) in [(ln2(128), ln2(512)), (ln10(128), ln10(512)), (pi(128), pi(512))] {
            let diff = lo.sub(&hi, 128).abs();
            if !diff.is_zero() {
                // |diff| < 2^(msb(lo) - 127)
                assert!(diff.msb_pos() < lo.msb_pos() - 126);
            }
        }
    }

    #[test]
    fn known_bits_of_pi() {
        // pi's significand in hex is 3.243F6A8885A308D313198A2E037073... ;
        // normalized to [1, 2) the top 64 mantissa bits are
        // 0xC90FDAA22168C234 (this is the value used in hardware tables).
        let p = pi(64);
        let via_f64 = p.to_f64();
        assert_eq!(via_f64, core::f64::consts::PI);
        // Pin the full 64-bit mantissa, not just the f64 projection:
        // pi rounded to 64 bits = 0xC90FDAA22168C235 * 2^-62 (the 64th bit
        // rounds up: the next bits are 1100...).
        let exact = MpFloat::normalize_round(
            false,
            -62,
            BigUint::from_u64(0xC90FDAA22168C235),
            64,
            false,
        );
        assert!(p.sub(&exact, 64).is_zero());
    }
}
