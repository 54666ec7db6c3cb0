//! Exact bit-level operations on `f32` and `f64`.
//!
//! Everything in this module is branch-by-branch deterministic bit
//! arithmetic: no floating point rounding is involved unless stated
//! otherwise. These helpers implement the "properties of T and H" that the
//! paper's `RoundingInterval` function (Algorithm 1, lines 14-17) relies on
//! to find interval endpoints without a search.

/// Returns the next `f64` strictly greater than `x` in the total order of
/// finite values (subnormals included).
///
/// # Panics
///
/// Panics if `x` is NaN or `+inf` — callers in the generator only ever walk
/// within the finite range.
///
/// # Example
///
/// ```
/// use rlibm_fp::bits::next_up_f64;
/// assert_eq!(next_up_f64(0.0), f64::from_bits(1));
/// assert!(next_up_f64(1.0) > 1.0);
/// ```
pub fn next_up_f64(x: f64) -> f64 {
    assert!(!x.is_nan(), "next_up_f64(NaN)");
    assert!(x != f64::INFINITY, "next_up_f64(+inf)");
    let bits = x.to_bits();
    if x == 0.0 {
        // Both +0.0 and -0.0 step to the smallest positive subnormal.
        return f64::from_bits(1);
    }
    if bits >> 63 == 0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// Returns the next `f64` strictly less than `x`.
///
/// # Panics
///
/// Panics if `x` is NaN or `-inf`.
pub fn next_down_f64(x: f64) -> f64 {
    assert!(!x.is_nan(), "next_down_f64(NaN)");
    assert!(x != f64::NEG_INFINITY, "next_down_f64(-inf)");
    let bits = x.to_bits();
    if x == 0.0 {
        return -f64::from_bits(1);
    }
    if bits >> 63 == 0 {
        f64::from_bits(bits - 1)
    } else {
        f64::from_bits(bits + 1)
    }
}

/// Returns the next `f32` strictly greater than `x`.
///
/// # Panics
///
/// Panics if `x` is NaN or `+inf`.
pub fn next_up_f32(x: f32) -> f32 {
    assert!(!x.is_nan(), "next_up_f32(NaN)");
    assert!(x != f32::INFINITY, "next_up_f32(+inf)");
    let bits = x.to_bits();
    if x == 0.0 {
        return f32::from_bits(1);
    }
    if bits >> 31 == 0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

/// Returns the next `f32` strictly less than `x`.
///
/// # Panics
///
/// Panics if `x` is NaN or `-inf`.
pub fn next_down_f32(x: f32) -> f32 {
    assert!(!x.is_nan(), "next_down_f32(NaN)");
    assert!(x != f32::NEG_INFINITY, "next_down_f32(-inf)");
    let bits = x.to_bits();
    if x == 0.0 {
        return -f32::from_bits(1);
    }
    if bits >> 31 == 0 {
        f32::from_bits(bits - 1)
    } else {
        f32::from_bits(bits + 1)
    }
}

/// Exact midpoint of two adjacent finite `f32` values, computed in `f64`.
///
/// Adjacent `f32` values convert exactly to `f64`; their sum needs at most
/// 26 significand bits, so both the sum and the halving are exact in `f64`.
/// This is how the rounding-interval endpoints of Algorithm 1 are obtained
/// without any search.
pub fn midpoint_f32(a: f32, b: f32) -> f64 {
    (a as f64 + b as f64) * 0.5
}

/// Unbiased exponent of a finite nonzero `f64` (the `e` in `m * 2^e` with
/// `m` in `[1, 2)` for normal values; subnormals report their effective
/// exponent based on the leading significand bit).
///
/// # Panics
///
/// Panics if `x` is zero, NaN, or infinite.
pub fn exponent_f64(x: f64) -> i32 {
    assert!(x.is_finite() && x != 0.0, "exponent_f64 of zero/non-finite");
    let bits = x.to_bits();
    let raw = ((bits >> 52) & 0x7ff) as i32;
    if raw != 0 {
        raw - 1023
    } else {
        // Subnormal: value = frac * 2^-1074, so the effective exponent is
        // the index of the top set fraction bit minus 1074.
        let frac = bits & ((1u64 << 52) - 1);
        (63 - frac.leading_zeros() as i32) - 1074
    }
}

/// One unit in the last place of `x` as a positive `f64`, i.e. the spacing
/// between `x` and the next representable value away from zero.
///
/// # Panics
///
/// Panics if `x` is NaN or infinite.
pub fn ulp_f64(x: f64) -> f64 {
    assert!(x.is_finite(), "ulp_f64 of non-finite");
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let a = x.abs();
    next_up_f64(a) - a
}

/// One unit in the last place of `x` as a positive `f32`.
///
/// # Panics
///
/// Panics if `x` is NaN or infinite.
pub fn ulp_f32(x: f32) -> f32 {
    assert!(x.is_finite(), "ulp_f32 of non-finite");
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let a = x.abs();
    if a == f32::MAX {
        return a - next_down_f32(a);
    }
    next_up_f32(a) - a
}

/// Splits a finite nonzero `f64` into `(sign, mantissa, exponent)` such that
/// `x == (-1)^sign * mantissa * 2^exponent` exactly, with `mantissa` an odd
/// integer (trailing zeros folded into the exponent), except that a zero
/// mantissa is returned for `x == 0`.
pub fn decompose_f64(x: f64) -> (bool, u64, i32) {
    assert!(x.is_finite(), "decompose_f64 of non-finite");
    let bits = x.to_bits();
    let sign = bits >> 63 == 1;
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if raw_exp == 0 && frac == 0 {
        return (sign, 0, 0);
    }
    let (mut mant, mut exp) = if raw_exp == 0 {
        (frac, -1074)
    } else {
        (frac | (1u64 << 52), raw_exp - 1075)
    };
    let tz = mant.trailing_zeros();
    mant >>= tz;
    exp += tz as i32;
    (sign, mant, exp)
}

/// Reconstructs the `f64` from a [`decompose_f64`] triple. Exact as long as
/// the value is representable (which it always is for triples produced by
/// `decompose_f64`).
pub fn compose_f64(sign: bool, mant: u64, exp: i32) -> f64 {
    let v = mant as f64 * 2f64.powi(exp);
    if sign {
        -v
    } else {
        v
    }
}

/// True when the `f64` significand (including hidden bit semantics) is even,
/// i.e. the lowest stored fraction bit is 0. Used to decide whether a
/// rounding-interval endpoint is attained under ties-to-even.
pub fn is_even_f64(x: f64) -> bool {
    x.to_bits() & 1 == 0
}

/// True when the `f32` significand is even (lowest fraction bit 0).
pub fn is_even_f32(x: f32) -> bool {
    x.to_bits() & 1 == 0
}

/// Maps an `f64` to an `i64` key that is strictly monotone in the IEEE
/// total order of non-NaN values (`-inf < ... < -0.0 < +0.0 < ... < +inf`).
/// Used for binary searches over the double line.
pub fn f64_order_key(x: f64) -> i64 {
    let b = x.to_bits();
    if b >> 63 == 0 {
        b as i64
    } else {
        // Negative: flip the magnitude bits so larger keys mean larger values.
        (b ^ 0x7fff_ffff_ffff_ffff) as i64
    }
}

/// Inverse of [`f64_order_key`].
pub fn f64_from_order_key(k: i64) -> f64 {
    if k >= 0 {
        f64::from_bits(k as u64)
    } else {
        f64::from_bits((k as u64) ^ 0x7fff_ffff_ffff_ffff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_key_is_monotone_and_invertible() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            f64::INFINITY,
        ];
        let mut prev = f64_order_key(xs[0]);
        for &x in &xs[1..] {
            let k = f64_order_key(x);
            assert!(k > prev || (x == 0.0 && k >= prev), "key not monotone at {x}");
            assert_eq!(f64_from_order_key(k).to_bits(), x.to_bits());
            prev = k;
        }
        // Adjacent doubles have adjacent keys.
        assert_eq!(f64_order_key(next_up_f64(1.0)), f64_order_key(1.0) + 1);
        assert_eq!(f64_order_key(next_up_f64(-1.0)), f64_order_key(-1.0) + 1);
    }

    #[test]
    fn next_up_down_roundtrip_f64() {
        for &x in &[0.0, -0.0, 1.0, -1.0, 1e-300, f64::MIN_POSITIVE, -3.5e12] {
            assert_eq!(next_down_f64(next_up_f64(x)), x, "x = {x}");
            assert!(next_up_f64(x) > x);
            assert!(next_down_f64(x) < x);
        }
    }

    #[test]
    fn next_up_crosses_zero() {
        let neg_min = -f64::from_bits(1);
        assert_eq!(next_up_f64(neg_min), 0.0);
        assert_eq!(next_down_f64(f64::from_bits(1)), 0.0);
    }

    #[test]
    fn next_up_f32_at_max() {
        assert_eq!(next_up_f32(f32::MAX), f32::INFINITY);
        assert_eq!(next_down_f32(f32::MIN), f32::NEG_INFINITY);
    }

    #[test]
    fn midpoint_is_exact_and_ties_even() {
        let a = 1.0f32;
        let b = next_up_f32(a);
        let m = midpoint_f32(a, b);
        // The midpoint must lie strictly between the two values...
        assert!((a as f64) < m && m < (b as f64));
        // ...and round to the even-mantissa neighbour (1.0 has even mantissa).
        assert_eq!(m as f32, a);
    }

    #[test]
    fn exponent_matches_powers_of_two() {
        assert_eq!(exponent_f64(1.0), 0);
        assert_eq!(exponent_f64(2.0), 1);
        assert_eq!(exponent_f64(0.5), -1);
        assert_eq!(exponent_f64(1.5), 0);
        assert_eq!(exponent_f64(f64::MIN_POSITIVE), -1022);
    }

    #[test]
    fn exponent_of_subnormals() {
        assert_eq!(exponent_f64(f64::from_bits(1)), -1074);
        assert_eq!(exponent_f64(f64::from_bits(1) * 2.0), -1073);
    }

    #[test]
    fn ulp_basics() {
        assert_eq!(ulp_f64(1.0), f64::EPSILON);
        assert_eq!(ulp_f32(1.0), f32::EPSILON);
        assert_eq!(ulp_f64(0.0), f64::from_bits(1));
        assert!(ulp_f32(f32::MAX).is_finite());
    }

    #[test]
    fn decompose_compose_roundtrip() {
        for &x in &[1.0, -1.0, 0.75, 3.5, 1e-40, -2.5e30, f64::MIN_POSITIVE] {
            let (s, m, e) = decompose_f64(x);
            assert_eq!(compose_f64(s, m, e), x, "x = {x}");
            if m != 0 {
                assert_eq!(m % 2, 1, "mantissa must be odd for x = {x}");
            }
        }
    }

    #[test]
    fn evenness() {
        assert!(is_even_f32(1.0));
        assert!(!is_even_f32(next_up_f32(1.0)));
        assert!(is_even_f64(1.0));
        assert!(!is_even_f64(next_up_f64(1.0)));
    }
}
