//! Rounding intervals (Algorithm 1, `RoundingInterval`).
//!
//! For a target value `y` in representation `T`, the rounding interval is
//! the set of doubles (`H = f64`) that round to `y`. Because every
//! representation's rounding function is monotone over the f64 total
//! order, the interval is a contiguous range `[lo, hi]` and its endpoints
//! can be found by binary search over f64 *order keys* — 64 probes of
//! `round_from_f64`, with no per-representation midpoint/tie-parity logic
//! to get wrong. (The paper notes both implementations; the search is the
//! robust one and costs nothing at generation scale.)

use rlibm_fp::bits::{f64_from_order_key, f64_order_key};
use rlibm_fp::Representation;

/// A closed interval of doubles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Smallest double in the interval.
    pub lo: f64,
    /// Largest double in the interval.
    pub hi: f64,
}

impl Interval {
    /// Builds an interval; panics if `lo > hi` or either end is NaN.
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(!lo.is_nan() && !hi.is_nan() && lo <= hi, "bad interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// True when `v` lies inside.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Intersection, or `None` when disjoint. Used when multiple original
    /// inputs map to the same reduced input (Section 3.2: "we generate a
    /// single combined interval by computing the common interval").
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    /// Interval width as a double (saturating).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// The rounding interval of `y`: every double in `[lo, hi]` rounds to `y`
/// in `T`, and no double outside does. Returns `None` for NaN or infinite
/// targets (those are handled by each function's special-case filter, as
/// in the paper).
///
/// # Example
///
/// ```
/// use rlibm_core::interval::rounding_interval;
/// let iv = rounding_interval(1.0f32).unwrap();
/// // The interval straddles 1.0 by half an f32 ulp on each side...
/// assert!(iv.lo < 1.0 && 1.0 < iv.hi);
/// // ...and every contained double rounds back to 1.0:
/// assert_eq!(iv.lo as f32, 1.0);
/// assert_eq!(iv.hi as f32, 1.0);
/// ```
pub fn rounding_interval<T: Representation>(y: T) -> Option<Interval> {
    if y.is_nan() {
        return None;
    }
    let yf = y.to_f64();
    if yf.is_infinite() {
        return None;
    }
    let target_bits = y.to_bits_u32();
    // Order-key brackets: anything below prev(y) rounds below y, anything
    // above next(y) rounds above. When y is the extreme finite value the
    // bracket extends to the f64 extreme.
    let lo_bracket = match y.next_down() {
        Some(p) => {
            let pf = p.to_f64();
            if pf.is_infinite() {
                f64_order_key(f64::MIN)
            } else {
                f64_order_key(pf)
            }
        }
        None => f64_order_key(f64::MIN),
    };
    let hi_bracket = match y.next_up() {
        Some(n) => {
            let nf = n.to_f64();
            if nf.is_infinite() {
                f64_order_key(f64::MAX)
            } else {
                f64_order_key(nf)
            }
        }
        None => f64_order_key(f64::MAX),
    };
    let rounds_to_y = |k: i64| -> bool {
        T::round_from_f64(f64_from_order_key(k)).to_bits_u32() == target_bits
    };
    let center = f64_order_key(yf);
    debug_assert!(rounds_to_y(center), "y must round to itself");

    // Smallest key that still rounds to y: the predicate "rounds to >= y"
    // is monotone, so search in (lo_bracket, center].
    let mut lo = lo_bracket;
    let mut hi = center;
    // Invariant: !rounds_to_y(lo) possibly false if prev's f64 rounds to y
    // (can't: prev rounds to itself). But handle the degenerate bracket.
    if rounds_to_y(lo) {
        hi = lo;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if rounds_to_y(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let lo_key = if rounds_to_y(lo) { lo } else { hi };

    // Largest key that rounds to y.
    let mut lo2 = center;
    let mut hi2 = hi_bracket;
    if rounds_to_y(hi2) {
        lo2 = hi2;
    }
    while lo2 + 1 < hi2 {
        let mid = lo2 + (hi2 - lo2) / 2;
        if rounds_to_y(mid) {
            lo2 = mid;
        } else {
            hi2 = mid;
        }
    }
    let hi_key = if rounds_to_y(hi2) { hi2 } else { lo2 };

    Some(Interval::new(
        f64_from_order_key(lo_key),
        f64_from_order_key(hi_key),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_fp::bits::{midpoint_f32, next_down_f64, next_up_f32, next_up_f64};
    use rlibm_fp::{BFloat16, Half};
    use rlibm_posit::Posit32;

    /// The analytic check: endpoints round to y, one-past endpoints do not.
    fn check_endpoints<T: Representation>(y: T) {
        let iv = rounding_interval(y).unwrap();
        assert_eq!(T::round_from_f64(iv.lo).to_bits_u32(), y.to_bits_u32());
        assert_eq!(T::round_from_f64(iv.hi).to_bits_u32(), y.to_bits_u32());
        let below = next_down_f64(iv.lo);
        let above = next_up_f64(iv.hi);
        assert_ne!(T::round_from_f64(below).to_bits_u32(), y.to_bits_u32());
        assert_ne!(T::round_from_f64(above).to_bits_u32(), y.to_bits_u32());
    }

    #[test]
    fn f32_interval_endpoints_are_midpoints() {
        // For an even-mantissa f32, both midpoints round TO y (ties to
        // even), so the interval must include them exactly.
        let y = 1.0f32; // mantissa even
        let iv = rounding_interval(y).unwrap();
        let m_lo = midpoint_f32(0.99999994f32, y);
        let m_hi = midpoint_f32(y, next_up_f32(y));
        assert_eq!(iv.lo, m_lo);
        assert_eq!(iv.hi, m_hi);
        // For an odd-mantissa f32 the midpoints round away, so the
        // interval is one double narrower on each side.
        let y_odd = next_up_f32(1.0f32);
        let iv2 = rounding_interval(y_odd).unwrap();
        assert_eq!(iv2.lo, next_up_f64(m_hi));
    }

    #[test]
    fn interval_endpoints_for_many_types() {
        check_endpoints(1.0f32);
        check_endpoints(next_up_f32(1.0f32));
        check_endpoints(-3.5f32);
        check_endpoints(f32::MIN_POSITIVE);
        check_endpoints(f32::from_bits(1)); // smallest subnormal
        check_endpoints(f32::MAX);
        check_endpoints(0.0f32);
        check_endpoints(BFloat16::from_f64(1.0));
        check_endpoints(BFloat16::from_f64(-0.0078125));
        check_endpoints(Half::from_f64(1.0));
        check_endpoints(Half::from_f64(65504.0));
        check_endpoints(Posit32::from_f64(1.0));
        check_endpoints(Posit32::from_f64(1.5e-12));
        check_endpoints(Posit32::MAXPOS);
        check_endpoints(Posit32::MINPOS);
    }

    #[test]
    fn zero_intervals_are_sign_strict() {
        // Intervals are bit-strict: +0.0 and -0.0 are distinct targets
        // (each claims one side of the number line up to half the smallest
        // subnormal, the tie rounding to even = zero).
        let iv = rounding_interval(0.0f32).unwrap();
        assert_eq!(iv.lo.to_bits(), 0.0f64.to_bits());
        assert_eq!(iv.hi, 2f64.powi(-150));
        let ivn = rounding_interval(-0.0f32).unwrap();
        assert_eq!(ivn.lo, -2f64.powi(-150));
        assert_eq!(ivn.hi.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn posit_maxpos_interval_extends_to_f64_max() {
        // Saturation: every huge double rounds to maxpos.
        let iv = rounding_interval(Posit32::MAXPOS).unwrap();
        assert_eq!(iv.hi, f64::MAX);
    }

    #[test]
    fn nan_and_inf_have_no_interval() {
        assert!(rounding_interval(f32::NAN).is_none());
        assert!(rounding_interval(f32::INFINITY).is_none());
        assert!(rounding_interval(Posit32::NAR).is_none());
    }

    #[test]
    fn intersect_and_width() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(&b), Some(Interval::new(1.0, 2.0)));
        let c = Interval::new(5.0, 6.0);
        assert!(a.intersect(&c).is_none());
        assert_eq!(a.width(), 2.0);
    }

    #[test]
    fn every_bfloat16_interval_is_consistent() {
        // Exhaustive over all finite bfloat16 values.
        for bits in 0..=u16::MAX {
            let y = BFloat16::from_bits(bits);
            if y.is_nan() || y.is_infinite() {
                continue;
            }
            let iv = rounding_interval(y).unwrap();
            assert!(iv.contains(y.to_f64()), "value must be inside its own interval");
            assert_eq!(
                BFloat16::round_from_f64(iv.lo).to_bits(),
                bits,
                "lo endpoint of {bits:#06x}"
            );
            assert_eq!(BFloat16::round_from_f64(iv.hi).to_bits(), bits);
        }
    }
}
