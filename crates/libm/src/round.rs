//! Single correct rounding from a double-double result into any target,
//! and the fast tiers' fused round-safety test and narrowing cast.
//!
//! A kernel produces `hi + lo` representing `f(x)` to ~2^-90 relative
//! error. Collapsing to one double (`hi + lo`) and casting would round
//! *twice* — the exact failure mode that makes CR-LIBM's double results
//! wrong for float in the paper's Table 1. Instead we convert the pair to
//! a **round-to-odd** double (exactly: the residual of the collapse tells
//! us which side the true value lies on, and one of the two neighbouring
//! doubles is always odd), then apply the target's own rounding. Round-odd
//! at 53 bits followed by round-to-nearest into any representation with at
//! most 51 significant bits is a single correct rounding — ties and exact
//! values included.
//!
//! The plain-double fast tiers instead certify their result against a
//! statically derived error band: [`f32_round_safe`] (then `as f32`) and
//! [`posit32_safe_narrow`], which tests and encodes in one pass over the
//! posit regime.

use rlibm_fp::Representation;
use rlibm_posit::Posit32;

use crate::dd::Dd;

/// Collapses a double-double to the round-to-odd double of its exact value.
#[inline]
pub fn to_f64_round_odd(v: Dd) -> f64 {
    let s = v.hi + v.lo;
    if !s.is_finite() {
        return s;
    }
    // Residual of the collapse: s + e == hi + lo exactly (FastTwoSum error
    // term; the dd invariant |lo| <= ulp(hi)/2 makes it valid).
    let e = v.lo - (s - v.hi);
    if e == 0.0 {
        return s; // exact: round-odd keeps exact values
    }
    if s.to_bits() & 1 == 1 {
        return s; // s is odd and the true value lies strictly between
                  // s's neighbours' midpoints: round-odd picks s
    }
    // s even: the true value is strictly between s and the adjacent double
    // in the residual's direction, and that neighbour is odd. s is finite
    // and nonzero (a sum rounds to zero only when it is exactly zero), so
    // that neighbour is one bit step away: up in magnitude when e and s
    // share a sign, down otherwise.
    let b = s.to_bits();
    f64::from_bits(if (e > 0.0) == (s > 0.0) { b + 1 } else { b - 1 })
}

/// Rounds a double-double kernel result into the target representation
/// with one correct rounding of the exact `hi + lo` value.
#[inline]
pub fn round_dd<T: Representation>(v: Dd) -> T {
    T::round_from_f64(to_f64_round_odd(v))
}

/// Convenience: round into `f32`.
#[inline]
pub fn round_dd_f32(v: Dd) -> f32 {
    round_dd::<f32>(v)
}

/// Certifies that rounding the plain double `y` to `f32` yields the
/// correct rounding of any real value within `band · 2^-53` *relative*
/// of `y` — the fast path's safety test.
///
/// `y` approximates `f(x)` with a statically derived relative error
/// bound. In the binade `[2^e, 2^(e+1))` that bound is at most
/// `band · 2^(e-52)` absolute, i.e. `band` units of the f64 fraction's
/// last place. The f32 rounding boundaries are the midpoints of adjacent
/// f32 values: fraction patterns whose low 29 bits equal `0x1000_0000`
/// (f32 keeps 23 of the 52 fraction bits in every normal binade). If `y`
/// is more than `band` units away from the nearest midpoint, every value
/// within the error bound rounds to the same f32 — so `y as f32` *is* the
/// correctly rounded result.
///
/// Boundaries *outside* `y`'s binade are automatically far: the nearest
/// cross-binade midpoints sit at least `2^27` fraction units from any
/// interior point's distance-to-midpoint test (and `band << 2^27`), so a
/// per-binade view is sound. Results that are not f32-normal (subnormal,
/// zero, overflow) are rejected wholesale — the dd fallback owns them.
#[inline(always)]
pub fn f32_round_safe(y: f64, band: u64) -> bool {
    debug_assert!(band < (1 << 26));
    let bits = y.to_bits();
    let be = (bits >> 52) & 0x7ff;
    // f32-normal results only: 2^-126 <= |y| < 2^128.
    if !(897..=1150).contains(&be) {
        return false;
    }
    let frac = bits & 0x1FFF_FFFF;
    frac.abs_diff(0x1000_0000) > band
}

/// Posit32 counterpart of [`f32_round_safe`], fused with the narrowing:
/// `Some(Posit32::from_f64(y))` when that is the correct rounding of every
/// value within `band · 2^-53` relative of `y`, `None` otherwise. The
/// scalar twin, op for op, of the AVX2 `posit32_safe_encode4`.
///
/// Posit32 (`es = 2`) has a *regime-dependent* fraction width: for
/// unbiased exponent `e`, the regime `k = floor(e/4)` occupies
/// `k + 2` bits (`k >= 0`) or `-k + 1` bits (`k < 0`), leaving
/// `avail = 31 - regime_len` bits for the exponent field and the
/// fraction. The encoder fills them from the 54-bit window
/// `(e mod 4) << 52 | frac` and rounds on the window's low
/// `shift = 54 - avail` bits, so the rounding boundaries are exactly the
/// windows whose low `shift` bits equal their half. The test measures
/// that distance, with the band again in units of `2^-53` relative (one
/// unit of the window's last place).
///
/// Within `-120 <= e <= 119` every binade's boundaries sit on that grid.
/// For `avail >= 2` the window's low bits are fraction bits alone; in
/// the es-truncated regimes (`avail < 2`, `|k| >= 28` on the positive
/// side, `k <= -29` on the negative) they take in the exponent bits
/// too, and the boundaries are the powers of two `2^±113`, `2^±115`
/// and `2^±118`. Binade endpoints never straddle a boundary: the nearest
/// boundary across a binade edge is at least half a binade away.
///
/// A `y` the test accepts is more than `band >= 0` units from its
/// boundary, so it is never a tie and its low bits are nonzero past the
/// round bit whenever that bit is set: the encoding is the truncated
/// body `regime << avail | window >> shift` plus the round bit alone,
/// with no sticky bit and no tie-to-even, negated for negative `y`.
///
/// Beyond that range the result saturates: every value at or above
/// `2^120` rounds to `maxpos` and every value below `2^-120` to `minpos`.
/// The test accepts both saturation zones one regime deep,
/// `2^-124 <= |y| < 2^124`, which holds every result the posit fast
/// kernels can produce on their domains (at most `2^±122`, from `exp10`).
/// Results beyond that are no kernel's output; like zero, subnormal and
/// non-finite results, they are rejected and the dd fallback owns them,
/// so a corrupted fast-path value out there still escalates.
#[inline(always)]
pub fn posit32_safe_narrow(y: f64, band: u64) -> Option<Posit32> {
    let bits = y.to_bits();
    let abs = bits & !(1u64 << 63);
    let be = abs >> 52; // e + 1023
    let body = match be {
        // e in [-120, 119]: the regimes with a rounding grid. With
        // bp = e + 1024 >= 0, k = e >> 2 and e & 3 come from bp.
        903..=1142 => {
            let bp = be + 1;
            let k = (bp >> 2) as i64 - 256;
            // shift = 54 - avail = 23 + regime_len: 25..=54.
            let shift = if k >= 0 { k + 25 } else { 24 - k } as u32;
            let window = ((bp & 3) << 52) | (abs & ((1u64 << 52) - 1));
            let low = window & ((1u64 << shift) - 1);
            if low.abs_diff(1u64 << (shift - 1)) <= band {
                return None;
            }
            // The regime: k + 1 ones and a zero, or -k zeros and a one.
            let regime = if k >= 0 { (2u64 << (k + 1)) - 2 } else { 1 };
            let body = (regime << (54 - shift)) | (window >> shift);
            (body + ((window >> (shift - 1)) & 1)) as u32
        }
        // e in [120, 123] rounds to maxpos, e in [-124, -121] to minpos.
        1143..=1146 => 0x7FFF_FFFF,
        899..=902 => 1,
        _ => return None,
    };
    Some(Posit32::from_bits(if bits >> 63 == 1 { body.wrapping_neg() } else { body }))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rlibm_fp::bits::midpoint_f32;

    #[test]
    fn exact_values_pass_through() {
        let v = Dd::from_f64(1.5);
        assert_eq!(to_f64_round_odd(v), 1.5);
        assert_eq!(round_dd_f32(v), 1.5f32);
    }

    #[test]
    fn avoids_double_rounding_at_f32_ties() {
        // Value = f32 tie + tiny: plain (hi+lo) as f32 would land ON the
        // tie and round to even (wrong); round_dd must go up.
        let tie = midpoint_f32(1.0, 1.0 + f32::EPSILON); // 1 + 2^-24
        let v = Dd::new(tie, 2f64.powi(-80));
        assert_eq!((v.hi + v.lo) as f32, 1.0, "naive path double-rounds");
        assert_eq!(round_dd_f32(v), 1.0 + f32::EPSILON, "round_dd must not");
        // And tie - tiny goes down.
        let w = Dd::new(tie, -2f64.powi(-80));
        assert_eq!(round_dd_f32(w), 1.0);
        // An exact tie keeps the ties-to-even answer.
        let t = Dd::from_f64(tie);
        assert_eq!(round_dd_f32(t), 1.0);
    }

    #[test]
    fn posit_boundaries_are_respected() {
        // posit32 tie between 1.0 and its successor (quantum 2^-27).
        let tie = 1.0 + 2f64.powi(-28);
        let v = Dd::new(tie, 1e-25);
        let up: Posit32 = round_dd(v);
        assert_eq!(up.to_f64(), 1.0 + 2f64.powi(-27));
        let dn: Posit32 = round_dd(Dd::new(tie, -1e-25));
        assert_eq!(dn.to_f64(), 1.0);
        // Exact tie: even pattern wins (1.0 has pattern 0x40000000, even).
        let ex: Posit32 = round_dd(Dd::from_f64(tie));
        assert_eq!(ex.to_f64(), 1.0);
    }

    #[test]
    fn overflow_and_underflow() {
        let big = Dd::from_f64(1e300);
        assert_eq!(round_dd_f32(big), f32::INFINITY);
        let tiny = Dd::new(2f64.powi(-200), 2f64.powi(-260));
        assert_eq!(round_dd_f32(tiny), 0.0);
        // f32 underflow tie: 2^-150 exactly -> 0 (ties to even)...
        let t = Dd::from_f64(2f64.powi(-150));
        assert_eq!(round_dd_f32(t), 0.0);
        // ...but a hair above must produce the smallest subnormal.
        let t2 = Dd::new(2f64.powi(-150), 2f64.powi(-220));
        assert_eq!(round_dd_f32(t2), f32::from_bits(1));
    }

    #[test]
    fn f32_safe_accepts_interior_and_rejects_midpoints() {
        // 1.5 sits exactly on the f32 grid: maximally far from midpoints.
        assert!(f32_round_safe(1.5, 4096));
        // An exact f32 midpoint (1 + 2^-24) must be rejected for any band.
        let mid = 1.0 + 2f64.powi(-24);
        assert!(!f32_round_safe(mid, 0));
        // Just past the band's edge on either side: accepted again.
        let band = 256u64;
        let above = f64::from_bits(mid.to_bits() + band + 1);
        let below = f64::from_bits(mid.to_bits() - band - 1);
        assert!(f32_round_safe(above, band));
        assert!(f32_round_safe(below, band));
        // Within the band: rejected.
        assert!(!f32_round_safe(f64::from_bits(mid.to_bits() + band), band));
    }

    #[test]
    fn f32_safe_rejects_non_normal_results() {
        assert!(!f32_round_safe(0.0, 256));
        assert!(!f32_round_safe(f64::NAN, 256));
        assert!(!f32_round_safe(f64::INFINITY, 256));
        assert!(!f32_round_safe(2f64.powi(-127), 256)); // f32-subnormal
        assert!(!f32_round_safe(2f64.powi(128), 256)); // f32 overflow
        assert!(f32_round_safe(2f64.powi(-126) * 1.5, 256));
        assert!(f32_round_safe(2f64.powi(127) * 1.5, 256));
    }

    #[test]
    fn f32_safe_agrees_with_cast_when_accepted() {
        use rlibm_fp::rng::XorShift64;
        // Property: if the test accepts y, then every value within
        // band·2^-53 relative of y casts to the same f32 as y.
        let mut rng = XorShift64::new(0xBEEF);
        let band = 2048u64;
        for _ in 0..50_000 {
            let e = rng.uniform_f64(-120.0, 120.0);
            let y = rng.uniform_f64(1.0, 2.0) * e.exp2();
            if !f32_round_safe(y, band) {
                continue;
            }
            let delta = band as f64 * 2f64.powi(-53) * y.abs();
            assert_eq!((y + delta) as f32, y as f32, "y = {y:e}");
            assert_eq!((y - delta) as f32, y as f32, "y = {y:e}");
        }
    }

    /// The separate posit32 round-safety predicate that
    /// [`posit32_safe_narrow`] fused away, kept as the reference for the
    /// set of values the fused test accepts.
    fn posit32_round_safe(y: f64, band: u64) -> bool {
        let bits = y.to_bits() & !(1u64 << 63);
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if !(-120..=119).contains(&e) {
            return (120..124).contains(&e) || (-124..-120).contains(&e);
        }
        let k = e >> 2;
        let regime_len = if k >= 0 { k + 2 } else { 1 - k };
        let shift = 54 - (31 - regime_len) as u64; // 25..=54
        let window = ((e as u64 & 3) << 52) | (bits & ((1u64 << 52) - 1));
        let low = window & ((1u64 << shift) - 1);
        low.abs_diff(1u64 << (shift - 1)) > band
    }

    /// Places `y` on the posit32 rounding boundary of its own binade
    /// (the window's low `shift` bits set to their half), for
    /// `|e| <= 120`. In the es-truncated regimes the window carries
    /// exponent bits, so the boundary is a power of two that may sit in
    /// another binade of the same regime.
    pub(crate) fn posit32_boundary(y: f64) -> f64 {
        let bits = y.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let k = e >> 2;
        let regime_len = if k >= 0 { k + 2 } else { 1 - k };
        let shift = 54 - (31 - regime_len) as u64;
        let window = ((e as u64 & 3) << 52) | (bits & ((1u64 << 52) - 1));
        let w = (window & !((1u64 << shift) - 1)) | (1u64 << (shift - 1));
        let e2 = (e & !3) | (w >> 52) as i64;
        let sign = bits & (1u64 << 63);
        f64::from_bits(sign | (((e2 + 1023) as u64) << 52) | (w & ((1u64 << 52) - 1)))
    }

    const POSIT_BANDS: [u64; 4] = [0, 1, 2048, 1 << 19];

    /// The fused test and narrowing at every band in [`POSIT_BANDS`]:
    /// the codec's rounding of `y` where the reference predicate accepts
    /// `y`, nothing elsewhere.
    fn assert_fused_matches_codec(y: f64) {
        for band in POSIT_BANDS {
            let want = posit32_round_safe(y, band).then(|| Posit32::from_f64(y));
            assert_eq!(
                posit32_safe_narrow(y, band),
                want,
                "band {band}, y = {y:e} ({:#018x})",
                y.to_bits()
            );
        }
    }

    /// `posit32_safe_narrow(y, band)` is
    /// `posit32_round_safe(y, band).then(|| Posit32::from_f64(y))`: on
    /// seeded values across every regime, both saturation zones and past
    /// them, on each regime's rounding boundaries ± band ± 1, on the
    /// es-truncated boundaries and on the saturation zones' edges.
    #[test]
    fn posit32_safe_narrow_matches_codec() {
        use rlibm_fp::rng::XorShift64;
        let mut rng = XorShift64::new(0x05AF_E4A2);
        for _ in 0..1_000_000 {
            let r = rng.next_u64();
            let e = (r % 261) as i64 - 130;
            let sign = (r >> 63) << 63;
            let frac = rng.next_u64() >> 12;
            assert_fused_matches_codec(f64::from_bits(sign | (((e + 1023) as u64) << 52) | frac));
        }
        let near = |b: f64| {
            let bits = b.to_bits();
            let mut ds = vec![0u64, 1];
            for band in POSIT_BANDS {
                ds.extend([band.saturating_sub(1), band, band + 1, band + 2]);
            }
            for d in ds {
                for v in [bits.wrapping_add(d), bits.wrapping_sub(d)] {
                    assert_fused_matches_codec(f64::from_bits(v));
                    assert_fused_matches_codec(-f64::from_bits(v));
                }
            }
        };
        // Every regime (k = -30..=29), every binade in it, a few windows.
        for e in -120..=119 {
            for _ in 0..4 {
                near(posit32_boundary(rng.uniform_f64(1.0, 2.0) * 2f64.powi(e)));
            }
        }
        // The es-truncated regimes' boundaries, the saturation zones'
        // edges (maxpos from 2^120 to 2^124, minpos from 2^-124 to
        // 2^-120) and the first binade past each.
        for e in [113, 115, 118, 119, 120, 123, 124, 125] {
            near(2f64.powi(e));
            near(2f64.powi(-e));
        }
        near(2f64.powi(-121));
    }

    #[test]
    fn posit_safe_agrees_with_round_when_accepted() {
        use rlibm_fp::rng::XorShift64;
        let mut rng = XorShift64::new(0xCAFE);
        let band = 2048u64;
        let mut accepted = 0u32;
        // Exponents across the whole posit range, the es-truncated
        // regimes and both saturation zones included.
        for _ in 0..50_000 {
            let e = rng.uniform_f64(-125.0, 125.0);
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            let y = sign * rng.uniform_f64(1.0, 2.0) * e.exp2();
            let Some(p) = posit32_safe_narrow(y, band) else {
                continue;
            };
            accepted += 1;
            let delta = band as f64 * 2f64.powi(-53) * y.abs();
            assert_eq!(Posit32::from_f64(y), p, "y = {y:e}");
            assert_eq!(Posit32::from_f64(y + delta), p, "y = {y:e}");
            assert_eq!(Posit32::from_f64(y - delta), p, "y = {y:e}");
        }
        assert!(accepted > 40_000, "safety test too conservative: {accepted}");
        // Values placed around every power of two, where the boundaries
        // of the es-truncated regimes sit.
        for e in -125..=125 {
            let p2 = 2f64.powi(e).to_bits();
            for d in (-4100i64..=4100).step_by(41) {
                let y = f64::from_bits(p2.wrapping_add_signed(d));
                let Some(p) = posit32_safe_narrow(y, band) else {
                    continue;
                };
                let delta = band as f64 * 2f64.powi(-53) * y;
                assert_eq!(Posit32::from_f64(y), p, "y = {y:e}");
                assert_eq!(Posit32::from_f64(y + delta), p, "y = {y:e}");
                assert_eq!(Posit32::from_f64(y - delta), p, "y = {y:e}");
            }
        }
    }

    #[test]
    fn posit_safe_rejects_extremes() {
        let safe = |y: f64, band: u64| posit32_safe_narrow(y, band).is_some();
        assert!(!safe(0.0, 256));
        assert!(!safe(f64::NAN, 256));
        assert!(!safe(f64::INFINITY, 256));
        assert!(!safe(f64::MIN_POSITIVE / 2.0, 256)); // subnormal
        // Exact powers of two deep in the regime tail are still safe.
        assert_eq!(posit32_safe_narrow(2f64.powi(100), 256), Some(Posit32::from_f64(2f64.powi(100))));
        assert_eq!(posit32_safe_narrow(2f64.powi(-100), 256), Some(Posit32::from_f64(2f64.powi(-100))));
        // The es-truncated regimes round at 2^±113, 2^±115 and 2^±118:
        // those boundaries are rejected, for any band and either sign.
        for e in [113, 115, 118, -113, -115, -118] {
            let b = 2f64.powi(e);
            assert!(!safe(b, 0), "2^{e}");
            assert!(!safe(-b, 256), "-2^{e}");
            // Just inside the band on either side: still rejected.
            assert!(!safe(f64::from_bits(b.to_bits() + 256), 256), "2^{e}+");
            assert!(!safe(f64::from_bits(b.to_bits() - 1), 256), "2^{e}-");
        }
        // Interior points of the truncated regimes are accepted...
        for y in [1.5 * 2f64.powi(112), 2f64.powi(114), 1.5 * 2f64.powi(116), 2f64.powi(119)] {
            assert!(safe(y, 256), "{y:e}");
            assert!(safe(1.0 / y, 256), "{:e}", 1.0 / y);
        }
        // ...and so are both saturation zones, one regime deep (maxpos =
        // 2^120 up to 2^124, minpos = 2^-120 down to 2^-124)...
        for y in [2f64.powi(120), 1.5 * 2f64.powi(120), 2f64.powi(124) * (1.0 - f64::EPSILON)] {
            assert_eq!(posit32_safe_narrow(y, 256), Some(Posit32::MAXPOS), "{y:e}");
            assert_eq!(posit32_safe_narrow(-y, 256), Some(-Posit32::MAXPOS), "{:e}", -y);
            assert_eq!(posit32_safe_narrow(1.0 / y, 256), Some(Posit32::MINPOS), "{:e}", 1.0 / y);
        }
        assert_eq!(posit32_safe_narrow(2f64.powi(-124), 256), Some(Posit32::MINPOS));
        // ...while results no fast kernel produces are left to dd.
        for y in [2f64.powi(124), 2f64.powi(200), f64::MAX, 2f64.powi(-125), 1e-300] {
            assert!(!safe(y, 256), "{y:e}");
            assert!(!safe(-y, 256), "{:e}", -y);
        }
        // The exact posit 1.5 is far from every midpoint.
        assert_eq!(posit32_safe_narrow(1.5, 4096), Some(Posit32::from_f64(1.5)));
        assert_eq!(posit32_safe_narrow(-1.5, 4096), Some(Posit32::from_f64(-1.5)));
        // A posit32 midpoint near 1.0: quantum 2^-27, midpoint 1 + 2^-28.
        assert!(!safe(1.0 + 2f64.powi(-28), 0));
    }

    /// Every result the posit fast kernels produce at the edges of their
    /// batched and scalar domains lies in the accepted saturation zones,
    /// so saturating exp-family results ship from the fast tiers.
    #[test]
    fn posit_saturation_zones_cover_the_kernels_reach() {
        use crate::front::{LN_MAXPOS, LOG10_MAXPOS};
        let (exp_c, hyp_c) = (LN_MAXPOS + 0.5, LN_MAXPOS + 1.5);
        let reach = [
            exp_c.exp(),
            (-exp_c).exp(),
            120.5f64.exp2(),
            (-120.5f64).exp2(),
            10f64.powf(LOG10_MAXPOS + 0.5),
            10f64.powf(-(LOG10_MAXPOS + 0.5)),
            hyp_c.sinh(),
            hyp_c.cosh(),
        ];
        for y in reach {
            assert!(y.abs() < 2f64.powi(123) && y.abs() >= 2f64.powi(-123), "{y:e}");
            assert_eq!(posit32_safe_narrow(y, 16384), Some(Posit32::from_f64(y)), "{y:e}");
        }
    }

    #[test]
    fn odd_s_keeps_s() {
        let s = f64::from_bits(0x3FF0_0000_0000_0001); // odd lsb
        let v = Dd::new(s, 2f64.powi(-80));
        assert_eq!(to_f64_round_odd(v), s);
        let w = Dd::new(s, -2f64.powi(-80));
        assert_eq!(to_f64_round_odd(w), s);
    }
}
