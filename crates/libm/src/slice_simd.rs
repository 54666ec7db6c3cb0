//! The AVX2 ends of the batched driver (`simd` feature, x86_64 only).
//!
//! The kernels' math runs in the AVX2 lane of [`crate::lane`]; what is
//! left per format is the two ends [`super::Ends`] names, here for four
//! lanes at a time:
//!
//! * **f32**: widen with `_mm256_cvtps_pd`; narrow with
//!   `_mm256_cvtpd_ps` (nearest-even, like `as f32`) behind
//!   [`f32_round_safe4`], the vector twin of
//!   [`crate::round::f32_round_safe`].
//! * **posit32**: decode with [`posit32_decode4`]; encode fused with the
//!   round-safety test in [`posit32_safe_encode4`]. Both are integer bit
//!   assembly that mirrors `rlibm_posit`'s scalar codec op for op (the
//!   scalar codec stays the reference the tests compare against).
//!
//! The helpers are `#[inline(always)]` with no `#[target_feature]`, like
//! the lane's methods: they run inside the driver's AVX2 stages, whose
//! `avx2` feature they inherit once inlined. The tests below check each
//! end against its scalar twin and run both lanes of the driver against
//! the scalar entries.

use super::{Ends, LANES};
use crate::lane::avx2::{Avx2, Avx2Isa};
use core::arch::x86_64::*;
use rlibm_posit::Posit32;

/// The lanes of a 4-lane compare mask as bits `0..4`.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn lane_bits(m: __m256d) -> u64 {
    u64::from(_mm256_movemask_pd(m) as u32 & 0xF)
}

/// 64-bit lanes of a constant.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn splat(v: i64) -> __m256i {
    _mm256_set1_epi64x(v)
}

/// `lo <= a <= hi` per 64-bit lane (signed compares).
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn in_range64(a: __m256i, lo: i64, hi: i64) -> __m256i {
    _mm256_and_si256(
        _mm256_cmpgt_epi64(a, splat(lo - 1)),
        _mm256_cmpgt_epi64(splat(hi + 1), a),
    )
}

// SAFETY (every `unsafe` block below): an `Avx2` or `Avx2Isa` value
// exists only on an AVX2 CPU, and each method takes one; `g % 16` keeps
// every 4-lane access inside its 64-lane array.

impl Ends<Avx2> for f32 {
    #[inline(always)]
    fn widen(_: Avx2Isa, xs: &[f32; LANES], g: usize) -> Avx2 {
        unsafe { Avx2::from_raw(_mm256_cvtps_pd(_mm_loadu_ps(xs.as_ptr().add(4 * (g % 16))))) }
    }

    #[inline(always)]
    fn safe_narrow(y: Avx2, band: u64, out: &mut [f32; LANES], g: usize) -> u64 {
        unsafe {
            // cvtpd_ps rounds with the MXCSR mode (nearest-even), like `as f32`.
            _mm_storeu_ps(out.as_mut_ptr().add(4 * (g % 16)), _mm256_cvtpd_ps(y.raw()));
            lane_bits(f32_round_safe4(y.raw(), band))
        }
    }
}

impl Ends<Avx2> for Posit32 {
    #[inline(always)]
    fn widen(_: Avx2Isa, xs: &[Posit32; LANES], g: usize) -> Avx2 {
        unsafe { Avx2::from_raw(posit32_decode4(xs, g % 16)) }
    }

    #[inline(always)]
    fn safe_narrow(y: Avx2, band: u64, out: &mut [Posit32; LANES], g: usize) -> u64 {
        unsafe {
            let (ok, patterns) = posit32_safe_encode4(y.raw(), band);
            // Posit32 is a transparent u32 pattern.
            _mm_storeu_si128(out.as_mut_ptr().add(4 * (g % 16)).cast(), patterns);
            lane_bits(ok)
        }
    }
}

/// Vectorized [`crate::round::f32_round_safe`] over 4 lanes, as a lane
/// mask. Same integer test per lane: biased exponent in `897..=1150`
/// (f32-normal results only) and fraction distance to the nearest f32
/// rounding boundary greater than `band`.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn f32_round_safe4(y: __m256d, band: u64) -> __m256d {
    debug_assert!(band < (1 << 26));
    let bits = _mm256_castpd_si256(y);
    // Logical shift: the sign bit lands in bit 11 and is masked off,
    // exactly like the scalar `(bits >> 52) & 0x7ff` on u64.
    let be = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), splat(0x7ff));
    let in_range = in_range64(be, 897, 1150);
    // abs_diff(frac, 2^28) > band  <=>  frac > 2^28+band || frac < 2^28-band
    let frac = _mm256_and_si256(bits, splat(0x1FFF_FFFF));
    let far = _mm256_or_si256(
        _mm256_cmpgt_epi64(frac, splat(0x1000_0000 + band as i64)),
        _mm256_cmpgt_epi64(splat(0x1000_0000 - band as i64), frac),
    );
    _mm256_castsi256_pd(_mm256_and_si256(in_range, far))
}

// ---------------------------------------------------------------------
// posit32 codec (mirrors rlibm_posit's scalar codec op for op)
// ---------------------------------------------------------------------

/// Exact decode of the 4 posit32 patterns at lane `4*g` to f64 (vector
/// twin of `Posit32::to_f64`): NaR becomes NaN, zero 0.0. The regime run
/// length is a leading-zero count, read off the exponent of the exact
/// double `2^52 + t - 2^52 = t`; the exponent and fraction bits behind
/// the regime come from one variable 64-bit shift.
///
/// # Safety
/// Requires AVX2 and `g < LANES / 4`.
#[inline(always)]
unsafe fn posit32_decode4(xs: &[Posit32; LANES], g: usize) -> __m256d {
    // Posit32 is a transparent u32 pattern.
    let raw = _mm_loadu_si128(xs.as_ptr().add(4 * g).cast());
    // bits << 1 == 0: zero or NaR.
    let zero_or_nar =
        _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(_mm_slli_epi32::<1>(raw), _mm_setzero_si128()));
    let nar = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(raw, _mm_set1_epi32(i32::MIN)));
    // mag = |bits| (the two's-complement negation of a negative pattern);
    // body = mag << 1 as u32, zero-extended.
    let body = _mm256_cvtepu32_epi64(_mm_slli_epi32::<1>(_mm_abs_epi32(raw)));
    // run = leading zeros of body ^ (0xFFFF_FFFF when body's top bit is
    // set): the regime run length. t >= 1 for every nonzero pattern.
    let ones_run = _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_srli_epi64::<31>(body));
    let t = _mm256_xor_si256(body, _mm256_srli_epi64::<32>(ones_run));
    let magic = splat(0x4330_0000_0000_0000); // 2^52
    let td = _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(t, magic)), _mm256_castsi256_pd(magic));
    // exponent of t is 1023 + floor(log2 t); run = 31 - floor(log2 t)
    let run = _mm256_sub_epi64(splat(1054), _mm256_srli_epi64::<52>(_mm256_castpd_si256(td)));
    // k = run - 1 for a run of ones, -run for a run of zeros.
    let k = _mm256_blendv_epi8(
        _mm256_sub_epi64(_mm256_setzero_si256(), run),
        _mm256_sub_epi64(run, splat(1)),
        ones_run,
    );
    // Exponent and fraction follow the run and its terminator,
    // top-aligned: rest = (body << 32) << (run + 1).
    let rest = _mm256_sllv_epi64(_mm256_slli_epi64::<32>(body), _mm256_add_epi64(run, splat(1)));
    let scale = _mm256_add_epi64(_mm256_slli_epi64::<2>(k), _mm256_srli_epi64::<62>(rest));
    let frac = _mm256_srli_epi64::<12>(_mm256_slli_epi64::<2>(rest));
    let sign = _mm256_slli_epi64::<32>(_mm256_and_si256(
        _mm256_cvtepu32_epi64(raw),
        splat(0x8000_0000),
    ));
    let exp = _mm256_slli_epi64::<52>(_mm256_add_epi64(scale, splat(1023)));
    let bits = _mm256_or_si256(sign, _mm256_or_si256(exp, frac));
    let bits = _mm256_or_si256(
        _mm256_andnot_si256(zero_or_nar, bits),
        _mm256_and_si256(nar, splat(f64::NAN.to_bits() as i64)),
    );
    _mm256_castsi256_pd(bits)
}

/// The posit32 round-safety test of 4 lanes fused with their encode:
/// returns the lane mask of [`crate::round::posit32_round_safe`] against
/// `band` and, for the accepted lanes, `Posit32::from_f64` of each as
/// four u32 patterns. An accepted lane is never a tie (its distance from
/// the rounding boundary exceeds `band >= 0`), so the encode is the
/// truncated body plus the round bit; the accepted saturation zones
/// encode as `maxpos` / `minpos`.
///
/// # Safety
/// Requires AVX2.
#[inline(always)]
unsafe fn posit32_safe_encode4(y: __m256d, band: u64) -> (__m256d, __m128i) {
    let bits = _mm256_castpd_si256(y);
    let abs = _mm256_andnot_si256(splat(i64::MIN), bits);
    let be = _mm256_srli_epi64::<52>(abs); // e + 1023, 0..=2047
    // e in [-120, 119]: the regimes with a rounding grid.
    let core = in_range64(be, 903, 1142);
    // e in [120, 123] rounds to maxpos, e in [-124, -121] to minpos.
    let sat_hi = in_range64(be, 1143, 1146);
    let sat_lo = in_range64(be, 899, 902);
    // e + 1024 = be + 1 >= 0, so k = e >> 2 and e & 3 come from logical
    // shifts and masks of be + 1.
    let bp = _mm256_add_epi64(be, splat(1));
    let k = _mm256_sub_epi64(_mm256_srli_epi64::<2>(bp), splat(256));
    let neg_k = _mm256_cmpgt_epi64(_mm256_setzero_si256(), k);
    // shift = 54 - avail = 23 + regime_len: k + 25 (k >= 0), 24 - k (k < 0).
    let shift = _mm256_blendv_epi8(
        _mm256_add_epi64(k, splat(25)),
        _mm256_sub_epi64(splat(24), k),
        neg_k,
    );
    let window = _mm256_or_si256(
        _mm256_slli_epi64::<52>(_mm256_and_si256(bp, splat(3))),
        _mm256_and_si256(abs, splat((1i64 << 52) - 1)),
    );
    let shift_m1 = _mm256_sub_epi64(shift, splat(1));
    let half = _mm256_sllv_epi64(splat(1), shift_m1);
    let low = _mm256_and_si256(window, _mm256_sub_epi64(_mm256_sllv_epi64(splat(1), shift), splat(1)));
    // abs_diff(low, half) > band
    let b = splat(band as i64);
    let far = _mm256_or_si256(
        _mm256_cmpgt_epi64(low, _mm256_add_epi64(half, b)),
        _mm256_cmpgt_epi64(half, _mm256_add_epi64(low, b)),
    );
    let safe = _mm256_or_si256(_mm256_and_si256(core, far), _mm256_or_si256(sat_hi, sat_lo));
    // body = regime << avail | window >> shift, plus the round bit; the
    // regime is k + 1 ones and a zero (k >= 0) or -k zeros and a one.
    let regime = _mm256_blendv_epi8(
        _mm256_sub_epi64(_mm256_sllv_epi64(splat(2), _mm256_add_epi64(k, splat(1))), splat(2)),
        splat(1),
        neg_k,
    );
    let avail = _mm256_sub_epi64(splat(54), shift);
    let body = _mm256_or_si256(_mm256_sllv_epi64(regime, avail), _mm256_srlv_epi64(window, shift));
    let round = _mm256_and_si256(_mm256_srlv_epi64(window, shift_m1), splat(1));
    let body = _mm256_add_epi64(body, round);
    let body = _mm256_blendv_epi8(body, splat(0x7FFF_FFFF), sat_hi);
    let body = _mm256_blendv_epi8(body, splat(1), sat_lo);
    // Negative results take the pattern's two's-complement negation.
    let neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), bits);
    let pat = _mm256_blendv_epi8(body, _mm256_sub_epi64(_mm256_setzero_si256(), body), neg);
    let packed = _mm256_permutevar8x32_epi32(pat, _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7));
    (_mm256_castsi256_pd(safe), _mm256_castsi256_si128(packed))
}

#[cfg(test)]
mod tests {
    use super::super::{safe_narrow, Ends, LANES};
    use crate::lane::avx2::{Avx2, Avx2Isa};
    use crate::lane::F64Lane;
    use crate::registry::{F32_BATCHED, POSIT32_BATCHED};
    use rlibm_fp::rng::XorShift64;
    use rlibm_posit::Posit32;


    /// The SIMD driver must be lane-for-lane bit-identical to the scalar
    /// map on adversarial inputs (specials, domain edges, random bit
    /// patterns, dense in-domain bands). This is the same contract the
    /// scalar slice tests pin; here it exercises the AVX2 stages
    /// directly because with the `simd` feature the public entry points
    /// route through them.
    #[test]
    fn simd_slices_are_bit_identical_to_scalar() {
        if Avx2Isa::detect().is_none() {
            return; // scalar fallback path: covered by the super tests
        }
        let mut xs = vec![
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            88.9,
            -106.5,
            128.5,
            -151.5,
            38.7,
            -45.7,
            90.5,
            0.5,
            2.5,
            8_388_609.0,
            1e-8,
            2e-4,
        ];
        let mut rng = XorShift64::new(0x51CE_51CE);
        for _ in 0..20_000 {
            xs.push(f32::from_bits(rng.next_u32()));
        }
        for i in 0..4000 {
            xs.push(-20.0 + i as f32 * 0.01);
            xs.push(f32::from_bits(0x3F00_0000 + i * 37));
        }
        let mut out = vec![0.0f32; xs.len()];
        let mut portable = vec![0.0f32; xs.len()];
        for (name, batched) in crate::F32_NAMES.into_iter().zip(F32_BATCHED) {
            // Both lanes of the driver: AVX2, then f64 (the fallback).
            let tally = batched(&xs, &mut out, true);
            assert_eq!(batched(&xs, &mut portable, false), tally, "{name}: tier accounting");
            for (i, (&x, (&got, &got_f64))) in xs.iter().zip(out.iter().zip(&portable)).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                for got in [got, got_f64] {
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{name}[{i}]: x = {x:e} ({:#010x}): slice {got:e} vs scalar {want:e}",
                        x.to_bits()
                    );
                }
            }
        }
    }

    /// The vectorized safety mask agrees with the scalar predicate on
    /// every lane for random doubles and for values planted exactly at
    /// band edges, and every accepted lane narrows like `as f32`.
    #[test]
    fn round_safe_mask_matches_scalar_predicate() {
        let Some(isa) = Avx2Isa::detect() else {
            return;
        };
        let mut rng = XorShift64::new(0xBEEF_CAFE);
        for band in [0u64, 16, 256, 1024, 2048] {
            let mut y = [0.0f64; LANES];
            for trial in 0..200 {
                for (i, lane) in y.iter_mut().enumerate() {
                    *lane = match (trial + i) % 5 {
                        0 => f64::from_bits(rng.next_u64()),
                        1 => {
                            let e = rng.uniform_f64(-130.0, 130.0);
                            rng.uniform_f64(1.0, 2.0) * e.exp2()
                        }
                        // Exactly on / next to a midpoint band edge.
                        2 => {
                            let mid = 1.0 + 2f64.powi(-24);
                            f64::from_bits(mid.to_bits() + band)
                        }
                        3 => {
                            let mid = 1.0 + 2f64.powi(-24);
                            f64::from_bits(mid.to_bits() + band + 1)
                        }
                        _ => [0.0, f64::NAN, f64::INFINITY, 2f64.powi(-127), -1.5]
                            [(trial + i) % 5 % 5],
                    };
                }
                let mut out = [0.0f32; LANES];
                let mask = Avx2::enter(
                    isa,
                    #[inline(always)]
                    || safe_narrow::<_, Avx2>(isa, &y, band, 0..LANES / 4, &mut out),
                );
                for (i, &v) in y.iter().enumerate() {
                    let want = crate::round::f32_round_safe(v, band);
                    assert_eq!(
                        (mask >> i) & 1 == 1,
                        want,
                        "band {band}, lane {i}, y = {v:e} ({:#018x})",
                        v.to_bits()
                    );
                    if want {
                        assert_eq!(out[i].to_bits(), (v as f32).to_bits(), "narrowing of {v:e}");
                    }
                }
            }
        }
    }

    /// Decodes `patterns` (any length) with the vector codec.
    fn decode_all(isa: Avx2Isa, patterns: &[u32]) -> Vec<f64> {
        let mut out = Vec::with_capacity(patterns.len());
        for c in patterns.chunks(LANES) {
            let mut xs = [Posit32::ZERO; LANES];
            for (x, &p) in xs.iter_mut().zip(c) {
                *x = Posit32::from_bits(p);
            }
            let mut y = [0.0f64; LANES];
            Avx2::enter(
                isa,
                #[inline(always)]
                || {
                    for g in 0..LANES / 4 {
                        <Posit32 as Ends<Avx2>>::widen(isa, &xs, g).store(&mut y, g);
                    }
                },
            );
            out.extend_from_slice(&y[..c.len()]);
        }
        out
    }

    fn assert_decodes_like_scalar(isa: Avx2Isa, patterns: &[u32]) {
        for (&p, got) in patterns.iter().zip(decode_all(isa, patterns)) {
            let want = Posit32::from_bits(p).to_f64();
            assert_eq!(got.to_bits(), want.to_bits(), "pattern {p:#010x}: {got:e} vs {want:e}");
        }
    }

    /// The vector decode equals `Posit32::to_f64` bit for bit on every
    /// regime boundary (each run length of ones and zeros, with the
    /// patterns either side of it), both signs, NaR and zero.
    #[test]
    fn posit_decode_matches_scalar_codec() {
        let Some(isa) = Avx2Isa::detect() else {
            return;
        };
        let mut patterns = vec![0u32, 0x8000_0000, 1, 0x7FFF_FFFF, 0x8000_0001, 0xFFFF_FFFF];
        for run in 1..=31u32 {
            // A run of `run` ones (then a zero) and of `run` zeros (then a
            // one) after the sign bit, with the rest of the body zero or
            // all ones.
            let ones = (((1u64 << run) - 1) << (31 - run)) as u32;
            let zeros = if run < 31 { 1u32 << (30 - run) } else { 0 };
            for base in [ones, zeros] {
                let rest = if run < 30 { (1u32 << (30 - run)) - 1 } else { 0 };
                for p in [base, base | rest, base.wrapping_sub(1), base.wrapping_add(1)] {
                    let p = p & 0x7FFF_FFFF;
                    patterns.push(p);
                    patterns.push(p.wrapping_neg());
                }
            }
        }
        let mut rng = XorShift64::new(0xDEC0_DE32);
        for _ in 0..100_000 {
            patterns.push(rng.next_u32());
        }
        assert_decodes_like_scalar(isa, &patterns);
    }

    /// Every one of the 2^32 patterns (about 30 s in release).
    #[test]
    #[ignore]
    fn posit_decode_exhaustive() {
        let Some(isa) = Avx2Isa::detect() else {
            return;
        };
        let mut patterns = vec![0u32; 1 << 20];
        for hi in 0..1u32 << 12 {
            for (lo, p) in patterns.iter_mut().enumerate() {
                *p = (hi << 20) | lo as u32;
            }
            assert_decodes_like_scalar(isa, &patterns);
        }
    }

    /// Every posit row's batched output equals its scalar output on a
    /// stride-127 sample of the 2^32 patterns (about 34M lanes per row;
    /// about ten seconds in release).
    #[test]
    #[ignore]
    fn posit_rows_match_scalar_on_strided_sweep() {
        if Avx2Isa::detect().is_none() {
            return;
        }
        let xs: Vec<Posit32> =
            (0..=u32::MAX / 127).map(|i| Posit32::from_bits(i * 127)).collect();
        let mut out = vec![Posit32::ZERO; xs.len()];
        for name in crate::POSIT32_NAMES {
            let f = crate::posit32_fn_by_name(name).expect("known name");
            crate::eval_slice_posit32(name, &xs, &mut out).expect("known name");
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got, f(x), "{name}({:#010x})", x.to_bits());
            }
        }
    }

    /// Places `y` on the rounding boundary of its own binade (the window's
    /// low `54 - avail` bits set to their half), for `|e| <= 120`.
    fn boundary_of(y: f64) -> f64 {
        let bits = y.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let k = e >> 2;
        let regime_len = if k >= 0 { k + 2 } else { 1 - k };
        let shift = 54 - (31 - regime_len) as u64;
        let window = ((e as u64 & 3) << 52) | (bits & ((1u64 << 52) - 1));
        let low_mask = (1u64 << shift) - 1;
        let w = (window & !low_mask) | (1u64 << (shift - 1));
        let e2 = (e & !3) | (w >> 52) as i64;
        let sign = bits & (1u64 << 63);
        f64::from_bits(sign | (((e2 + 1023) as u64) << 52) | (w & ((1u64 << 52) - 1)))
    }

    /// The fused posit32 safe-mask + encode agrees with the scalar
    /// predicate lane for lane, and every accepted lane's pattern equals
    /// `Posit32::from_f64`: random values, and values at the band edges of
    /// the rounding boundary in every regime, the es-truncated regimes and
    /// both saturation zones included.
    #[test]
    fn posit_safe_encode_matches_scalar() {
        let Some(isa) = Avx2Isa::detect() else {
            return;
        };
        let mut rng = XorShift64::new(0x5AFE_E1C0);
        let mut values = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
        ];
        for e in -125..=125 {
            for _ in 0..8 {
                let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
                values.push(sign * rng.uniform_f64(1.0, 2.0) * 2f64.powi(e));
            }
            values.push(2f64.powi(e));
            values.push(-2f64.powi(e));
        }
        for _ in 0..20_000 {
            values.push(f64::from_bits(rng.next_u64()));
        }
        for band in [0u64, 16, 2048, 16384] {
            let mut ys = values.clone();
            for e in -120..=119 {
                for _ in 0..4 {
                    let y = rng.uniform_f64(1.0, 2.0) * 2f64.powi(e);
                    let b = boundary_of(y).to_bits();
                    for d in [0, 1, band, band + 1] {
                        for bits in [b + d, b - d, b ^ (1u64 << 63)] {
                            ys.push(f64::from_bits(bits));
                        }
                    }
                }
            }
            for c in ys.chunks(LANES) {
                let mut y = [1.0f64; LANES];
                y[..c.len()].copy_from_slice(c);
                let mut out = [Posit32::ZERO; LANES];
                let mask = Avx2::enter(
                    isa,
                    #[inline(always)]
                    || safe_narrow::<_, Avx2>(isa, &y, band, 0..LANES / 4, &mut out),
                );
                for (i, &v) in y.iter().enumerate() {
                    let want = crate::round::posit32_round_safe(v, band);
                    assert_eq!(
                        (mask >> i) & 1 == 1,
                        want,
                        "band {band}, y = {v:e} ({:#018x})",
                        v.to_bits()
                    );
                    if want {
                        assert_eq!(out[i], Posit32::from_f64(v), "encode of {v:e}");
                    }
                }
            }
        }
    }

    /// Posit partial chunks (shorter than one group, one group, around
    /// the chunk width, two chunks and a tail) with the special lanes
    /// NaR, 0, ±minpos and ±maxpos spread through them match the scalar
    /// entries lane for lane.
    #[test]
    fn posit_partial_chunks_and_specials_match_scalar() {
        if Avx2Isa::detect().is_none() {
            return;
        }
        let specials =
            [Posit32::NAR, Posit32::ZERO, Posit32::MINPOS, -Posit32::MINPOS, Posit32::MAXPOS, -Posit32::MAXPOS];
        for len in [1usize, 3, 4, 5, 63, 64, 65, 130] {
            let mut xs: Vec<Posit32> =
                (0..len).map(|i| Posit32::from_f64(0.3 + i as f64 * 0.41)).collect();
            for (k, &s) in specials.iter().enumerate() {
                let i = (k * 23 + 2) % len;
                if k < len {
                    xs[i] = s;
                }
            }
            let mut out = vec![Posit32::ZERO; len];
            let mut portable = vec![Posit32::ZERO; len];
            for (name, batched) in crate::POSIT32_NAMES.into_iter().zip(POSIT32_BATCHED) {
                // Both lanes of the driver: AVX2, then f64 (the fallback).
                let tally = batched(&xs, &mut out, true);
                assert_eq!(batched(&xs, &mut portable, false), tally, "{name}: tier accounting");
                for (&x, (&got, &got_f64)) in xs.iter().zip(out.iter().zip(&portable)) {
                    let want = crate::eval_posit32_by_name(name, x).expect("known name");
                    assert_eq!(got, want, "{name}({:#010x}) len {len}", x.to_bits());
                    assert_eq!(got_f64, want, "{name}({:#010x}) len {len}, f64 lane", x.to_bits());
                }
            }
        }
    }
}
