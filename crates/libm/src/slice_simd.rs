//! AVX2 implementations of the staged slice pipeline (`simd` feature).
//!
//! Every stage of [`super`]'s structure-of-arrays pipeline — widen and
//! domain classification, range reduction, table gather, Horner
//! evaluation, the bit-pattern round-safety test and the narrowing cast —
//! is rewritten here with explicit `core::arch::x86_64` intrinsics, four
//! f64 lanes at a time over the same 64-lane chunks, for both lane
//! formats (f32 and posit32).
//!
//! # Structure
//!
//! * **Eval helpers.** Each function's math is one [`Kernel4`] impl: an
//!   `#[inline]` `eval::<PREFIX>` on four widened `__m256d` lanes (range
//!   reduction, gather, Horner at the selected tier, recombination), plus
//!   the f32 entry's domain mask. Eight of them (the exp, log and
//!   hyperbolic families) serve both formats; `sinpi`/`cospi` are f32-only.
//! * **Format ends.** A [`SimdLane`] supplies the two format-specific
//!   stages around the shared math: the widen + domain stage (f32:
//!   `_mm256_cvtps_pd` and the kernel's f32 mask; posit32: the vector
//!   decode [`posit32_decode4`] and the row's [`PositDomain`] mask) and
//!   the fused round-safety mask + narrowing cast (f32:
//!   [`f32_round_safe4`] and `_mm256_cvtpd_ps`; posit32:
//!   [`posit32_safe_encode4`]). The eval helpers inline into each
//!   format's stage: the widened lanes stay in registers from the widen
//!   or decode to the store of the staged result.
//! * **One driver.** [`drive_simd`] runs the prefix stage, the vector
//!   safety mask against the wide prefix band, the per-group full-degree
//!   re-run against the narrow full band, and the rescalar resolve, with
//!   the counter accounting of the scalar driver, for every (format,
//!   kernel) pair.
//!
//! # Bit-identity contract
//!
//! The scalar chunk functions in `super` remain the **certified
//! reference**; this module must produce bit-identical slice outputs
//! (`tests/two_tier_identity.rs` runs with the feature on and off and
//! pins one shared checksum). That holds because every lane executes the
//! *same IEEE-754 operation sequence* as the scalar code:
//!
//! * `_mm256_{add,sub,mul,div}_pd` round exactly like the corresponding
//!   scalar f64 ops (no FMA contraction — the scalar kernels use plain
//!   mul/add, and so does this module);
//! * `_mm256_cvtpd_epi32` rounds with the MXCSR mode, which Rust leaves
//!   at round-to-nearest-even — exactly the rounding
//!   `fast::round_even_i64` performs in the scalar reductions;
//! * `_mm256_cvttpd_epi32` truncates, matching `.floor() as usize` on
//!   the non-negative values the trig reductions feed it;
//! * table gathers read the identical `(hi, lo)` entries, and the
//!   branchy scalar folds (`j == 128` in the log reduction, the trig
//!   mirror folds, the sinh/cosh Taylor-vs-exp split) become mask
//!   blends where each lane selects a value computed by the same ops the
//!   scalar branch would have run;
//! * the posit codec is integer bit assembly that mirrors
//!   `rlibm_posit`'s scalar `to_f64` / `from_f64` op for op (the scalar
//!   codec stays the reference the tests compare against).
//!
//! Out-of-domain lanes get the same placeholder (`1.0`) the scalar
//! widen stage uses, so the staged arithmetic stays total and the
//! exponents handed to [`pow2i4`] stay deep inside the normal f64 range
//! (the per-function domain bounds cap `|k/64|` near 155 — see the
//! scalar `fast` kernels' preconditions).
//!
//! Lanes that fail both bands, and special lanes, fall through to the
//! scalar progressive entry in the resolve loop, counted by the format's
//! `runtime.slice.*.rescalar_lanes` counter — same fallback semantics,
//! same telemetry, as the scalar driver — and prefix/full acceptances
//! land batched in the same `runtime.tier.*` counters the scalar front
//! ends use.
//!
//! With the `fault` feature, the driver routes every in-domain prefix
//! result through the row's fault hook before the safety mask, like the
//! scalar driver and the scalar ladder; rescalar lanes re-enter the
//! hooked scalar path.

use super::{PositDomain, LANES};
use crate::registry::{Lane, TIERS};
use crate::tables as t;
use crate::tables_codec as codec;
use core::arch::x86_64::*;
use rlibm_posit::Posit32;

/// Runtime gate for the AVX2 path (cached by std's feature detection).
/// The dispatchers fall back to the scalar driver when this returns
/// false, so a `simd` build still runs correctly on pre-AVX2 hardware.
#[inline]
pub(crate) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// One function's vector math, shared by both lane formats.
pub(crate) trait Kernel4 {
    /// The f32 entry's fast-path domain on exactly widened f32 lanes, as
    /// an all-ones lane mask (NaN fails every ordered compare).
    ///
    /// # Safety
    /// Requires AVX2.
    unsafe fn f32_dom(x: __m256d) -> __m256d;

    /// The staged evaluation of four in-domain (or placeholder) lanes at
    /// the selected tier: the vector twin of the scalar chunk kernel.
    ///
    /// # Safety
    /// Requires AVX2.
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d;
}

/// A lane format's vector ends around the shared [`Kernel4`] math.
pub(crate) trait SimdLane: Lane {
    /// Filler for a partial chunk's unused lanes (never read back).
    const PAD: Self;
    /// A row's fast-path domain as the stage reads it: f32 domains live
    /// in each kernel's [`Kernel4::f32_dom`]; posit32 rows carry theirs.
    type Domain: Copy;

    /// Widens the 4-lane groups whose bit is set in `groups`, classifies
    /// them against the domain (placeholder 1.0 in out-of-domain lanes),
    /// and writes kernel `K`'s staged results to `y`. Returns the
    /// in-domain lanes as a bitmask (lane `i` = bit `i`); skipped groups
    /// keep their previous `y` values and report 0.
    ///
    /// # Safety
    /// Requires AVX2.
    unsafe fn stage<K: Kernel4, const PREFIX: bool>(
        xs: &[Self; LANES],
        y: &mut [f64; LANES],
        groups: u16,
        dom: Self::Domain,
    ) -> u64;

    /// The round-safety test against `band` of the lanes in the 4-lane
    /// groups whose bit is set in `groups`, as a bitmask (skipped groups
    /// report 0), with the narrowing of every lane the mask accepts
    /// written to `out` (other lanes' `out` values are unspecified).
    ///
    /// # Safety
    /// Requires AVX2.
    unsafe fn safe_narrow(
        y: &[f64; LANES],
        band: u64,
        groups: u16,
        out: &mut [Self; LANES],
    ) -> u64;
}

/// Sign-bit mask for f64 negation/abs.
const SIGN: u64 = 1u64 << 63;

/// The lanes of a 4-lane compare mask as bits `4g..4g+4` of a chunk mask.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lane_bits(m: __m256d, g: usize) -> u64 {
    ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g)
}

/// 64-bit lanes of a constant.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn splat(v: i64) -> __m256i {
    _mm256_set1_epi64x(v)
}

/// `lo <= a <= hi` per 64-bit lane (signed compares).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn in_range64(a: __m256i, lo: i64, hi: i64) -> __m256i {
    _mm256_and_si256(
        _mm256_cmpgt_epi64(a, splat(lo - 1)),
        _mm256_cmpgt_epi64(splat(hi + 1), a),
    )
}

impl SimdLane for f32 {
    const PAD: f32 = 1.0;
    type Domain = ();

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn stage<K: Kernel4, const PREFIX: bool>(
        xs: &[f32; LANES],
        y: &mut [f64; LANES],
        groups: u16,
        (): (),
    ) -> u64 {
        let mut dom = 0u64;
        for g in 0..LANES / 4 {
            if groups & (1 << g) == 0 {
                continue;
            }
            let x = widen4(xs, g);
            let m = K::f32_dom(x);
            store4(y, g, K::eval::<PREFIX>(placeholder(x, m)));
            dom |= lane_bits(m, g);
        }
        dom
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn safe_narrow(
        y: &[f64; LANES],
        band: u64,
        groups: u16,
        out: &mut [f32; LANES],
    ) -> u64 {
        let mut safe = 0u64;
        for g in 0..LANES / 4 {
            if groups & (1 << g) == 0 {
                continue;
            }
            let v = _mm256_loadu_pd(y.as_ptr().add(4 * g));
            // cvtpd_ps rounds with the MXCSR mode (nearest-even), like `as f32`.
            _mm_storeu_ps(out.as_mut_ptr().add(4 * g), _mm256_cvtpd_ps(v));
            safe |= lane_bits(f32_round_safe4(v, band), g);
        }
        safe
    }
}

impl SimdLane for Posit32 {
    const PAD: Posit32 = Posit32::ONE;
    type Domain = PositDomain;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn stage<K: Kernel4, const PREFIX: bool>(
        xs: &[Posit32; LANES],
        y: &mut [f64; LANES],
        groups: u16,
        dom: PositDomain,
    ) -> u64 {
        let mut mask = 0u64;
        for g in 0..LANES / 4 {
            if groups & (1 << g) == 0 {
                continue;
            }
            let x = posit32_decode4(xs, g);
            let m = posit32_dom4(x, dom);
            store4(y, g, K::eval::<PREFIX>(placeholder(x, m)));
            mask |= lane_bits(m, g);
        }
        mask
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn safe_narrow(
        y: &[f64; LANES],
        band: u64,
        groups: u16,
        out: &mut [Posit32; LANES],
    ) -> u64 {
        let mut safe = 0u64;
        for g in 0..LANES / 4 {
            if groups & (1 << g) == 0 {
                continue;
            }
            let (ok, patterns) = posit32_safe_encode4(_mm256_loadu_pd(y.as_ptr().add(4 * g)), band);
            // Posit32 is a transparent u32 pattern.
            _mm_storeu_si128(out.as_mut_ptr().add(4 * g).cast(), patterns);
            safe |= lane_bits(ok, g);
        }
        safe
    }
}

/// The shared SIMD chunk driver, over both lane formats: the prefix
/// stage, the vector safety mask against the wide prefix band, and the
/// per-lane resolve. Chunks whose in-domain lanes escape the prefix band
/// re-run the full-degree stage on the 4-lane groups that hold them and
/// re-test against the narrow full band; lanes that fail both (and
/// special lanes) re-enter the scalar progressive entry. Mirrors
/// `super::drive` exactly, including the per-tier counter accounting and
/// the order in which rescalar lanes resolve.
pub(crate) fn drive_simd<L: SimdLane, K: Kernel4>(
    xs: &[L],
    out: &mut [L],
    dom: L::Domain,
    slot: usize,
    scalar: fn(L) -> L,
) {
    assert_eq!(xs.len(), out.len(), "eval_slice: input/output length mismatch");
    let (prefix_band, band) = (TIERS[slot].prefix_band, TIERS[slot].full_band);
    debug_assert!(avx2_available());
    let mut y = [0.0f64; LANES];
    let mut narrowed = [L::PAD; LANES];
    let mut xpad = [L::PAD; LANES];
    let mut chunks = 0u64;
    let mut rescalar = 0u64;
    let mut prefix_hits = 0u64;
    let mut full_hits = 0u64;
    for (xc, oc) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
        chunks += 1;
        let n = xc.len();
        let live = if n == LANES { u64::MAX } else { (1u64 << n) - 1 };
        let xfull: &[L; LANES] = match xc.try_into() {
            Ok(full) => full,
            Err(_) => {
                // Final partial chunk: pad lanes are never read back.
                xpad[..n].copy_from_slice(xc);
                &xpad
            }
        };
        // SAFETY: AVX2 presence is checked once by the dispatcher.
        // Every group is staged, pad lanes included: staging only a
        // partial chunk's own groups measured lower throughput in the
        // closed-loop serving benchmark, whose flushes are mostly partial.
        let in_dom = unsafe { L::stage::<K, true>(xfull, &mut y, u16::MAX, dom) };
        super::perturb_prefix(slot, &mut y, in_dom & live);
        let safe = unsafe { L::safe_narrow(&y, prefix_band, u16::MAX, &mut narrowed) };
        let ok = in_dom & safe & live;
        prefix_hits += u64::from(ok.count_ones());
        // Ship every lane's narrowed prefix result, then overwrite the
        // ones the prefix tier did not accept.
        match <&mut [L; LANES]>::try_from(&mut *oc) {
            Ok(full) => *full = narrowed,
            Err(_) => oc.copy_from_slice(&narrowed[..n]),
        }
        let mut special = !in_dom & live;
        while special != 0 {
            let i = special.trailing_zeros() as usize;
            special &= special - 1;
            rescalar += 1;
            oc[i] = super::rescalar_resolve(scalar, xc[i]);
        }
        // In-domain lanes the prefix band rejected: escalate through the
        // full-degree stage (rare — the prefix bands are sized so well
        // under 1% of in-domain lanes land here).
        let mut pending = in_dom & !safe & live;
        if pending != 0 {
            // Re-run only the 4-lane groups that hold a pending lane
            // (typically one of sixteen).
            let mut groups = 0u16;
            for g in 0..LANES / 4 {
                if (pending >> (4 * g)) & 0xF != 0 {
                    groups |= 1 << g;
                }
            }
            let _ = unsafe { L::stage::<K, false>(xfull, &mut y, groups, dom) };
            let safe_full = unsafe { L::safe_narrow(&y, band, groups, &mut narrowed) };
            while pending != 0 {
                let i = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                if (safe_full >> i) & 1 == 1 {
                    full_hits += 1;
                    oc[i] = narrowed[i];
                } else {
                    rescalar += 1;
                    oc[i] = super::rescalar_resolve(scalar, xc[i]);
                }
            }
        }
    }
    let (chunk_counter, rescalar_counter) = L::counters();
    chunk_counter.add(chunks);
    rescalar_counter.add(rescalar);
    crate::stats::record_tier_prefix_n(slot, prefix_hits);
    crate::stats::record_tier_full_n(slot, full_hits);
}

/// Vectorized [`crate::round::f32_round_safe`] over 4 lanes, as a lane
/// mask. Same integer test per lane: biased exponent in `897..=1150`
/// (f32-normal results only) and fraction distance to the nearest f32
/// rounding boundary greater than `band`.
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
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
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
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

/// A posit32 row's domain mask on decoded lanes: the vector twin of
/// [`PositDomain::contains`] (NaR decodes to NaN and fails every
/// ordered compare).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn posit32_dom4(x: __m256d, dom: PositDomain) -> __m256d {
    match dom {
        PositDomain::Positive => _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_setzero_pd()),
        PositDomain::AbsAtMost(c) => _mm256_cmp_pd::<_CMP_LE_OQ>(abs4(x), _mm256_set1_pd(c)),
        PositDomain::AbsWithin(lo, hi) => {
            let ax = abs4(x);
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(ax, _mm256_set1_pd(lo)),
                _mm256_cmp_pd::<_CMP_LE_OQ>(ax, _mm256_set1_pd(hi)),
            )
        }
    }
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
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn posit32_safe_encode4(y: __m256d, band: u64) -> (__m256d, __m128i) {
    let bits = _mm256_castpd_si256(y);
    let abs = _mm256_andnot_si256(splat(SIGN as i64), bits);
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

// ---------------------------------------------------------------------
// 4-lane building blocks (each mirrors one scalar helper op-for-op)
// ---------------------------------------------------------------------

/// Widens 4 f32 lanes to f64 (exact) starting at lane `4*g`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn widen4(xs: &[f32; LANES], g: usize) -> __m256d {
    _mm256_cvtps_pd(_mm_loadu_ps(xs.as_ptr().add(4 * g)))
}

/// Stores 4 staged results at lane `4*g`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store4(y: &mut [f64; LANES], g: usize, v: __m256d) {
    _mm256_storeu_pd(y.as_mut_ptr().add(4 * g), v)
}

/// Blends the scalar widen stage's placeholder into out-of-domain lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn placeholder(x: __m256d, dom: __m256d) -> __m256d {
    _mm256_blendv_pd(_mm256_set1_pd(1.0), x, dom)
}

/// `|x|` (clears the sign bit, exact — same as scalar `abs`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn abs4(x: __m256d) -> __m256d {
    _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_set1_epi64x(SIGN as i64)), x)
}

/// `-x` where the mask is set (IEEE negation is a sign flip).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn negate_where(v: __m256d, mask: __m256d) -> __m256d {
    let flipped = _mm256_xor_pd(v, _mm256_castsi256_pd(_mm256_set1_epi64x(SIGN as i64)));
    _mm256_blendv_pd(v, flipped, mask)
}

/// `2^i` for the four i32 exponents, by direct bit construction. Not
/// total like the scalar `pow2i`: valid only for `-1022 <= i <= 1023`,
/// which the staged pipelines guarantee — the domain filters cap the
/// exp-family reductions at `|k| < 64*156`, so `i = k >> 6` stays within
/// `[-156, 156]`, and placeholder lanes produce tiny `k`. For those
/// inputs the scalar `pow2i` takes exactly this branch.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn pow2i4(i: __m128i) -> __m256d {
    let wide = _mm256_cvtepi32_epi64(i);
    let bits = _mm256_slli_epi64::<52>(_mm256_add_epi64(wide, _mm256_set1_epi64x(1023)));
    _mm256_castsi256_pd(bits)
}

/// Mirror of `fast::exp_poly_fast`: same Horner structure, same
/// grouping, no contraction.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exp_poly4(r: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    let mut q = c(1.0 / 5040.0);
    q = _mm256_add_pd(c(1.0 / 720.0), _mm256_mul_pd(r, q));
    q = _mm256_add_pd(c(1.0 / 120.0), _mm256_mul_pd(r, q));
    q = _mm256_add_pd(c(1.0 / 24.0), _mm256_mul_pd(r, q));
    q = _mm256_add_pd(c(1.0 / 6.0), _mm256_mul_pd(r, q));
    q = _mm256_add_pd(c(0.5), _mm256_mul_pd(r, q));
    // 1 + r·(1 + r·q)
    _mm256_add_pd(c(1.0), _mm256_mul_pd(r, _mm256_add_pd(c(1.0), _mm256_mul_pd(r, q))))
}

/// Mirror of `fast::exp_poly_prefix` (progressive tier 0): the same
/// Horner spine truncated after the `1/24` term.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exp_poly_prefix4(r: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    let mut q = c(1.0 / 24.0);
    q = _mm256_add_pd(c(1.0 / 6.0), _mm256_mul_pd(r, q));
    q = _mm256_add_pd(c(0.5), _mm256_mul_pd(r, q));
    // 1 + r·(1 + r·q)
    _mm256_add_pd(c(1.0), _mm256_mul_pd(r, _mm256_add_pd(c(1.0), _mm256_mul_pd(r, q))))
}

/// Mirror of `fast::exp_combined_fast` / `fast::exp_combined_prefix`
/// (tier selected by `PREFIX`, const-folded per monomorphization): table
/// gather at `j = k mod 64`, Horner, exponent scale at `i = k div 64`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exp_combined4<const PREFIX: bool>(k: __m128i, r: __m256d) -> __m256d {
    // k & 63 == rem_euclid(64), k >> 6 == div_euclid(64) for two's
    // complement (divisor a power of two).
    let j = _mm_and_si128(k, _mm_set1_epi32(63));
    let i = _mm_srai_epi32::<6>(k);
    if PREFIX {
        // th * p * 2^i — hi-only table read, like the scalar prefix.
        let th = gather_hi4(&t::EXP2_64_P, j, t::EXP2_64_HI_BASE);
        _mm256_mul_pd(_mm256_mul_pd(th, exp_poly_prefix4(r)), pow2i4(i))
    } else {
        let (th, tl) = gather_packed4(&t::EXP2_64_P, j, t::EXP2_64_HI_BASE, t::EXP2_64_LO_BASE);
        // (th * p + tl) * 2^i
        _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(th, exp_poly4(r)), tl), pow2i4(i))
    }
}

/// The `e^x` reduction + combine over 4 widened lanes (mirror of the
/// scalar `exp_chunk_with` body at the selected tier).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn exp4<const PREFIX: bool>(xd: __m256d) -> __m256d {
    // cvtpd_epi32 rounds ties-to-even (MXCSR default): identical to
    // `fast::round_even_i64(x * C)` for these small magnitudes.
    let k = _mm256_cvtpd_epi32(_mm256_mul_pd(xd, _mm256_set1_pd(64.0 * t::LOG2_E)));
    let kf = _mm256_cvtepi32_pd(k);
    let r = _mm256_sub_pd(
        _mm256_sub_pd(xd, _mm256_mul_pd(kf, _mm256_set1_pd(t::LN2_64_HI))),
        _mm256_mul_pd(kf, _mm256_set1_pd(t::LN2_64_MID)),
    );
    exp_combined4::<PREFIX>(k, r)
}

/// Mirror of `fast::log1p_poly_fast`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn log1p_poly4(u: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    // q = -1/2 + u·(1/3 + u·(-1/4 + u·(1/5 + u·(-1/6 + u·(1/7 - u/8)))))
    let mut q = _mm256_sub_pd(c(1.0 / 7.0), _mm256_mul_pd(u, c(0.125)));
    q = _mm256_add_pd(c(-1.0 / 6.0), _mm256_mul_pd(u, q));
    q = _mm256_add_pd(c(0.2), _mm256_mul_pd(u, q));
    q = _mm256_add_pd(c(-0.25), _mm256_mul_pd(u, q));
    q = _mm256_add_pd(c(1.0 / 3.0), _mm256_mul_pd(u, q));
    q = _mm256_add_pd(c(-0.5), _mm256_mul_pd(u, q));
    // u + u^2·q
    _mm256_add_pd(u, _mm256_mul_pd(_mm256_mul_pd(u, u), q))
}

/// Mirror of `fast::log1p_poly_prefix`: `q` truncated after the `u^3/5`
/// term.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn log1p_poly_prefix4(u: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    // q = -1/2 + u·(1/3 + u·(-1/4 + u·(1/5)))
    let mut q = _mm256_add_pd(c(-0.25), _mm256_mul_pd(u, c(0.2)));
    q = _mm256_add_pd(c(1.0 / 3.0), _mm256_mul_pd(u, q));
    q = _mm256_add_pd(c(-0.5), _mm256_mul_pd(u, q));
    // u + u^2·q
    _mm256_add_pd(u, _mm256_mul_pd(_mm256_mul_pd(u, u), q))
}

/// Tier dispatch for the log-family Horner pass.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn log1p_tier4<const PREFIX: bool>(u: __m256d) -> __m256d {
    if PREFIX {
        log1p_poly_prefix4(u)
    } else {
        log1p_poly4(u)
    }
}

/// The shared log reduction (mirror of `fast::reduce_fast`): returns
/// `(e as f64, j as i32x4, u)` with the index-128 fold applied as a
/// blend. Requires positive normal-f64 lanes (the dom filter + widen
/// guarantee it: every positive f32, subnormals included, widens to a
/// normal f64).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn log_reduce4(xd: __m256d) -> (__m256d, __m128i, __m256d) {
    let bits = _mm256_castpd_si256(xd);
    // Biased exponent as an exact small-integer double via the 2^52
    // magic-bits trick, with the -1023 bias folded into the subtrahend.
    let be = _mm256_srli_epi64::<52>(bits); // sign bit is 0: x > 0
    let magic = _mm256_set1_epi64x(0x4330_0000_0000_0000); // 2^52
    let ef = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(be, magic)),
        _mm256_set1_pd(4_503_599_627_370_496.0 + 1023.0),
    );
    let z = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000F_FFFF_FFFF_FFFF)),
        _mm256_set1_epi64x(0x3FF0_0000_0000_0000u64 as i64),
    ));
    // j = round_even_i64((z - 1) * 128), 0..=128
    let j = _mm256_cvtpd_epi32(_mm256_mul_pd(
        _mm256_sub_pd(z, _mm256_set1_pd(1.0)),
        _mm256_set1_pd(128.0),
    ));
    // Index-128 fold: e += 1, z *= 0.5 (exact), j = 0.
    let fold = _mm_cmpeq_epi32(j, _mm_set1_epi32(128));
    let fold_pd = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(fold));
    let ef = _mm256_add_pd(ef, _mm256_and_pd(fold_pd, _mm256_set1_pd(1.0)));
    let z = _mm256_blendv_pd(z, _mm256_mul_pd(z, _mm256_set1_pd(0.5)), fold_pd);
    let j = _mm_andnot_si128(fold, j);
    // f = 1 + j/128 (exact), u = (z - f)/f
    let f = _mm256_add_pd(
        _mm256_set1_pd(1.0),
        _mm256_div_pd(_mm256_cvtepi32_pd(j), _mm256_set1_pd(128.0)),
    );
    let u = _mm256_div_pd(_mm256_sub_pd(z, f), f);
    (ef, j, u)
}

/// Vector twin of `tables_codec::decode_hi`: 4 masked 56-bit hi words
/// to f64 lanes. `base` is the table's hi exponent origin.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn decode_hi4(w: __m256i, base: u64) -> __m256d {
    let mant = _mm256_and_si256(w, _mm256_set1_epi64x(codec::MANT52_MASK as i64));
    let code = _mm256_srli_epi64::<52>(w); // word is pre-masked to 56 bits
    let exp = _mm256_slli_epi64::<52>(_mm256_add_epi64(code, _mm256_set1_epi64x(base as i64 - 1)));
    let bits = _mm256_or_si256(exp, mant);
    let zero = _mm256_cmpeq_epi64(code, _mm256_setzero_si256());
    _mm256_castsi256_pd(_mm256_andnot_si256(zero, bits))
}

/// Vector twin of `tables_codec::decode_lo`: 4 masked 57-bit lo words
/// (sign in bit 56) to f64 lanes.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn decode_lo4(w: __m256i, base: u64) -> __m256d {
    let mant = _mm256_and_si256(w, _mm256_set1_epi64x(codec::MANT52_MASK as i64));
    let code = _mm256_and_si256(_mm256_srli_epi64::<52>(w), _mm256_set1_epi64x(0xF));
    let sign = _mm256_slli_epi64::<7>(_mm256_and_si256(w, _mm256_set1_epi64x(1i64 << 56)));
    let exp = _mm256_slli_epi64::<52>(_mm256_add_epi64(code, _mm256_set1_epi64x(base as i64 - 1)));
    let bits = _mm256_or_si256(sign, _mm256_or_si256(exp, mant));
    let zero = _mm256_cmpeq_epi64(code, _mm256_setzero_si256());
    _mm256_castsi256_pd(_mm256_andnot_si256(zero, bits))
}

/// Gathers and decodes 4 entries of a 15-byte-stride packed table: two
/// scale-1 `i32gather_epi64` loads per group (byte offsets `15n` and
/// `15n + 7`), then the fixed shift/mask decode. The last entry's lo
/// load ends exactly at the table's final byte, so every in-bounds index
/// gathers in bounds.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gather_packed4(
    bytes: &[u8],
    idx: __m128i,
    hi_base: u64,
    lo_base: u64,
) -> (__m256d, __m256d) {
    let base = bytes.as_ptr().cast::<i64>();
    // byte offset 15n computed as 16n - n
    let off = _mm_sub_epi32(_mm_slli_epi32::<4>(idx), idx);
    let w0 = _mm256_i32gather_epi64::<1>(base, off);
    let w1 = _mm256_i32gather_epi64::<1>(base, _mm_add_epi32(off, _mm_set1_epi32(7)));
    let hw = _mm256_and_si256(w0, _mm256_set1_epi64x(codec::HI_WORD_MASK as i64));
    let lw = _mm256_and_si256(w1, _mm256_set1_epi64x(codec::LO_WORD_MASK as i64));
    (decode_hi4(hw, hi_base), decode_lo4(lw, lo_base))
}

/// `gather_packed4` into the sinpi table through the cospi mirror
/// (`COSPI_T[n] == SINPI_T[256 - n]`, verified at build time).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gather_cospi4(idx: __m128i) -> (__m256d, __m256d) {
    let mirrored = _mm_sub_epi32(_mm_set1_epi32(256), idx);
    gather_packed4(&t::SINPI_T_P, mirrored, t::SINPI_T_HI_BASE, t::SINPI_T_LO_BASE)
}

/// Hi-word-only gather — the prefix tier's table read (vector twin of
/// `tables::*_hi`): one u64 gather at byte offset `15n` plus the hi
/// decode, half the gather traffic of [`gather_packed4`]. Sound for the
/// same reason as the scalar prefix kernels: the dropped lo words sit
/// far inside every prefix band, and an excursion escalates a tier.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gather_hi4(bytes: &[u8], idx: __m128i, hi_base: u64) -> __m256d {
    let base = bytes.as_ptr().cast::<i64>();
    let off = _mm_sub_epi32(_mm_slli_epi32::<4>(idx), idx);
    let w0 = _mm256_i32gather_epi64::<1>(base, off);
    decode_hi4(_mm256_and_si256(w0, _mm256_set1_epi64x(codec::HI_WORD_MASK as i64)), hi_base)
}

/// [`gather_hi4`] through the cospi mirror.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gather_cospi_hi4(idx: __m128i) -> __m256d {
    let mirrored = _mm_sub_epi32(_mm_set1_epi32(256), idx);
    gather_hi4(&t::SINPI_T_P, mirrored, t::SINPI_T_HI_BASE)
}

/// Mirror of `fast::sinpi_poly_fast`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sinpi_poly4(r: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    let r2 = _mm256_mul_pd(r, r);
    let tail = _mm256_add_pd(
        c(t::SINPI_C3),
        _mm256_mul_pd(r2, _mm256_add_pd(c(t::SINPI_C5), _mm256_mul_pd(r2, c(t::SINPI_C7)))),
    );
    // r·PI_HI + (r·PI_LO + (r·r2)·tail)
    _mm256_add_pd(
        _mm256_mul_pd(r, c(t::PI_HI)),
        _mm256_add_pd(
            _mm256_mul_pd(r, c(t::PI_LO)),
            _mm256_mul_pd(_mm256_mul_pd(r, r2), tail),
        ),
    )
}

/// Mirror of `fast::cospi_poly_fast`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cospi_poly4(r: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    let r2 = _mm256_mul_pd(r, r);
    let tail = _mm256_add_pd(
        c(t::COSPI_C4),
        _mm256_mul_pd(r2, c(t::COSPI_C6)),
    );
    // 1 + (r2·C2_HI + (r2·C2_LO + (r2·r2)·tail))
    _mm256_add_pd(
        c(1.0),
        _mm256_add_pd(
            _mm256_mul_pd(r2, c(t::COSPI_C2_HI)),
            _mm256_add_pd(
                _mm256_mul_pd(r2, c(t::COSPI_C2_LO)),
                _mm256_mul_pd(_mm256_mul_pd(r2, r2), tail),
            ),
        ),
    )
}

/// Mirror of `fast::sinpi_poly_prefix` (drops `C5`, `C7`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sinpi_poly_prefix4(r: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    let r2 = _mm256_mul_pd(r, r);
    // r·PI_HI + (r·PI_LO + (r·r2)·C3)
    _mm256_add_pd(
        _mm256_mul_pd(r, c(t::PI_HI)),
        _mm256_add_pd(
            _mm256_mul_pd(r, c(t::PI_LO)),
            _mm256_mul_pd(_mm256_mul_pd(r, r2), c(t::SINPI_C3)),
        ),
    )
}

/// Mirror of `fast::cospi_poly_prefix` (drops `C6`).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cospi_poly_prefix4(r: __m256d) -> __m256d {
    let c = |v: f64| _mm256_set1_pd(v);
    let r2 = _mm256_mul_pd(r, r);
    // 1 + (r2·C2_HI + (r2·C2_LO + (r2·r2)·C4))
    _mm256_add_pd(
        c(1.0),
        _mm256_add_pd(
            _mm256_mul_pd(r2, c(t::COSPI_C2_HI)),
            _mm256_add_pd(
                _mm256_mul_pd(r2, c(t::COSPI_C2_LO)),
                _mm256_mul_pd(_mm256_mul_pd(r2, r2), c(t::COSPI_C4)),
            ),
        ),
    )
}

/// Tier dispatch for the trig polynomial pair.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn sinpi_tier4<const PREFIX: bool>(r: __m256d) -> __m256d {
    if PREFIX {
        sinpi_poly_prefix4(r)
    } else {
        sinpi_poly4(r)
    }
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn cospi_tier4<const PREFIX: bool>(r: __m256d) -> __m256d {
    if PREFIX {
        cospi_poly_prefix4(r)
    } else {
        cospi_poly4(r)
    }
}

/// Mirror of `fast::mod2_split_fast`: `(k mask, l)` with
/// `l = a mod 2` folded into `[0, 1)` and `k` flagging the upper half
/// period.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mod2_split4(a: __m256d) -> (__m256d, __m256d) {
    const FLOOR: i32 = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
    let fl = _mm256_round_pd::<FLOOR>(_mm256_mul_pd(a, _mm256_set1_pd(0.5)));
    let jm = _mm256_sub_pd(a, _mm256_mul_pd(_mm256_set1_pd(2.0), fl));
    let k = _mm256_cmp_pd::<_CMP_GE_OQ>(jm, _mm256_set1_pd(1.0));
    let l = _mm256_blendv_pd(jm, _mm256_sub_pd(jm, _mm256_set1_pd(1.0)), k);
    (k, l)
}

// ---------------------------------------------------------------------
// per-function kernels: the f32 domain masks and the shared eval bodies
// ---------------------------------------------------------------------

/// `e^x`.
pub(crate) struct Exp;
/// `2^x`.
pub(crate) struct Exp2;
/// `10^x`.
pub(crate) struct Exp10;
/// Natural logarithm.
pub(crate) struct Ln;
/// Base-2 logarithm.
pub(crate) struct Log2;
/// Base-10 logarithm.
pub(crate) struct Log10;
/// Hyperbolic sine.
pub(crate) struct Sinh;
/// Hyperbolic cosine.
pub(crate) struct Cosh;
/// `sin(πx)` (f32 only).
pub(crate) struct Sinpi;
/// `cos(πx)` (f32 only).
pub(crate) struct Cospi;

/// `lo <= x <= hi` (both inclusive; NaN fails).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn within4(x: __m256d, lo: f64, hi: f64) -> __m256d {
    _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_set1_pd(lo)),
        _mm256_cmp_pd::<_CMP_LE_OQ>(x, _mm256_set1_pd(hi)),
    )
}

impl Kernel4 for Exp {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        // (-106.0..=89.0).contains(&x) — f32 compare, exactly preserved
        // on the exactly-widened doubles.
        within4(x, -106.0, 89.0)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        exp4::<PREFIX>(xd)
    }
}

impl Kernel4 for Exp2 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        // (-151.0..128.0): half-open on the right.
        _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_set1_pd(-151.0)),
            _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(128.0)),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let k = _mm256_cvtpd_epi32(_mm256_mul_pd(xd, _mm256_set1_pd(64.0)));
        let kf = _mm256_cvtepi32_pd(k);
        // tt = x - k/64 (exact); r = tt·LN2_HI + tt·LN2_LO
        let tt = _mm256_sub_pd(xd, _mm256_div_pd(kf, _mm256_set1_pd(64.0)));
        let r = _mm256_add_pd(
            _mm256_mul_pd(tt, _mm256_set1_pd(t::LN2_HI)),
            _mm256_mul_pd(tt, _mm256_set1_pd(t::LN2_LO)),
        );
        exp_combined4::<PREFIX>(k, r)
    }
}

impl Kernel4 for Exp10 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        // (-45.5..=38.6): 38.6 here is the f32 literal widened exactly.
        within4(x, -45.5f32 as f64, 38.6f32 as f64)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let k = _mm256_cvtpd_epi32(_mm256_mul_pd(xd, _mm256_set1_pd(64.0 * t::LOG2_10)));
        let kf = _mm256_cvtepi32_pd(k);
        let b = _mm256_mul_pd(kf, _mm256_set1_pd(t::LN2_64_HI));
        // r = (x·LN10_HI - b) + (x·LN10_LO - kf·LN2_64_MID)
        let r = _mm256_add_pd(
            _mm256_sub_pd(_mm256_mul_pd(xd, _mm256_set1_pd(t::LN10_HI)), b),
            _mm256_sub_pd(
                _mm256_mul_pd(xd, _mm256_set1_pd(t::LN10_LO)),
                _mm256_mul_pd(kf, _mm256_set1_pd(t::LN2_64_MID)),
            ),
        );
        exp_combined4::<PREFIX>(k, r)
    }
}

/// Shared log-family f32 dom mask: `x > 0 && x < inf` (subnormal f32
/// widens to normal f64, so the reduction's normal-f64 precondition
/// holds).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn log_dom4(x: __m256d) -> __m256d {
    _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(0.0)),
        _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(f64::INFINITY)),
    )
}

impl Kernel4 for Ln {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        log_dom4(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let (ef, j, u) = log_reduce4(xd);
        let p = log1p_tier4::<PREFIX>(u);
        if PREFIX {
            // Hi-only gather: c = ef·LN2_HI42 + th; y = c + (p + ef·LN2_MID)
            let th = gather_hi4(&t::LN_F_P, j, t::LN_F_HI_BASE);
            let c = _mm256_add_pd(_mm256_mul_pd(ef, _mm256_set1_pd(t::LN2_HI42)), th);
            _mm256_add_pd(c, _mm256_add_pd(p, _mm256_mul_pd(ef, _mm256_set1_pd(t::LN2_MID))))
        } else {
            let (th, tl) = gather_packed4(&t::LN_F_P, j, t::LN_F_HI_BASE, t::LN_F_LO_BASE);
            // c = ef·LN2_HI42 + th; lo = tl + ef·LN2_MID; y = c + (p + lo)
            let c = _mm256_add_pd(_mm256_mul_pd(ef, _mm256_set1_pd(t::LN2_HI42)), th);
            let lo = _mm256_add_pd(tl, _mm256_mul_pd(ef, _mm256_set1_pd(t::LN2_MID)));
            _mm256_add_pd(c, _mm256_add_pd(p, lo))
        }
    }
}

impl Kernel4 for Log2 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        log_dom4(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let (ef, j, u) = log_reduce4(xd);
        let p = log1p_tier4::<PREFIX>(u);
        if PREFIX {
            // Hi-only gather: c = e + th; y = c + (p·INV_LN2_HI + p·INV_LN2_LO)
            let c = _mm256_add_pd(ef, gather_hi4(&t::LOG2_F_P, j, t::LOG2_F_HI_BASE));
            _mm256_add_pd(
                c,
                _mm256_add_pd(
                    _mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN2_HI)),
                    _mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN2_LO)),
                ),
            )
        } else {
            let (th, tl) = gather_packed4(&t::LOG2_F_P, j, t::LOG2_F_HI_BASE, t::LOG2_F_LO_BASE);
            // c = e + th; y = c + (p·INV_LN2_HI + (tl + p·INV_LN2_LO))
            let c = _mm256_add_pd(ef, th);
            _mm256_add_pd(
                c,
                _mm256_add_pd(
                    _mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN2_HI)),
                    _mm256_add_pd(tl, _mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN2_LO))),
                ),
            )
        }
    }
}

impl Kernel4 for Log10 {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        log_dom4(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let (ef, j, u) = log_reduce4(xd);
        let p = log1p_tier4::<PREFIX>(u);
        if PREFIX {
            // Hi-only gather: c = ef·LOG10_2_HI + th
            // y = c + (p·INV_LN10_HI + (ef·LOG10_2_LO + p·INV_LN10_LO))
            let th = gather_hi4(&t::LOG10_F_P, j, t::LOG10_F_HI_BASE);
            let c = _mm256_add_pd(_mm256_mul_pd(ef, _mm256_set1_pd(t::LOG10_2_HI)), th);
            let inner = _mm256_add_pd(
                _mm256_mul_pd(ef, _mm256_set1_pd(t::LOG10_2_LO)),
                _mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN10_LO)),
            );
            _mm256_add_pd(
                c,
                _mm256_add_pd(_mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN10_HI)), inner),
            )
        } else {
            let (th, tl) = gather_packed4(&t::LOG10_F_P, j, t::LOG10_F_HI_BASE, t::LOG10_F_LO_BASE);
            // c = ef·LOG10_2_HI + th
            // y = c + (p·INV_LN10_HI + ((tl + ef·LOG10_2_LO) + p·INV_LN10_LO))
            let c = _mm256_add_pd(_mm256_mul_pd(ef, _mm256_set1_pd(t::LOG10_2_HI)), th);
            let inner = _mm256_add_pd(
                _mm256_add_pd(tl, _mm256_mul_pd(ef, _mm256_set1_pd(t::LOG10_2_LO))),
                _mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN10_LO)),
            );
            _mm256_add_pd(
                c,
                _mm256_add_pd(_mm256_mul_pd(p, _mm256_set1_pd(t::INV_LN10_HI)), inner),
            )
        }
    }
}

/// sinh/cosh f32 dom mask: `tiny <= |x| <= 90`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn hyper_dom4(x: __m256d, tiny: f64) -> __m256d {
    let ax = abs4(x);
    _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_LE_OQ>(ax, _mm256_set1_pd(90.0)),
        _mm256_cmp_pd::<_CMP_GE_OQ>(ax, _mm256_set1_pd(tiny)),
    )
}

/// sinh/cosh share the dominant `e^|x|` pipeline; the small-|x| Taylor
/// branch becomes a blend (both sides are computed with the scalar
/// branch's exact op sequence, each lane keeps the one the scalar code
/// would have taken).
impl Kernel4 for Sinh {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        hyper_dom4(x, 2f32.powi(-12) as f64)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let c = |v: f64| _mm256_set1_pd(v);
        let a = abs4(xd);
        let big = exp4::<PREFIX>(a);
        let x2 = _mm256_mul_pd(a, a);
        // a + (a·x2)·(1/6 + x2·(1/120 + x2·(1/5040 + x2·(1/362880))))
        let tail = _mm256_add_pd(
            c(1.0 / 6.0),
            _mm256_mul_pd(
                x2,
                _mm256_add_pd(
                    c(1.0 / 120.0),
                    _mm256_mul_pd(
                        x2,
                        _mm256_add_pd(c(1.0 / 5040.0), _mm256_mul_pd(x2, c(1.0 / 362_880.0))),
                    ),
                ),
            ),
        );
        let v_small = _mm256_add_pd(a, _mm256_mul_pd(_mm256_mul_pd(a, x2), tail));
        // 0.5·(big - 1/big)
        let v_big = _mm256_mul_pd(c(0.5), _mm256_sub_pd(big, _mm256_div_pd(c(1.0), big)));
        let small = _mm256_cmp_pd::<_CMP_LT_OQ>(a, c(0.0625));
        let v = _mm256_blendv_pd(v_big, v_small, small);
        let neg = _mm256_cmp_pd::<_CMP_LT_OQ>(xd, c(0.0));
        negate_where(v, neg)
    }
}

impl Kernel4 for Cosh {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        hyper_dom4(x, 2f32.powi(-13) as f64)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let c = |v: f64| _mm256_set1_pd(v);
        let a = abs4(xd);
        let big = exp4::<PREFIX>(a);
        let x2 = _mm256_mul_pd(a, a);
        // 1 + x2·(1/2 + x2·(1/24 + x2·(1/720 + x2·(1/40320))))
        let tail = _mm256_add_pd(
            c(0.5),
            _mm256_mul_pd(
                x2,
                _mm256_add_pd(
                    c(1.0 / 24.0),
                    _mm256_mul_pd(
                        x2,
                        _mm256_add_pd(c(1.0 / 720.0), _mm256_mul_pd(x2, c(1.0 / 40_320.0))),
                    ),
                ),
            ),
        );
        let v_small = _mm256_add_pd(c(1.0), _mm256_mul_pd(x2, tail));
        // 0.5·(big + 1/big)
        let v_big = _mm256_mul_pd(c(0.5), _mm256_add_pd(big, _mm256_div_pd(c(1.0), big)));
        let small = _mm256_cmp_pd::<_CMP_LT_OQ>(a, c(0.0625));
        _mm256_blendv_pd(v_big, v_small, small)
    }
}

/// The trig reductions' "branch-heavy mirror folds" become mask blends;
/// this vectorizes the lanes the scalar slice path evaluates per lane.
impl Kernel4 for Sinpi {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        let ax = abs4(x);
        // finite && a < 2^23 && a >= 2^-36 && a != trunc(a)
        _mm256_and_pd(
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(8_388_608.0)),
                _mm256_cmp_pd::<_CMP_GE_OQ>(ax, _mm256_set1_pd(2f64.powi(-36))),
            ),
            _mm256_cmp_pd::<_CMP_NEQ_OQ>(ax, _mm256_round_pd::<TRUNC>(ax)),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let c = |v: f64| _mm256_set1_pd(v);
        let a = abs4(xd);
        let (k, l) = mod2_split4(a);
        let upper = _mm256_cmp_pd::<_CMP_GT_OQ>(l, c(0.5));
        let lp = _mm256_blendv_pd(l, _mm256_sub_pd(c(1.0), l), upper);
        // n = floor(lp·512) in 0..=256 for staged lanes; clamped to the
        // table bound purely as gather-safety (never binding in-domain).
        let n = _mm_min_epi32(
            _mm256_cvttpd_epi32(_mm256_mul_pd(lp, c(512.0))),
            _mm_set1_epi32(256),
        );
        let r = _mm256_sub_pd(lp, _mm256_div_pd(_mm256_cvtepi32_pd(n), c(512.0)));
        let sp = sinpi_tier4::<PREFIX>(r);
        let cp = cospi_tier4::<PREFIX>(r);
        let v = if PREFIX {
            // Hi-only gathers, no corr fold (mirror of the scalar
            // prefix): v = sh·cp + ch·sp
            let sh = gather_hi4(&t::SINPI_T_P, n, t::SINPI_T_HI_BASE);
            let ch = gather_cospi_hi4(n);
            _mm256_add_pd(_mm256_mul_pd(sh, cp), _mm256_mul_pd(ch, sp))
        } else {
            let (sh, sl) =
                gather_packed4(&t::SINPI_T_P, n, t::SINPI_T_HI_BASE, t::SINPI_T_LO_BASE);
            let (ch, cl) = gather_cospi4(n);
            // corr = sl·cp + cl·sp; v = sh·cp + (ch·sp + corr)
            let corr = _mm256_add_pd(_mm256_mul_pd(sl, cp), _mm256_mul_pd(cl, sp));
            _mm256_add_pd(_mm256_mul_pd(sh, cp), _mm256_add_pd(_mm256_mul_pd(ch, sp), corr))
        };
        // neg = (x < 0) ^ k
        let neg = _mm256_xor_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(xd, c(0.0)), k);
        negate_where(v, neg)
    }
}

impl Kernel4 for Cospi {
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn f32_dom(x: __m256d) -> __m256d {
        const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
        let ax = abs4(x);
        let a2 = _mm256_mul_pd(_mm256_set1_pd(2.0), ax);
        // finite && (7.77e-5..2^24).contains(a) && 2a != trunc(2a)
        _mm256_and_pd(
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(ax, _mm256_set1_pd(7.77e-5)),
                _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(16_777_216.0)),
            ),
            _mm256_cmp_pd::<_CMP_NEQ_OQ>(a2, _mm256_round_pd::<TRUNC>(a2)),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn eval<const PREFIX: bool>(xd: __m256d) -> __m256d {
        let c = |v: f64| _mm256_set1_pd(v);
        let a = abs4(xd);
        let (k, l) = mod2_split4(a);
        let upper = _mm256_cmp_pd::<_CMP_GT_OQ>(l, c(0.5));
        let lp = _mm256_blendv_pd(l, _mm256_sub_pd(c(1.0), l), upper);
        // n in 0..=255 for staged lanes (lp < 1/2: half-integers are
        // filtered by the dom mask and placeholders land at lp = 0);
        // clamp is gather-safety only.
        let n = _mm_min_epi32(
            _mm256_cvttpd_epi32(_mm256_mul_pd(lp, c(512.0))),
            _mm_set1_epi32(255),
        );
        let n0 = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_cmpeq_epi32(n, _mm_setzero_si128())));
        // n == 0 branch: pure polynomial at lp.
        let v0 = cospi_tier4::<PREFIX>(lp);
        // n >= 1 branch: complementary recombination at np = n + 1.
        let np = _mm_add_epi32(n, _mm_set1_epi32(1));
        let r = _mm256_sub_pd(_mm256_div_pd(_mm256_cvtepi32_pd(np), c(512.0)), lp);
        let sp = sinpi_tier4::<PREFIX>(r);
        let cp = cospi_tier4::<PREFIX>(r);
        let v1 = if PREFIX {
            // Hi-only gathers, no corr fold (mirror of the scalar
            // prefix): v = ch·cp + sh·sp
            let ch = gather_cospi_hi4(np);
            let sh = gather_hi4(&t::SINPI_T_P, np, t::SINPI_T_HI_BASE);
            _mm256_add_pd(_mm256_mul_pd(ch, cp), _mm256_mul_pd(sh, sp))
        } else {
            let (ch, cl) = gather_cospi4(np);
            let (sh, sl) =
                gather_packed4(&t::SINPI_T_P, np, t::SINPI_T_HI_BASE, t::SINPI_T_LO_BASE);
            // corr = cl·cp + sl·sp; v = ch·cp + (sh·sp + corr)
            let corr = _mm256_add_pd(_mm256_mul_pd(cl, cp), _mm256_mul_pd(sl, sp));
            _mm256_add_pd(_mm256_mul_pd(ch, cp), _mm256_add_pd(_mm256_mul_pd(sh, sp), corr))
        };
        let v = _mm256_blendv_pd(v1, v0, n0);
        // sign = k ^ m(irror)
        let neg = _mm256_xor_pd(k, upper);
        negate_where(v, neg)
    }
}

#[cfg(test)]
mod tests {
    use super::super::LANES;
    use super::SimdLane;
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
        if !super::avx2_available() {
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
        for name in crate::F32_NAMES {
            crate::eval_slice_f32(name, &xs, &mut out).expect("known name");
            for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name}[{i}]: x = {x:e} ({:#010x}): simd slice {got:e} vs scalar {want:e}",
                    x.to_bits()
                );
            }
        }
    }

    /// Partial chunks (tail shorter than the lane width, including
    /// shorter than one 4-lane group) pad with the placeholder and must
    /// still resolve every real lane correctly.
    #[test]
    fn simd_partial_chunks_match_scalar() {
        if !super::avx2_available() {
            return;
        }
        for len in [1usize, 3, 4, 5, 63, 64, 65, 67, 127, 130] {
            let xs: Vec<f32> = (0..len).map(|i| 0.3 + i as f32 * 0.41).collect();
            let mut out = vec![0.0f32; len];
            for name in crate::F32_NAMES {
                crate::eval_slice_f32(name, &xs, &mut out).expect("known name");
                for (&x, &got) in xs.iter().zip(out.iter()) {
                    let want = crate::eval_f32_by_name(name, x).expect("known name");
                    assert_eq!(got.to_bits(), want.to_bits(), "{name}({x:e}) len {len}");
                }
            }
        }
    }

    /// The vectorized safety mask agrees with the scalar predicate on
    /// every lane for random doubles and for values planted exactly at
    /// band edges, and every accepted lane narrows like `as f32`.
    #[test]
    fn round_safe_mask_matches_scalar_predicate() {
        if !super::avx2_available() {
            return;
        }
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
                let mask = unsafe { f32::safe_narrow(&y, band, u16::MAX, &mut out) };
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
    fn decode_all(patterns: &[u32]) -> Vec<f64> {
        let mut out = Vec::with_capacity(patterns.len());
        for c in patterns.chunks(LANES) {
            let mut xs = [Posit32::ZERO; LANES];
            for (x, &p) in xs.iter_mut().zip(c) {
                *x = Posit32::from_bits(p);
            }
            let mut y = [0.0f64; LANES];
            for g in 0..LANES / 4 {
                unsafe { super::store4(&mut y, g, super::posit32_decode4(&xs, g)) };
            }
            out.extend_from_slice(&y[..c.len()]);
        }
        out
    }

    fn assert_decodes_like_scalar(patterns: &[u32]) {
        for (&p, got) in patterns.iter().zip(decode_all(patterns)) {
            let want = Posit32::from_bits(p).to_f64();
            assert_eq!(got.to_bits(), want.to_bits(), "pattern {p:#010x}: {got:e} vs {want:e}");
        }
    }

    /// The vector decode equals `Posit32::to_f64` bit for bit on every
    /// regime boundary (each run length of ones and zeros, with the
    /// patterns either side of it), both signs, NaR and zero.
    #[test]
    fn posit_decode_matches_scalar_codec() {
        if !super::avx2_available() {
            return;
        }
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
        assert_decodes_like_scalar(&patterns);
    }

    /// Every one of the 2^32 patterns (about 30 s in release).
    #[test]
    #[ignore]
    fn posit_decode_exhaustive() {
        if !super::avx2_available() {
            return;
        }
        let mut patterns = vec![0u32; 1 << 20];
        for hi in 0..1u32 << 12 {
            for (lo, p) in patterns.iter_mut().enumerate() {
                *p = (hi << 20) | lo as u32;
            }
            assert_decodes_like_scalar(&patterns);
        }
    }

    /// Every posit row's batched output equals its scalar output on a
    /// stride-127 sample of the 2^32 patterns (about 34M lanes per row;
    /// about ten seconds in release).
    #[test]
    #[ignore]
    fn posit_rows_match_scalar_on_strided_sweep() {
        if !super::avx2_available() {
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
        if !super::avx2_available() {
            return;
        }
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
                let mask = unsafe { Posit32::safe_narrow(&y, band, u16::MAX, &mut out) };
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
        if !super::avx2_available() {
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
            for name in crate::POSIT32_NAMES {
                crate::eval_slice_posit32(name, &xs, &mut out).expect("known name");
                for (&x, &got) in xs.iter().zip(out.iter()) {
                    let want = crate::eval_posit32_by_name(name, x).expect("known name");
                    assert_eq!(got, want, "{name}({:#010x}) len {len}", x.to_bits());
                }
            }
        }
    }
}
