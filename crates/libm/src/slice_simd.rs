//! AVX2 implementations of the staged slice pipeline (`simd` feature).
//!
//! Every stage of [`super`]'s structure-of-arrays pipeline — domain
//! classification + widen, range reduction, table gather, Horner
//! evaluation, and the bit-pattern round-safety test — is rewritten here
//! with explicit `core::arch::x86_64` intrinsics, four f64 lanes at a
//! time over the same 64-lane chunks.
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
//!   scalar branch would have run.
//!
//! Out-of-domain lanes get the same placeholder (`1.0`) the scalar
//! widen stage uses, so the staged arithmetic stays total and the
//! exponents handed to [`pow2i4`] stay deep inside the normal f64 range
//! (the per-function domain bounds cap `|k/64|` near 155 — see the
//! scalar `fast` kernels' preconditions).
//!
//! The round-safety test vectorizes as a 64-bit lane mask
//! ([`f32_round_safe_mask`], four integer compares per group). The tier
//! escalation mirrors the scalar chunk driver: every stage kernel is
//! monomorphized over `PREFIX` (truncated vs full-degree Horner — the
//! reduction, gather, and recombination ops are tier-invariant), the
//! prefix stage runs first against the wide prefix band, and chunks
//! with surviving in-domain lanes re-run the `PREFIX = false` stage
//! against the narrow full band. Lanes that fail both bands fall
//! through to the scalar progressive entry in the resolve loop, counted
//! by the existing `runtime.slice.f32.rescalar_lanes` counter — same
//! fallback semantics, same telemetry, as the scalar driver — and
//! prefix/full acceptances land batched in the same `runtime.tier.*`
//! counters the scalar front ends use.
//!
//! The `fault` feature's injection sites live in the scalar front ends;
//! like the scalar staged pipeline, the SIMD stages bypass them, and
//! rescalar lanes re-enter the hooked scalar path.

use super::LANES;
use crate::registry::{slot, TIERS};
use crate::tables as t;
use crate::tables_codec as codec;
use core::arch::x86_64::*;

/// Runtime gate for the AVX2 path (cached by std's feature detection).
/// The dispatchers in `super` fall back to the scalar driver when this
/// returns false, so a `simd` build still runs correctly on pre-AVX2
/// hardware.
#[inline]
pub(super) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// A staged chunk kernel: classifies lanes against the function's
/// fast-path domain (returned as a bitmask, lane `i` = bit `i`), widens
/// in-domain lanes (placeholder 1.0 elsewhere), and writes the staged
/// plain-double results. Only 4-lane groups whose bit is set in
/// `groups` are processed — escalations pass just the groups that
/// contain rejected lanes, so a one-lane escalation re-runs one group,
/// not sixteen; skipped groups keep their previous `y` values and
/// report dom bit 0.
///
/// # Safety
/// Requires AVX2 (checked by the dispatchers via [`avx2_available`]).
type StageFn = unsafe fn(&[f32; LANES], &mut [f64; LANES], u16) -> u64;

/// Sign-bit mask for f64 negation/abs.
const SIGN: u64 = 1u64 << 63;

/// Shared SIMD chunk driver: prefix stage, vector safety mask against
/// the wide prefix band, per-lane resolve. Chunks whose in-domain lanes
/// escape the prefix band re-run the full-degree stage and re-test
/// against the narrow full band; lanes that fail both (and special
/// lanes) re-enter the scalar progressive entry. Mirrors `super::drive`
/// exactly, including the per-tier counter accounting.
fn drive_simd(
    xs: &[f32],
    out: &mut [f32],
    prefix_stage: StageFn,
    full_stage: StageFn,
    slot: usize,
    scalar: fn(f32) -> f32,
) {
    assert_eq!(xs.len(), out.len(), "eval_slice: input/output length mismatch");
    let (prefix_band, band) = (TIERS[slot].prefix_band, TIERS[slot].full_band);
    debug_assert!(avx2_available());
    let mut y = [0.0f64; LANES];
    let mut xpad = [1.0f32; LANES];
    let mut chunks = 0u64;
    let mut rescalar = 0u64;
    let mut prefix_hits = 0u64;
    let mut full_hits = 0u64;
    for (xc, oc) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
        chunks += 1;
        let n = xc.len();
        let live = if n == LANES { u64::MAX } else { (1u64 << n) - 1 };
        let xfull: &[f32; LANES] = if n == LANES {
            // SAFETY: chunks(LANES) yields exactly LANES elements here.
            unsafe { &*xc.as_ptr().cast() }
        } else {
            // Final partial chunk: pad with the in-domain-agnostic
            // placeholder; pad lanes are never read back.
            xpad[..n].copy_from_slice(xc);
            &xpad
        };
        // SAFETY: AVX2 presence is checked once by the dispatcher.
        let dom = unsafe { prefix_stage(xfull, &mut y, u16::MAX) };
        let safe = unsafe { f32_round_safe_mask(&y, prefix_band) };
        let ok = dom & safe & live;
        prefix_hits += u64::from(ok.count_ones());
        for i in 0..n {
            if (ok >> i) & 1 == 1 {
                oc[i] = y[i] as f32;
            } else if (dom >> i) & 1 == 0 {
                rescalar += 1;
                oc[i] = super::rescalar_resolve(scalar, xc[i]);
            }
        }
        // In-domain lanes the prefix band rejected: escalate the chunk
        // through the full-degree stage (rare — the prefix bands are
        // sized so well under 1% of in-domain lanes land here).
        let pending = dom & !safe & live;
        if pending != 0 {
            // Re-run only the 4-lane groups that hold a pending lane
            // (typically one of sixteen); the rest keep their shipped
            // prefix results.
            let mut groups = 0u16;
            for g in 0..LANES / 4 {
                if (pending >> (4 * g)) & 0xF != 0 {
                    groups |= 1 << g;
                }
            }
            let _ = unsafe { full_stage(xfull, &mut y, groups) };
            let safe_full = unsafe { f32_round_safe_mask(&y, band) };
            let ok_full = pending & safe_full;
            full_hits += u64::from(ok_full.count_ones());
            for i in 0..n {
                if (pending >> i) & 1 == 0 {
                    continue;
                }
                if (ok_full >> i) & 1 == 1 {
                    oc[i] = y[i] as f32;
                } else {
                    rescalar += 1;
                    oc[i] = super::rescalar_resolve(scalar, xc[i]);
                }
            }
        }
    }
    super::SLICE_CHUNKS.add(chunks);
    super::SLICE_RESCALAR.add(rescalar);
    crate::stats::record_tier_prefix_n(slot, prefix_hits);
    crate::stats::record_tier_full_n(slot, full_hits);
}

/// Vectorized [`crate::round::f32_round_safe`] over a full chunk,
/// returned as a lane bitmask. Same integer test per lane: biased
/// exponent in `897..=1150` (f32-normal results only) and fraction
/// distance to the nearest f32 rounding boundary greater than `band`.
///
/// # Safety
/// Requires AVX2.
#[target_feature(enable = "avx2")]
unsafe fn f32_round_safe_mask(y: &[f64; LANES], band: u64) -> u64 {
    debug_assert!(band < (1 << 26));
    let be_lo = _mm256_set1_epi64x(896); // be > 896  <=>  be >= 897
    let be_hi = _mm256_set1_epi64x(1151); // be < 1151 <=>  be <= 1150
    let be_mask = _mm256_set1_epi64x(0x7ff);
    let frac_mask = _mm256_set1_epi64x(0x1FFF_FFFF);
    // abs_diff(frac, 2^28) > band  <=>  frac > 2^28+band || frac < 2^28-band
    let hi = _mm256_set1_epi64x(0x1000_0000i64 + band as i64);
    let lo = _mm256_set1_epi64x(0x1000_0000i64 - band as i64);
    let mut safe = 0u64;
    for g in 0..LANES / 4 {
        let bits = _mm256_castpd_si256(_mm256_loadu_pd(y.as_ptr().add(4 * g)));
        // Logical shift: the sign bit lands in bit 11 and is masked off,
        // exactly like the scalar `(bits >> 52) & 0x7ff` on u64.
        let be = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), be_mask);
        let in_range =
            _mm256_and_si256(_mm256_cmpgt_epi64(be, be_lo), _mm256_cmpgt_epi64(be_hi, be));
        let frac = _mm256_and_si256(bits, frac_mask);
        let far = _mm256_or_si256(_mm256_cmpgt_epi64(frac, hi), _mm256_cmpgt_epi64(lo, frac));
        let ok = _mm256_and_si256(in_range, far);
        safe |= (_mm256_movemask_pd(_mm256_castsi256_pd(ok)) as u32 as u64 & 0xF) << (4 * g);
    }
    safe
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
// per-function stage kernels
// ---------------------------------------------------------------------

/// Builds an exp-family stage: dom filter (inclusive/exclusive bounds as
/// a const generic pair is overkill — each wrapper inlines its own), and
/// the shared reduction shape is parameterized by a closure that would
/// defeat `target_feature`, so the three wrappers are spelled out.
#[target_feature(enable = "avx2")]
unsafe fn exp_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        // (-106.0..=89.0).contains(&x) — f32 compare, exactly preserved
        // on the exactly-widened doubles. NaN fails both ordered cmps.
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_set1_pd(-106.0)),
            _mm256_cmp_pd::<_CMP_LE_OQ>(x, _mm256_set1_pd(89.0)),
        );
        let xd = placeholder(x, m);
        store4(y, g, exp4::<PREFIX>(xd));
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

#[target_feature(enable = "avx2")]
unsafe fn exp2_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        // (-151.0..128.0): half-open on the right.
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_set1_pd(-151.0)),
            _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(128.0)),
        );
        let xd = placeholder(x, m);
        let k = _mm256_cvtpd_epi32(_mm256_mul_pd(xd, _mm256_set1_pd(64.0)));
        let kf = _mm256_cvtepi32_pd(k);
        // tt = x - k/64 (exact); r = tt·LN2_HI + tt·LN2_LO
        let tt = _mm256_sub_pd(xd, _mm256_div_pd(kf, _mm256_set1_pd(64.0)));
        let r = _mm256_add_pd(
            _mm256_mul_pd(tt, _mm256_set1_pd(t::LN2_HI)),
            _mm256_mul_pd(tt, _mm256_set1_pd(t::LN2_LO)),
        );
        store4(y, g, exp_combined4::<PREFIX>(k, r));
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

#[target_feature(enable = "avx2")]
unsafe fn exp10_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        // (-45.5..=38.6): 38.6 here is the f32 literal widened exactly.
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GE_OQ>(x, _mm256_set1_pd(-45.5f32 as f64)),
            _mm256_cmp_pd::<_CMP_LE_OQ>(x, _mm256_set1_pd(38.6f32 as f64)),
        );
        let xd = placeholder(x, m);
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
        store4(y, g, exp_combined4::<PREFIX>(k, r));
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

/// Shared log-family dom mask: `x > 0 && x < inf` (subnormal f32 widens
/// to normal f64, so the reduction's normal-f64 precondition holds).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn log_dom4(x: __m256d) -> __m256d {
    _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GT_OQ>(x, _mm256_set1_pd(0.0)),
        _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_set1_pd(f64::INFINITY)),
    )
}

#[target_feature(enable = "avx2")]
unsafe fn ln_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        let m = log_dom4(x);
        let xd = placeholder(x, m);
        let (ef, j, u) = log_reduce4(xd);
        let p = log1p_tier4::<PREFIX>(u);
        let v = if PREFIX {
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
        };
        store4(y, g, v);
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

#[target_feature(enable = "avx2")]
unsafe fn log2_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        let m = log_dom4(x);
        let xd = placeholder(x, m);
        let (ef, j, u) = log_reduce4(xd);
        let p = log1p_tier4::<PREFIX>(u);
        let v = if PREFIX {
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
        };
        store4(y, g, v);
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

#[target_feature(enable = "avx2")]
unsafe fn log10_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        let m = log_dom4(x);
        let xd = placeholder(x, m);
        let (ef, j, u) = log_reduce4(xd);
        let p = log1p_tier4::<PREFIX>(u);
        let v = if PREFIX {
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
        };
        store4(y, g, v);
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

/// sinh/cosh share the dominant `e^|x|` pipeline; the small-|x| Taylor
/// branch becomes a blend (both sides are computed with the scalar
/// branch's exact op sequence, each lane keeps the one the scalar code
/// would have taken).
#[target_feature(enable = "avx2")]
unsafe fn sinh_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let c = |v: f64| _mm256_set1_pd(v);
    let tiny = 2f32.powi(-12) as f64;
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        let ax = abs4(x);
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(ax, c(90.0)),
            _mm256_cmp_pd::<_CMP_GE_OQ>(ax, c(tiny)),
        );
        let xd = placeholder(x, m);
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
        store4(y, g, negate_where(v, neg));
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

#[target_feature(enable = "avx2")]
unsafe fn cosh_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    let c = |v: f64| _mm256_set1_pd(v);
    let tiny = 2f32.powi(-13) as f64;
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        let ax = abs4(x);
        let m = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(ax, c(90.0)),
            _mm256_cmp_pd::<_CMP_GE_OQ>(ax, c(tiny)),
        );
        let xd = placeholder(x, m);
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
        store4(y, g, _mm256_blendv_pd(v_big, v_small, small));
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

/// The trig reductions' "branch-heavy mirror folds" become mask blends;
/// this vectorizes the lanes the scalar slice path evaluates per lane.
#[target_feature(enable = "avx2")]
unsafe fn sinpi_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
    let c = |v: f64| _mm256_set1_pd(v);
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        let ax = abs4(x);
        // finite && a < 2^23 && a >= 2^-36 && a != trunc(a)
        let m = _mm256_and_pd(
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_LT_OQ>(ax, c(8_388_608.0)),
                _mm256_cmp_pd::<_CMP_GE_OQ>(ax, c(2f64.powi(-36))),
            ),
            _mm256_cmp_pd::<_CMP_NEQ_OQ>(ax, _mm256_round_pd::<TRUNC>(ax)),
        );
        let xd = placeholder(x, m);
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
        store4(y, g, negate_where(v, neg));
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

#[target_feature(enable = "avx2")]
unsafe fn cospi_stage<const PREFIX: bool>(xs: &[f32; LANES], y: &mut [f64; LANES], groups: u16) -> u64 {
    const TRUNC: i32 = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
    let c = |v: f64| _mm256_set1_pd(v);
    let mut dom = 0u64;
    for g in 0..LANES / 4 {
        if groups & (1 << g) == 0 {
            continue;
        }
        let x = widen4(xs, g);
        let ax = abs4(x);
        let a2 = _mm256_mul_pd(c(2.0), ax);
        // finite && (7.77e-5..2^24).contains(a) && 2a != trunc(2a)
        let m = _mm256_and_pd(
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(ax, c(7.77e-5)),
                _mm256_cmp_pd::<_CMP_LT_OQ>(ax, c(16_777_216.0)),
            ),
            _mm256_cmp_pd::<_CMP_NEQ_OQ>(a2, _mm256_round_pd::<TRUNC>(a2)),
        );
        let xd = placeholder(x, m);
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
        store4(y, g, negate_where(v, neg));
        dom |= ((_mm256_movemask_pd(m) as u32 as u64) & 0xF) << (4 * g);
    }
    dom
}

// ---------------------------------------------------------------------
// dispatch targets (called by the entry points in `super`)
// ---------------------------------------------------------------------

pub(super) fn exp_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        exp_stage::<true>,
        exp_stage::<false>,
        slot::EXP,
        crate::exp,
    )
}

pub(super) fn exp2_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        exp2_stage::<true>,
        exp2_stage::<false>,
        slot::EXP2,
        crate::exp2,
    )
}

pub(super) fn exp10_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        exp10_stage::<true>,
        exp10_stage::<false>,
        slot::EXP10,
        crate::exp10,
    )
}

pub(super) fn ln_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        ln_stage::<true>,
        ln_stage::<false>,
        slot::LN,
        crate::ln,
    )
}

pub(super) fn log2_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        log2_stage::<true>,
        log2_stage::<false>,
        slot::LOG2,
        crate::log2,
    )
}

pub(super) fn log10_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        log10_stage::<true>,
        log10_stage::<false>,
        slot::LOG10,
        crate::log10,
    )
}

pub(super) fn sinh_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        sinh_stage::<true>,
        sinh_stage::<false>,
        slot::SINH,
        crate::sinh,
    )
}

pub(super) fn cosh_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        cosh_stage::<true>,
        cosh_stage::<false>,
        slot::COSH,
        crate::cosh,
    )
}

pub(super) fn sinpi_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        sinpi_stage::<true>,
        sinpi_stage::<false>,
        slot::SINPI,
        crate::sinpi,
    )
}

pub(super) fn cospi_slice(xs: &[f32], out: &mut [f32]) {
    drive_simd(
        xs,
        out,
        cospi_stage::<true>,
        cospi_stage::<false>,
        slot::COSPI,
        crate::cospi,
    )
}

#[cfg(test)]
mod tests {
    use super::super::LANES;
    use rlibm_fp::rng::XorShift64;

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
    /// band edges.
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
                let mask = unsafe { super::f32_round_safe_mask(&y, band) };
                for (i, &v) in y.iter().enumerate() {
                    assert_eq!(
                        (mask >> i) & 1 == 1,
                        crate::round::f32_round_safe(v, band),
                        "band {band}, lane {i}, y = {v:e} ({:#018x})",
                        v.to_bits()
                    );
                }
            }
        }
    }
}
