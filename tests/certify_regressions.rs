//! Pinned edge-case regression suite backing the certification sweep
//! (`crates/core/src/certify.rs` + the `certify` bin).
//!
//! The sweep certifies the full 2^32 domain shard by shard; this suite
//! pins the exact bit patterns at every boundary the sweep crosses — the
//! special-case filter thresholds, subnormal edges, overflow cutoffs and
//! NaN/NaR payload space — as fast == dd == oracle triples, so any future
//! kernel or band change that re-breaks a boundary fails here in
//! milliseconds instead of minutes into a full sweep. Any mismatch a
//! full-domain run flushes out gets its bit pattern added to the tables
//! below alongside the source fix.

use rlibm_mp::{correctly_rounded, Func};
use rlibm_posit::Posit32;

/// Canonical NaN policy of the certification sweep: NaN payloads are
/// don't-cares, everything else is compared bit-exactly.
fn canon_f32(y: f32) -> u32 {
    if y.is_nan() {
        0x7FC0_0000
    } else {
        y.to_bits()
    }
}

/// Bit patterns within `steps` ulp-steps of `center`'s pattern (clamped
/// wrapping walk in bit space — every u32 is a legal probe input).
fn ulp_walk(center: f32, steps: i32) -> impl Iterator<Item = u32> {
    let c = center.to_bits();
    (-steps..=steps).map(move |d| c.wrapping_add(d as u32))
}

/// Bit patterns every float function must get right: signed zeros and
/// subnormal edges, the normal/subnormal crossover, extreme finites,
/// infinities, and NaNs across the payload space (both signaling and
/// quiet, both signs).
const F32_UNIVERSAL: &[u32] = &[
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x0000_0001, // min subnormal
    0x8000_0001,
    0x007F_FFFF, // max subnormal
    0x807F_FFFF,
    0x0080_0000, // min normal
    0x8080_0000,
    0x3F80_0000, // 1.0
    0xBF80_0000,
    0x7F7F_FFFF, // max finite
    0xFF7F_FFFF,
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x7F80_0001, // signaling NaN, smallest payload
    0xFF80_0001,
    0x7FBF_FFFF, // signaling NaN, largest payload
    0x7FC0_0000, // quiet NaN
    0xFFC0_0000,
    0x7FFF_FFFF, // quiet NaN, all-ones payload
    0xFFFF_FFFF,
];

/// Function-specific boundary centers: the mathematical overflow and
/// underflow boundaries of each function, and the cuts its front end
/// (`crates/libm/src/front.rs`) actually compares against, probed a few
/// ulps on both sides (and at the negated center) by the test below.
fn f32_centers(f: Func) -> Vec<f32> {
    let common: Vec<f32> = vec![0.5, 1.0, 2.0];
    let mut v = match f {
        // Log family: the subnormal upscaling path and exact powers.
        Func::Ln | Func::Log2 | Func::Log10 => {
            vec![1e-44, 1e-38, 4.0, 10.0, 1024.0, 3.4e38, -1.0]
        }
        // exp overflow ~ 88.72, flush-to-zero ~ -103.97; the front end
        // cuts at 89 and -106.
        Func::Exp => vec![88.72284, -87.33655, -103.97208, 100.0, -200.0, 89.0, -106.0],
        // exp2 overflows at 128, subnormal results below -126, zero below
        // -150; the front end cuts at -151.
        Func::Exp2 => vec![127.999_99, 128.0, -125.999_99, -126.0, -149.0, -150.0, 150.0, -151.0],
        // exp10 overflows ~ 38.53, zero ~ -45.5; the front end cuts at 38.6.
        Func::Exp10 => vec![38.531_84, -37.929_78, -44.853_626, -45.5, 40.0, -50.0, 38.6],
        // sinh/cosh overflow just past 89.41; the fast entries return x
        // (sinh) or 1 (cosh) below 2^-12 and 2^-13.
        Func::Sinh => vec![89.415_985, -89.415_985, 90.0, 2.44e-4, -2.44e-4, 1.0 / 4096.0],
        Func::Cosh => vec![89.415_985, -89.415_985, 90.0, 1.22e-4, -1.22e-4, 1.0 / 8192.0],
        // pi-trig: integer/half-integer thresholds at 2^22..2^24, the
        // tiny-argument linear path near 2^-36 (sinpi's cut) and cospi's
        // cut at 7.77e-5.
        Func::SinPi | Func::CosPi => vec![
            0.25,
            1.5,
            4194304.0,
            8388607.5,
            8388608.0,
            16777216.0,
            1.5e-11,
            -8388607.5,
            1.0 / 68_719_476_736.0,
            7.77e-5,
        ],
    };
    v.extend(common);
    v
}

#[test]
fn f32_boundary_patterns_fast_dd_oracle_agree() {
    for f in Func::ALL {
        let fast = rlibm_math::f32_fn_by_name(f.name()).expect("registry");
        let dd = rlibm_math::f32_dd_fn_by_name(f.name()).expect("registry");
        let mut patterns: Vec<u32> = F32_UNIVERSAL.to_vec();
        for c in f32_centers(f) {
            patterns.extend(ulp_walk(c, 4));
            patterns.extend(ulp_walk(-c, 4));
        }
        let xs: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();
        let mut batched = vec![0.0f32; xs.len()];
        rlibm_math::eval_slice_f32(f.name(), &xs, &mut batched).expect("registry");
        for (&x, &yb) in xs.iter().zip(&batched) {
            let bits = x.to_bits();
            let yf = canon_f32(fast(x));
            let yd = canon_f32(dd(x));
            let yo = canon_f32(correctly_rounded::<f32>(f, x));
            assert_eq!(
                yf, yd,
                "{} fast vs dd mismatch at bit pattern {bits:#010x} (x = {x:e})",
                f.name()
            );
            assert_eq!(
                yd, yo,
                "{} dd vs oracle mismatch at bit pattern {bits:#010x} (x = {x:e})",
                f.name()
            );
            assert_eq!(
                canon_f32(yb),
                yo,
                "{} batched vs oracle mismatch at bit pattern {bits:#010x} (x = {x:e})",
                f.name()
            );
        }
    }
}

/// Posit32 boundary patterns: zero, minpos/maxpos and neighbors, NaR, the
/// unity ring, saturation entries, and the regime-bit ladder (one pattern
/// per leading-run length on both sides of 1.0).
fn posit_patterns() -> Vec<u32> {
    let mut v: Vec<u32> = vec![
        0x0000_0000, // zero
        0x0000_0001, // minpos
        0x0000_0002,
        0x7FFF_FFFE,
        0x7FFF_FFFF, // maxpos
        0x8000_0000, // NaR
        0x8000_0001, // most negative finite
        0xFFFF_FFFF, // -minpos
        0x4000_0000, // 1.0
        0xC000_0000, // -1.0
    ];
    for d in 1..=4u32 {
        v.push(0x4000_0000 - d);
        v.push(0x4000_0000 + d);
        v.push(0xC000_0000u32.wrapping_sub(d));
        v.push(0xC000_0000 + d);
    }
    // Regime ladder: 0b01..., 0b001..., ... and the negative mirrors.
    for k in 1..=28 {
        v.push(1u32 << (30 - k) | 1);
        v.push((1u32 << (30 - k) | 1).wrapping_neg()); // two's complement negation
    }
    // The front ends' own cuts, 4 patterns either side, both signs: the
    // exp saturation cut `ln(maxpos) + 0.5` (maxpos = 2^120), exp2's
    // 120.5, exp10's `log10(maxpos) + 0.5`, sinh/cosh's `ln(maxpos) + 1.5`
    // and the fast sinh's 2^-13.
    const LN_MAXPOS: f64 = 83.17766166719343;
    const LOG10_MAXPOS: f64 = 36.123599478912376;
    for t in [LN_MAXPOS + 0.5, 120.5, LOG10_MAXPOS + 0.5, LN_MAXPOS + 1.5, 1.0 / 8192.0] {
        for c in [t, -t] {
            let p = Posit32::from_f64(c).to_bits();
            v.extend((-4..=4).map(|d: i32| p.wrapping_add(d as u32)));
        }
    }
    v
}

#[test]
fn posit32_boundary_patterns_fast_dd_oracle_agree() {
    let xs: Vec<Posit32> = posit_patterns().into_iter().map(Posit32::from_bits).collect();
    let mut batched = vec![Posit32::ZERO; xs.len()];
    for f in Func::POSIT {
        let fast = rlibm_math::posit32_fn_by_name(f.name()).expect("registry");
        let dd = rlibm_math::posit32_dd_fn_by_name(f.name()).expect("registry");
        rlibm_math::eval_slice_posit32(f.name(), &xs, &mut batched).expect("registry");
        for (&x, &yb) in xs.iter().zip(&batched) {
            let bits = x.to_bits();
            let yf = fast(x).to_bits();
            let yd = dd(x).to_bits();
            let yo = correctly_rounded::<Posit32>(f, x).to_bits();
            assert_eq!(
                yf, yd,
                "{} fast vs dd mismatch at posit pattern {bits:#010x}",
                f.name()
            );
            assert_eq!(
                yd, yo,
                "{} dd vs oracle mismatch at posit pattern {bits:#010x}",
                f.name()
            );
            assert_eq!(
                yb.to_bits(),
                yo,
                "{} batched vs oracle mismatch at posit pattern {bits:#010x}",
                f.name()
            );
        }
    }
}

/// The inputs where the fast and dd tiers once agreed on a wrong result:
/// `LN2_64_MID` / `LN2_64_LO` came out of a multi-precision subtraction
/// that rounded at its short operand's precision (`MpFloat::add`), so
/// every `exp`-family reduction carried an error of `k · 8.6e-16`.
/// Each entry is (function, input, correctly rounded result); the scalar
/// entry, the batched entry, the dd reference and the oracle must all
/// return that result.
const LN2_64_SPLIT_F32: &[(Func, u32, u32)] = &[(Func::Exp, 0x429d_de46, 0x786b_38a5)];
const LN2_64_SPLIT_POSIT32: &[(Func, u32, u32)] = &[
    (Func::Exp, 0x5059_e368, 0x6811_393c),
    (Func::Exp, 0xacee_f95a, 0x100c_4869),
    (Func::Sinh, 0x2172_599a, 0x2174_8bc4),
    (Func::Cosh, 0xb2c4_52cd, 0x5daf_f266),
    (Func::Cosh, 0xc709_3aa4, 0x4149_e7a6),
];

#[test]
fn ln2_64_split_misrounds_are_fixed() {
    for &(f, bits, want) in LN2_64_SPLIT_F32 {
        let x = f32::from_bits(bits);
        let mut batched = [0.0f32];
        rlibm_math::eval_slice_f32(f.name(), &[x], &mut batched).expect("registry");
        let scalar = rlibm_math::f32_fn_by_name(f.name()).expect("registry")(x);
        let dd = rlibm_math::f32_dd_fn_by_name(f.name()).expect("registry")(x);
        let oracle = correctly_rounded::<f32>(f, x);
        for (path, y) in [("scalar", scalar), ("batched", batched[0]), ("dd", dd), ("oracle", oracle)] {
            assert_eq!(y.to_bits(), want, "f32 {}({bits:#010x}) via {path}", f.name());
        }
    }
    for &(f, bits, want) in LN2_64_SPLIT_POSIT32 {
        let x = Posit32::from_bits(bits);
        let mut batched = [Posit32::ZERO];
        rlibm_math::eval_slice_posit32(f.name(), &[x], &mut batched).expect("registry");
        let scalar = rlibm_math::posit32_fn_by_name(f.name()).expect("registry")(x);
        let dd = rlibm_math::posit32_dd_fn_by_name(f.name()).expect("registry")(x);
        let oracle = correctly_rounded::<Posit32>(f, x);
        for (path, y) in [("scalar", scalar), ("batched", batched[0]), ("dd", dd), ("oracle", oracle)] {
            assert_eq!(y.to_bits(), want, "posit32 {}({bits:#010x}) via {path}", f.name());
        }
    }
}
