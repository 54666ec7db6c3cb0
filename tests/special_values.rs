//! Satellite: the full special-value matrix through every public entry
//! point — scalar two-tier (`fast`), dd-only (`*_dd_fn_by_name`), and the batched
//! slice API — asserting no panic and correct special semantics.
//!
//! The three entry points must agree bit-for-bit on every special (they
//! are documented as bit-identical), and the specials themselves must
//! follow IEEE/posit conventions: NaN propagates (any payload), signed
//! zeros and infinities map per function family, posit NaR is absorbing.

use rlibm::math::{F32_NAMES, POSIT32_NAMES};
use rlibm::posit::Posit32;

/// NaN payload variants, ±0, ±inf, subnormal boundaries, normal
/// boundaries, and near-domain-edge magnitudes.
fn f32_special_matrix() -> Vec<f32> {
    vec![
        f32::NAN,
        f32::from_bits(0x7FC0_0001), // quiet NaN, low payload bit
        f32::from_bits(0x7FFF_FFFF), // quiet NaN, all-ones payload
        f32::from_bits(0xFFC0_0000), // negative quiet NaN
        f32::from_bits(0x7F80_0001), // signalling NaN
        f32::from_bits(0xFF80_0001), // negative signalling NaN
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(1),           // smallest positive subnormal
        f32::from_bits(0x8000_0001), // smallest negative subnormal
        f32::from_bits(0x007F_FFFF), // largest subnormal
        f32::from_bits(0x807F_FFFF),
        f32::MIN_POSITIVE,           // smallest normal
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        1.0,
        -1.0,
        0.5,
        2.5, // sinpi/cospi half-integer exact case
        88.72283,   // just under exp overflow
        88.722855,  // just over
        -87.33655,  // exp underflow edge
        128.0,      // exp2 overflow
        -149.0,     // exp2 subnormal output
        38.53184,   // exp10 overflow edge
        -45.0,
        89.0, 90.0, -89.0, -90.0, // sinh/cosh saturation band
        8_388_608.0,   // 2^23: sinpi integer threshold
        16_777_216.0,  // 2^24
        -8_388_609.0,
    ]
}

#[test]
fn f32_specials_agree_across_all_entry_points() {
    let xs = f32_special_matrix();
    let mut slice_out = vec![0.0f32; xs.len()];
    for name in F32_NAMES {
        let fast = rlibm::math::f32_fn_by_name(name).expect("known name");
        let dd = rlibm::math::f32_dd_fn_by_name(name).expect("known name");
        rlibm::math::eval_slice_f32(name, &xs, &mut slice_out).expect("known name");
        for (&x, &via_slice) in xs.iter().zip(slice_out.iter()) {
            let via_fast = fast(x);
            let via_dd = dd(x);
            let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
            assert!(
                same(via_fast, via_dd),
                "{name}({x:e} = {:#010x}): fast {via_fast:e} != dd {via_dd:e}",
                x.to_bits()
            );
            assert!(
                same(via_fast, via_slice),
                "{name}({x:e}): fast {via_fast:e} != slice {via_slice:e}"
            );
        }
    }
}

#[test]
fn f32_nan_propagates_for_every_payload() {
    let nans = [
        f32::NAN,
        f32::from_bits(0x7FC0_0001),
        f32::from_bits(0x7FFF_FFFF),
        f32::from_bits(0xFFC0_0000),
        f32::from_bits(0x7F80_0001),
        f32::from_bits(0xFF80_0001),
    ];
    for name in F32_NAMES {
        let fast = rlibm::math::f32_fn_by_name(name).expect("known name");
        for &x in &nans {
            assert!(fast(x).is_nan(), "{name}(NaN {:#010x}) must be NaN", x.to_bits());
        }
    }
}

#[test]
fn f32_infinity_and_zero_semantics() {
    use rlibm::math as m;
    let inf = f32::INFINITY;
    // exp family: e^inf = inf, e^-inf = +0, f(0) = 1 exactly.
    for name in ["exp", "exp2", "exp10"] {
        let f = m::f32_fn_by_name(name).expect("known");
        assert_eq!(f(inf), inf, "{name}");
        assert_eq!(f(-inf).to_bits(), 0.0f32.to_bits(), "{name}(-inf) must be +0");
        assert_eq!(f(0.0), 1.0, "{name}(0)");
        assert_eq!(f(-0.0), 1.0, "{name}(-0)");
    }
    // log family: f(inf) = inf, f(+0) = f(-0) = -inf, f(x<0) = NaN.
    for name in ["ln", "log2", "log10"] {
        let f = m::f32_fn_by_name(name).expect("known");
        assert_eq!(f(inf), inf, "{name}");
        assert_eq!(f(0.0), -inf, "{name}(+0)");
        assert_eq!(f(-0.0), -inf, "{name}(-0)");
        assert!(f(-1.0).is_nan(), "{name}(-1) must be NaN");
        assert!(f(-inf).is_nan(), "{name}(-inf) must be NaN");
    }
    // sinh: odd, ±inf -> ±inf, ±0 -> ±0. cosh: even, ±inf -> +inf, ±0 -> 1.
    let sinh = m::f32_fn_by_name("sinh").expect("known");
    assert_eq!(sinh(inf), inf);
    assert_eq!(sinh(-inf), -inf);
    assert_eq!(sinh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(sinh(-0.0).to_bits(), (-0.0f32).to_bits(), "sinh(-0) must be -0");
    let cosh = m::f32_fn_by_name("cosh").expect("known");
    assert_eq!(cosh(inf), inf);
    assert_eq!(cosh(-inf), inf);
    assert_eq!(cosh(0.0), 1.0);
    assert_eq!(cosh(-0.0), 1.0);
    // sinpi/cospi: NaN at ±inf; sinpi(±0) = ±0; cospi(±0) = 1.
    let sinpi = m::f32_fn_by_name("sinpi").expect("known");
    let cospi = m::f32_fn_by_name("cospi").expect("known");
    assert!(sinpi(inf).is_nan());
    assert!(sinpi(-inf).is_nan());
    assert!(cospi(inf).is_nan());
    assert!(cospi(-inf).is_nan());
    assert_eq!(sinpi(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(sinpi(-0.0).to_bits(), (-0.0f32).to_bits(), "sinpi(-0) must be -0");
    assert_eq!(cospi(0.0), 1.0);
    assert_eq!(cospi(-0.0), 1.0);
}

#[test]
fn f32_subnormal_boundaries_are_finite_and_consistent() {
    // Subnormal inputs must not panic anywhere and must round-trip the
    // two-tier identity; outputs at the subnormal output boundary (e.g.
    // exp2(-149)) must be handled by both tiers identically (checked in
    // f32_specials_agree_across_all_entry_points); here: basic sanity.
    let subs = [
        f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        f32::MIN_POSITIVE,
        -f32::from_bits(1),
    ];
    for &x in &subs {
        // ln(tiny) is a large negative number, never NaN/inf for x > 0.
        if x > 0.0 {
            let y = rlibm::math::ln(x);
            assert!(y.is_finite() && y < -80.0, "ln({x:e}) = {y}");
        }
        assert_eq!(rlibm::math::exp(x) , 1.0, "exp(subnormal) rounds to 1");
        // sinh(x) ~ x for tiny x: exact at subnormal scale.
        assert_eq!(rlibm::math::sinh(x).to_bits(), x.to_bits(), "sinh(tiny) == tiny");
        assert_eq!(rlibm::math::cosh(x), 1.0);
        assert_eq!(rlibm::math::sinpi(x).to_bits(), (core::f32::consts::PI * x).to_bits());
        assert_eq!(rlibm::math::cospi(x), 1.0);
    }
}

fn posit_special_matrix() -> Vec<Posit32> {
    vec![
        Posit32::NAR,
        Posit32::ZERO,
        Posit32::MINPOS,
        Posit32::MAXPOS,
        Posit32::from_bits(Posit32::MAXPOS.to_bits().wrapping_neg()), // -maxpos
        Posit32::from_bits(Posit32::MINPOS.to_bits().wrapping_neg()), // -minpos
        Posit32::ONE,
        Posit32::from_f64(-1.0),
        Posit32::from_f64(83.0),  // just under exp saturation
        Posit32::from_f64(84.0),  // just over
        Posit32::from_f64(-84.0),
        Posit32::from_f64(120.0), // exp2 saturation band
        Posit32::from_f64(121.0),
        Posit32::from_f64(36.0),  // exp10 saturation band
        Posit32::from_f64(37.0),
        Posit32::from_f64(0.5),
        Posit32::from_f64(2.0),
    ]
}

#[test]
fn posit32_specials_agree_across_all_entry_points() {
    let xs = posit_special_matrix();
    let mut slice_out = vec![Posit32::ZERO; xs.len()];
    for name in POSIT32_NAMES {
        let fast = rlibm::math::posit32_fn_by_name(name).expect("known name");
        let dd = rlibm::math::posit32_dd_fn_by_name(name).expect("known name");
        rlibm::math::eval_slice_posit32(name, &xs, &mut slice_out).expect("known name");
        for (&x, &via_slice) in xs.iter().zip(slice_out.iter()) {
            let via_fast = fast(x);
            let via_dd = dd(x);
            assert_eq!(via_fast, via_dd, "{name}({:#010x}): fast != dd", x.to_bits());
            assert_eq!(via_fast, via_slice, "{name}({:#010x}): fast != slice", x.to_bits());
        }
    }
}

#[test]
fn posit32_nar_is_absorbing_and_saturation_is_correct() {
    for name in POSIT32_NAMES {
        let f = rlibm::math::posit32_fn_by_name(name).expect("known name");
        assert!(f(Posit32::NAR).is_nar(), "{name}(NaR) must be NaR");
    }
    // Log family: zero and negatives have no posit result -> NaR.
    for name in ["ln", "log2", "log10"] {
        let f = rlibm::math::posit32_fn_by_name(name).expect("known name");
        assert!(f(Posit32::ZERO).is_nar(), "{name}(0) must be NaR");
        assert!(f(Posit32::from_f64(-2.0)).is_nar(), "{name}(-2) must be NaR");
    }
    // Exp family: posits never overflow — saturate at maxpos/minpos.
    let exp = rlibm::math::posit32_fn_by_name("exp").expect("known name");
    assert_eq!(exp(Posit32::MAXPOS), Posit32::MAXPOS, "exp(maxpos) saturates");
    assert_eq!(
        exp(Posit32::from_bits(Posit32::MAXPOS.to_bits().wrapping_neg())),
        Posit32::MINPOS,
        "exp(-maxpos) saturates at minpos, not zero"
    );
    assert_eq!(exp(Posit32::ZERO), Posit32::ONE);
    // cosh lower bound: cosh(x) >= 1, and cosh(0) = 1 exactly.
    let cosh = rlibm::math::posit32_fn_by_name("cosh").expect("known name");
    assert_eq!(cosh(Posit32::ZERO), Posit32::ONE);
}
