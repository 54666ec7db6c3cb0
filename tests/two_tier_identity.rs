//! Certification sweep for the two-tier kernels: the fast-path +
//! fallback composition must be **bit-identical** to the pure
//! double-double reference (`*_dd` entry points) for every function.
//!
//! The dd kernels are validated against the multi-precision oracle by
//! `correctness_f32.rs` / `correctness_posit.rs`; bit agreement here
//! transfers that correctness to the two-tier implementations without
//! paying the oracle's cost, which lets this sweep run orders of
//! magnitude more inputs: the exhaustive bfloat16 domain plus a
//! million-input stratified sample per function in release (scaled down
//! in debug where everything is unoptimized).

use rlibm::gen::par;
use rlibm::gen::validate::{agreement, agreement_par, stratified_f32, stratified_posit32};
use rlibm::mp::Func;

/// Release: 2 signs x 255 exponents x 1961 ~= 1.0M inputs per function.
fn per_exponent() -> u32 {
    if cfg!(debug_assertions) {
        40
    } else {
        1961
    }
}

fn posit_count() -> u32 {
    if cfg!(debug_assertions) {
        20_000
    } else {
        1_000_000
    }
}

fn report_failure(name: &str, kind: &str, report: &rlibm::gen::validate::ValidationReport) {
    assert!(
        report.all_correct(),
        "{name} ({kind}): two-tier diverges from dd on {} of {} inputs; first: {:?}",
        report.wrong,
        report.total,
        report.examples.first().map(|e| {
            (
                f32::from_bits(e.0),
                f32::from_bits(e.1),
                f32::from_bits(e.2),
            )
        })
    );
}

/// Every bfloat16 bit pattern, widened exactly into f32 and pushed
/// through the full f32 pipeline (bf16 is a strict subset of f32, so
/// this is an exhaustive domain for the two-tier decision logic's
/// coarse-grid inputs: specials, subnormals, saturation tails included).
#[test]
fn f32_two_tier_matches_dd_on_exhaustive_bf16_domain() {
    let inputs: Vec<f32> = (0..=u16::MAX)
        .map(|b| rlibm::fp::BFloat16::from_bits(b).to_f64() as f32)
        .collect();
    for f in Func::ALL {
        let two_tier = rlibm::math::f32_fn_by_name(f.name()).expect("known name");
        let dd = rlibm::math::f32_dd_fn_by_name(f.name()).expect("known name");
        let report = agreement(two_tier, dd, inputs.iter().copied());
        assert_eq!(report.total, 1 << 16);
        report_failure(f.name(), "bf16 domain", &report);
    }
}

#[test]
fn f32_two_tier_matches_dd_on_stratified_sweep() {
    for f in Func::ALL {
        // Seed differs per function so sweeps don't share mantissas.
        let xs = stratified_f32(per_exponent(), 0x2715 + f.name().len() as u64);
        let two_tier = rlibm::math::f32_fn_by_name(f.name()).expect("known name");
        let dd = rlibm::math::f32_dd_fn_by_name(f.name()).expect("known name");
        let report = agreement_par(two_tier, dd, &xs, par::num_threads());
        report_failure(f.name(), "stratified f32", &report);
    }
}

#[test]
fn posit32_two_tier_matches_dd_on_stratified_sweep() {
    for f in Func::POSIT {
        let xs = stratified_posit32(posit_count(), 0x9051 + f.name().len() as u64);
        let two_tier = rlibm::math::posit32_fn_by_name(f.name()).expect("known name");
        let dd = rlibm::math::posit32_dd_fn_by_name(f.name()).expect("known name");
        let report = agreement_par(two_tier, dd, &xs, par::num_threads());
        report_failure(f.name(), "stratified posit32", &report);
    }
}

/// One checksum over the batched API's outputs on a FIXED input set,
/// pinned to a constant — the feature-matrix identity gate. ci.sh runs
/// this test with default features and again with `--features simd`;
/// both must reproduce the same constant, so the AVX2 staged kernels
/// cannot change a single output bit relative to the scalar reference
/// (which is itself certified against dd above). The input set is
/// deliberately independent of `per_exponent()` so the constant holds
/// in debug and release builds alike: every bf16 pattern (specials,
/// subnormals, saturation tails) plus a fixed 200k-draw biased sweep
/// per function.
#[test]
fn batched_output_checksum_is_feature_invariant() {
    use rlibm_fp::rng::{draw_biased_f32, XorShift64};
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let bf16: Vec<f32> =
        (0..=u16::MAX).map(|b| rlibm::fp::BFloat16::from_bits(b).to_f64() as f32).collect();
    for (i, f) in Func::ALL.iter().enumerate() {
        let mut rng = XorShift64::new(0x51AB_C0DE ^ (i as u64));
        let mut inputs = bf16.clone();
        inputs.extend((0..200_000).map(|_| draw_biased_f32(&mut rng, f.name())));
        let mut out = vec![0.0f32; inputs.len()];
        rlibm::math::eval_slice_f32(f.name(), &inputs, &mut out).expect("known name");
        for y in out {
            // NaNs canonicalized: the identity contract for NaN lanes is
            // "a NaN comes back", not a payload guarantee.
            mix(if y.is_nan() { 0x7FC0_0000 } else { y.to_bits() });
        }
    }
    assert_eq!(
        h, 0x5AE7_6CCE_56B2_6D0E,
        "batched outputs changed: if this fails only with --features simd, \
         the AVX2 kernels diverged from the scalar reference; if it fails \
         in both configs, the kernels changed (re-pin after re-certifying)"
    );
}

/// Posit32 counterpart of the checksum above, over `eval_slice_posit32`.
/// The inputs are every posit32 whose low 16 bits are zero (each
/// regime, sign, zero and NaR, like the bf16 sweep for f32) plus a fixed
/// 200k raw-pattern draw per function. The constant was computed from
/// the *scalar* posit functions before the batched path ran the staged
/// kernels, so it pins the batched path to the scalar outputs, and both
/// to the pre-batching bits.
#[test]
fn posit_batched_output_checksum_is_pinned() {
    use rlibm::posit::Posit32;
    use rlibm_fp::rng::XorShift64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let embedded: Vec<Posit32> =
        (0..=u16::MAX).map(|b| Posit32::from_bits(u32::from(b) << 16)).collect();
    for (i, f) in Func::POSIT.iter().enumerate() {
        let mut rng = XorShift64::new(0x9051_C0DE ^ (i as u64));
        let mut inputs = embedded.clone();
        inputs.extend((0..200_000).map(|_| Posit32::from_bits(rng.next_u32())));
        let mut out = vec![Posit32::ZERO; inputs.len()];
        rlibm::math::eval_slice_posit32(f.name(), &inputs, &mut out).expect("known name");
        for y in out {
            mix(y.to_bits());
        }
    }
    assert_eq!(h, 0x9d41_c3e3_ef4a_3d40, "batched posit32 outputs changed");
}

/// The batched API must agree bit-for-bit with the scalar two-tier
/// functions on the same stratified inputs (plus every bf16 pattern).
#[test]
fn batched_matches_scalar_on_stratified_sweep() {
    let mut inputs: Vec<f32> = (0..=u16::MAX)
        .map(|b| rlibm::fp::BFloat16::from_bits(b).to_f64() as f32)
        .collect();
    inputs.extend(stratified_f32(per_exponent() / 4 + 1, 0xBA7C));
    let mut out = vec![0.0f32; inputs.len()];
    for f in Func::ALL {
        rlibm::math::eval_slice_f32(f.name(), &inputs, &mut out).expect("known name");
        let scalar = rlibm::math::f32_fn_by_name(f.name()).expect("known name");
        for (&x, &got) in inputs.iter().zip(out.iter()) {
            let want = scalar(x);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{}({x:e}): batched {got:e} vs scalar {want:e}",
                f.name()
            );
        }
    }
}
