//! Meta-tests keeping the evaluation honest: the baseline models MUST
//! misround somewhere (otherwise Table 1/2's contrast is vacuous), and
//! the specific failure modes the paper describes must be present.

use rlibm::gen::validate::{stratified_f32, validate};
use rlibm::mp::Func;
use rlibm::posit::Posit32;

/// The float-libm model produces wrong results for a visible fraction of
/// inputs (the paper's X(1.7E5)..X(3.0E7) columns).
#[test]
fn float32_baseline_misrounds() {
    let n = if cfg!(debug_assertions) { 2 } else { 20 };
    let xs = stratified_f32(n, 77);
    let mut total_wrong = 0u64;
    for f in Func::ALL {
        let report = validate(
            f,
            rlibm::math::baseline_f32_fn_by_name(f.name()).expect("known name"),
            xs.iter().copied(),
        );
        total_wrong += report.wrong;
    }
    assert!(
        total_wrong > 0,
        "the float baseline must misround somewhere, or Table 1 is vacuous"
    );
}

/// The re-purposed double library fails on posit saturation exactly as
/// the paper's Table 2 describes.
#[test]
fn double_baseline_fails_posit_saturation() {
    // Overflow -> NaR (wrong: should saturate to maxpos).
    let big = Posit32::from_f64(800.0);
    assert!(rlibm::math::baselines::double64::to_posit32("exp", big).is_nar());
    assert_eq!(rlibm::math::eval_posit32_by_name("exp", big).expect("known name"), Posit32::MAXPOS);
    // Underflow -> 0 (wrong: should saturate to minpos).
    let neg = Posit32::from_f64(-800.0);
    assert!(rlibm::math::baselines::double64::to_posit32("exp", neg).is_zero());
    assert_eq!(rlibm::math::eval_posit32_by_name("exp", neg).expect("known name"), Posit32::MINPOS);
    // sinh and cosh share the failure.
    assert!(rlibm::math::baselines::double64::to_posit32("sinh", big).is_nar());
    assert!(rlibm::math::baselines::double64::to_posit32("cosh", big).is_nar());
}

/// Count how often the double model disagrees with the correct posit
/// result over the saturation band: it must be substantial (the paper
/// reports X(4.4E8) over 2^32 — about 10% of all patterns).
#[test]
fn double_baseline_posit_wrong_fraction_is_large() {
    let mut wrong = 0u32;
    let mut total = 0u32;
    // Sweep posits with scale >= 2^10 (values >= 2^10): exp saturates for
    // all of them; the double model overflows for values > ~709.
    for i in 0..2000u32 {
        let x = Posit32::from_f64(2f64.powi(10) * (1.0 + i as f64 / 100.0));
        let correct = rlibm::math::eval_posit32_by_name("exp", x).expect("known name");
        let naive = rlibm::math::baselines::double64::to_posit32("exp", x);
        total += 1;
        if naive != correct {
            wrong += 1;
        }
    }
    assert!(
        wrong > total / 2,
        "saturation-band failures should dominate: {wrong}/{total}"
    );
}

/// Our library and the oracle agree where the baselines disagree: the
/// contrast is real misrounding, not harness artifacts.
#[test]
fn disagreements_are_baseline_faults() {
    let xs = stratified_f32(if cfg!(debug_assertions) { 1 } else { 8 }, 99);
    let mut checked = 0;
    for &x in &xs {
        let base = rlibm::math::baselines::float32::exp10(x);
        let ours = rlibm::math::exp10(x);
        if base.to_bits() != ours.to_bits() && !base.is_nan() {
            let oracle: f32 = rlibm::mp::correctly_rounded(Func::Exp10, x);
            assert_eq!(
                ours.to_bits(),
                oracle.to_bits(),
                "our side of the disagreement at {x:e} must match the oracle"
            );
            checked += 1;
        }
    }
    // With any reasonable sample some disagreements exist.
    if !cfg!(debug_assertions) {
        assert!(checked > 0, "expected at least one disagreement to audit");
    }
}
