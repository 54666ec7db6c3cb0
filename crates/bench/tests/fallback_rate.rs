//! Asserts the tentpole performance claim's precondition: the plain-double
//! fast path must serve the overwhelming majority of inputs, with the
//! certified dd fallback firing only inside the narrow unsafe bands.
//!
//! Everything runs in ONE `#[test]` because the dd-tier counters are
//! process-global atomics; parallel test binaries would race the
//! reset/read windows.

use rlibm_core::validate::{stratified_f32, stratified_posit32};
use rlibm_math::stats;
use rlibm_mp::Func;

/// Release: 2 signs x 255 exponents x 1961 ~= 1.0M inputs per function,
/// matching the ISSUE's "stratified 1M-input sweep".
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

#[test]
fn fast_path_serves_at_least_99_percent() {
    assert!(
        stats::enabled(),
        "bench must be built with rlibm-math/telemetry"
    );

    for f in Func::ALL {
        let xs = stratified_f32(per_exponent(), 0xFA11 + f.name().len() as u64);
        let func = rlibm_math::f32_fn_by_name(f.name()).expect("known name");
        stats::reset();
        for &x in &xs {
            std::hint::black_box(func(x));
        }
        let fallbacks = stats::tier_dd(stats::f32_slot_by_name(f.name()).expect("slot"));
        let rate = fallbacks as f64 / xs.len() as f64;
        assert!(
            rate <= 0.01,
            "{}: dd fallback on {fallbacks} of {} f32 inputs ({:.3}%)",
            f.name(),
            xs.len(),
            rate * 100.0
        );
    }

    for f in Func::POSIT {
        let xs = stratified_posit32(posit_count(), 0xFA11 + f.name().len() as u64);
        let func = rlibm_math::posit32_fn_by_name(f.name()).expect("known name");
        stats::reset();
        for &x in &xs {
            std::hint::black_box(func(x));
        }
        let fallbacks = stats::tier_dd(stats::posit32_slot_by_name(f.name()).expect("slot"));
        let rate = fallbacks as f64 / xs.len() as f64;
        assert!(
            rate <= 0.01,
            "{}: dd fallback on {fallbacks} of {} posit32 inputs ({:.3}%)",
            f.name(),
            xs.len(),
            rate * 100.0
        );
    }
}
