//! Delta tests for the per-tier runtime counters
//! (`runtime.tier.{prefix,full,dd}.*`), designed to run in BOTH build
//! configurations (see `tests/telemetry.rs` for the convention):
//! telemetry ON via any whole-workspace test run, telemetry OFF via
//! `cargo test -p rlibm`. ci.sh runs this file explicitly in both.
//!
//! The invariant under test: every call that enters a front end
//! in-domain ships from **exactly one** tier, so the three counter
//! deltas sum to the number of in-domain calls — scalar and batched
//! alike. With telemetry off, every counter must stay zero.

use rlibm_math::{stats, F32_NAMES, POSIT32_NAMES};
use rlibm_posit::Posit32;

/// Deterministic in-domain workload: values in `(0.5, 2.0)`, never an
/// exact integer (sinpi/cospi short-circuit those before the tiers).
fn workload(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    let mut xs = Vec::with_capacity(n);
    while xs.len() < n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let x = 0.5 + 1.5 * ((state >> 11) as f64 / (1u64 << 53) as f64);
        let x = x as f32;
        if x.fract() != 0.0 && x > 0.5 {
            xs.push(x);
        }
    }
    xs
}

/// The counters are process-global and the test harness runs tests on
/// parallel threads: two tests touching the same slots would see each
/// other's increments inside their deltas. Every test holds this lock.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn snapshot(slot: usize) -> (u64, u64, u64) {
    (stats::tier_prefix(slot), stats::tier_full(slot), stats::tier_dd(slot))
}

#[test]
fn scalar_calls_land_in_exactly_one_tier() {
    let _serial = serial();
    let xs = workload(0x5eed, 4_000);
    for name in F32_NAMES {
        let slot = stats::f32_slot_by_name(name).expect("slot");
        let (p0, f0, d0) = snapshot(slot);
        for &x in &xs {
            let _ = rlibm_math::eval_f32_by_name(name, x).expect("known fn");
        }
        let (p1, f1, d1) = snapshot(slot);
        let (dp, df, dd) = (p1 - p0, f1 - f0, d1 - d0);
        if stats::enabled() {
            assert_eq!(
                dp + df + dd,
                xs.len() as u64,
                "{name}: every in-domain call ships from exactly one tier"
            );
            assert!(
                dp * 10 >= (xs.len() as u64) * 8,
                "{name}: prefix tier should carry >= 80% of a central workload, got {dp}/{}",
                xs.len()
            );
        } else {
            assert_eq!((dp, df, dd), (0, 0, 0), "{name}: telemetry off -> counters stay zero");
        }
    }
}

#[test]
fn posit_calls_land_in_exactly_one_tier() {
    let _serial = serial();
    let xs: Vec<Posit32> =
        workload(0x9057, 2_000).iter().map(|&x| Posit32::from_f64(x as f64)).collect();
    for name in POSIT32_NAMES {
        let slot = stats::posit32_slot_by_name(name).expect("slot");
        let f = rlibm_math::posit32_fn_by_name(name).expect("known fn");
        let (p0, f0, d0) = snapshot(slot);
        let scalar: Vec<Posit32> = xs.iter().map(|&x| f(x)).collect();
        let (p1, f1, d1) = snapshot(slot);
        let (dp, df, dd) = (p1 - p0, f1 - f0, d1 - d0);
        if stats::enabled() {
            assert_eq!(dp + df + dd, xs.len() as u64, "{name}: one tier per posit call");
        } else {
            assert_eq!((dp, df, dd), (0, 0, 0));
        }

        // The same in-domain lanes through one batched call. Only the sum
        // is pinned: the staged chunk kernels read both table words where
        // the scalar prefix reads only the hi word, so a lane may ship
        // from a different tier than its scalar call did.
        let mut out = vec![Posit32::ZERO; xs.len()];
        rlibm_math::eval_slice_posit32(name, &xs, &mut out).expect("known fn");
        let (p2, f2, d2) = snapshot(slot);
        let (dp, df, dd) = (p2 - p1, f2 - f1, d2 - d1);
        if stats::enabled() {
            assert_eq!(
                dp + df + dd,
                xs.len() as u64,
                "{name}: batched posit lanes must tier-account exactly once each"
            );
        } else {
            assert_eq!((dp, df, dd), (0, 0, 0));
        }
        assert_eq!(out, scalar, "{name}: batched outputs match the scalar calls");
    }
}

#[test]
fn batched_lanes_land_in_exactly_one_tier() {
    let _serial = serial();
    // 130 lanes = two full chunks + a partial one in the scalar slice
    // driver, and a partial SIMD chunk when the feature is on.
    let xs = workload(0xba7c4, 130);
    let mut out = vec![0.0f32; xs.len()];
    for name in F32_NAMES {
        let slot = stats::f32_slot_by_name(name).expect("slot");
        let (p0, f0, d0) = snapshot(slot);
        rlibm_math::eval_slice_f32(name, &xs, &mut out).expect("known fn");
        let (p1, f1, d1) = snapshot(slot);
        let (dp, df, dd) = (p1 - p0, f1 - f0, d1 - d0);
        if stats::enabled() {
            assert_eq!(
                dp + df + dd,
                xs.len() as u64,
                "{name}: batched lanes must tier-account exactly once each"
            );
        } else {
            assert_eq!((dp, df, dd), (0, 0, 0));
        }
        // Tier accounting must never change an output bit: the batched
        // results match the scalar front end exactly.
        let scalar = rlibm_math::f32_fn_by_name(name).expect("known fn");
        for (&x, &y) in xs.iter().zip(&out) {
            assert_eq!(y.to_bits(), scalar(x).to_bits(), "{name}({x:e})");
        }
    }
}
