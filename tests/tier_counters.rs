//! Delta tests for the per-tier runtime counters
//! (`runtime.tier.{prefix,dd}.*`), designed to run in BOTH build
//! configurations (see `tests/telemetry.rs` for the convention):
//! telemetry ON via any whole-workspace test run, telemetry OFF via
//! `cargo test -p rlibm`. ci.sh runs this file explicitly in both, and
//! with and without `simd`, so the batched tests cover both lanes of the
//! batched driver (AVX2 and f64).
//!
//! The invariants under test: every call that enters a front end
//! in-domain ships from **exactly one** of the two steps, so the prefix
//! and dd deltas sum to the number of in-domain calls — scalar and
//! batched alike — and the batched driver resolves through the scalar
//! entry exactly its special lanes plus the in-domain lanes the band
//! rejected. No call ships from a full tier: `tier_full` reads 0 in both
//! configurations. With telemetry off, every counter must stay zero.

use rlibm_math::{stats, F32_NAMES, POSIT32_NAMES};
use rlibm_posit::Posit32;

/// Deterministic in-domain workload: values in `(0.5, 2.0)`, never an
/// exact integer (sinpi/cospi short-circuit those before the kernel).
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

/// `(prefix, dd)` for `slot`; the full-tier accessor must read 0.
fn snapshot(slot: usize) -> (u64, u64) {
    assert_eq!(stats::tier_full(slot), 0, "slot {slot}: no call ships from a full tier");
    (stats::tier_prefix(slot), stats::tier_dd(slot))
}

/// The batched driver's rescalar-lane counter of `kind`.
fn rescalar_lanes(kind: &str) -> u64 {
    let name = format!("runtime.slice.{kind}.rescalar_lanes");
    rlibm_obs::snapshot().counter(&name).unwrap_or(0)
}

#[test]
fn scalar_calls_land_in_exactly_one_tier() {
    let _serial = serial();
    let xs = workload(0x5eed, 4_000);
    for name in F32_NAMES {
        let slot = stats::f32_slot_by_name(name).expect("slot");
        let (p0, d0) = snapshot(slot);
        for &x in &xs {
            let _ = rlibm_math::eval_f32_by_name(name, x).expect("known fn");
        }
        let (p1, d1) = snapshot(slot);
        let (dp, dd) = (p1 - p0, d1 - d0);
        if stats::enabled() {
            assert_eq!(dp + dd, xs.len() as u64, "{name}: every in-domain call ships from exactly one tier");
            assert!(
                dp * 10 >= (xs.len() as u64) * 8,
                "{name}: the fast step should carry >= 80% of a central workload, got {dp}/{}",
                xs.len()
            );
        } else {
            assert_eq!((dp, dd), (0, 0), "{name}: telemetry off -> counters stay zero");
        }
    }
}

#[test]
fn posit_calls_land_in_exactly_one_tier() {
    let _serial = serial();
    // In-domain lanes plus NaR lanes, special for every function.
    let mut xs: Vec<Posit32> =
        workload(0x9057, 2_000).iter().map(|&x| Posit32::from_f64(x as f64)).collect();
    for i in [0, 63, 64, 1999] {
        xs.insert(i, Posit32::NAR);
    }
    let in_domain = xs.iter().filter(|&&x| x != Posit32::NAR).count() as u64;
    let specials = xs.len() as u64 - in_domain;
    for name in POSIT32_NAMES {
        let slot = stats::posit32_slot_by_name(name).expect("slot");
        let f = rlibm_math::posit32_fn_by_name(name).expect("known fn");
        let (p0, d0) = snapshot(slot);
        let scalar: Vec<Posit32> = xs.iter().map(|&x| f(x)).collect();
        let (p1, d1) = snapshot(slot);
        let (sp, sd) = (p1 - p0, d1 - d0);
        if stats::enabled() {
            assert_eq!(sp + sd, in_domain, "{name}: one tier per posit call");
        } else {
            assert_eq!((sp, sd), (0, 0));
        }

        // The same lanes through one batched call. The driver runs the
        // scalar entry's kernel and band, so each in-domain lane ships
        // from the same tier as its scalar call, and the rescalar lanes
        // are the NaR lanes plus the band-rejected ones.
        let r0 = rescalar_lanes("posit32");
        let mut out = vec![Posit32::ZERO; xs.len()];
        rlibm_math::eval_slice_posit32(name, &xs, &mut out).expect("known fn");
        let (p2, d2) = snapshot(slot);
        let (dp, dd) = (p2 - p1, d2 - d1);
        let rescalar = rescalar_lanes("posit32") - r0;
        if stats::enabled() {
            assert_eq!((dp, dd), (sp, sd), "{name}: batched lanes ship from their scalar tier");
            assert_eq!(rescalar, specials + (in_domain - dp), "{name}: rescalar lanes");
        } else {
            assert_eq!((dp, dd, rescalar), (0, 0, 0));
        }
        assert_eq!(out, scalar, "{name}: batched outputs match the scalar calls");
    }
}

#[test]
fn batched_lanes_land_in_exactly_one_tier() {
    let _serial = serial();
    // 130 lanes = two full chunks + a partial one, with special lanes
    // (NaN payloads and infinities, special for every function) spread
    // through all three.
    let mut xs = workload(0xba7c4, 125);
    let specials = [f32::NAN, f32::from_bits(0xFFC0_0001), f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (k, &s) in specials.iter().enumerate() {
        xs.insert(k * 31 + 2, s);
    }
    let in_domain = (xs.len() - specials.len()) as u64;
    let mut out = vec![0.0f32; xs.len()];
    for name in F32_NAMES {
        let slot = stats::f32_slot_by_name(name).expect("slot");
        let (p0, d0) = snapshot(slot);
        let r0 = rescalar_lanes("f32");
        rlibm_math::eval_slice_f32(name, &xs, &mut out).expect("known fn");
        let (p1, d1) = snapshot(slot);
        let (dp, dd) = (p1 - p0, d1 - d0);
        let rescalar = rescalar_lanes("f32") - r0;
        if stats::enabled() {
            assert_eq!(dp + dd, in_domain, "{name}: batched lanes must tier-account exactly once each");
            assert_eq!(
                rescalar,
                specials.len() as u64 + (in_domain - dp),
                "{name}: rescalar lanes are the special lanes plus the band-rejected ones"
            );
        } else {
            assert_eq!((dp, dd, rescalar), (0, 0, 0));
        }
        // Tier accounting must never change an output bit: the batched
        // results match the scalar front end exactly.
        let scalar = rlibm_math::f32_fn_by_name(name).expect("known fn");
        for (&x, &y) in xs.iter().zip(&out) {
            let want = scalar(x);
            assert!(y.to_bits() == want.to_bits() || (y.is_nan() && want.is_nan()), "{name}({x:e})");
        }
    }
}
