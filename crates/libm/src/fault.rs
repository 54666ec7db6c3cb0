//! Deterministic fault injection for the tier-1 fast path.
//!
//! The two-tier design's safety story rests on one claim: whenever the
//! plain-double kernel result is wrong by more than its certified band,
//! the round-safe bit test rejects it and the dd kernel re-runs. This
//! module provides the adversarial evidence. With the `fault` cargo
//! feature, every f32/posit32 front end routes its fast-path result,
//! and the batched driver (on either lane) its prefix-stage results, through
//! `perturb` (a named site, one per [`crate::stats::slot`])
//! which — when a thread-local plan is [`arm`]ed — corrupts the value
//! with a seeded [`rlibm_fp::rng::XorShift64`] stream. Without the
//! feature the hook is an `#[inline(always)]` identity and the library
//! carries zero cost.
//!
//! Three corruption kinds are drawn from the stream:
//!
//! 1. **In-band ULP nudge** — the bit pattern moves by `1..=slack` f64
//!    ulps in the same binade, where `slack = BAND - DERIVED` (the
//!    site's [`crate::registry`] row). The perturbed value's true error
//!    stays `<= BAND`, so *whether or not* the round-safe test accepts,
//!    the final cast is correct: acceptance is proven sound for any
//!    error `<= BAND`, and rejection falls back to dd. This exercises
//!    the band's headroom.
//! 2. **Low fraction-bit flip** — bit `j` with `2^j <= slack` flips
//!    (never the exponent, so the same in-band argument applies).
//! 3. **Catastrophic replacement** — NaN, ±inf, ±0, an f32-subnormal
//!    magnitude, or a huge/tiny out-of-range double. Every such value
//!    lies outside the exponent window both round-safe tests require, so
//!    certification must *reject* and route to dd.
//!
//! In all three cases the contract is the same: the faulted two-tier
//! output must equal the dd reference bit-for-bit. The sweep harness
//! (`rlibm_core::fault`) checks exactly that, per function, across f32
//! and posit32, counting injections per site through [`injected`].

/// Number of injection sites (one per [`crate::stats::slot`]).
pub const SITE_COUNT: usize = crate::stats::slot::COUNT;

/// Registry mirror of the injection total. The per-site atomics below
/// stay authoritative (the sweep asserts exact per-site deltas); this
/// counter puts the grand total next to the tier counters in a
/// telemetry snapshot.
static FAULT_INJECTED: rlibm_obs::Counter = rlibm_obs::Counter::new("runtime.fault.injected");

/// Forces the injection-total mirror into the snapshot registry at zero.
pub(crate) fn register_metrics() {
    FAULT_INJECTED.register();
}

/// Certification slack per site, in f64 ulps: `full.band - full.derived`
/// of the site's registry row (posit rows share the f32 kernels).
#[cfg(feature = "fault")]
pub(crate) fn slack(site: usize) -> u64 {
    let t = &crate::registry::TIERS[site % SITE_COUNT];
    t.full.band - t.full.derived
}

#[cfg(feature = "fault")]
mod imp {
    use core::cell::Cell;
    use core::sync::atomic::{AtomicU64, Ordering};
    use rlibm_fp::rng::XorShift64;

    static INJECTED: [AtomicU64; super::SITE_COUNT] =
        [const { AtomicU64::new(0) }; super::SITE_COUNT];

    thread_local! {
        // Cell<u64>: 0 = disarmed, otherwise the current rng state. A Cell
        // (not RefCell) keeps the hook reentrancy-proof and cheap.
        static PLAN: Cell<u64> = const { Cell::new(0) };
    }

    /// Values rejected by *both* round-safe exponent windows: specials,
    /// zeros, f32-subnormal scale, and out-of-range magnitudes.
    const CATASTROPHIC: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1.469367938527859e-39, // 2^-129: below the f32-normal/posit window
        1.6069380442589903e60, // 2^200: above both windows
        1e-300,                // deep underflow
    ];

    pub fn arm(seed: u64) {
        // Seed 0 would read as "disarmed"; XorShift64 rejects 0 anyway.
        let s = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        PLAN.with(|p| p.set(s));
    }

    pub fn disarm() {
        PLAN.with(|p| p.set(0));
    }

    pub fn armed() -> bool {
        PLAN.with(|p| p.get() != 0)
    }

    pub fn injected(site: usize) -> u64 {
        INJECTED[site % super::SITE_COUNT].load(Ordering::Relaxed)
    }

    pub fn injected_total() -> u64 {
        INJECTED.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    pub fn reset_counters() {
        for c in &INJECTED {
            c.store(0, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn perturb(site: usize, y: f64) -> f64 {
        PLAN.with(|p| {
            let state = p.get();
            if state == 0 {
                return y;
            }
            let mut rng = XorShift64::new(state);
            let r = rng.next_u64();
            p.set(rng.next_u64().max(1));
            let slack = super::slack(site);
            let y2 = corrupt(y, slack, r);
            if y2.to_bits() != y.to_bits() {
                INJECTED[site % super::SITE_COUNT].fetch_add(1, Ordering::Relaxed);
                super::FAULT_INJECTED.add(1);
            }
            y2
        })
    }

    /// Picks a corruption kind from `r`: 1/8 catastrophic, 3/8 bit flip,
    /// 4/8 in-band nudge.
    fn corrupt(y: f64, slack: u64, r: u64) -> f64 {
        debug_assert!(slack >= 1);
        let kind = r & 7;
        let payload = r >> 3;
        if kind == 0 {
            return CATASTROPHIC[(payload % CATASTROPHIC.len() as u64) as usize];
        }
        let bits = y.to_bits();
        let sign = bits & (1u64 << 63);
        let mag = bits & !(1u64 << 63);
        if !y.is_finite() || mag == 0 {
            // The fast path never produces these, but stay total.
            return y;
        }
        if kind <= 3 {
            // Flip fraction bit j with 2^j <= slack: moves the value by
            // exactly 2^j ulps, exponent untouched.
            let max_bit = 63 - slack.leading_zeros(); // floor(log2(slack))
            let j = payload % u64::from(max_bit + 1);
            return f64::from_bits(bits ^ (1u64 << j));
        }
        // In-band nudge: ±(1..=slack) ulps, constrained to the same binade
        // so one ulp keeps one meaning and DERIVED + delta <= BAND stays a
        // theorem. If the first direction would cross the binade (or hit
        // the sign), nudge the other way; slack << 2^52 so one of the two
        // always fits.
        let delta = 1 + payload % slack;
        let exp = mag >> 52;
        let up = mag.wrapping_add(delta);
        let down = mag.wrapping_sub(delta);
        let cand = if payload & 1 == 0 {
            if up >> 52 == exp { up } else { down }
        } else if mag >= delta && down >> 52 == exp {
            down
        } else {
            up
        };
        if cand >> 52 == exp {
            f64::from_bits(sign | cand)
        } else {
            y
        }
    }
}

#[cfg(not(feature = "fault"))]
mod imp {
    pub fn arm(_seed: u64) {}
    pub fn disarm() {}
    pub fn armed() -> bool {
        false
    }
    pub fn injected(_site: usize) -> u64 {
        0
    }
    pub fn injected_total() -> u64 {
        0
    }
    pub fn reset_counters() {}
    #[inline(always)]
    pub fn perturb(_site: usize, y: f64) -> f64 {
        y
    }
}

/// Arms fault injection on the current thread with a deterministic seed.
/// No-op without the `fault` feature.
pub fn arm(seed: u64) {
    imp::arm(seed);
}

/// Disarms fault injection on the current thread.
pub fn disarm() {
    imp::disarm();
}

/// True when the current thread has an armed plan (always false without
/// the `fault` feature — harnesses assert this to fail loudly on a
/// misconfigured build).
pub fn armed() -> bool {
    imp::armed()
}

/// Faults injected at `site` (a [`crate::stats::slot`] index) since the
/// last [`reset_counters`], across all threads.
pub fn injected(site: usize) -> u64 {
    imp::injected(site)
}

/// Total faults injected across all sites.
pub fn injected_total() -> u64 {
    imp::injected_total()
}

/// Zeroes the per-site injection counters.
pub fn reset_counters() {
    imp::reset_counters();
}

/// The fast-path hook: corrupts `y` when the thread is armed.
#[inline(always)]
pub(crate) fn perturb(site: usize, y: f64) -> f64 {
    imp::perturb(site, y)
}

#[cfg(all(test, feature = "fault"))]
mod tests {
    use super::*;
    use crate::stats::slot;

    #[test]
    fn disarmed_is_identity() {
        disarm();
        assert_eq!(perturb(slot::EXP, 1.5f64).to_bits(), 1.5f64.to_bits());
        assert_eq!(injected_total(), 0);
    }

    #[test]
    fn armed_perturbs_and_counts_deterministically() {
        reset_counters();
        arm(42);
        let mut changed = 0;
        let mut first = Vec::new();
        for i in 0..1000 {
            let y = 1.0 + f64::from(i) * 1e-3;
            let y2 = perturb(slot::LN, y);
            first.push(y2.to_bits());
            if y2.to_bits() != y.to_bits() {
                changed += 1;
            }
        }
        disarm();
        assert!(changed > 900, "nearly every armed call must inject");
        assert_eq!(injected(slot::LN), changed);
        // Re-arming with the same seed replays the same corruptions.
        arm(42);
        for (i, &bits) in first.iter().enumerate() {
            let y = 1.0 + f64::from(i as u32) * 1e-3;
            assert_eq!(perturb(slot::LN, y).to_bits(), bits);
        }
        disarm();
        reset_counters();
    }

    #[test]
    fn in_band_corruptions_stay_within_slack() {
        arm(7);
        for i in 0..20_000u32 {
            let y = 0.5 + f64::from(i) * 1e-5;
            let y2 = perturb(slot::COSH, y);
            if !y2.is_finite() || y2 == 0.0 || y2.to_bits() >> 52 != y.to_bits() >> 52 {
                continue; // catastrophic kind: rejected by the exponent window
            }
            let moved = y2.to_bits().abs_diff(y.to_bits());
            assert!(
                moved <= slack(slot::COSH),
                "in-band corruption moved {moved} ulps > slack"
            );
        }
        disarm();
        reset_counters();
    }
}
