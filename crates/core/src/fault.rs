//! Fault-injection sweep: adversarial certification of the two-tier
//! round-safe design (feature `fault`).
//!
//! The runtime library's `fault` feature plants a seeded corruption hook
//! after every tier-1 fast kernel (see `rlibm_math::fault` for the
//! soundness argument: in-band nudges stay under the certification band,
//! catastrophic replacements land outside the round-safe exponent
//! window). This module drives those hooks at scale: for each function it
//! generates inputs biased toward the kernel-reaching domain, evaluates
//! the *faulted* two-tier entry point, and compares bit-for-bit against
//! the dd-only reference (`*_dd_fn_by_name`), which has no injection site. The
//! contract under test is the paper's central claim made adversarial:
//!
//! > No corruption of the fast-path value may ever escape as a
//! > mis-rounded result — it is either provably below the certification
//! > band (the accepted cast is still correct) or rejected by
//! > `f32_round_safe`/`posit32_safe_narrow` into the dd fallback.
//!
//! The sweep keeps injecting until a target count of *actual* injections
//! (not merely evaluations) is reached per function, across both f32 and
//! posit32, and reports per-site injection and dd-fallback counters.

use rlibm_fp::rng::{draw_biased_f32, XorShift64};
use rlibm_math::fault as hooks;
use rlibm_math::stats::tier_dd;
use rlibm_math::{F32_NAMES, POSIT32_NAMES};
use rlibm_posit::Posit32;

/// Outcome of sweeping one function.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Function name (paper-table spelling).
    pub name: &'static str,
    /// `"f32"` or `"posit32"`.
    pub repr: &'static str,
    /// Inputs evaluated.
    pub evaluated: u64,
    /// Faults actually injected (the hook changed the value).
    pub injected: u64,
    /// dd fallbacks taken while armed (corruptions the certification
    /// caught; the remainder stayed inside the band and were absorbed).
    pub dd_fallbacks: u64,
    /// Outputs that differed from the dd reference — MUST be zero.
    pub mismatches: u64,
}

impl FaultReport {
    /// True when the sweep upholds the round-safe contract.
    pub fn clean(&self) -> bool {
        self.mismatches == 0
    }
}

fn bits_match_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Sweeps one f32 function until `target_injections` faults landed.
/// Returns `None` for a name outside the paper's tables.
pub fn sweep_f32(name: &str, target_injections: u64, seed: u64) -> Option<FaultReport> {
    let static_name = F32_NAMES.iter().find(|n| **n == name)?;
    let fast = rlibm_math::f32_fn_by_name(name)?;
    let dd = rlibm_math::f32_dd_fn_by_name(name)?;
    let site = rlibm_math::stats::f32_slot_by_name(name)?;
    let mut rng = XorShift64::new(seed);
    let injected0 = hooks::injected(site);
    let dd0 = tier_dd(site);
    let mut evaluated = 0u64;
    let mut mismatches = 0u64;
    // The domain bias makes the injection rate per draw high, but cap the
    // loop so a misconfigured build (feature off -> zero injections)
    // terminates and reports the shortfall instead of spinning.
    let max_evals = target_injections.saturating_mul(40).max(1000);
    hooks::arm(seed);
    while hooks::injected(site) - injected0 < target_injections && evaluated < max_evals {
        let x = draw_biased_f32(&mut rng, name);
        let got = fast(x);
        hooks::disarm();
        let want = dd(x);
        hooks::arm(rng.next_u64());
        if !bits_match_f32(got, want) {
            mismatches += 1;
        }
        evaluated += 1;
    }
    hooks::disarm();
    Some(FaultReport {
        name: static_name,
        repr: "f32",
        evaluated,
        injected: hooks::injected(site) - injected0,
        dd_fallbacks: tier_dd(site) - dd0,
        mismatches,
    })
}

/// Sweeps one posit32 function until `target_injections` faults landed.
pub fn sweep_posit32(name: &str, target_injections: u64, seed: u64) -> Option<FaultReport> {
    let static_name = POSIT32_NAMES.iter().find(|n| **n == name)?;
    let fast = rlibm_math::posit32_fn_by_name(name)?;
    let dd = rlibm_math::posit32_dd_fn_by_name(name)?;
    let site = rlibm_math::stats::posit32_slot_by_name(name)?;
    let mut rng = XorShift64::new(seed ^ 0xBEEF);
    let injected0 = hooks::injected(site);
    let dd0 = tier_dd(site);
    let mut evaluated = 0u64;
    let mut mismatches = 0u64;
    let max_evals = target_injections.saturating_mul(40).max(1000);
    hooks::arm(seed);
    while hooks::injected(site) - injected0 < target_injections && evaluated < max_evals {
        // Random posit bit patterns concentrate near 1 by construction,
        // squarely inside every kernel's domain; NaR and the saturating
        // regimes appear at their natural rate.
        let x = Posit32::from_bits(rng.next_u32());
        let got = fast(x);
        hooks::disarm();
        let want = dd(x);
        hooks::arm(rng.next_u64());
        if got != want {
            mismatches += 1;
        }
        evaluated += 1;
    }
    hooks::disarm();
    Some(FaultReport {
        name: static_name,
        repr: "posit32",
        evaluated,
        injected: hooks::injected(site) - injected0,
        dd_fallbacks: tier_dd(site) - dd0,
        mismatches,
    })
}

/// Sweeps every f32 and posit32 function. Reports come back in table
/// order, f32 first.
pub fn sweep_all(target_injections_per_func: u64, seed: u64) -> Vec<FaultReport> {
    let mut reports = Vec::with_capacity(F32_NAMES.len() + POSIT32_NAMES.len());
    for (i, name) in F32_NAMES.iter().enumerate() {
        if let Some(r) = sweep_f32(name, target_injections_per_func, seed ^ (i as u64 + 1)) {
            reports.push(r);
        }
    }
    for (i, name) in POSIT32_NAMES.iter().enumerate() {
        if let Some(r) = sweep_posit32(name, target_injections_per_func, seed ^ (0x100 + i as u64))
        {
            reports.push(r);
        }
    }
    reports
}

/// Snapshot of the kernel-level injection counters, per site, with the
/// paper-table names attached: `(name, repr, injections)` in table
/// order, f32 first. Harnesses that arm the hooks indirectly (the serve
/// chaos harness arms them per worker thread) use this to attribute
/// their kernel-fault totals to functions; counters are cumulative per
/// process, so callers diff two snapshots around a run.
pub fn site_injections() -> Vec<(&'static str, &'static str, u64)> {
    let mut out = Vec::with_capacity(F32_NAMES.len() + POSIT32_NAMES.len());
    for name in F32_NAMES {
        if let Some(site) = rlibm_math::stats::f32_slot_by_name(name) {
            out.push((name, "f32", hooks::injected(site)));
        }
    }
    for name in POSIT32_NAMES {
        if let Some(site) = rlibm_math::stats::posit32_slot_by_name(name) {
            out.push((name, "posit32", hooks::injected(site)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_snapshot_diffs_attribute_injections() {
        let before: u64 = site_injections().iter().map(|(_, _, n)| n).sum();
        let r = sweep_f32("exp", 500, 0xABCD).expect("known name");
        assert!(r.injected >= 500);
        let after = site_injections();
        assert_eq!(after.len(), F32_NAMES.len() + POSIT32_NAMES.len());
        let total: u64 = after.iter().map(|(_, _, n)| n).sum();
        assert!(total - before >= r.injected, "snapshot diff sees the sweep's injections");
        let exp = after.iter().find(|(n, r, _)| *n == "exp" && *r == "f32").expect("exp row");
        assert!(exp.2 >= 500);
    }

    #[test]
    fn smoke_sweep_is_clean_and_injects() {
        // Small target: the full 100k-per-function run is the
        // `fault_sweep` bin exercised by ci.sh.
        for name in F32_NAMES {
            let r = sweep_f32(name, 2_000, 0xF00D).expect("known name");
            assert!(r.clean(), "{name}/f32: {} mismatches", r.mismatches);
            assert!(r.injected >= 2_000, "{name}/f32: only {} injections", r.injected);
        }
        for name in POSIT32_NAMES {
            let r = sweep_posit32(name, 2_000, 0xF00D).expect("known name");
            assert!(r.clean(), "{name}/posit32: {} mismatches", r.mismatches);
            assert!(r.injected >= 2_000, "{name}/posit32: only {} injections", r.injected);
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(sweep_f32("tanh", 1, 1).is_none());
        assert!(sweep_posit32("sinpi", 1, 1).is_none());
    }
}
