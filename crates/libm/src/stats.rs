//! Tier instrumentation for the scalar and batched entries.
//!
//! Every call that enters an f32/posit32 front end in-domain ships from
//! exactly one of the two steps (see [`crate::registry`]): the kernel's
//! banded polynomial (the `prefix` counter) or the dd kernel. The entries
//! record which one in the `runtime.tier.{prefix,dd}.{f32,posit32}.<fn>`
//! counters of the workspace-wide `rlibm-obs`
//! registry, so a telemetry snapshot sees them next to the generator's
//! metrics. The dd column is the dd-fallback count the bench harnesses
//! report as a rate. With the `telemetry` feature off (the default) every
//! record compiles to nothing and the shipping library carries zero
//! instrumentation cost.
//!
//! Counters are addressed by [`slot`] — one per registry row — or by
//! name through [`f32_slot_by_name`] / [`posit32_slot_by_name`].

use rlibm_obs::Counter;

use crate::registry::{F32_NAMES, POSIT32_NAMES, TIER_COUNTERS};

pub use crate::registry::slot;

/// The two tier counters of one registry row.
pub(crate) struct TierCounters {
    prefix: Counter,
    dd: Counter,
}

impl TierCounters {
    pub(crate) const fn new(prefix: &'static str, dd: &'static str) -> Self {
        TierCounters { prefix: Counter::new(prefix), dd: Counter::new(dd) }
    }

    fn all(&self) -> [&Counter; 2] {
        [&self.prefix, &self.dd]
    }
}

/// True when the crate was built with runtime telemetry — callers that
/// *measure* rates should assert this so a misconfigured build fails
/// loudly instead of reporting a silent zero.
pub fn enabled() -> bool {
    rlibm_obs::enabled()
}

/// Records one fast-step acceptance for `slot` (no-op without
/// telemetry). This is the only per-call counter on the scalar happy
/// path, so it uses the lossy barrier-free increment — a locked RMW here
/// measurably slows every call (see `Counter::add_lossy`). The rare dd
/// tier and the batched slice-driver adds stay exact.
#[inline(always)]
pub(crate) fn record_tier_prefix(s: usize) {
    TIER_COUNTERS[s].prefix.add_lossy(1);
}

/// Records `n` fast-step acceptances for `slot`. Batched by the slice
/// drivers.
#[inline(always)]
pub(crate) fn record_tier_prefix_n(s: usize, n: u64) {
    TIER_COUNTERS[s].prefix.add(n);
}

/// Records one dd-tier event (the band rejected, the dd kernel re-ran)
/// for `slot`.
#[inline(always)]
pub(crate) fn record_tier_dd(s: usize) {
    TIER_COUNTERS[s].dd.add(1);
}

/// Fast-step acceptances for `slot` since the last [`reset`].
pub fn tier_prefix(s: usize) -> u64 {
    TIER_COUNTERS[s].prefix.get()
}

/// Always 0: no middle tier sits between the fast step and dd any more.
/// Kept for callers that still report a full-tier column.
pub fn tier_full(_s: usize) -> u64 {
    0
}

/// dd-tier events (dd fallbacks) for `slot` since the last [`reset`].
pub fn tier_dd(s: usize) -> u64 {
    TIER_COUNTERS[s].dd.get()
}

/// Slot index of an f32 function by name.
pub fn f32_slot_by_name(name: &str) -> Option<usize> {
    F32_NAMES.iter().position(|n| *n == name)
}

/// Slot index of a posit32 function by name.
pub fn posit32_slot_by_name(name: &str) -> Option<usize> {
    POSIT32_NAMES.iter().position(|n| *n == name).map(|i| i + F32_NAMES.len())
}

/// Zeroes every tier counter (no-op without telemetry).
pub fn reset() {
    for c in TIER_COUNTERS.iter().flat_map(TierCounters::all) {
        c.reset();
    }
}

/// Forces all 36 tier counters (and the runtime's other metrics) into
/// the snapshot registry at value zero, so a report can distinguish "no
/// fallbacks observed" from "counters not linked". Harnesses call this
/// once before taking snapshots.
pub fn register_all() {
    for c in TIER_COUNTERS.iter().flat_map(TierCounters::all) {
        c.register();
    }
    crate::slice::register_metrics();
    crate::fault::register_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_counters_follow_the_build_gate() {
        reset();
        record_tier_prefix(slot::EXP);
        record_tier_prefix_n(slot::EXP, 3);
        record_tier_dd(slot::EXP);
        record_tier_dd(slot::EXP);
        if enabled() {
            assert_eq!(tier_prefix(slot::EXP), 4);
            assert_eq!(tier_dd(slot::EXP), 2);
        } else {
            assert_eq!(tier_prefix(slot::EXP) + tier_dd(slot::EXP), 0);
        }
        assert_eq!(tier_full(slot::EXP), 0);
        reset();
        assert_eq!(tier_prefix(slot::EXP) + tier_dd(slot::EXP), 0);
    }

    #[test]
    fn registry_sees_the_same_counters() {
        register_all();
        record_tier_dd(slot::P32_LN);
        let snap = rlibm_obs::snapshot();
        if enabled() {
            let v = snap.counter("runtime.tier.dd.posit32.ln").expect("registered");
            assert_eq!(v, tier_dd(slot::P32_LN), "slot view and registry view agree");
        } else {
            assert!(snap.counters.is_empty());
        }
    }
}
