//! Feature-matrix identity and flight-recorder coverage for the serving
//! stack.
//!
//! The standing rule for every observability layer in this repo: tracing
//! may *observe* the serve path but never alter it. The checksum test
//! pins the complete served output set (tag, input bits, output bits) to
//! a constant that must hold with the `telemetry` feature on or off —
//! ci runs this binary in both configurations.

use rlibm_serve::{serve_closed_loop, ServeConfig};

/// FNV-1a over the sorted (tag, x_bits, y_bits) rows of a fixed run.
/// The workload is a function of the seed alone and the run is healthy
/// (no deadline, no chaos, ample queues), so every submitted request
/// completes and the sorted rows are deterministic.
fn serve_output_checksum() -> u64 {
    let cfg = ServeConfig {
        shards: 3,
        producers: 2,
        requests: 50_000,
        queue_capacity: 512,
        seed: 0x7AC3_1D07,
        posit_permille: 350,
        ..ServeConfig::default()
    };
    let report = serve_closed_loop(&cfg).expect("healthy run");
    assert!(report.balanced());
    assert_eq!(report.completions.len() as u64, cfg.requests);
    let mut rows: Vec<(u64, u32, u32)> =
        report.completions.iter().map(|c| (c.tag, c.x_bits, c.y_bits)).collect();
    rows.sort_unstable();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (tag, x, y) in rows {
        for b in tag
            .to_le_bytes()
            .iter()
            .chain(x.to_le_bytes().iter())
            .chain(y.to_le_bytes().iter())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The pinned constant: bit-identical served outputs with `telemetry`
/// (and `simd`, and `fault`) on or off. If a code change legitimately
/// alters the workload or kernels, update this constant in the same
/// change — never to absorb a tracing-dependent difference.
const PINNED_SERVE_CHECKSUM: u64 = 0x352E_AA53_D584_50B6;

#[test]
fn serve_output_checksum_is_pinned_across_feature_matrix() {
    assert_eq!(
        serve_output_checksum(),
        PINNED_SERVE_CHECKSUM,
        "served output set changed (or became feature-dependent)"
    );
}

/// Attribution sums are populated exactly when tracing is compiled in,
/// and cover every workload function on a run big enough to sample all
/// of them.
#[test]
fn attribution_is_exhaustive_when_enabled_and_zero_otherwise() {
    let cfg = ServeConfig {
        shards: 2,
        producers: 2,
        requests: 60_000,
        queue_capacity: 512,
        seed: 0xA77B_1B07,
        posit_permille: 450,
        ..ServeConfig::default()
    };
    let report = serve_closed_loop(&cfg).expect("healthy run");
    assert!(report.balanced());
    for (f, a) in report.attribution.iter().enumerate() {
        if rlibm_obs::enabled() {
            // ~3.3k requests per function, 1/16 sampled: every function
            // must carry samples and kernel time.
            assert!(a.samples > 0, "func {f} has no sampled completions");
            assert!(a.kernel_ns > 0, "func {f} has no kernel time");
            assert!(a.kernel_lanes > 0 && a.batches > 0);
            assert!(a.kernel_ns >= a.fallback_ns, "fallback exceeds kernel time");
        } else {
            assert_eq!(*a, rlibm_serve::StageAttribution::default());
        }
    }
    if rlibm_obs::enabled() {
        let samples: u64 = report.attribution.iter().map(|a| a.samples).sum();
        // 1/16 deterministic tag-hash sampling: the sample count is an
        // exact function of the tag set. Loose envelope only.
        assert!(samples > 1_000 && samples < 10_000, "sample count {samples} off envelope");
    }
    assert!(report.flight.is_empty(), "healthy run must not dump the flight recorder");
}

/// Panic and corruption chaos must produce flight dumps (when tracing is
/// compiled in) whose event windows actually contain the failure
/// exemplars.
#[cfg(feature = "fault")]
#[test]
fn chaos_failures_dump_the_flight_recorder() {
    rlibm_serve::chaos::install_panic_filter();
    let report = serve_closed_loop(&ServeConfig {
        shards: 2,
        producers: 2,
        requests: 30_000,
        queue_capacity: 256,
        seed: 0xF11D_0D07,
        posit_permille: 300,
        restart_backoff_ns: 1_000,
        max_restarts: u32::MAX,
        chaos: Some(rlibm_serve::ChaosConfig {
            seed: 0xC0FE,
            panic_per_million: 20_000,
            corrupt_per_million: 10_000,
            ..rlibm_serve::ChaosConfig::default()
        }),
        ..ServeConfig::default()
    })
    .expect("supervised run");
    assert!(report.balanced());
    assert!(report.panics > 0 && report.chaos.corruptions > 0, "chaos must inject");
    if !rlibm_obs::enabled() {
        assert!(report.flight.is_empty(), "no dumps without the telemetry feature");
        return;
    }
    assert!(!report.flight.is_empty(), "failures must dump the recorder");
    assert!(
        report.flight.iter().any(|d| d.trigger == rlibm_serve::FlightTrigger::Panic),
        "at least one panic dump"
    );
    assert!(
        report.flight.iter().any(|d| d.trigger == rlibm_serve::FlightTrigger::Corruption),
        "at least one corruption dump"
    );
    for dump in &report.flight {
        assert!(!dump.events.is_empty(), "a dump with tracing on cannot be empty");
        assert!(dump.events.len() <= rlibm_serve::FLIGHT_EVENTS);
        assert!(
            dump.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "dump events must be time-ordered"
        );
    }
    // The corruption dump window holds the corrupted-shed exemplar that
    // triggered it (it is emitted immediately before the capture).
    let corr = report
        .flight
        .iter()
        .find(|d| d.trigger == rlibm_serve::FlightTrigger::Corruption)
        .expect("checked above");
    assert!(
        corr.events
            .iter()
            .any(|e| e.kind == rlibm_obs::trace::TraceKind::ShedCorrupted),
        "corruption dump must contain the shed exemplar"
    );
    // Per-shard dump cap holds even under a panic storm.
    for shard in 0..report.shards {
        let n = report.flight.iter().filter(|d| d.shard == shard).count();
        assert!(n <= rlibm_serve::FLIGHT_DUMPS_PER_SHARD, "shard {shard} exceeded the dump cap");
    }
}
