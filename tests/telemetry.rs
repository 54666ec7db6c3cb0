//! Telemetry correctness tests, designed to run in BOTH build
//! configurations:
//!
//! * telemetry ON — any whole-workspace `cargo test` (feature
//!   unification with `rlibm-bench`, which hard-enables the telemetry
//!   features for its harnesses);
//! * telemetry OFF — `cargo test -p rlibm` with default features (the
//!   configuration ci.sh runs as the zero-cost check).
//!
//! Every assertion branches on [`rlibm::obs::enabled`], and the
//! output-checksum test pins the runtime library's results to the same
//! constant in both configurations: instrumentation must never change a
//! single output bit.
//!
//! None of these tests call `reset_all()`: the test binary runs
//! concurrently and other tests record into the same process-wide
//! registry, so tests only assert on metric *deltas* or on their own
//! private metric statics.

use rlibm::gen::par::run_chunked;
use rlibm::math::{F32_NAMES, POSIT32_NAMES};
use rlibm::obs::{span_depth, Counter, Histogram, SpanTimer};
use rlibm_fp::rng::{draw_biased_f32, XorShift64};

#[test]
fn concurrent_counter_adds_are_not_lost() {
    static C: Counter = Counter::new("test.telemetry.concurrent_counter");
    let per_chunk = 10_000u64;
    let chunks = 64usize;
    let results = run_chunked(chunks, 1, 8, |_, range| {
        for _ in range {
            for _ in 0..per_chunk {
                C.add(1);
            }
        }
        per_chunk
    });
    assert_eq!(results.len(), chunks);
    if rlibm::obs::enabled() {
        assert_eq!(C.get(), per_chunk * chunks as u64, "relaxed adds must all land");
    } else {
        assert_eq!(C.get(), 0, "telemetry off: counters stay zero");
    }
}

#[test]
fn concurrent_histogram_matches_serial_reference() {
    static H: Histogram = Histogram::new("test.telemetry.concurrent_hist");
    // Each chunk records a deterministic value stream; the parallel sums
    // must equal the serially computed expectation.
    let chunks = 32usize;
    let per_chunk = 5_000u64;
    let sample = |chunk: usize, i: u64| (chunk as u64).wrapping_mul(31) + i % 257;
    run_chunked(chunks, 1, 8, |_, range| {
        for k in range {
            for i in 0..per_chunk {
                H.record(sample(k, i));
            }
        }
    });
    let (mut want_count, mut want_sum) = (0u64, 0u64);
    for k in 0..chunks {
        for i in 0..per_chunk {
            want_count += 1;
            want_sum += sample(k, i);
        }
    }
    if rlibm::obs::enabled() {
        assert_eq!(H.count(), want_count);
        assert_eq!(H.sum(), want_sum);
        let bucket_total: u64 = H.nonzero_buckets().iter().map(|&(_, n)| n).sum();
        assert_eq!(bucket_total, want_count, "bucket counts reconcile with the total");
    } else {
        assert_eq!(H.count(), 0);
        assert_eq!(H.sum(), 0);
    }
}

/// Hammer the trace rings from many threads, then check every visible
/// record for tearing: each event's payload is a pure function of its
/// tag, so a snapshot that interleaved halves of two records would show
/// a mismatch. Rings are bounded — old events are overwritten, never
/// torn, and the visible total can't exceed the pool capacity.
///
/// Writes through the public `emit` path with a private marker byte;
/// no `reset_all()` (the registry is shared with the other tests), so
/// the assertions only touch records carrying the marker.
#[test]
fn concurrent_ring_writes_are_never_torn() {
    use rlibm::obs::trace::{self, TraceKind, MAX_RINGS, RING_CAP};
    const MARKER: u8 = 0x7F;
    let chunks = 16usize;
    let per_chunk = 4 * RING_CAP as u64; // several wraps per ring
    run_chunked(chunks, 1, 8, |_, range| {
        for k in range {
            for i in 0..per_chunk {
                let tag = ((k as u64) << 32) | i;
                trace::emit(TraceKind::Complete, MARKER, tag, trace::mix64(tag) as u32);
            }
        }
    });
    let rings = trace::snapshot_rings();
    if !rlibm::obs::enabled() {
        assert!(rings.is_empty(), "telemetry off: no rings");
        return;
    }
    let mut seen = 0usize;
    for t in &rings {
        assert!(t.events.len() <= RING_CAP, "ring over capacity");
        for e in &t.events {
            if e.aux != MARKER {
                continue; // another test's events in a reused ring
            }
            seen += 1;
            assert_eq!(
                e.payload,
                trace::mix64(e.tag) as u32,
                "torn record: payload does not match its tag"
            );
            assert_eq!(e.kind, TraceKind::Complete);
        }
    }
    assert!(seen > 0, "snapshot must surface marked events");
    assert!(seen <= MAX_RINGS * RING_CAP, "visible events exceed pool capacity");
}

#[test]
fn span_nesting_tracks_depth_and_counts_closures() {
    static OUTER: SpanTimer = SpanTimer::new("test.telemetry.span_outer");
    static INNER: SpanTimer = SpanTimer::new("test.telemetry.span_inner");
    let c0 = OUTER.count();
    let base = span_depth();
    {
        let _o = OUTER.start();
        if rlibm::obs::enabled() {
            assert_eq!(span_depth(), base + 1);
        }
        {
            let _i = INNER.start();
            if rlibm::obs::enabled() {
                assert_eq!(span_depth(), base + 2);
            }
        }
        if rlibm::obs::enabled() {
            assert_eq!(span_depth(), base + 1);
        }
    }
    assert_eq!(span_depth(), base, "guards restore the depth on drop");
    if rlibm::obs::enabled() {
        assert_eq!(OUTER.count(), c0 + 1, "one completed outer span");
        assert!(INNER.count() >= 1);
    } else {
        assert_eq!(OUTER.count(), 0);
    }
}

/// FNV-1a over the runtime library's outputs on a fixed biased sweep.
fn runtime_output_checksum() -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (i, name) in F32_NAMES.iter().enumerate() {
        let f = rlibm::math::f32_fn_by_name(name).expect("known name");
        let mut rng = XorShift64::new(0xC0FFEE ^ (i as u64));
        for _ in 0..10_000 {
            mix(f(draw_biased_f32(&mut rng, name)).to_bits());
        }
    }
    for (i, name) in POSIT32_NAMES.iter().enumerate() {
        let f = rlibm::math::posit32_fn_by_name(name).expect("known name");
        let mut rng = XorShift64::new(0xBADCAB ^ (i as u64));
        for _ in 0..10_000 {
            mix(f(rlibm::posit::Posit32::from_bits(rng.next_u32())).to_bits());
        }
    }
    h
}

/// The checksum constant both build configurations must reproduce. If
/// this test fails only in telemetry builds, instrumentation has leaked
/// into a result; if it fails in both, the kernels themselves changed
/// (then re-pin after re-certifying correctness).
#[test]
fn instrumentation_never_changes_an_output_bit() {
    assert_eq!(runtime_output_checksum(), 0x67f0_f69c_f718_15ea);
}

/// The posit batched entry records its own slice counters
/// (`runtime.slice.posit32.{chunks,requests}`), so serving-layer posit
/// traffic is visible in TELEM snapshots alongside the f32 slice
/// counters. Delta-based: other tests share the process registry.
#[test]
fn posit_slice_counters_track_chunks_and_requests() {
    use rlibm::posit::Posit32;
    rlibm::math::stats::register_all();
    let read = |name: &str| {
        rlibm::obs::snapshot()
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    let chunks0 = read("runtime.slice.posit32.chunks");
    let requests0 = read("runtime.slice.posit32.requests");
    // 130 lanes = 3 chunks (64 + 64 + 2).
    let xs: Vec<Posit32> = (0..130).map(|i| Posit32::from_f64(0.1 + f64::from(i))).collect();
    let mut out = vec![Posit32::ZERO; xs.len()];
    rlibm::math::eval_slice_posit32("exp", &xs, &mut out).expect("known name");
    if rlibm::obs::enabled() {
        assert_eq!(read("runtime.slice.posit32.chunks") - chunks0, 3);
        assert_eq!(read("runtime.slice.posit32.requests") - requests0, 130);
    } else {
        assert_eq!(read("runtime.slice.posit32.chunks"), 0);
        assert_eq!(read("runtime.slice.posit32.requests"), 0);
    }
}

#[test]
fn snapshot_carries_all_runtime_fallback_counters() {
    rlibm::math::stats::register_all();
    let snap = rlibm::obs::snapshot();
    // The dd-tier counters are the dd-fallback counts.
    let fallback_names: Vec<&str> = snap
        .counters
        .iter()
        .map(|c| c.name)
        .filter(|n| n.starts_with("runtime.tier.dd."))
        .collect();
    if rlibm::obs::enabled() {
        assert_eq!(fallback_names.len(), 18, "10 f32 + 8 posit32 slots: {fallback_names:?}");
        for name in F32_NAMES {
            assert!(fallback_names.contains(&format!("runtime.tier.dd.f32.{name}").as_str()));
        }
        for name in POSIT32_NAMES {
            assert!(fallback_names
                .contains(&format!("runtime.tier.dd.posit32.{name}").as_str()));
        }
    } else {
        assert!(snap.counters.is_empty(), "telemetry off: empty snapshot");
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }
}
