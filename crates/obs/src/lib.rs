//! # rlibm-obs — the unified telemetry layer
//!
//! Three generations of ad-hoc instrumentation grew across the workspace
//! — the runtime's fallback atomics, the generator's `PolyGenStats`, the
//! fault sweep's per-site counters — with no way to see, in one place,
//! where a generation run or a serving workload spends its effort. This
//! crate replaces all of them with one hand-rolled, zero-dependency,
//! hermetic-offline registry of three primitives:
//!
//! * [`Counter`] — a named relaxed-atomic event counter;
//! * [`Histogram`] — a named log2-bucketed value distribution (bucket
//!   `i >= 1` covers `[2^(i-1), 2^i)`, bucket 0 holds exact zeros);
//! * [`SpanTimer`] — a named monotonic-clock scoped timer whose guard
//!   records elapsed nanoseconds into a histogram on drop and maintains a
//!   thread-local nesting depth ([`span_depth`]).
//!
//! Metrics are declared as `static` items and register themselves in the
//! process-wide registry on first use, so the snapshot only ever lists
//! metrics the build actually links; [`Counter::register`] forces a
//! metric into the snapshot at value zero (harnesses use this so "counter
//! absent" and "counter zero" stay distinguishable).
//!
//! # Feature gating
//!
//! Everything is behind the `telemetry` cargo feature. **Off** (the
//! default), every recording call is an `#[inline(always)]` empty
//! function, the statics carry only their name, and [`snapshot`] returns
//! an empty [`TelemetrySnapshot`] — the compiled hot paths are
//! bit-identical to an uninstrumented build. **On**, recording is a
//! relaxed atomic RMW (plus a one-time registration), cheap enough for
//! cold and warm paths alike; the workspace keeps it off hot inner loops
//! regardless.
//!
//! # Naming scheme
//!
//! `<layer>.<component>.<metric>[.<function>]`, all lowercase:
//! `oracle.ziv.final_prec.ln`, `polygen.lp_calls`, `lp.exact.pivots`,
//! `validate.mismatches`, `runtime.tier.dd.f32.exp`. Span timers use the
//! plain component name (`pipeline.generate`); their snapshot section
//! reports nanosecond histograms.
//!
//! ```
//! static REQUESTS: rlibm_obs::Counter = rlibm_obs::Counter::new("doc.requests");
//! static LATENCY: rlibm_obs::SpanTimer = rlibm_obs::SpanTimer::new("doc.handle");
//!
//! {
//!     let _span = LATENCY.start();
//!     REQUESTS.add(1);
//! }
//! let snap = rlibm_obs::snapshot();
//! if rlibm_obs::enabled() {
//!     assert_eq!(snap.counter("doc.requests"), Some(1));
//! } else {
//!     assert!(snap.counters.is_empty());
//! }
//! ```

mod metric;
pub mod quantile;
mod registry;
mod span;
pub mod trace;

pub use metric::{bucket_lo, Counter, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{
    enabled, reset_all, snapshot, CounterSnapshot, HistogramSnapshot, SpanSnapshot,
    TelemetrySnapshot,
};
pub use span::{span_depth, SpanGuard, SpanTimer};
