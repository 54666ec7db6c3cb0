//! Per-shard serving metrics (rlibm-obs registry; no-ops without the
//! `telemetry` feature).
//!
//! Metric statics need `&'static str` names, so shard slots are a fixed
//! bank of [`MAX_SHARDS`] entries; a deployment with more worker threads
//! than slots folds shard `i` onto slot `i % MAX_SHARDS` (the driver
//! also clamps the shard count, so in practice the mapping is 1:1).
//!
//! Per slot:
//! * `serve.shard<i>.requests` — requests dequeued by the worker;
//! * `serve.shard<i>.batches` / `serve.shard<i>.batch_lanes` — slice
//!   flushes and the lanes they carried; fill ratio is
//!   `batch_lanes / (64 * batches)`;
//! * `serve.shard<i>.queue_depth` — log2 histogram of ring occupancy
//!   sampled at every flush;
//! * `serve.shard<i>.latency_ns` — log2 histogram of per-request
//!   enqueue-to-completion latency;
//! * `serve.shard<i>.panics` / `serve.shard<i>.restarts` — worker
//!   panics caught by the supervisor and the restarts it performed
//!   (panics == restarts unless a shard exhausted its budget).
//!
//! Note: `serve.shard<i>.requests` counts *dequeues*. A restarted shard
//! resumes its buffered work instead of requeueing it, so each request
//! is dequeued once, but the report's tag accounting, not this counter,
//! is the exactly-once evidence.
//!
//! Service-wide (not per shard):
//! * `serve.shed.{deadline,backpressure,admission,corrupted,poisoned}`
//!   — explicit shed records by reason;
//! * `serve.shed.overdue_ns` — histogram of how far past its deadline
//!   each deadline-shed request was;
//! * `serve.push.attempts` — histogram of producer push attempts for
//!   *contended* pushes (first-try successes are not recorded, keeping
//!   two atomics off the uncontended hot path; the distribution is the
//!   backpressure / contention signal);
//! * `serve.chaos.{panics,delays,corruptions}` — injections performed
//!   by the chaos layer (`fault` feature; exact counts also travel in
//!   `ServeReport::chaos`);
//! * `serve.trace.sampled` and the
//!   `serve.trace.{queue_wait,batch_wait,kernel,fallback}_ns`
//!   histograms — per-stage latency attribution of trace-sampled
//!   requests (queue wait and batch residency per sampled completion,
//!   kernel and rescalar-fallback time per timed flush); the exact
//!   per-function sums travel in `ServeReport::attribution`.

use crate::shard::ShedReason;
use rlibm_obs::{Counter, Histogram};

/// Number of metric slots (and the driver's shard-count cap).
pub const MAX_SHARDS: usize = 8;

static REQUESTS: [Counter; MAX_SHARDS] = [
    Counter::new("serve.shard0.requests"),
    Counter::new("serve.shard1.requests"),
    Counter::new("serve.shard2.requests"),
    Counter::new("serve.shard3.requests"),
    Counter::new("serve.shard4.requests"),
    Counter::new("serve.shard5.requests"),
    Counter::new("serve.shard6.requests"),
    Counter::new("serve.shard7.requests"),
];

static BATCHES: [Counter; MAX_SHARDS] = [
    Counter::new("serve.shard0.batches"),
    Counter::new("serve.shard1.batches"),
    Counter::new("serve.shard2.batches"),
    Counter::new("serve.shard3.batches"),
    Counter::new("serve.shard4.batches"),
    Counter::new("serve.shard5.batches"),
    Counter::new("serve.shard6.batches"),
    Counter::new("serve.shard7.batches"),
];

static BATCH_LANES: [Counter; MAX_SHARDS] = [
    Counter::new("serve.shard0.batch_lanes"),
    Counter::new("serve.shard1.batch_lanes"),
    Counter::new("serve.shard2.batch_lanes"),
    Counter::new("serve.shard3.batch_lanes"),
    Counter::new("serve.shard4.batch_lanes"),
    Counter::new("serve.shard5.batch_lanes"),
    Counter::new("serve.shard6.batch_lanes"),
    Counter::new("serve.shard7.batch_lanes"),
];

static QUEUE_DEPTH: [Histogram; MAX_SHARDS] = [
    Histogram::new("serve.shard0.queue_depth"),
    Histogram::new("serve.shard1.queue_depth"),
    Histogram::new("serve.shard2.queue_depth"),
    Histogram::new("serve.shard3.queue_depth"),
    Histogram::new("serve.shard4.queue_depth"),
    Histogram::new("serve.shard5.queue_depth"),
    Histogram::new("serve.shard6.queue_depth"),
    Histogram::new("serve.shard7.queue_depth"),
];

static LATENCY_NS: [Histogram; MAX_SHARDS] = [
    Histogram::new("serve.shard0.latency_ns"),
    Histogram::new("serve.shard1.latency_ns"),
    Histogram::new("serve.shard2.latency_ns"),
    Histogram::new("serve.shard3.latency_ns"),
    Histogram::new("serve.shard4.latency_ns"),
    Histogram::new("serve.shard5.latency_ns"),
    Histogram::new("serve.shard6.latency_ns"),
    Histogram::new("serve.shard7.latency_ns"),
];

static PANICS: [Counter; MAX_SHARDS] = [
    Counter::new("serve.shard0.panics"),
    Counter::new("serve.shard1.panics"),
    Counter::new("serve.shard2.panics"),
    Counter::new("serve.shard3.panics"),
    Counter::new("serve.shard4.panics"),
    Counter::new("serve.shard5.panics"),
    Counter::new("serve.shard6.panics"),
    Counter::new("serve.shard7.panics"),
];

static RESTARTS: [Counter; MAX_SHARDS] = [
    Counter::new("serve.shard0.restarts"),
    Counter::new("serve.shard1.restarts"),
    Counter::new("serve.shard2.restarts"),
    Counter::new("serve.shard3.restarts"),
    Counter::new("serve.shard4.restarts"),
    Counter::new("serve.shard5.restarts"),
    Counter::new("serve.shard6.restarts"),
    Counter::new("serve.shard7.restarts"),
];

static SHED_DEADLINE: Counter = Counter::new("serve.shed.deadline");
static SHED_BACKPRESSURE: Counter = Counter::new("serve.shed.backpressure");
static SHED_ADMISSION: Counter = Counter::new("serve.shed.admission");
static SHED_CORRUPTED: Counter = Counter::new("serve.shed.corrupted");
static SHED_POISONED: Counter = Counter::new("serve.shed.poisoned");
static SHED_OVERDUE_NS: Histogram = Histogram::new("serve.shed.overdue_ns");
static PUSH_ATTEMPTS: Histogram = Histogram::new("serve.push.attempts");

static CHAOS_PANICS: Counter = Counter::new("serve.chaos.panics");
static CHAOS_DELAYS: Counter = Counter::new("serve.chaos.delays");
static CHAOS_CORRUPTIONS: Counter = Counter::new("serve.chaos.corruptions");

// Trace-sampled latency attribution (see `flight` and DESIGN.md
// "Tracing and flight recorder"). Per-request stages record one sample
// per *sampled* completion; the kernel stages record one sample per
// timed flush. The exact per-function sums travel in
// `ServeReport::attribution`; these histograms carry the distributions.
static TRACE_SAMPLED: Counter = Counter::new("serve.trace.sampled");
static TRACE_QUEUE_WAIT_NS: Histogram = Histogram::new("serve.trace.queue_wait_ns");
static TRACE_BATCH_WAIT_NS: Histogram = Histogram::new("serve.trace.batch_wait_ns");
static TRACE_KERNEL_NS: Histogram = Histogram::new("serve.trace.kernel_ns");
static TRACE_FALLBACK_NS: Histogram = Histogram::new("serve.trace.fallback_ns");

#[inline]
fn slot(shard: usize) -> usize {
    shard % MAX_SHARDS
}

pub(crate) fn requests(shard: usize) -> &'static Counter {
    &REQUESTS[slot(shard)]
}

pub(crate) fn batches(shard: usize) -> &'static Counter {
    &BATCHES[slot(shard)]
}

pub(crate) fn batch_lanes(shard: usize) -> &'static Counter {
    &BATCH_LANES[slot(shard)]
}

pub(crate) fn queue_depth(shard: usize) -> &'static Histogram {
    &QUEUE_DEPTH[slot(shard)]
}

pub(crate) fn latency_ns(shard: usize) -> &'static Histogram {
    &LATENCY_NS[slot(shard)]
}

pub(crate) fn panics(shard: usize) -> &'static Counter {
    &PANICS[slot(shard)]
}

pub(crate) fn restarts(shard: usize) -> &'static Counter {
    &RESTARTS[slot(shard)]
}

pub(crate) fn shed_counter(reason: ShedReason) -> &'static Counter {
    match reason {
        ShedReason::Deadline => &SHED_DEADLINE,
        ShedReason::Backpressure => &SHED_BACKPRESSURE,
        ShedReason::AdmissionClosed => &SHED_ADMISSION,
        ShedReason::Corrupted => &SHED_CORRUPTED,
        ShedReason::Poisoned => &SHED_POISONED,
    }
}

pub(crate) fn shed_overdue_ns() -> &'static Histogram {
    &SHED_OVERDUE_NS
}

pub(crate) fn push_attempts() -> &'static Histogram {
    &PUSH_ATTEMPTS
}

#[cfg(feature = "fault")]
pub(crate) fn chaos_panics() -> &'static Counter {
    &CHAOS_PANICS
}

#[cfg(feature = "fault")]
pub(crate) fn chaos_delays() -> &'static Counter {
    &CHAOS_DELAYS
}

#[cfg(feature = "fault")]
pub(crate) fn chaos_corruptions() -> &'static Counter {
    &CHAOS_CORRUPTIONS
}

pub(crate) fn trace_sampled() -> &'static Counter {
    &TRACE_SAMPLED
}

pub(crate) fn trace_queue_wait_ns() -> &'static Histogram {
    &TRACE_QUEUE_WAIT_NS
}

pub(crate) fn trace_batch_wait_ns() -> &'static Histogram {
    &TRACE_BATCH_WAIT_NS
}

pub(crate) fn trace_kernel_ns() -> &'static Histogram {
    &TRACE_KERNEL_NS
}

pub(crate) fn trace_fallback_ns() -> &'static Histogram {
    &TRACE_FALLBACK_NS
}

/// Total requests served across every shard slot (0 without telemetry).
pub fn total_requests() -> u64 {
    REQUESTS.iter().map(|c| c.get()).sum()
}

/// Forces every per-shard metric into the snapshot registry at zero, so
/// TELEM readers see idle shards as zeros rather than missing names.
pub fn register_metrics() {
    for i in 0..MAX_SHARDS {
        requests(i).register();
        batches(i).register();
        batch_lanes(i).register();
        queue_depth(i).register();
        latency_ns(i).register();
        panics(i).register();
        restarts(i).register();
    }
    SHED_DEADLINE.register();
    SHED_BACKPRESSURE.register();
    SHED_ADMISSION.register();
    SHED_CORRUPTED.register();
    SHED_POISONED.register();
    SHED_OVERDUE_NS.register();
    PUSH_ATTEMPTS.register();
    CHAOS_PANICS.register();
    CHAOS_DELAYS.register();
    CHAOS_CORRUPTIONS.register();
    TRACE_SAMPLED.register();
    TRACE_QUEUE_WAIT_NS.register();
    TRACE_BATCH_WAIT_NS.register();
    TRACE_KERNEL_NS.register();
    TRACE_FALLBACK_NS.register();
}
