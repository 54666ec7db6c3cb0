//! rlibm-serve — a sharded, thread-per-core serving layer over the
//! slice kernels, with a supervision and failure-handling layer that
//! carries the correctness contract through crashes and overload.
//!
//! The shape of a production deployment, scaled to whatever the host
//! offers: one worker thread ("shard") per core, each owning a bounded
//! lock-free MPMC ring ([`queue::MpmcQueue`]) that producers push
//! requests into in bursts of up to a batch, round-robin by burst, with
//! one ring claim and one clock read per burst. Workers pop bursts and
//! batch requests per function into
//! the 64-lane staged slice chunks (AVX2 under the `simd` feature) and
//! answer with bit patterns identical to the scalar two-tier functions
//! — the correctness contract of the whole stack carries through the
//! service unchanged.
//!
//! The failure model extends the contract to the service layer itself
//! (see DESIGN.md "Failure model"):
//!
//! * **Panic-isolated shards** — each worker body runs under
//!   `catch_unwind` in a per-shard supervisor ([`supervisor`]) that
//!   keeps the completion log, batches and inbox outside the unwind and
//!   restarts the shard with capped exponential backoff into a pass that
//!   resumes that work. A shard that exhausts its restart budget
//!   gives up *accountably*: its backlog becomes explicit
//!   [`ShedReason::Poisoned`] records and the failure is surfaced in
//!   [`ServeReport::failed_shards`].
//! * **Deadlines and load shedding** — every [`Request`] carries a
//!   deadline; past-deadline requests are shed as explicit
//!   [`ShedReason::Deadline`] records, and producers push with a
//!   bounded backoff budget, shedding [`ShedReason::Backpressure`] on
//!   a persistently full ring instead of spinning forever. Nothing is
//!   ever silently lost: `completions + sheds == submitted` always
//!   ([`ServeReport::balanced`]).
//! * **Graceful drain** — shutdown is a two-phase protocol on
//!   [`supervisor::ServiceControl`]: close admission (producers shed
//!   unsubmitted work as [`ShedReason::AdmissionClosed`]), then stop
//!   workers once the rings are flushed; the per-shard
//!   [`supervisor::ShardQuiesce`] report accounts for the retired
//!   backlog.
//! * **Integrity checks** — requests carry an enqueue-time checksum
//!   verified at dequeue; a corrupted ring slot is detected and shed as
//!   [`ShedReason::Corrupted`], never served with a wrong argument.
//! * **Chaos injection** (feature `fault`, [`chaos`]) — seeded shard
//!   panics, delayed flushes, request corruption and kernel-level fault
//!   arming, driven at scale by the fault scenarios of the
//!   `serve_report` harness.
//!
//! There is no per-request allocation anywhere on the serve path: rings
//! and accumulators are fixed arrays, staging buffers live on the worker
//! stack, and each shard fills a completion log sized for its share from
//! a process-wide pool, which dropping a [`ServeReport`] refills. Once
//! the last report drops, the pool retains at most
//! [`metrics::MAX_SHARDS`] logs, none larger than the largest log a run
//! handed back (64 MB for a 2M-request one-shard run).
//!
//! Per-shard observability rides on `rlibm-obs` ([`metrics`]): request,
//! batch, panic and restart counters, shed counters by reason, a
//! queue-depth histogram and a per-request latency log2 histogram, all
//! no-ops unless built with the `telemetry` feature.
//!
//! [`serve_closed_loop`] is the in-process driver that every
//! `serve_report` scenario runs: it spawns the supervised shards and a set of
//! synthetic-workload producers (XorShift64-seeded, domain-biased — see
//! [`workload`]), runs the closed loop to completion through the drain
//! protocol, and returns every completion and shed record.

pub mod chaos;
pub mod flight;
pub mod metrics;
pub mod queue;
mod shard;
pub mod supervisor;
pub mod workload;

pub use chaos::{ChaosConfig, ChaosStats};
pub use flight::{
    FlightDump, FlightTrigger, StageAttribution, FLIGHT_DUMPS_PER_SHARD, FLIGHT_EVENTS,
};
pub use shard::{make_tag, Completion, Request, Shed, ShedReason, BATCH, NO_DEADLINE, TAG_SEQ_BITS};
pub use supervisor::{ServiceControl, ShardQuiesce};

use queue::MpmcQueue;
use rlibm_fp::rng::XorShift64;
use rlibm_obs::trace::{self, TraceKind};
use std::time::Instant;

/// Producer indices must fit the tag's high bits.
pub const MAX_PRODUCERS: usize = 1 << 24;

/// Closed-loop service run configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (clamped to `1..=`[`metrics::MAX_SHARDS`]).
    pub shards: usize,
    /// Producer threads synthesizing the workload (min 1).
    pub producers: usize,
    /// Total requests across all producers.
    pub requests: u64,
    /// Ring capacity per shard (rounded up to a power of two).
    pub queue_capacity: usize,
    /// Workload seed; producer `p` derives its own stream from it.
    pub seed: u64,
    /// Share of traffic (out of 1000) routed to the posit32 table.
    pub posit_permille: u32,
    /// Relative request deadline in ns (0 = no deadline): a request
    /// still queued `deadline_ns` after its enqueue is shed as
    /// [`ShedReason::Deadline`] instead of served.
    pub deadline_ns: u64,
    /// Producer push budget: consecutive attempts (spin, then yield)
    /// that push nothing onto a full ring before the rest of the burst
    /// is shed as [`ShedReason::Backpressure`]. Min 1.
    pub push_budget: u32,
    /// Per-shard supervisor restart budget; a shard that panics more
    /// than this gives up and drains its backlog into
    /// [`ShedReason::Poisoned`] sheds.
    pub max_restarts: u32,
    /// Base supervisor backoff before a restart; doubles per restart,
    /// capped at 64×.
    pub restart_backoff_ns: u64,
    /// When nonzero, a monitor closes admission this many ns after the
    /// epoch — a mid-run graceful drain (producers shed the remainder
    /// as [`ShedReason::AdmissionClosed`]).
    pub drain_after_ns: u64,
    /// Chaos injection plan (requires the `fault` feature; see
    /// [`chaos`]). `None` = no injection.
    pub chaos: Option<ChaosConfig>,
    /// Trace sampling rate exponent: tag-hash sampling keeps 1 in
    /// `2^trace_sample_shift` requests (0 = every request; clamped to
    /// ≤ 32). No effect without the `telemetry` feature.
    pub trace_sample_shift: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: std::thread::available_parallelism().map_or(1, usize::from),
            producers: 2,
            requests: 1 << 20,
            queue_capacity: 1024,
            seed: 0x524C_4942_4D33_32A1,
            posit_permille: 250,
            deadline_ns: 0,
            push_budget: 1 << 16,
            max_restarts: 64,
            restart_backoff_ns: 100_000,
            drain_after_ns: 0,
            chaos: None,
            trace_sample_shift: trace::DEFAULT_SAMPLE_SHIFT,
        }
    }
}

/// Config rejected before any thread spawns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// More producers than the tag's high bits can index.
    TooManyProducers { producers: usize },
    /// A producer's request quota would overflow its 2^40 tag sequence
    /// space, breaking the exactly-once dedup check.
    TagSpaceOverflow { per_producer: u64 },
    /// A chaos plan was supplied but this build has the `fault` feature
    /// off — injection would silently not happen.
    ChaosRequiresFaultFeature,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TooManyProducers { producers } => {
                write!(f, "{producers} producers exceed the 2^24 tag namespace")
            }
            ConfigError::TagSpaceOverflow { per_producer } => write!(
                f,
                "{per_producer} requests per producer exceed the 2^{TAG_SEQ_BITS} tag sequence space"
            ),
            ConfigError::ChaosRequiresFaultFeature => {
                write!(f, "chaos config supplied but the `fault` feature is compiled out")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A closed-loop run that could not account for every request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The configuration was rejected up front.
    Config(ConfigError),
    /// A shard thread died outside the supervised region; its
    /// completion log is gone. (The supervisor catches worker panics,
    /// so this indicates a bug in the supervisor itself.)
    ShardLost { shard: usize },
    /// A producer thread panicked; the submitted-request ground truth
    /// is gone.
    ProducerLost { producer: usize },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid serve config: {e}"),
            ServeError::ShardLost { shard } => {
                write!(f, "shard {shard} died outside supervision; its log is lost")
            }
            ServeError::ProducerLost { producer } => {
                write!(f, "producer {producer} panicked; submission accounting is lost")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> ServeError {
        ServeError::Config(e)
    }
}

impl ServeConfig {
    /// Rejects configurations whose failure-accounting guarantees could
    /// not hold: tag-space overflow (which would break exactly-once
    /// dedup) and chaos plans on builds that cannot inject.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let producers = self.producers.max(1);
        if producers > MAX_PRODUCERS {
            return Err(ConfigError::TooManyProducers { producers });
        }
        let per_producer = self.requests / producers as u64 + 1;
        if per_producer >= 1u64 << TAG_SEQ_BITS {
            return Err(ConfigError::TagSpaceOverflow { per_producer });
        }
        if self.chaos.is_some() && !chaos::injection_compiled_in() {
            return Err(ConfigError::ChaosRequiresFaultFeature);
        }
        Ok(())
    }
}

/// Everything a closed-loop run produced. `completions + sheds`
/// partition the submitted requests: nothing is ever silently lost
/// ([`ServeReport::balanced`]).
#[derive(Debug)]
pub struct ServeReport {
    /// Every served request with its measured latency (order is
    /// per-shard completion order, shards concatenated).
    pub completions: Vec<Completion>,
    /// Every explicitly shed request, with its reason (shard sheds
    /// first, then producer-side sheds).
    pub sheds: Vec<Shed>,
    /// Requests the producers generated (the accounting denominator).
    pub submitted: u64,
    /// Wall-clock duration of the whole run in nanoseconds.
    pub elapsed_ns: u64,
    /// Drain time: stop raised → last worker joined, in nanoseconds.
    pub drain_ns: u64,
    /// Shard count actually used (after clamping).
    pub shards: usize,
    /// Producer count actually used.
    pub producers: usize,
    /// Worker panics caught by the supervisors.
    pub panics: u64,
    /// Shard restarts the supervisors performed.
    pub restarts: u64,
    /// Shards that exhausted their restart budget and drained their
    /// backlog into `Poisoned` sheds. Empty on a healthy run.
    pub failed_shards: Vec<usize>,
    /// Exact chaos injection counts (all zero without the `fault`
    /// feature or with no chaos plan).
    pub chaos: ChaosStats,
    /// Per-shard completion and drain accounting from the quiesce
    /// protocol.
    pub quiesce: Vec<ShardQuiesce>,
    /// Exact per-function latency attribution of trace-sampled requests
    /// (queue wait, batch residency, kernel, rescalar fallback), merged
    /// across shards. All zero without the `telemetry` feature.
    pub attribution: [StageAttribution; workload::NUM_FUNCS],
    /// Flight-recorder dumps captured at failure points (panics and
    /// first-corruption), in shard order. Empty on healthy runs and
    /// without the `telemetry` feature.
    pub flight: Vec<FlightDump>,
}

impl Drop for ServeReport {
    /// Hands the completion log back for the next run's shards.
    fn drop(&mut self) {
        shard::recycle_completion_log(std::mem::take(&mut self.completions));
    }
}

impl ServeReport {
    /// Overall throughput in requests per second (completions only).
    pub fn requests_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.completions.len() as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// The no-silent-loss invariant: every submitted request ended as
    /// exactly one completion or one explicit shed record.
    pub fn balanced(&self) -> bool {
        self.completions.len() as u64 + self.sheds.len() as u64 == self.submitted
    }

    /// Shed records with the given reason.
    pub fn shed_count(&self, reason: ShedReason) -> u64 {
        self.sheds.iter().filter(|s| s.reason == reason).count() as u64
    }
}

/// Requests producer `p` generates out of `total` split over
/// `producers` streams (round-robin remainder to the low indices).
pub fn producer_quota(total: u64, producers: usize, p: usize) -> u64 {
    total / producers as u64 + u64::from((p as u64) < total % producers as u64)
}

/// What one producer thread hands back: its explicit shed records.
struct ProducerOutcome {
    sheds: Vec<Shed>,
}

/// Bounded-backoff burst push: claims as much of `reqs` as the ring has
/// room for, then retries the rest with a few spins and then yields, up
/// to `budget` consecutive attempts that push nothing. `Ok` carries the
/// attempts the burst took; `Err` the count pushed before the budget ran
/// out on a persistently full ring or admission closed mid-wait (the
/// caller sheds `reqs[count..]`).
fn push_with_backoff(
    queue: &MpmcQueue<Request>,
    reqs: &[Request],
    budget: u32,
    ctrl: &ServiceControl,
) -> Result<u32, usize> {
    let mut pushed = 0;
    let mut attempts = 0u32;
    let mut idle = 0u32;
    loop {
        let n = queue.push_slice(&reqs[pushed..]);
        pushed += n;
        attempts = attempts.saturating_add(1);
        if pushed == reqs.len() {
            return Ok(attempts);
        }
        idle = if n > 0 { 1 } else { idle + 1 };
        if idle >= budget.max(1) || ctrl.admission_closed() {
            return Err(pushed);
        }
        if idle <= 32 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// One producer: draws its quota in bursts of up to [`BATCH`] requests,
/// stamps each burst with one clock read and pushes it to one shard,
/// round-robin by burst.
#[allow(clippy::too_many_arguments)]
fn producer_loop(
    p: usize,
    cfg: &ServeConfig,
    queues: &[MpmcQueue<Request>],
    shards: usize,
    producers: usize,
    ctrl: &ServiceControl,
    epoch: Instant,
) -> ProducerOutcome {
    // Distinct, deterministic stream per producer.
    let mut rng = XorShift64::new(cfg.seed ^ (p as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n = producer_quota(cfg.requests, producers, p);
    let mut rr = p;
    let mut sheds = Vec::new();
    let mut burst = [Request::new(0, 0, 0, 0, NO_DEADLINE); BATCH];
    let mut j = 0u64;
    while j < n {
        let want = (n - j).min(BATCH as u64) as usize;
        let mut len = 0;
        for tag in (j..j + want as u64).map(|k| make_tag(p, k)) {
            // Always draw the payload, even when shedding: the submitted
            // stream stays a function of the seed alone, so ground truth
            // (and the sharding-independence property) survives a drain.
            let func = workload::pick_func(&mut rng, cfg.posit_permille);
            let x_bits = workload::synth_bits(&mut rng, func);
            if ctrl.admission_closed() {
                metrics::shed_counter(ShedReason::AdmissionClosed).add(1);
                flight::shed_event(func, x_bits, tag, ShedReason::AdmissionClosed);
                sheds.push(Shed { func, x_bits, tag, reason: ShedReason::AdmissionClosed });
                continue;
            }
            burst[len] = Request { func, x_bits, tag, ..burst[len] };
            len += 1;
        }
        j += want as u64;
        if len == 0 {
            continue;
        }
        // One clock read stamps the whole burst: its submission time.
        let t_enqueue_ns = epoch.elapsed().as_nanos() as u64;
        let deadline_ns = if cfg.deadline_ns == 0 {
            NO_DEADLINE
        } else {
            t_enqueue_ns.saturating_add(cfg.deadline_ns)
        };
        for r in &mut burst[..len] {
            *r = Request::new(r.func, r.x_bits, r.tag, t_enqueue_ns, deadline_ns);
        }
        let queue = &queues[rr % shards];
        let pushed = match push_with_backoff(queue, &burst[..len], cfg.push_budget, ctrl) {
            // Record only contended bursts: a first-try success is the
            // overwhelmingly common case, and two histogram atomics per
            // burst would tax the hot path just to count ones.
            Ok(attempts) => {
                if attempts > 1 {
                    metrics::push_attempts().record(u64::from(attempts));
                }
                len
            }
            Err(pushed) => {
                metrics::push_attempts().record(u64::from(cfg.push_budget.max(1)));
                let reason = if ctrl.admission_closed() {
                    ShedReason::AdmissionClosed
                } else {
                    ShedReason::Backpressure
                };
                for r in &burst[pushed..len] {
                    metrics::shed_counter(reason).add(1);
                    flight::shed_event(r.func, r.x_bits, r.tag, reason);
                    sheds.push(Shed { func: r.func, x_bits: r.x_bits, tag: r.tag, reason });
                }
                pushed
            }
        };
        // Open the span for trace-sampled requests once they are on the
        // ring (the shard side agrees on the sample set via the same tag
        // hash).
        if rlibm_obs::enabled() {
            for r in burst[..pushed].iter().filter(|r| trace::sampled(r.tag)) {
                trace::emit(TraceKind::Enqueue, workload::fold(r.func) as u8, r.tag, r.x_bits);
            }
        }
        rr = rr.wrapping_add(1);
    }
    ProducerOutcome { sheds }
}

/// Completions one shard can log without reallocating. Bursts go to
/// shards round-robin, so a shard gets at most one burst per producer
/// above its even share; a batch on top is slack.
fn completion_log_capacity(total: u64, shards: usize, producers: usize) -> usize {
    (total as usize) / shards + producers * BATCH + BATCH
}

/// Runs the service as a closed loop: `producers` synthetic-workload
/// threads push `requests` total requests in round-robin bursts into the
/// shard rings (bounded-backoff, shedding on overflow), supervised shards
/// serve until the drain protocol completes, and every completion and
/// shed record is returned. Deterministic workload per seed; the serve
/// outputs are bit-identical to the scalar functions regardless of
/// sharding, supervision, or injected faults.
///
/// `Err` is reserved for runs whose accounting is genuinely lost (a
/// thread died outside supervision, or the config was rejected);
/// degraded-but-accounted runs — restarts, sheds, even a shard giving
/// up — come back as `Ok` with the damage itemized in the report.
pub fn serve_closed_loop(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
    cfg.validate()?;
    trace::set_sample_shift(cfg.trace_sample_shift);
    let shards = cfg.shards.clamp(1, metrics::MAX_SHARDS);
    let producers = cfg.producers.max(1);
    let total = cfg.requests;
    let queues: Vec<MpmcQueue<Request>> =
        (0..shards).map(|_| MpmcQueue::with_capacity(cfg.queue_capacity)).collect();
    let ctrl = ServiceControl::new();
    let epoch = Instant::now();
    let per_shard = completion_log_capacity(total, shards, producers);
    let mut shard_outcomes: Vec<Option<supervisor::ShardOutcome>> = Vec::with_capacity(shards);
    let mut producer_outcomes: Vec<Option<ProducerOutcome>> = Vec::with_capacity(producers);
    let mut drain_ns = 0u64;
    std::thread::scope(|s| {
        if cfg.drain_after_ns > 0 {
            let ctrl = &ctrl;
            let drain_after = cfg.drain_after_ns;
            s.spawn(move || {
                // Mid-run drain monitor: close admission once the
                // deadline passes (or quit early if the run finished).
                while !ctrl.stopping() {
                    if epoch.elapsed().as_nanos() as u64 >= drain_after {
                        ctrl.close_admission();
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        let workers: Vec<_> = (0..shards)
            .map(|i| {
                let q = &queues[i];
                let ctrl = &ctrl;
                let chaos = cfg.chaos.as_ref();
                s.spawn(move || {
                    supervisor::supervise_shard(
                        i,
                        q,
                        ctrl,
                        epoch,
                        per_shard,
                        cfg.max_restarts,
                        cfg.restart_backoff_ns,
                        chaos,
                    )
                })
            })
            .collect();
        let prods: Vec<_> = (0..producers)
            .map(|p| {
                let queues = &queues;
                let ctrl = &ctrl;
                s.spawn(move || producer_loop(p, cfg, queues, shards, producers, ctrl, epoch))
            })
            .collect();
        for h in prods {
            producer_outcomes.push(h.join().ok());
        }
        // Drain: close admission (idempotent with the monitor), then —
        // with every producer joined, so nothing can race the flag —
        // raise stop. Workers flush partial batches and exit once their
        // rings are dry.
        ctrl.close_admission();
        ctrl.raise_stop();
        let drain_t0 = Instant::now();
        for h in workers {
            shard_outcomes.push(h.join().ok());
        }
        drain_ns = drain_t0.elapsed().as_nanos() as u64;
    });
    let elapsed_ns = epoch.elapsed().as_nanos() as u64;
    if let Some(p) = producer_outcomes.iter().position(Option::is_none) {
        return Err(ServeError::ProducerLost { producer: p });
    }
    if let Some(i) = shard_outcomes.iter().position(Option::is_none) {
        return Err(ServeError::ShardLost { shard: i });
    }
    // A lone shard's log becomes the report's as it is. With more shards,
    // every log is appended to one pooled log with room for a 1-shard
    // run's completions, so no log ever grows into fresh pages and the
    // next run of any shape can refill it; the drained logs go back to
    // the pool.
    let mut completions = if shards > 1 {
        shard::take_completion_log(completion_log_capacity(total, 1, producers))
    } else {
        Vec::new()
    };
    let mut sheds = Vec::new();
    let mut panics = 0u64;
    let mut restarts = 0u64;
    let mut failed_shards = Vec::new();
    let mut chaos_stats = ChaosStats::default();
    let mut quiesce = Vec::with_capacity(shards);
    let mut attribution = [StageAttribution::default(); workload::NUM_FUNCS];
    let mut flight = Vec::new();
    for (i, outcome) in shard_outcomes.into_iter().enumerate() {
        let mut o = outcome.unwrap_or_else(|| unreachable!("checked above"));
        if shards == 1 {
            completions = std::mem::take(&mut o.completions);
        } else {
            completions.append(&mut o.completions);
            shard::recycle_completion_log(o.completions);
        }
        sheds.extend_from_slice(&o.sheds);
        panics += o.panics;
        restarts += o.restarts;
        if o.gave_up {
            failed_shards.push(i);
        }
        chaos_stats.accumulate(o.chaos);
        quiesce.push(o.quiesce);
        for (sum, part) in attribution.iter_mut().zip(o.attribution.iter()) {
            sum.merge(part);
        }
        flight.extend(o.flight);
    }
    for outcome in producer_outcomes.into_iter().flatten() {
        sheds.extend_from_slice(&outcome.sheds);
    }
    Ok(ServeReport {
        completions,
        sheds,
        submitted: total,
        elapsed_ns,
        drain_ns,
        shards,
        producers,
        panics,
        restarts,
        failed_shards,
        chaos: chaos_stats,
        quiesce,
        attribution,
        flight,
    })
}

/// Forces every serve metric into the registry (see
/// [`metrics::register_metrics`]).
pub fn register_metrics() {
    metrics::register_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serve runs record into the process-global metrics registry and
    /// share the completion-log pool, and tests assert exact deltas of
    /// both, so the tests that drive a shard take turns, each holding its
    /// turn until its reports have dropped.
    pub(crate) fn serve_turn() -> MutexGuard<'static, ()> {
        static SERVE_RUNS: Mutex<()> = Mutex::new(());
        SERVE_RUNS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A report that keeps the serve turn until it drops. Fields drop in
    /// order, so the report's log is back in the pool before the next
    /// test's run can look there.
    struct Turn {
        report: ServeReport,
        _turn: MutexGuard<'static, ()>,
    }

    impl std::ops::Deref for Turn {
        type Target = ServeReport;
        fn deref(&self) -> &ServeReport {
            &self.report
        }
    }

    fn run(cfg: &ServeConfig) -> Result<Turn, ServeError> {
        let turn = serve_turn();
        serve_closed_loop(cfg).map(|report| Turn { report, _turn: turn })
    }

    /// The pooled completion logs, as (address, capacity). Call with the
    /// serve turn held.
    fn pooled_logs() -> Vec<(*const Completion, usize)> {
        let pool = shard::COMPLETION_POOL.lock().unwrap_or_else(PoisonError::into_inner);
        pool.iter().map(|log| (log.as_ptr(), log.capacity())).collect()
    }

    /// Frees every pooled log, so a test starts from a known pool. Call
    /// with the serve turn held.
    fn empty_pool() {
        shard::COMPLETION_POOL.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// What a run computed: (tag, function, input, output) per
    /// completion, in tag order.
    fn served_set(report: &ServeReport) -> Vec<(u64, u8, u32, u32)> {
        let mut v: Vec<_> =
            report.completions.iter().map(|c| (c.tag, c.func, c.x_bits, c.y_bits)).collect();
        v.sort_unstable();
        v
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            shards: 2,
            producers: 2,
            requests: 10_000,
            queue_capacity: 256,
            seed: 0x5EED,
            posit_permille: 300,
            ..ServeConfig::default()
        }
    }

    /// Every request is served exactly once and every response is
    /// bit-identical to the scalar two-tier function — the stack's
    /// correctness contract survives sharding, batching and SIMD.
    #[test]
    fn closed_loop_serves_everything_bit_identically() {
        let cfg = small_cfg();
        let report = run(&cfg).expect("healthy run");
        assert_eq!(report.completions.len() as u64, cfg.requests);
        assert!(report.sheds.is_empty(), "no sheds without deadlines or chaos");
        assert!(report.balanced());
        assert!(report.elapsed_ns > 0);
        assert_eq!(report.panics, 0);
        assert_eq!(report.restarts, 0);
        assert!(report.failed_shards.is_empty());
        assert_eq!(workload::count_mismatches(&report.completions), 0);
        assert!(
            report.completions.iter().any(|c| workload::is_posit(c.func)),
            "posit share of the workload was served"
        );
        // Tags are unique: each request completed exactly once.
        let mut tags: Vec<u64> = report.completions.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len() as u64, cfg.requests);
    }

    /// The served output set is a function of the seed alone — shard
    /// count, producer interleaving and queue capacity must not change
    /// what is computed, only when.
    #[test]
    fn serve_results_independent_of_sharding() {
        fn result_set(shards: usize, queue_capacity: usize) -> Vec<(u64, u32, u32)> {
            let report = run(&ServeConfig {
                shards,
                queue_capacity,
                requests: 4_000,
                ..small_cfg()
            })
            .expect("healthy run");
            let mut v: Vec<(u64, u32, u32)> =
                report.completions.iter().map(|c| (c.tag, c.x_bits, c.y_bits)).collect();
            v.sort_unstable();
            v
        }
        let a = result_set(1, 64);
        let b = result_set(4, 1024);
        assert_eq!(a, b);
    }

    #[test]
    fn metrics_observe_the_run_when_enabled() {
        register_metrics();
        let _turn = serve_turn();
        let before = metrics::total_requests();
        let cfg = small_cfg();
        let report = serve_closed_loop(&cfg).expect("healthy run");
        assert_eq!(report.completions.len() as u64, cfg.requests);
        let after = metrics::total_requests();
        if rlibm_obs::enabled() {
            assert_eq!(after - before, cfg.requests);
        } else {
            assert_eq!(after, 0);
        }
    }

    #[test]
    fn config_clamps_are_safe() {
        let report = run(&ServeConfig {
            shards: 0,
            producers: 0,
            requests: 100,
            queue_capacity: 0,
            seed: 1,
            posit_permille: 1000,
            ..ServeConfig::default()
        })
        .expect("healthy run");
        assert_eq!(report.shards, 1);
        assert_eq!(report.producers, 1);
        assert_eq!(report.completions.len(), 100);
        assert!(report.completions.iter().all(|c| workload::is_posit(c.func)));
    }

    /// Tag-space overflow is a typed config error, not a silent
    /// collision: 2^40 requests on one producer would wrap the
    /// sequence bits.
    #[test]
    fn config_validation_rejects_tag_overflow() {
        let cfg = ServeConfig { producers: 1, requests: u64::MAX / 2, ..ServeConfig::default() };
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TagSpaceOverflow { per_producer: u64::MAX / 2 + 1 })
        );
        assert!(matches!(
            run(&cfg),
            Err(ServeError::Config(ConfigError::TagSpaceOverflow { .. }))
        ));
        // The committed bench config (and anything remotely plausible)
        // is fine.
        assert_eq!(ServeConfig::default().validate(), Ok(()));
    }

    /// A chaos plan on a build without the `fault` feature is rejected
    /// loudly instead of silently not injecting.
    #[cfg(not(feature = "fault"))]
    #[test]
    fn chaos_config_requires_fault_feature() {
        let cfg = ServeConfig { chaos: Some(ChaosConfig::default()), ..small_cfg() };
        assert_eq!(cfg.validate(), Err(ConfigError::ChaosRequiresFaultFeature));
    }

    /// An aggressive deadline sheds explicitly — and the accounting
    /// still balances: every request is a completion or a shed record.
    #[test]
    fn deadline_sheds_are_explicit_and_balanced() {
        let report = run(&ServeConfig {
            deadline_ns: 1, // everything is past-deadline by dequeue time
            requests: 20_000,
            ..small_cfg()
        })
        .expect("healthy run");
        assert!(report.balanced(), "deadline shedding must not lose requests");
        assert!(
            report.shed_count(ShedReason::Deadline) > 0,
            "a 1ns deadline must shed at dequeue"
        );
        assert_eq!(workload::count_mismatches(&report.completions), 0);
        // Exactly-once across BOTH outcome kinds.
        let mut tags: Vec<u64> = report
            .completions
            .iter()
            .map(|c| c.tag)
            .chain(report.sheds.iter().map(|s| s.tag))
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len() as u64, report.submitted);
    }

    /// A mid-run drain stops admission, sheds the unsubmitted remainder
    /// explicitly, and still quiesces with balanced accounting.
    #[test]
    fn mid_run_drain_is_graceful_and_accounted() {
        let report = run(&ServeConfig {
            requests: 2_000_000,
            drain_after_ns: 2_000_000, // 2ms into a much longer run
            ..small_cfg()
        })
        .expect("healthy run");
        assert!(report.balanced());
        assert!(
            report.shed_count(ShedReason::AdmissionClosed) > 0,
            "the drain monitor must have cut admission mid-run"
        );
        assert!(!report.completions.is_empty(), "work admitted before the drain is served");
        assert_eq!(workload::count_mismatches(&report.completions), 0);
        assert_eq!(report.quiesce.len(), report.shards);
    }

    /// The bounded-backoff push surfaces a typed overflow outcome
    /// instead of spinning forever: with no consumer, a burst that meets
    /// a full ring pushes what fits and reports the count, so the caller
    /// sheds exactly the tail.
    #[test]
    fn push_backoff_returns_request_when_budget_exhausts() {
        let ctrl = ServiceControl::new();
        let q: MpmcQueue<Request> = MpmcQueue::with_capacity(4);
        let burst: Vec<Request> =
            (0..6).map(|j| Request::new(0, j as u32, make_tag(0, j), 0, NO_DEADLINE)).collect();
        assert_eq!(push_with_backoff(&q, &burst[..2], 4, &ctrl), Ok(1));
        assert_eq!(push_with_backoff(&q, &burst[2..], 4, &ctrl), Err(2), "room for two of four");
        assert_eq!(q.len(), 4);
        assert_eq!(push_with_backoff(&q, &burst[4..], 4, &ctrl), Err(0), "ring is full");
        // Closing admission short-circuits the wait.
        ctrl.close_admission();
        assert_eq!(push_with_backoff(&q, &burst[4..], u32::MAX, &ctrl), Err(0));
        // What was pushed is intact and in order.
        for j in 0..4 {
            assert_eq!(q.pop().map(|r| r.tag), Some(make_tag(0, j)));
        }
    }

    /// Bursts are routed round-robin, so with uneven producer quotas a
    /// shard can receive one burst per producer above its even share.
    /// No shard may complete more requests than its log was sized for:
    /// growing a full-size log mid-run would double the peak memory.
    #[test]
    fn no_shard_outgrows_its_completion_log() {
        let cfg = ServeConfig {
            shards: 3,
            producers: 2,
            // Quotas 4 * BATCH + 1 and 4 * BATCH: five bursts and four.
            requests: 8 * BATCH as u64 + 1,
            ..small_cfg()
        };
        let report = run(&cfg).expect("healthy run");
        assert!(report.balanced());
        assert_eq!(report.completions.len() as u64, cfg.requests);
        let bound = completion_log_capacity(cfg.requests, 3, 2) as u64;
        let served: Vec<u64> = report.quiesce.iter().map(|q| q.completions).collect();
        assert_eq!(served.iter().sum::<u64>(), cfg.requests);
        assert!(served.iter().all(|&c| c <= bound), "{served:?} exceeds the log bound {bound}");
        // Producer 0's bursts go to shards 0, 1, 2, 0, 1 (the last one
        // request) and producer 1's to 1, 2, 0, 1: shard 1 gets three
        // full bursts of the eight, 21 requests above its even share.
        assert_eq!(served[1], 3 * BATCH as u64 + 1);
    }

    /// Chaos-injected shard panics cannot shrink the completion log
    /// unnoticed: the supervisor keeps the in-flight work, restarts the
    /// shard, and the run still accounts for every request. This is the
    /// regression test for the old `if let Ok(log) = h.join()` silent
    /// loss.
    #[cfg(feature = "fault")]
    #[test]
    fn panicking_shard_cannot_shrink_completions_unnoticed() {
        crate::chaos::install_panic_filter();
        let cfg = ServeConfig {
            requests: 30_000,
            restart_backoff_ns: 1_000,
            max_restarts: u32::MAX,
            chaos: Some(ChaosConfig {
                seed: 0xC405,
                panic_per_million: 50_000, // 5% of flushes unwind
                ..ChaosConfig::default()
            }),
            ..small_cfg()
        };
        let report = run(&cfg).expect("supervised run");
        assert!(report.panics > 0, "the chaos plan must actually inject panics");
        assert_eq!(report.panics, report.chaos.panics);
        assert_eq!(report.restarts, report.panics, "every panic restarts within budget");
        assert!(report.balanced(), "panics must not lose requests");
        assert_eq!(workload::count_mismatches(&report.completions), 0);
        let mut tags: Vec<u64> = report
            .completions
            .iter()
            .map(|c| c.tag)
            .chain(report.sheds.iter().map(|s| s.tag))
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len() as u64, cfg.requests, "exactly-once across panics");
    }

    /// A shard that exhausts its restart budget gives up accountably:
    /// the run terminates (this test completing is the no-hang proof),
    /// the failure is itemized, and the backlog becomes explicit
    /// Poisoned sheds rather than vanishing.
    #[cfg(feature = "fault")]
    #[test]
    fn restart_budget_exhaustion_degrades_without_losing_requests() {
        crate::chaos::install_panic_filter();
        let report = run(&ServeConfig {
            requests: 20_000,
            restart_backoff_ns: 1_000,
            max_restarts: 1,
            chaos: Some(ChaosConfig {
                seed: 0xDEAD,
                panic_per_million: 1_000_000, // every flush panics
                ..ChaosConfig::default()
            }),
            ..small_cfg()
        })
        .expect("degraded but accounted run");
        assert!(!report.failed_shards.is_empty(), "shards must exhaust the 1-restart budget");
        assert!(report.balanced(), "given-up shards must shed, not lose");
        assert!(report.shed_count(ShedReason::Poisoned) > 0);
        assert_eq!(workload::count_mismatches(&report.completions), 0);
    }

    /// Every injected ring corruption is detected by the per-request
    /// checksum and shed explicitly — zero corrupted arguments are ever
    /// served.
    #[cfg(feature = "fault")]
    #[test]
    fn corruption_is_always_detected_and_shed() {
        crate::chaos::install_panic_filter();
        let report = run(&ServeConfig {
            requests: 30_000,
            chaos: Some(ChaosConfig {
                seed: 0x0BAD_5107,
                corrupt_per_million: 30_000, // 3% of dequeues corrupted
                ..ChaosConfig::default()
            }),
            ..small_cfg()
        })
        .expect("supervised run");
        assert!(report.chaos.corruptions > 0, "the chaos plan must actually corrupt");
        assert_eq!(
            report.shed_count(ShedReason::Corrupted),
            report.chaos.corruptions,
            "every corruption is detected, no more and no fewer"
        );
        assert!(report.balanced());
        assert_eq!(workload::count_mismatches(&report.completions), 0);
    }

    /// A second run with the same seed refills the first run's log: the
    /// served set is the same, both runs balance, and no fresh log is
    /// allocated.
    #[test]
    fn back_to_back_runs_recycle_the_completion_log() {
        let _turn = serve_turn();
        empty_pool();
        let cfg = ServeConfig { shards: 1, ..small_cfg() };
        let first = serve_closed_loop(&cfg).expect("healthy run");
        assert!(first.balanced());
        let (log, served) = (first.completions.as_ptr(), served_set(&first));
        drop(first);
        assert_eq!(pooled_logs().len(), 1, "dropping the report pools its log");
        let second = serve_closed_loop(&cfg).expect("healthy run");
        assert!(second.balanced());
        assert_eq!(second.completions.as_ptr(), log, "the second run refills the first run's log");
        assert_eq!(served_set(&second), served);
        assert_eq!(workload::count_mismatches(&second.completions), 0);
    }

    /// A pooled log too small for the next run is left in the pool, and
    /// the run gets a log with room for every completion, which it never
    /// outgrows: growing would have at least doubled its capacity.
    #[test]
    fn a_larger_run_never_refills_a_too_small_log() {
        let _turn = serve_turn();
        empty_pool();
        let small = serve_closed_loop(&ServeConfig { shards: 1, requests: 1_000, ..small_cfg() })
            .expect("healthy run");
        let small_log = (small.completions.as_ptr(), small.completions.capacity());
        drop(small);
        let cfg = ServeConfig { shards: 1, requests: 20_000, ..small_cfg() };
        let need = completion_log_capacity(cfg.requests, 1, cfg.producers);
        assert!(small_log.1 < need);
        let large = serve_closed_loop(&cfg).expect("healthy run");
        assert!(large.balanced());
        assert_eq!(large.completions.len() as u64, cfg.requests);
        assert_ne!(large.completions.as_ptr(), small_log.0);
        let cap = large.completions.capacity();
        assert!(need <= cap && cap < 2 * need, "log capacity {cap} for {need} completions");
        assert_eq!(pooled_logs(), vec![small_log], "the small log stays pooled, untouched");
    }

    /// The logs of a 3-shard run (all three handed back at merge time, the
    /// merged one when the report drops) serve a 1-shard run after it.
    #[test]
    fn a_three_shard_run_then_a_one_shard_run() {
        let _turn = serve_turn();
        empty_pool();
        let three =
            serve_closed_loop(&ServeConfig { shards: 3, ..small_cfg() }).expect("healthy run");
        assert!(three.balanced());
        assert_eq!(pooled_logs().len(), 3, "every shard hands its drained log back");
        let merged = (three.completions.as_ptr(), three.completions.capacity());
        let served = served_set(&three);
        drop(three);
        assert_eq!(pooled_logs().len(), 4);
        let cfg = ServeConfig { shards: 1, ..small_cfg() };
        // The merged log was taken with room for a 1-shard run and never
        // grew: growing would have at least doubled its capacity.
        let need = completion_log_capacity(cfg.requests, 1, cfg.producers);
        assert!(need <= merged.1 && merged.1 < 2 * need, "merged capacity {} for {need}", merged.1);
        let one = serve_closed_loop(&cfg).expect("healthy run");
        assert!(one.balanced());
        assert_eq!(one.completions.as_ptr(), merged.0);
        assert_eq!(served_set(&one), served);
    }

    /// The pool keeps at most `MAX_SHARDS` logs, freeing the smallest.
    #[test]
    fn the_pool_keeps_the_largest_logs_and_no_more() {
        let _turn = serve_turn();
        empty_pool();
        for cap in 1..=metrics::MAX_SHARDS + 2 {
            shard::recycle_completion_log(Vec::with_capacity(cap));
        }
        let mut caps: Vec<usize> = pooled_logs().iter().map(|&(_, cap)| cap).collect();
        caps.sort_unstable();
        assert_eq!(caps, (3..=metrics::MAX_SHARDS + 2).collect::<Vec<_>>());
        empty_pool();
    }

    /// A panic/restart run right after a healthy run refills that run's
    /// log, and none of the old entries survives: the log holds exactly
    /// what the shard served, each tag once.
    #[cfg(feature = "fault")]
    #[test]
    fn a_restarted_run_on_a_recycled_log_keeps_no_stale_entry() {
        crate::chaos::install_panic_filter();
        let _turn = serve_turn();
        empty_pool();
        let cfg = ServeConfig {
            shards: 1,
            requests: 30_000,
            restart_backoff_ns: 1_000,
            max_restarts: u32::MAX,
            ..small_cfg()
        };
        let healthy = serve_closed_loop(&cfg).expect("healthy run");
        let log = healthy.completions.as_ptr();
        drop(healthy);
        let chaos =
            Some(ChaosConfig { seed: 0xC405, panic_per_million: 50_000, ..ChaosConfig::default() });
        let report =
            serve_closed_loop(&ServeConfig { chaos, ..cfg.clone() }).expect("supervised run");
        assert_eq!(report.completions.as_ptr(), log, "the chaos run refills the healthy log");
        assert!(report.panics > 0 && report.restarts == report.panics);
        let served: u64 = report.quiesce.iter().map(|q| q.completions).sum();
        assert_eq!(report.completions.len() as u64, served);
        assert!(report.balanced());
        assert_eq!(workload::count_mismatches(&report.completions), 0);
        let mut tags: Vec<u64> = report
            .completions
            .iter()
            .map(|c| c.tag)
            .chain(report.sheds.iter().map(|s| s.tag))
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len() as u64, cfg.requests, "exactly once on a recycled log");
    }
}
