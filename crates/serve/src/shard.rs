//! The shard worker: drains its request ring in bursts, batches per
//! function into 64-lane slice chunks, and resolves every dequeued
//! request as exactly one of a bit-identical [`Completion`] or an
//! explicit [`Shed`] record.
//!
//! Zero allocation per request: the inbox the ring is drained into and
//! the per-function accumulators are fixed `[_; 64]` arrays owned by the
//! worker, the slice staging buffers are stack arrays, and the
//! completion log is a pooled one ([`take_completion_log`]) with room
//! for every completion the shard can receive. The only heap traffic
//! after startup is the final hand-off of the logs.
//!
//! Batching policy: a full 64-lane batch flushes immediately; any
//! partially filled batches flush as soon as the ring runs dry, so an
//! idle service converges to scalar-sized batches (low latency) and a
//! loaded one to full chunks (high throughput) without a timer.
//!
//! Failure handling on the worker path (see `supervisor` for the
//! restart side):
//!
//! * every dequeued request is **integrity-checked** against its
//!   enqueue-time checksum; a corrupted request is shed as
//!   [`ShedReason::Corrupted`] instead of being served with a wrong
//!   argument;
//! * a request past its **deadline** is shed as
//!   [`ShedReason::Deadline`] at dequeue time (once admitted to a
//!   batch, the shard commits to answering it);
//! * the worker body ([`shard_pass`]) is run under `catch_unwind` by
//!   the supervisor, with all logs, accumulators and the inbox living
//!   *outside* the unwind so a restarted pass can resume the in-flight
//!   work (or the supervisor salvage it once the restart budget is
//!   spent).

use crate::chaos::ChaosState;
use crate::flight::{self, FlightDump, FlightTrigger, StageAttribution};
use crate::metrics;
use crate::queue::MpmcQueue;
use crate::supervisor::{ServiceControl, ShardQuiesce};
use crate::workload;
use rlibm_obs::trace::{self, TraceKind};
use rlibm_posit::Posit32;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Lanes per flush — the slice kernels' chunk width.
pub const BATCH: usize = 64;

/// Bits of the per-producer sequence number inside a [`Request::tag`];
/// the producer index occupies the bits above. 2^40 requests per
/// producer and 2^24 producers before the tag space is exhausted —
/// configs that could overflow are rejected up front
/// (`ServeConfig::validate`), never silently wrapped.
pub const TAG_SEQ_BITS: u32 = 40;

/// Builds the exactly-once tag for producer `p`'s `j`-th request.
/// Collision-free whenever `p < 2^24` and `j < 2^40` (enforced by
/// config validation).
#[inline]
pub fn make_tag(producer: usize, j: u64) -> u64 {
    ((producer as u64) << TAG_SEQ_BITS) | j
}

/// Sentinel deadline meaning "no deadline".
pub const NO_DEADLINE: u64 = u64::MAX;

/// One request: a function id, the argument bit pattern, a caller tag
/// echoed into the completion, the enqueue timestamp and deadline
/// (nanoseconds since the service epoch), and an integrity checksum
/// over all of the above, verified at dequeue.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub func: u8,
    pub x_bits: u32,
    pub tag: u64,
    pub t_enqueue_ns: u64,
    /// Absolute deadline in ns since the epoch; [`NO_DEADLINE`] = none.
    pub deadline_ns: u64,
    /// Enqueue-time checksum binding every field above.
    pub check: u32,
}

impl Request {
    /// A request with its checksum computed from the other fields.
    pub fn new(func: u8, x_bits: u32, tag: u64, t_enqueue_ns: u64, deadline_ns: u64) -> Request {
        Request {
            func,
            x_bits,
            tag,
            t_enqueue_ns,
            deadline_ns,
            check: checksum(func, x_bits, tag, t_enqueue_ns, deadline_ns),
        }
    }

    /// True when the checksum still matches the fields — i.e. the
    /// request survived the ring intact.
    #[inline]
    pub fn verify(&self) -> bool {
        self.check == checksum(self.func, self.x_bits, self.tag, self.t_enqueue_ns, self.deadline_ns)
    }
}

/// Per-request integrity checksum. `x_bits` enters through a bijective
/// map (odd-constant multiply, xored in last), so any single-bit change
/// to `x_bits` — the chaos harness's ring-corruption model — changes
/// the checksum with certainty, not merely with high probability. The
/// remaining fields are mixed through a single multiply (rotations keep
/// their bits from cancelling each other), detected with probability
/// ~1-2^-32 per flip: one multiply instead of a dependency chain of
/// four, because this runs twice per request on the serve hot path.
#[inline]
fn checksum(func: u8, x_bits: u32, tag: u64, t_enqueue_ns: u64, deadline_ns: u64) -> u32 {
    let h = (tag
        ^ t_enqueue_ns.rotate_left(21)
        ^ deadline_ns.rotate_left(43)
        ^ (u64::from(func) << 56))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let folded = (h ^ (h >> 32)) as u32;
    folded ^ x_bits.wrapping_mul(0x9E37_79B9)
}

/// One served response, with the measured enqueue-to-completion latency.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    pub func: u8,
    pub x_bits: u32,
    pub y_bits: u32,
    pub tag: u64,
    pub latency_ns: u64,
}

/// Completion logs handed back by dropped reports and merged shards,
/// for later runs to refill: a fresh log costs the shard thread a page
/// fault every 128 completions. Holds at most [`metrics::MAX_SHARDS`]
/// logs. Every update leaves a valid list, so a poisoned lock is
/// recovered.
pub(crate) static COMPLETION_POOL: Mutex<Vec<Vec<Completion>>> = Mutex::new(Vec::new());

/// An empty log with room for `capacity` completions: the smallest pooled
/// log that fits (the latest returned on a tie), else a fresh one.
pub(crate) fn take_completion_log(capacity: usize) -> Vec<Completion> {
    let mut pool = COMPLETION_POOL.lock().unwrap_or_else(PoisonError::into_inner);
    let fit = (0..pool.len()).rev().filter(|&i| pool[i].capacity() >= capacity);
    let fit = fit.min_by_key(|&i| pool[i].capacity());
    let mut log = fit.map_or_else(|| Vec::with_capacity(capacity), |i| pool.remove(i));
    log.clear();
    log
}

/// Pools a log, freeing the smallest once more than `MAX_SHARDS` are held.
pub(crate) fn recycle_completion_log(log: Vec<Completion>) {
    let mut pool = COMPLETION_POOL.lock().unwrap_or_else(PoisonError::into_inner);
    pool.push(log);
    if pool.len() > metrics::MAX_SHARDS {
        pool.sort_by_key(|log| std::cmp::Reverse(log.capacity()));
        pool.truncate(metrics::MAX_SHARDS);
    }
}

/// Why a request was shed instead of served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// Past its deadline at dequeue time.
    Deadline,
    /// The producer's bounded-backoff push budget ran out on a full
    /// ring.
    Backpressure,
    /// Admission was already closed (drain in progress) when the
    /// producer tried to submit.
    AdmissionClosed,
    /// The dequeued request failed its integrity checksum.
    Corrupted,
    /// In flight on, or queued for, a shard that exhausted its restart
    /// budget.
    Poisoned,
}

/// An explicitly shed request — the accounting twin of [`Completion`]:
/// every submitted request ends as exactly one of the two.
#[derive(Clone, Copy, Debug)]
pub struct Shed {
    pub func: u8,
    pub x_bits: u32,
    pub tag: u64,
    pub reason: ShedReason,
}

/// Per-function accumulator: parallel columns of a pending batch. The
/// deadline has no column: it is checked at dequeue, and a request
/// admitted to a batch is answered.
pub(crate) struct Batch {
    pub x_bits: [u32; BATCH],
    pub tag: [u64; BATCH],
    pub t_enq: [u64; BATCH],
    /// Dequeue timestamp of trace-sampled lanes (0 = not sampled);
    /// feeds the batch-residency attribution at flush time.
    pub t_deq: [u64; BATCH],
    pub len: usize,
}

impl Batch {
    const fn new() -> Batch {
        Batch {
            x_bits: [0; BATCH],
            tag: [0; BATCH],
            t_enq: [0; BATCH],
            t_deq: [0; BATCH],
            len: 0,
        }
    }

    #[inline]
    fn push(&mut self, req: &Request, t_deq_ns: u64) -> bool {
        self.x_bits[self.len] = req.x_bits;
        self.tag[self.len] = req.tag;
        self.t_enq[self.len] = req.t_enqueue_ns;
        self.t_deq[self.len] = t_deq_ns;
        self.len += 1;
        self.len == BATCH
    }
}

/// Requests popped from the ring in one burst and not yet batched or
/// shed: `reqs[next..len]`. Lives in [`ShardState`] so a panic mid-burst
/// leaves them for the restarted pass (or the supervisor's salvage).
pub(crate) struct Inbox {
    pub reqs: [Request; BATCH],
    pub next: usize,
    pub len: usize,
}

impl Inbox {
    pub fn new() -> Inbox {
        Inbox { reqs: [Request::new(0, 0, 0, 0, NO_DEADLINE); BATCH], next: 0, len: 0 }
    }

    /// The popped requests not yet taken.
    pub fn pending(&self) -> &[Request] {
        &self.reqs[self.next..self.len]
    }
}

/// Scratch for the slice staging buffers (stack arrays, reused across
/// flushes).
struct Scratch {
    xs: [f32; BATCH],
    ys: [f32; BATCH],
    pxs: [Posit32; BATCH],
    pys: [Posit32; BATCH],
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            xs: [0.0; BATCH],
            ys: [0.0; BATCH],
            pxs: [Posit32::ZERO; BATCH],
            pys: [Posit32::ZERO; BATCH],
        }
    }
}

/// Everything a shard accumulates across supervised passes. Lives in
/// the supervisor's frame, *outside* `catch_unwind`, so a panicking
/// pass cannot take the completion log, the in-flight batches or the
/// inbox with it.
pub(crate) struct ShardState {
    pub completions: Vec<Completion>,
    pub sheds: Vec<Shed>,
    pub batches: Vec<Batch>,
    pub inbox: Inbox,
    pub chaos: ChaosState,
    pub quiesce: ShardQuiesce,
    /// Exact per-function latency attribution of trace-sampled requests.
    pub attribution: [StageAttribution; workload::NUM_FUNCS],
    /// Flight-recorder dumps captured on this shard (panic/corruption),
    /// capped at [`flight::FLIGHT_DUMPS_PER_SHARD`].
    pub flight: Vec<FlightDump>,
    /// Only the *first* corrupted request dumps the recorder — a
    /// corruption storm is summarized by its shed counter, not N dumps.
    corruption_dumped: bool,
}

impl ShardState {
    pub fn new(shard: usize, expected: usize, chaos_cfg: Option<&crate::chaos::ChaosConfig>) -> ShardState {
        ShardState {
            completions: take_completion_log(expected),
            sheds: Vec::new(),
            batches: (0..workload::NUM_FUNCS).map(|_| Batch::new()).collect(),
            inbox: Inbox::new(),
            chaos: ChaosState::new(chaos_cfg, shard),
            quiesce: ShardQuiesce { shard, ..ShardQuiesce::default() },
            attribution: [StageAttribution::default(); workload::NUM_FUNCS],
            flight: Vec::new(),
            corruption_dumped: false,
        }
    }

    pub fn shed(&mut self, func: u8, x_bits: u32, tag: u64, reason: ShedReason) {
        metrics::shed_counter(reason).add(1);
        // Sheds bypass sampling: each one is an exemplar (the event
        // carries the input bit pattern behind the shed).
        flight::shed_event(func, x_bits, tag, reason);
        if reason == ShedReason::Corrupted
            && !self.corruption_dumped
            && rlibm_obs::enabled()
            && self.flight.len() < flight::FLIGHT_DUMPS_PER_SHARD
        {
            self.corruption_dumped = true;
            self.flight.push(flight::capture_flight(
                self.quiesce.shard,
                FlightTrigger::Corruption,
                0,
            ));
        }
        self.sheds.push(Shed { func, x_bits, tag, reason });
    }

    /// Flushes function `f`'s pending batch, lending the free `flush` the
    /// disjoint parts of the state it writes.
    #[inline]
    fn flush(&mut self, f: usize, scratch: &mut Scratch, q: &MpmcQueue<Request>, epoch: Instant) {
        let (batch, attribution) = (&mut self.batches[f], &mut self.attribution[f]);
        let (chaos, completions) = (&mut self.chaos, &mut self.completions);
        let shard = self.quiesce.shard;
        flush(shard, f as u8, batch, scratch, chaos, q, epoch, completions, attribution);
    }
}


// Takes the batch, chaos state and completion log as disjoint borrows of
// ShardState (they cannot be passed as one &mut without aliasing the
// batch), hence the argument count.
#[allow(clippy::too_many_arguments)]
fn flush(
    shard: usize,
    func: u8,
    batch: &mut Batch,
    scratch: &mut Scratch,
    chaos: &mut ChaosState,
    queue: &MpmcQueue<Request>,
    epoch: Instant,
    completions: &mut Vec<Completion>,
    attribution: &mut StageAttribution,
) {
    let n = batch.len;
    if n == 0 {
        return;
    }
    // Chaos hooks fire before any completion is recorded: a panic here
    // leaves the whole batch in flight for the restarted pass to flush.
    chaos.fire_panic_if_armed();
    chaos.maybe_delay();
    // Kernel timing brackets only the slice eval (the chaos hooks above
    // would otherwise dominate under injected delays). The context byte
    // lets rescalar lanes inside the kernel stamp their exemplars with
    // this function id; draining the fallback accumulator here discards
    // any stale ns from non-serve work on this thread.
    let trace_on = rlibm_obs::enabled();
    let t_kernel0 = if trace_on {
        trace::set_context(func);
        let _ = trace::take_fallback_ns();
        // The flush *timing* is unconditional (exact attribution); the
        // flush *event* follows the tag-hash sample of its first lane so
        // the ring stays proportional to the sampling rate.
        if trace::sampled(batch.tag[0]) {
            trace::emit(TraceKind::BatchFlush, func, batch.tag[0], n as u32);
        }
        epoch.elapsed().as_nanos() as u64
    } else {
        0
    };
    if workload::is_posit(func) {
        for i in 0..n {
            scratch.pxs[i] = Posit32::from_bits(batch.x_bits[i]);
        }
        workload::posit_slice_eval(func, &scratch.pxs[..n], &mut scratch.pys[..n]);
    } else {
        for i in 0..n {
            scratch.xs[i] = f32::from_bits(batch.x_bits[i]);
        }
        workload::f32_slice_eval(func, &scratch.xs[..n], &mut scratch.ys[..n]);
    }
    let now = epoch.elapsed().as_nanos() as u64;
    if trace_on {
        let kernel_ns = now.saturating_sub(t_kernel0);
        let fallback_ns = trace::take_fallback_ns();
        metrics::trace_kernel_ns().record(kernel_ns);
        if fallback_ns > 0 {
            metrics::trace_fallback_ns().record(fallback_ns);
        }
        attribution.kernel_ns += kernel_ns;
        attribution.fallback_ns += fallback_ns;
        attribution.kernel_lanes += n as u64;
        attribution.batches += 1;
    }
    metrics::batches(shard).add(1);
    metrics::batch_lanes(shard).add(n as u64);
    // Gated, not left to the no-op histogram: `len` reads both ticket
    // counters, one of them on the producers' hot line.
    if trace_on {
        metrics::queue_depth(shard).record(queue.len() as u64);
    }
    let lat = metrics::latency_ns(shard);
    for i in 0..n {
        let latency_ns = now.saturating_sub(batch.t_enq[i]);
        lat.record(latency_ns);
        let y_bits = if workload::is_posit(func) {
            scratch.pys[i].to_bits()
        } else {
            scratch.ys[i].to_bits()
        };
        // A nonzero dequeue stamp marks a trace-sampled lane: close its
        // span with the queue-wait / batch-residency split and a
        // Complete event echoing the end-to-end latency.
        if batch.t_deq[i] > 0 {
            let queue_wait = batch.t_deq[i].saturating_sub(batch.t_enq[i]);
            let batch_wait = t_kernel0.saturating_sub(batch.t_deq[i]);
            metrics::trace_sampled().add(1);
            metrics::trace_queue_wait_ns().record(queue_wait);
            metrics::trace_batch_wait_ns().record(batch_wait);
            attribution.samples += 1;
            attribution.queue_ns += queue_wait;
            attribution.batch_ns += batch_wait;
            trace::emit(
                TraceKind::Complete,
                func,
                batch.tag[i],
                latency_ns.min(u64::from(u32::MAX)) as u32,
            );
        }
        completions.push(Completion {
            func,
            x_bits: batch.x_bits[i],
            y_bits,
            tag: batch.tag[i],
            latency_ns,
        });
    }
    batch.len = 0;
}

/// One supervised pass of the shard: pop up to a batch of requests at a
/// time into the inbox, batch them one by one, flush. Returns normally
/// only at quiesce — once the driver has raised `stop`
/// (admission closed, producers joined, so no push can race it) and the
/// ring and every accumulator are empty. A panic (injected or real)
/// unwinds into the supervisor with `state` intact, and a restarted pass
/// resumes that work: a batch whose flush the panic struck is still
/// full, so it is flushed before any lane is added.
pub(crate) fn shard_pass(
    shard: usize,
    queue: &MpmcQueue<Request>,
    ctrl: &ServiceControl,
    epoch: Instant,
    state: &mut ShardState,
) {
    let mut scratch = Scratch::new();
    let st = &mut *state;
    for f in 0..workload::NUM_FUNCS {
        if st.batches[f].len == BATCH {
            st.flush(f, &mut scratch, queue, epoch);
        }
    }
    loop {
        if st.inbox.next == st.inbox.len {
            let n = queue.pop_into(&mut st.inbox.reqs);
            st.inbox.next = 0;
            st.inbox.len = n;
            if n == 0 {
                let mut flushed_lanes = 0u64;
                for f in 0..workload::NUM_FUNCS {
                    if st.batches[f].len > 0 {
                        flushed_lanes += st.batches[f].len as u64;
                        st.flush(f, &mut scratch, queue, epoch);
                    }
                }
                if flushed_lanes == 0 {
                    if ctrl.stopping() && queue.is_empty() {
                        break;
                    }
                    // Closed-loop friendly idle: yield so producers (and,
                    // on a single hardware thread, everyone else) run.
                    std::thread::yield_now();
                } else if ctrl.stopping() {
                    st.quiesce.trailing_flush_lanes += flushed_lanes;
                }
                continue;
            }
            metrics::requests(shard).add(n as u64);
            if ctrl.stopping() {
                st.quiesce.drained_requests += n as u64;
            }
        }
        // Taken before it is batched or shed, so after a panic it sits in
        // exactly one place.
        let mut req = st.inbox.reqs[st.inbox.next];
        st.inbox.next += 1;
        st.chaos.maybe_corrupt(&mut req);
        if !req.verify() {
            st.shed(req.func, req.x_bits, req.tag, ShedReason::Corrupted);
            continue;
        }
        let f = workload::fold(req.func);
        // Deterministic tag-hash sampling: every stage of the pipeline
        // agrees on the sample set, so a sampled request yields a
        // complete span. One clock read serves both the deadline check
        // and the dequeue stamp.
        let trace_on = rlibm_obs::enabled() && trace::sampled(req.tag);
        let mut now = 0u64;
        if req.deadline_ns != NO_DEADLINE || trace_on {
            now = epoch.elapsed().as_nanos() as u64;
        }
        if req.deadline_ns != NO_DEADLINE && now > req.deadline_ns {
            metrics::shed_overdue_ns().record(now - req.deadline_ns);
            st.shed(req.func, req.x_bits, req.tag, ShedReason::Deadline);
            continue;
        }
        let t_deq = if trace_on {
            let queue_wait = now.saturating_sub(req.t_enqueue_ns);
            trace::emit(
                TraceKind::Dequeue,
                f as u8,
                req.tag,
                queue_wait.min(u64::from(u32::MAX)) as u32,
            );
            // max(1): a zero stamp means "not sampled" in the batch
            // columns.
            now.max(1)
        } else {
            0
        };
        if st.batches[f].push(&req, t_deq) {
            st.flush(f, &mut scratch, queue, epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_any_single_bit_corruption_of_x_bits() {
        let req = Request::new(3, 0xDEAD_BEEF, make_tag(2, 77), 1_000, 5_000);
        assert!(req.verify());
        for bit in 0..32 {
            let mut bad = req;
            bad.x_bits ^= 1 << bit;
            assert!(!bad.verify(), "bit {bit} flip went undetected");
        }
        // The other fields are covered too (probabilistically exact for
        // these spot checks).
        for bad in [
            Request { tag: req.tag + 1, ..req },
            Request { func: req.func + 1, ..req },
            Request { deadline_ns: req.deadline_ns + 1, ..req },
            Request { t_enqueue_ns: req.t_enqueue_ns + 1, ..req },
        ] {
            assert!(!bad.verify());
        }
    }

    /// The u32 tag scheme collided at 2^24 requests per producer
    /// (`(p << 24) | (j & 0xFF_FFFF)`); the u64 scheme must not.
    #[test]
    fn tags_do_not_collide_past_the_old_24_bit_boundary() {
        // The exact collision pair under the old scheme.
        assert_ne!(make_tag(0, 1 << 24), make_tag(1, 0));
        // Dense probe around the boundary, several producers.
        let mut tags: Vec<u64> = Vec::new();
        for p in 0..4 {
            for j in ((1u64 << 24) - 4)..((1u64 << 24) + 4) {
                tags.push(make_tag(p, j));
            }
        }
        let n = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), n, "tag collision across the 2^24 boundary");
        // And the documented capacity bounds round-trip.
        assert_eq!(make_tag(5, 9) >> TAG_SEQ_BITS, 5);
        assert_eq!(make_tag(5, 9) & ((1 << TAG_SEQ_BITS) - 1), 9);
    }
}
