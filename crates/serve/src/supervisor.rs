//! Shard supervision: panic isolation, capped-backoff restarts, and the
//! graceful-drain protocol.
//!
//! Each worker thread runs [`supervise_shard`] instead of a bare worker
//! loop. The supervisor owns the shard's [`ShardState`] (completion and
//! shed logs, in-flight batch accumulators, chaos state) and runs the
//! actual worker body ([`crate::shard::shard_pass`]) under
//! `catch_unwind`, so a panic — injected by the chaos harness or real —
//! can never take the completion log with it:
//!
//! 1. the panic is counted (`serve.shard<i>.panics`) and the in-flight
//!    work is **left in place**: the batches and the inbox live in the
//!    state, outside the unwind, and an injected panic fires at the top
//!    of a flush before any completion is recorded, so nothing is half
//!    served. The restarted pass resumes it (flushing first the batch
//!    the panic struck), so a restartable panic sheds no request;
//! 2. the shard **restarts** (`serve.shard<i>.restarts`) after a capped
//!    exponential backoff (`restart_backoff_ns << n`, capped at 64×);
//! 3. a shard that exhausts `max_restarts` **gives up deterministically**:
//!    its batches and inbox are **salvaged** into explicit
//!    [`crate::ShedReason::Poisoned`] records, and it stops serving and
//!    drains its ring into `Poisoned` shed records until the stop flag
//!    is raised, so producers never wedge and the exactly-once
//!    accounting still balances. The failure is reported in
//!    `ServeReport::failed_shards`, not hidden.
//!
//! [`ServiceControl`] carries the two-phase shutdown protocol: closing
//! **admission** stops producers from submitting new work (each
//! unsubmitted request becomes an explicit `AdmissionClosed` shed);
//! raising **stop** tells workers to flush their partial batches and
//! exit once their ring is dry. The driver's drain sequence — close
//! admission, join producers, raise stop, join workers — yields a
//! [`ShardQuiesce`] per shard recording how much in-flight work the
//! drain had to retire.

use crate::chaos::{ChaosConfig, ChaosStats};
use crate::flight::{self, FlightDump, FlightTrigger, StageAttribution};
use crate::metrics;
use crate::queue::MpmcQueue;
use crate::shard::{shard_pass, Inbox, Request, Shed, ShedReason, ShardState};
use crate::workload;
use rlibm_obs::trace::{self, TraceKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Shared shutdown/drain state between the driver, producers and
/// shards.
pub struct ServiceControl {
    admission_closed: AtomicBool,
    stop: AtomicBool,
}

impl Default for ServiceControl {
    fn default() -> ServiceControl {
        ServiceControl::new()
    }
}

impl ServiceControl {
    pub fn new() -> ServiceControl {
        ServiceControl {
            admission_closed: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        }
    }

    /// Phase 1 of drain: no new requests are admitted. Producers shed
    /// everything they have not yet submitted as `AdmissionClosed`.
    pub fn close_admission(&self) {
        self.admission_closed.store(true, Ordering::Release);
    }

    /// True once admission has been closed.
    pub fn admission_closed(&self) -> bool {
        self.admission_closed.load(Ordering::Acquire)
    }

    /// Phase 2 of drain: workers flush partial batches and exit once
    /// their ring is observed empty. Only raised after every producer
    /// has joined, so no push can race the stop flag.
    pub(crate) fn raise_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// True once the stop flag is raised.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Per-shard completion and drain accounting, reported in
/// `ServeReport::quiesce`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardQuiesce {
    /// Which shard this entry describes.
    pub shard: usize,
    /// Requests this shard completed over the whole run.
    pub completions: u64,
    /// Requests dequeued after the stop flag was observed — the ring
    /// backlog the drain retired.
    pub drained_requests: u64,
    /// Lanes flushed from partial batches during the drain.
    pub trailing_flush_lanes: u64,
}

/// Everything one supervised shard hands back to the driver.
pub(crate) struct ShardOutcome {
    pub completions: Vec<crate::shard::Completion>,
    pub sheds: Vec<Shed>,
    pub panics: u64,
    pub restarts: u64,
    pub gave_up: bool,
    pub chaos: ChaosStats,
    pub quiesce: ShardQuiesce,
    pub attribution: [StageAttribution; workload::NUM_FUNCS],
    pub flight: Vec<FlightDump>,
}

/// Backoff before restart `n` (0-based): `base << n`, capped at 64×.
pub(crate) fn restart_backoff(base_ns: u64, restart: u64) -> Duration {
    let shift = restart.min(6) as u32;
    Duration::from_nanos(base_ns.saturating_mul(1u64 << shift))
}

/// Runs one shard under supervision until quiesce (or until its restart
/// budget is exhausted and its ring has been drained into explicit shed
/// records). Never unwinds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn supervise_shard(
    shard: usize,
    queue: &MpmcQueue<Request>,
    ctrl: &ServiceControl,
    epoch: Instant,
    expected: usize,
    max_restarts: u32,
    restart_backoff_ns: u64,
    chaos_cfg: Option<&ChaosConfig>,
) -> ShardOutcome {
    let mut state = ShardState::new(shard, expected, chaos_cfg);
    state.chaos.arm_kernel();
    let mut panics = 0u64;
    let mut restarts = 0u64;
    let mut gave_up = false;
    loop {
        let pass = catch_unwind(AssertUnwindSafe(|| {
            shard_pass(shard, queue, ctrl, epoch, &mut state);
        }));
        match pass {
            Ok(()) => break, // clean quiesce
            Err(payload) => {
                drop(payload);
                panics += 1;
                metrics::panics(shard).add(1);
                // Flight recorder: the dump happens *before* salvage, so
                // the last events leading into the panic are preserved
                // exactly as the failing pass wrote them.
                trace::emit(TraceKind::PanicCaught, shard as u8, shard as u64, restarts as u32);
                if rlibm_obs::enabled() && state.flight.len() < flight::FLIGHT_DUMPS_PER_SHARD {
                    state
                        .flight
                        .push(flight::capture_flight(shard, FlightTrigger::Panic, restarts));
                }
                if restarts >= u64::from(max_restarts) {
                    // Budget exhausted: stop serving, but leave nothing
                    // unaccounted — batches, inbox and ring drain into
                    // explicit Poisoned sheds.
                    salvage_batches(&mut state);
                    drain_to_sheds(queue, ctrl, &mut state);
                    gave_up = true;
                    break;
                }
                // The in-flight work stays in `state` for the restarted
                // pass; restart after a capped backoff.
                std::thread::sleep(restart_backoff(restart_backoff_ns, restarts));
                restarts += 1;
                metrics::restarts(shard).add(1);
                trace::emit(TraceKind::Restart, shard as u8, shard as u64, restarts as u32);
            }
        }
    }
    state.chaos.disarm_kernel();
    state.quiesce.completions = state.completions.len() as u64;
    ShardOutcome {
        completions: state.completions,
        sheds: state.sheds,
        panics,
        restarts,
        gave_up,
        chaos: state.chaos.stats,
        quiesce: state.quiesce,
        attribution: state.attribution,
        flight: state.flight,
    }
}

/// Sheds every request in flight on a shard that gave up — buffered in
/// a batch, or popped into the inbox and not yet taken — as an explicit
/// `Poisoned` record carrying its original tag.
fn salvage_batches(state: &mut ShardState) {
    for f in 0..workload::NUM_FUNCS {
        for i in 0..state.batches[f].len {
            let b = &state.batches[f];
            let (x_bits, tag) = (b.x_bits[i], b.tag[i]);
            state.shed(f as u8, x_bits, tag, ShedReason::Poisoned);
        }
        state.batches[f].len = 0;
    }
    let inbox = std::mem::replace(&mut state.inbox, Inbox::new());
    for req in inbox.pending() {
        state.shed(req.func, req.x_bits, req.tag, ShedReason::Poisoned);
    }
}

/// Terminal drain for a shard that gave up: pops until the stop flag is
/// raised and the ring is dry, turning every request into an explicit
/// `Poisoned` shed so producers never block on a dead shard and the
/// exactly-once accounting still balances.
fn drain_to_sheds(queue: &MpmcQueue<Request>, ctrl: &ServiceControl, state: &mut ShardState) {
    loop {
        match queue.pop() {
            Some(req) => state.shed(req.func, req.x_bits, req.tag, ShedReason::Poisoned),
            None => {
                if ctrl.stopping() && queue.is_empty() {
                    break;
                }
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let base = 1_000u64;
        assert_eq!(restart_backoff(base, 0), Duration::from_nanos(1_000));
        assert_eq!(restart_backoff(base, 1), Duration::from_nanos(2_000));
        assert_eq!(restart_backoff(base, 6), Duration::from_nanos(64_000));
        // Cap: no further doubling past 64×.
        assert_eq!(restart_backoff(base, 7), Duration::from_nanos(64_000));
        assert_eq!(restart_backoff(base, 1_000), Duration::from_nanos(64_000));
        // Saturating on absurd bases rather than overflowing.
        assert_eq!(restart_backoff(u64::MAX, 6), Duration::from_nanos(u64::MAX));
    }

    /// A panic on the first full-batch flush strikes while the inbox
    /// still holds popped, unbatched requests. Salvage must requeue or
    /// poison them like batch lanes: with every flush panicking, each
    /// request ends as exactly one `Poisoned` shed, whether the shard
    /// gives up at once or requeues first and gives up on the restart.
    #[cfg(feature = "fault")]
    #[test]
    fn salvage_covers_requests_still_in_the_inbox() {
        use crate::shard::{make_tag, BATCH, NO_DEADLINE};
        crate::chaos::install_panic_filter();
        // 16 requests of function 1, then two batches of function 0. The
        // first burst batches all 64; the second fills function 0's
        // batch at its 16th request, whose flush panics with 48 requests
        // still in the inbox.
        let reqs: Vec<Request> = (0..16 + 2 * BATCH as u64)
            .map(|j| {
                let func = u8::from(j < 16);
                Request::new(func, 0x3F80_0000 + j as u32, make_tag(0, j), 0, NO_DEADLINE)
            })
            .collect();
        for max_restarts in [0, 1] {
            let queue = MpmcQueue::with_capacity(256);
            assert_eq!(queue.push_slice(&reqs), reqs.len());
            let ctrl = ServiceControl::new();
            ctrl.close_admission();
            ctrl.raise_stop(); // nothing more is coming: quiesce when dry
            let chaos =
                ChaosConfig { seed: 7, panic_per_million: 1_000_000, ..ChaosConfig::default() };
            let out = supervise_shard(
                0,
                &queue,
                &ctrl,
                Instant::now(),
                reqs.len(),
                max_restarts,
                1_000,
                Some(&chaos),
            );
            assert_eq!(out.panics, u64::from(max_restarts) + 1);
            assert!(out.gave_up);
            assert_eq!(
                out.completions.len() + out.sheds.len(),
                reqs.len(),
                "unbalanced with {max_restarts} restarts: inbox requests were lost"
            );
            assert!(out.sheds.iter().all(|s| s.reason == ShedReason::Poisoned));
            let mut tags: Vec<u64> = out.sheds.iter().map(|s| s.tag).collect();
            tags.sort_unstable();
            tags.dedup();
            assert_eq!(tags.len(), reqs.len(), "every tag exactly once");
            assert!(queue.is_empty());
        }
    }

    /// One restartable panic under a closed-loop producer that keeps the
    /// ring full must shed nothing: the restarted pass resumes the batch
    /// the panic struck. Requests alternate two functions, so the second
    /// burst fills function 0's batch one request before function 1's.
    /// Function 0's flush busy-waits 1 ms (every flush is delayed), in
    /// which the producer refills the ring; function 1's flush then
    /// panics with the ring full. Seed 384348's panic stream fires on
    /// exactly that second flush and on none of the next 4096. The
    /// assertions hold for any interleaving; the delay only makes the
    /// ring reliably full when the panic strikes, where requeueing the
    /// batch instead would have to shed it.
    #[cfg(feature = "fault")]
    #[test]
    fn restartable_panic_on_a_full_ring_sheds_nothing() {
        use crate::shard::{make_tag, NO_DEADLINE};
        crate::chaos::install_panic_filter();
        const CAP: usize = 128;
        let reqs: Vec<Request> = (0..1024u64)
            .map(|j| {
                let func = (j % 2) as u8;
                Request::new(func, 0x3F80_0000 + j as u32, make_tag(0, j), 0, NO_DEADLINE)
            })
            .collect();
        let queue = MpmcQueue::with_capacity(CAP);
        assert_eq!(queue.push_slice(&reqs), CAP, "the ring starts full");
        let ctrl = ServiceControl::new();
        let chaos = ChaosConfig {
            seed: 384_348,
            panic_per_million: 1_000,
            delay_per_million: 1_000_000,
            delay_ns: 1_000_000,
            ..ChaosConfig::default()
        };
        let out = std::thread::scope(|s| {
            let shard = s.spawn(|| {
                let chaos = Some(&chaos);
                supervise_shard(0, &queue, &ctrl, Instant::now(), reqs.len(), 1, 1_000, chaos)
            });
            for &req in &reqs[CAP..] {
                while queue.push(req).is_err() {
                    std::thread::yield_now();
                }
            }
            ctrl.close_admission();
            ctrl.raise_stop();
            shard.join().expect("the supervisor never unwinds")
        });
        assert_eq!((out.panics, out.restarts, out.gave_up), (1, 1, false));
        let poisoned = out.sheds.iter().filter(|s| s.reason == ShedReason::Poisoned).count();
        assert_eq!(poisoned, 0, "a restartable panic poisoned servable requests");
        assert_eq!(out.completions.len() + out.sheds.len(), reqs.len(), "unbalanced");
        let mut tags: Vec<u64> = out.completions.iter().map(|c| c.tag).collect();
        tags.extend(out.sheds.iter().map(|s| s.tag));
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), reqs.len(), "every tag exactly once");
    }

    #[test]
    fn control_flags_sequence() {
        let ctrl = ServiceControl::new();
        assert!(!ctrl.admission_closed());
        assert!(!ctrl.stopping());
        ctrl.close_admission();
        assert!(ctrl.admission_closed());
        assert!(!ctrl.stopping());
        ctrl.raise_stop();
        assert!(ctrl.stopping());
    }
}
