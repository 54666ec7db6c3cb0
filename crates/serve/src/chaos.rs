//! Serve-layer chaos injection (feature `fault`).
//!
//! PR 3's fault feature corrupts the math-kernel fast path and proves
//! the round-safe certification absorbs it; this module extends the
//! same adversarial method one layer up, into the service itself. With
//! `--features fault`, a per-shard seeded [`rlibm_fp::rng::XorShift64`]
//! stream drives three injection modes:
//!
//! 1. **Shard panics** — [`fire_panic_if_armed`] unwinds the worker at
//!    the top of a flush, before any completion is recorded, so the
//!    whole batch is in flight when the supervisor catches the panic.
//!    Exercises resume after restart, restart backoff and, past the
//!    restart budget, salvage.
//! 2. **Delayed flushes** — a busy-wait of `delay_ns` before the slice
//!    evaluation, backing the ring up so deadline shedding and producer
//!    backpressure paths actually run.
//! 3. **Request corruption** — one bit of a dequeued request's `x_bits`
//!    flips, modelling a corrupted ring slot. The per-request checksum
//!    ([`crate::Request::verify`]) covers `x_bits` through a bijective
//!    mix, so a single-bit flip is always detected and the request is
//!    shed as [`crate::ShedReason::Corrupted`] — never served with a
//!    wrong argument, never silently dropped.
//!
//! A fourth knob, `kernel_fault_seed`, arms the *kernel-level* fault
//! hooks (`rlibm_math::fault`) on each worker thread, composing both
//! failure layers: corrupted fast-path doubles inside a supervised,
//! chaos-injected service must still produce bit-identical completions.
//!
//! Without the feature every hook is a no-op and a populated
//! `ServeConfig::chaos` is rejected at validation time, so a production
//! build cannot silently run with injection compiled out.

/// Chaos injection plan, applied per shard with a shard-salted seed.
/// Rates are per million draws; a zeroed config injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosConfig {
    /// Base seed; shard `i` derives its own deterministic stream.
    pub seed: u64,
    /// Per-flush probability (out of 1e6) of panicking the shard at the
    /// top of the flush, before any completion is recorded.
    pub panic_per_million: u32,
    /// Per-flush probability (out of 1e6) of delaying the flush.
    pub delay_per_million: u32,
    /// Busy-wait length for a delayed flush, in nanoseconds.
    pub delay_ns: u64,
    /// Per-dequeue probability (out of 1e6) of flipping one bit of the
    /// request's `x_bits` (detected by the per-request checksum).
    pub corrupt_per_million: u32,
    /// When nonzero, arms `rlibm_math::fault` on each worker thread
    /// with `kernel_fault_seed ^ shard`, corrupting the math-kernel
    /// fast path underneath the service.
    pub kernel_fault_seed: u64,
}

/// Exact injection counts for one run (summed over shards in
/// [`crate::ServeReport::chaos`]). Tracked in plain worker-local
/// integers, so the counts are exact even without telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Injected shard panics.
    pub panics: u64,
    /// Injected flush delays.
    pub delays: u64,
    /// Injected request corruptions.
    pub corruptions: u64,
}

impl ChaosStats {
    /// Total injections across all serve-layer modes.
    pub fn total(&self) -> u64 {
        self.panics + self.delays + self.corruptions
    }

    pub(crate) fn accumulate(&mut self, other: ChaosStats) {
        self.panics += other.panics;
        self.delays += other.delays;
        self.corruptions += other.corruptions;
    }
}

#[cfg(feature = "fault")]
mod imp {
    use super::{ChaosConfig, ChaosStats};
    use crate::metrics;
    use crate::shard::Request;
    use rlibm_fp::rng::XorShift64;
    use std::time::Instant;

    /// Per-shard chaos state: the seeded stream plus exact counts.
    pub struct ChaosState {
        plan: Option<(ChaosConfig, XorShift64)>,
        pub stats: ChaosStats,
        kernel_seed: u64,
    }

    impl ChaosState {
        pub fn new(cfg: Option<&ChaosConfig>, shard: usize) -> ChaosState {
            ChaosState {
                plan: cfg.map(|c| {
                    (*c, XorShift64::new(c.seed ^ (shard as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)))
                }),
                stats: ChaosStats::default(),
                kernel_seed: cfg.map_or(0, |c| {
                    if c.kernel_fault_seed == 0 {
                        0
                    } else {
                        c.kernel_fault_seed ^ shard as u64
                    }
                }),
            }
        }

        /// Arms the kernel-level fault hooks on this worker thread.
        pub fn arm_kernel(&self) {
            if self.kernel_seed != 0 {
                rlibm_math::fault::arm(self.kernel_seed);
            }
        }

        pub fn disarm_kernel(&self) {
            if self.kernel_seed != 0 {
                rlibm_math::fault::disarm();
            }
        }

        #[inline]
        fn draw(&mut self, per_million: u32) -> bool {
            match &mut self.plan {
                Some((_, rng)) if per_million > 0 => rng.next_u64() % 1_000_000 < u64::from(per_million),
                _ => false,
            }
        }

        /// One bit of `x_bits` flips; the request's checksum (computed
        /// over the original value) is left untouched, so `verify`
        /// must now fail.
        #[inline]
        pub fn maybe_corrupt(&mut self, req: &mut Request) {
            let per_million = self.plan.as_ref().map_or(0, |(c, _)| c.corrupt_per_million);
            if self.draw(per_million) {
                let bit = match &mut self.plan {
                    Some((_, rng)) => rng.next_u64() % 32,
                    None => 0,
                };
                req.x_bits ^= 1u32 << bit;
                self.stats.corruptions += 1;
                metrics::chaos_corruptions().add(1);
            }
        }

        /// Busy-waits `delay_ns` when the delay draw fires.
        #[inline]
        pub fn maybe_delay(&mut self) {
            let (per_million, delay_ns) =
                self.plan.as_ref().map_or((0, 0), |(c, _)| (c.delay_per_million, c.delay_ns));
            if self.draw(per_million) {
                self.stats.delays += 1;
                metrics::chaos_delays().add(1);
                let t0 = Instant::now();
                while (t0.elapsed().as_nanos() as u64) < delay_ns {
                    std::hint::spin_loop();
                }
            }
        }

        /// Panics the worker when the panic draw fires. The count is
        /// recorded *before* the unwind so it survives in the shard state
        /// the supervisor keeps.
        #[inline]
        pub fn fire_panic_if_armed(&mut self) {
            let per_million = self.plan.as_ref().map_or(0, |(c, _)| c.panic_per_million);
            if self.draw(per_million) {
                self.stats.panics += 1;
                metrics::chaos_panics().add(1);
                // Deliberate unwind: this is the injection the
                // supervisor exists to contain.
                #[allow(clippy::panic)]
                {
                    panic!("chaos: injected shard panic");
                }
            }
        }
    }
}

#[cfg(not(feature = "fault"))]
mod imp {
    use super::{ChaosConfig, ChaosStats};
    use crate::shard::Request;

    /// No-op chaos state: the `fault` feature is off, every hook
    /// compiles away.
    pub struct ChaosState {
        pub stats: ChaosStats,
    }

    impl ChaosState {
        pub fn new(_cfg: Option<&ChaosConfig>, _shard: usize) -> ChaosState {
            ChaosState { stats: ChaosStats::default() }
        }
        #[inline(always)]
        pub fn arm_kernel(&self) {}
        #[inline(always)]
        pub fn disarm_kernel(&self) {}
        #[inline(always)]
        pub fn maybe_corrupt(&mut self, _req: &mut Request) {}
        #[inline(always)]
        pub fn maybe_delay(&mut self) {}
        #[inline(always)]
        pub fn fire_panic_if_armed(&mut self) {}
    }
}

pub(crate) use imp::ChaosState;

/// True when this build can actually inject (the `fault` feature is on).
pub const fn injection_compiled_in() -> bool {
    cfg!(feature = "fault")
}
