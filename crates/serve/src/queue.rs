//! Bounded lock-free MPMC ring queue (Vyukov's algorithm).
//!
//! One queue per shard carries requests from any number of producers to
//! the shard's worker. The design goals, in order: no allocation after
//! construction (one boxed slot array), no locks anywhere on the
//! request path, and bounded memory so a slow shard exerts backpressure
//! (a full queue makes [`MpmcQueue::push`] fail and the producer spins
//! or yields) instead of growing without limit under overload.
//!
//! Each slot carries a sequence number that encodes its state relative
//! to the head/tail tickets: `seq == pos` means free for the producer
//! holding ticket `pos`, `seq == pos + 1` means occupied for the
//! consumer holding ticket `pos`, anything less means the ring is
//! full/empty from that side. The sequence store is the release edge
//! that publishes the payload write, so no other synchronization is
//! needed.
//!
//! Requests move in bursts: [`MpmcQueue::push_slice`] and
//! [`MpmcQueue::pop_into`] scan the run of ready slots from their side's
//! ticket and claim the whole run with one CAS, so a burst of up to a
//! batch costs one locked instruction per side instead of one per
//! request. `push` and `pop` are the one-element case of the same claim.

use core::cell::UnsafeCell;
use core::mem::MaybeUninit;
use core::sync::atomic::{AtomicUsize, Ordering};

/// Pads the two ticket counters to separate cache lines so producers
/// and consumers don't false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer multi-consumer queue. Capacity is fixed at
/// construction (rounded up to a power of two); `push` on a full queue
/// returns the value back instead of blocking or allocating.
pub struct MpmcQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: the slot protocol hands each value from exactly one producer
// to exactly one consumer (tickets are claimed by CAS; the seq store
// with Release ordering publishes the payload), so sharing the queue
// across threads is sound whenever T itself can move between threads.
unsafe impl<T: Send> Send for MpmcQueue<T> {}
unsafe impl<T: Send> Sync for MpmcQueue<T> {}

/// Bounded on `Copy`: a claimed slot is read by a bitwise copy and the
/// ring never owns anything that needs dropping, so it has no `Drop`.
impl<T: Copy> MpmcQueue<T> {
    /// A queue holding at least `capacity` elements (rounded up to the
    /// next power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> MpmcQueue<T> {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcQueue {
            slots,
            mask: cap - 1,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Capacity in elements (a power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// A queue whose tickets start at `base` instead of 0, so tests can
    /// exercise the wrapping ticket arithmetic near `usize::MAX`
    /// without pushing 2^64 elements first.
    #[cfg(test)]
    fn with_capacity_at_base(capacity: usize, base: usize) -> MpmcQueue<T> {
        let q = MpmcQueue::with_capacity(capacity);
        // Free-state invariant: the slot that ticket `base + k` maps to
        // must carry seq `base + k`.
        for k in 0..q.slots.len() {
            let pos = base.wrapping_add(k);
            q.slots[pos & q.mask].seq.store(pos, Ordering::Relaxed);
        }
        q.enqueue_pos.0.store(base, Ordering::Relaxed);
        q.dequeue_pos.0.store(base, Ordering::Relaxed);
        q
    }

    /// The one claim routine behind every operation. Ticket `p` is
    /// ready for this side when its slot's seq is `p + lag` (`lag` 0:
    /// free for a producer; 1: published for a consumer). From the
    /// side's current ticket, scans the run of ready slots (at most
    /// `max`) and claims the whole run with one CAS. Returns the first
    /// ticket and the run length; 0 means full (producer side) or empty
    /// (consumer side).
    ///
    /// A ready slot stays ready until the holder of its ticket acts on
    /// it, and nobody holds a ticket at or past the counter, so a run
    /// scanned from `pos` is still ready when the CAS from `pos`
    /// succeeds.
    #[inline]
    fn claim(&self, counter: &AtomicUsize, lag: usize, max: usize) -> (usize, usize) {
        let mut pos = counter.load(Ordering::Relaxed);
        if max == 0 {
            return (pos, 0);
        }
        loop {
            let seq = self.slots[pos & self.mask].seq.load(Ordering::Acquire);
            let diff = seq.wrapping_sub(pos.wrapping_add(lag)) as isize;
            if diff == 0 {
                let mut n = 1;
                while n < max {
                    let p = pos.wrapping_add(n);
                    let seq = self.slots[p & self.mask].seq.load(Ordering::Acquire);
                    if seq != p.wrapping_add(lag) {
                        break;
                    }
                    n += 1;
                }
                match counter.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(n),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return (pos, n),
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                return (pos, 0);
            } else {
                pos = counter.load(Ordering::Relaxed);
            }
        }
    }

    /// Writes `values` into tickets `pos..` and publishes each slot.
    ///
    /// # Safety
    ///
    /// The caller must hold a producer-side claim on tickets
    /// `pos..pos + values.len()` that it has not yet published.
    #[inline]
    unsafe fn publish(&self, pos: usize, values: &[T]) {
        for (k, v) in values.iter().enumerate() {
            let p = pos.wrapping_add(k);
            let slot = &self.slots[p & self.mask];
            // SAFETY: the caller's claim makes this thread the unique
            // writer of ticket `p`'s slot until the seq store below
            // publishes it.
            unsafe { (*slot.val.get()).write(*v) };
            slot.seq.store(p.wrapping_add(1), Ordering::Release);
        }
    }

    /// Reads ticket `p` and frees its slot for the producer one lap
    /// later.
    ///
    /// # Safety
    ///
    /// The caller must hold a consumer-side claim on ticket `p` that it
    /// has not yet taken.
    #[inline]
    unsafe fn take(&self, p: usize) -> T {
        let slot = &self.slots[p & self.mask];
        // SAFETY: the caller's claim makes this thread ticket `p`'s
        // unique reader, and the claim's Acquire load of seq synchronized
        // with the producer's Release store, so the payload is written.
        let value = unsafe { (*slot.val.get()).assume_init_read() };
        slot.seq.store(p.wrapping_add(self.mask + 1), Ordering::Release);
        value
    }

    /// Attempts to enqueue; a full ring hands the value back so the
    /// caller owns the backpressure policy (spin, yield, drop).
    pub fn push(&self, value: T) -> Result<(), T> {
        match self.claim(&self.enqueue_pos.0, 0, 1) {
            (pos, 1) => {
                // SAFETY: the claim above holds ticket `pos`.
                unsafe { self.publish(pos, core::slice::from_ref(&value)) };
                Ok(())
            }
            _ => Err(value), // ring full
        }
    }

    /// Enqueues the longest prefix of `values` the ring has room for,
    /// with one ticket claim, and returns its length. A short count
    /// means the ring filled: the caller still owns `values[count..]`.
    pub fn push_slice(&self, values: &[T]) -> usize {
        let (pos, n) = self.claim(&self.enqueue_pos.0, 0, values.len());
        // SAFETY: the claim above holds tickets `pos..pos + n`.
        unsafe { self.publish(pos, &values[..n]) };
        n
    }

    /// Attempts to dequeue; `None` means the ring was observed empty.
    pub fn pop(&self) -> Option<T> {
        match self.claim(&self.dequeue_pos.0, 1, 1) {
            // SAFETY: the claim above holds ticket `pos`.
            (pos, 1) => Some(unsafe { self.take(pos) }),
            _ => None, // ring empty
        }
    }

    /// Dequeues up to `out.len()` published values in FIFO order, with
    /// one ticket claim, into the front of `out`, and returns how many.
    /// 0 means the ring was observed empty; a slot claimed but not yet
    /// published by its producer ends the run.
    pub fn pop_into(&self, out: &mut [T]) -> usize {
        let (pos, n) = self.claim(&self.dequeue_pos.0, 1, out.len());
        for (k, o) in out[..n].iter_mut().enumerate() {
            // SAFETY: the claim above holds tickets `pos..pos + n`, each
            // taken once.
            *o = unsafe { self.take(pos.wrapping_add(k)) };
        }
        n
    }

    /// Approximate occupancy (exact when quiescent) — the queue-depth
    /// metric samples this.
    pub fn len(&self) -> usize {
        let head = self.enqueue_pos.0.load(Ordering::Relaxed);
        let tail = self.dequeue_pos.0.load(Ordering::Relaxed);
        head.wrapping_sub(tail).min(self.slots.len())
    }

    /// True when [`MpmcQueue::len`] observes zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::MpmcQueue;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = MpmcQueue::with_capacity(8);
        assert_eq!(q.capacity(), 8);
        for i in 0..8u32 {
            assert!(q.push(i).is_ok());
        }
        assert_eq!(q.push(99), Err(99), "full ring hands the value back");
        assert_eq!(q.len(), 8);
        for i in 0..8u32 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(MpmcQueue::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(MpmcQueue::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(MpmcQueue::<u8>::with_capacity(1000).capacity(), 1024);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let q = MpmcQueue::with_capacity(4);
        for round in 0..100u64 {
            assert!(q.push(round).is_ok());
            assert_eq!(q.pop(), Some(round));
        }
    }

    /// Every pushed value is popped exactly once across concurrent
    /// producers and consumers (checksum equality).
    #[test]
    fn concurrent_transfer_is_lossless() {
        const PER_PRODUCER: u64 = 20_000;
        const PRODUCERS: u64 = 3;
        const CONSUMERS: usize = 3;
        let q = MpmcQueue::with_capacity(64);
        let popped_sum = AtomicU64::new(0);
        let popped_n = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p * PER_PRODUCER + i + 1;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            let total = PRODUCERS * PER_PRODUCER;
            for _ in 0..CONSUMERS {
                let q = &q;
                let popped_sum = &popped_sum;
                let popped_n = &popped_n;
                s.spawn(move || loop {
                    match q.pop() {
                        Some(v) => {
                            popped_sum.fetch_add(v, Ordering::Relaxed);
                            if popped_n.fetch_add(1, Ordering::Relaxed) + 1 == total {
                                break;
                            }
                        }
                        None => {
                            if popped_n.load(Ordering::Relaxed) >= total {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(popped_n.load(Ordering::Relaxed), n);
        assert_eq!(popped_sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }

    /// The degenerate minimum ring (requested capacity 1 rounds up to
    /// 2) still honours the push-returns-on-full contract instead of
    /// losing or duplicating: the producer-side backpressure path in
    /// the serve layer leans on exactly this behaviour.
    #[test]
    fn minimum_capacity_ring_returns_on_full() {
        let q = MpmcQueue::with_capacity(1);
        assert_eq!(q.capacity(), 2);
        assert!(q.push(10u32).is_ok());
        assert!(q.push(11).is_ok());
        assert_eq!(q.push(12), Err(12));
        assert_eq!(q.push(12), Err(12), "rejection is repeatable, not one-shot");
        assert_eq!(q.pop(), Some(10));
        assert!(q.push(12).is_ok(), "one pop frees exactly one slot");
        assert_eq!(q.pop(), Some(11));
        assert_eq!(q.pop(), Some(12));
        assert_eq!(q.pop(), None);
    }

    /// Ticket arithmetic is wrapping: a ring whose tickets start just
    /// below `usize::MAX` pushes and pops across the wrap boundary
    /// without losing FIFO order or slot state.
    #[test]
    fn tickets_wrap_across_usize_max() {
        let q = MpmcQueue::with_capacity_at_base(4, usize::MAX - 2);
        // Fill across the boundary: tickets MAX-2, MAX-1, MAX, 0.
        for i in 0..4u64 {
            assert!(q.push(i).is_ok(), "push {i} across the wrap");
        }
        assert_eq!(q.push(99), Err(99), "full detection survives the wrap");
        for i in 0..4u64 {
            assert_eq!(q.pop(), Some(i), "FIFO order survives the wrap");
        }
        assert_eq!(q.pop(), None);
        // Several more laps to march every slot's seq through the wrap.
        for round in 0..16u64 {
            assert!(q.push(round).is_ok());
            assert!(q.push(round + 100).is_ok());
            assert_eq!(q.pop(), Some(round));
            assert_eq!(q.pop(), Some(round + 100));
        }
        assert!(q.is_empty());
    }

    /// Bulk and single operations share one ticket sequence: any mix of
    /// them drains in push order.
    #[test]
    fn fifo_across_mixed_single_and_bulk_ops() {
        let q = MpmcQueue::with_capacity(16);
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        let mut out = [0u32; 10];
        for round in 0..50 {
            let burst: Vec<u32> = (next_in..next_in + 5).collect();
            assert_eq!(q.push_slice(&burst), 5);
            next_in += 5;
            assert!(q.push(next_in).is_ok());
            next_in += 1;
            if round % 2 == 0 {
                assert_eq!(q.pop(), Some(next_out));
                next_out += 1;
            }
            let n = q.pop_into(&mut out[..(round % 7) + 4]);
            for &v in &out[..n] {
                assert_eq!(v, next_out, "bulk pop out of order");
                next_out += 1;
            }
        }
        let n = q.pop_into(&mut [0u32; 0]);
        assert_eq!(n, 0, "an empty slice claims nothing");
        while let Some(v) = q.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, next_in);
        assert_eq!(q.push_slice(&[]), 0);
        assert!(q.is_empty());
    }

    /// A burst larger than the free room claims only the room and says
    /// so; the rest stays with the caller, and a bulk pop larger than
    /// the occupancy takes only what is there.
    #[test]
    fn bulk_push_claims_only_the_free_run_on_a_nearly_full_ring() {
        let q = MpmcQueue::with_capacity(8);
        assert_eq!(q.push_slice(&[0u32, 1, 2, 3, 4, 5]), 6);
        assert_eq!(q.push_slice(&[6, 7, 8, 9, 10]), 2, "two free slots");
        assert_eq!(q.push_slice(&[8]), 0, "full ring claims nothing");
        assert_eq!(q.push(8), Err(8));
        let mut out = [0u32; 16];
        assert_eq!(q.pop_into(&mut out[..3]), 3);
        assert_eq!(&out[..3], &[0, 1, 2]);
        assert_eq!(q.push_slice(&[8, 9, 10, 11]), 3, "three slots freed");
        assert_eq!(q.pop_into(&mut out), 8);
        assert_eq!(&out[..8], &[3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(q.pop_into(&mut out), 0);
    }

    /// A bulk pop stops at the first slot whose producer has claimed but
    /// not yet published it, and picks the rest up once it is.
    #[test]
    fn bulk_pop_claims_only_the_published_run() {
        let q = MpmcQueue::with_capacity(8);
        // A producer claims tickets 0..4 and publishes 0, 1 and 3.
        let (pos, n) = q.claim(&q.enqueue_pos.0, 0, 4);
        assert_eq!((pos, n), (0, 4));
        // SAFETY: this thread claimed tickets 0..4 just above and
        // publishes each once.
        unsafe {
            q.publish(0, &[10u32, 11]);
            q.publish(3, &[13]);
        }
        let mut out = [0u32; 8];
        assert_eq!(q.pop_into(&mut out), 2, "ticket 2 is unpublished");
        assert_eq!(&out[..2], &[10, 11]);
        assert_eq!(q.pop_into(&mut out), 0, "the run starts unpublished");
        assert_eq!(q.pop(), None);
        // SAFETY: ticket 2 is the last claimed, unpublished one.
        unsafe { q.publish(2, &[12]) };
        assert_eq!(q.pop_into(&mut out), 2);
        assert_eq!(&out[..2], &[12, 13]);
        assert!(q.is_empty());
    }

    /// Bulk claims cross the `usize::MAX` ticket wrap like single ones:
    /// the scanned run, the CAS and the slot release all wrap.
    #[test]
    fn bulk_tickets_wrap_across_usize_max() {
        let q = MpmcQueue::with_capacity_at_base(8, usize::MAX - 3);
        let vals: Vec<u64> = (0..10).collect();
        assert_eq!(q.push_slice(&vals), 8, "burst across the wrap fills the ring");
        assert_eq!(q.push(99), Err(99));
        let mut out = [0u64; 5];
        assert_eq!(q.pop_into(&mut out), 5);
        assert_eq!(out, [0, 1, 2, 3, 4]);
        assert_eq!(q.push_slice(&vals[8..]), 2);
        let mut rest = [0u64; 16];
        assert_eq!(q.pop_into(&mut rest), 5);
        assert_eq!(&rest[..5], &[5, 6, 7, 8, 9]);
        // More laps so every slot's seq marches through the wrap.
        for round in 0..32u64 {
            assert_eq!(q.push_slice(&[round, round + 100, round + 200]), 3);
            assert_eq!(q.pop(), Some(round));
            assert_eq!(q.pop_into(&mut rest), 2);
            assert_eq!(&rest[..2], &[round + 100, round + 200]);
        }
        assert!(q.is_empty());
    }

    /// Bursts from two producers into two bulk consumers on a ring
    /// smaller than a burst: partial claims on both sides, and every
    /// value still arrives exactly once.
    #[test]
    fn contended_bursts_on_a_tiny_ring_deliver_exactly_once() {
        const PER_PRODUCER: usize = 6_000;
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const TOTAL: usize = PRODUCERS * PER_PRODUCER;
        let q = MpmcQueue::with_capacity(4);
        let seen: Vec<AtomicU64> = (0..TOTAL.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let popped_n = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    let vals: Vec<u64> =
                        (p * PER_PRODUCER..(p + 1) * PER_PRODUCER).map(|v| v as u64).collect();
                    let mut sent = 0;
                    let mut burst = 1;
                    while sent < vals.len() {
                        let end = (sent + burst).min(vals.len());
                        let n = q.push_slice(&vals[sent..end]);
                        sent += n;
                        if n == 0 {
                            std::thread::yield_now();
                        }
                        burst = burst % 7 + 1;
                    }
                });
            }
            for c in 0..CONSUMERS {
                let q = &q;
                let seen = &seen;
                let popped_n = &popped_n;
                s.spawn(move || {
                    let mut out = [0u64; 6];
                    let mut want = c + 1;
                    loop {
                        let n = q.pop_into(&mut out[..want]);
                        for &v in &out[..n] {
                            let prev = seen[(v / 64) as usize]
                                .fetch_or(1u64 << (v % 64), Ordering::Relaxed);
                            assert_eq!(prev & (1u64 << (v % 64)), 0, "value {v} popped twice");
                        }
                        let total = popped_n.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
                        if total >= TOTAL as u64 {
                            break;
                        }
                        if n == 0 {
                            std::thread::yield_now();
                        }
                        want = want % 6 + 1;
                    }
                });
            }
        });
        assert_eq!(popped_n.load(Ordering::Relaxed), TOTAL as u64);
        let full_words = TOTAL / 64;
        assert!(seen[..full_words].iter().all(|w| w.load(Ordering::Relaxed) == u64::MAX));
        if !TOTAL.is_multiple_of(64) {
            assert_eq!(
                seen[full_words].load(Ordering::Relaxed),
                (1u64 << (TOTAL % 64)) - 1
            );
        }
    }

    /// High-contention exactly-once: more threads than capacity slots,
    /// a tiny ring, and a per-value seen-bitmap — any duplicate or lost
    /// pop trips the exact check (the checksum test above could in
    /// principle miss compensating errors).
    #[test]
    fn contended_tiny_ring_delivers_exactly_once() {
        const PER_PRODUCER: usize = 4_000;
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const TOTAL: usize = PRODUCERS * PER_PRODUCER;
        let q = MpmcQueue::with_capacity(4); // far fewer slots than threads
        let seen: Vec<AtomicU64> = (0..TOTAL.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let popped_n = AtomicU64::new(0);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let q = &q;
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = (p * PER_PRODUCER + i) as u64;
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    // Yield, not spin: with more threads
                                    // than cores a spin wait starves the
                                    // consumers this test depends on.
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
            }
            for _ in 0..CONSUMERS {
                let q = &q;
                let seen = &seen;
                let popped_n = &popped_n;
                s.spawn(move || loop {
                    match q.pop() {
                        Some(v) => {
                            let prev = seen[(v / 64) as usize]
                                .fetch_or(1u64 << (v % 64), Ordering::Relaxed);
                            assert_eq!(prev & (1u64 << (v % 64)), 0, "value {v} popped twice");
                            if popped_n.fetch_add(1, Ordering::Relaxed) + 1 == TOTAL as u64 {
                                break;
                            }
                        }
                        None => {
                            if popped_n.load(Ordering::Relaxed) >= TOTAL as u64 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(popped_n.load(Ordering::Relaxed), TOTAL as u64);
        let full_words = TOTAL / 64;
        assert!(seen[..full_words].iter().all(|w| w.load(Ordering::Relaxed) == u64::MAX));
        if !TOTAL.is_multiple_of(64) {
            assert_eq!(
                seen[full_words].load(Ordering::Relaxed),
                (1u64 << (TOTAL % 64)) - 1
            );
        }
    }
}
