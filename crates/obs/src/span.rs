//! Lightweight scoped timers with a thread-local nesting depth.

use crate::metric::Histogram;

#[cfg(feature = "telemetry")]
use std::cell::Cell;
#[cfg(feature = "telemetry")]
use std::sync::Once;
#[cfg(feature = "telemetry")]
use std::time::Instant;

#[cfg(feature = "telemetry")]
thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Current span nesting depth on this thread (0 without the `telemetry`
/// feature, and 0 outside every span).
pub fn span_depth() -> usize {
    #[cfg(feature = "telemetry")]
    {
        DEPTH.with(|d| d.get())
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// A named scoped timer. [`SpanTimer::start`] reads the monotonic clock
/// and returns a guard; dropping the guard records the elapsed
/// nanoseconds into the timer's histogram. Without the `telemetry`
/// feature the clock is never read and the guard is a unit struct.
pub struct SpanTimer {
    durations_ns: Histogram,
    #[cfg(feature = "telemetry")]
    once: Once,
}

impl SpanTimer {
    /// A new span timer; `name` follows the workspace naming scheme and
    /// identifies this span in the snapshot's `spans` section.
    pub const fn new(name: &'static str) -> SpanTimer {
        SpanTimer {
            durations_ns: Histogram::new(name),
            #[cfg(feature = "telemetry")]
            once: Once::new(),
        }
    }

    /// The span name.
    pub fn name(&self) -> &'static str {
        self.durations_ns.name()
    }

    /// Starts the span: bumps this thread's nesting depth and reads the
    /// monotonic clock. Bind the guard (`let _span = TIMER.start();`) —
    /// dropping it ends the span.
    #[must_use = "binding the guard defines the span's extent"]
    pub fn start(&'static self) -> SpanGuard {
        #[cfg(feature = "telemetry")]
        {
            self.once
                .call_once(|| crate::registry::register(crate::registry::MetricRef::Span(self)));
            DEPTH.with(|d| d.set(d.get() + 1));
            SpanGuard { timer: self, start: Instant::now() }
        }
        #[cfg(not(feature = "telemetry"))]
        SpanGuard {}
    }

    /// The nanosecond histogram behind this span.
    pub fn durations_ns(&self) -> &Histogram {
        &self.durations_ns
    }

    /// Times spent in completed spans (0 without the feature).
    pub fn count(&self) -> u64 {
        self.durations_ns.count()
    }
}

/// Guard returned by [`SpanTimer::start`]; records on drop.
pub struct SpanGuard {
    #[cfg(feature = "telemetry")]
    timer: &'static SpanTimer,
    #[cfg(feature = "telemetry")]
    start: Instant,
}

#[cfg(feature = "telemetry")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let ns = self.start.elapsed().as_nanos();
        self.timer.durations_ns.record_fields(ns.min(u64::MAX as u128) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_tracks_nesting_and_guard_records() {
        static OUTER: SpanTimer = SpanTimer::new("test.span.outer");
        static INNER: SpanTimer = SpanTimer::new("test.span.inner");
        assert_eq!(span_depth(), 0);
        {
            let _a = OUTER.start();
            {
                let _b = INNER.start();
                if crate::enabled() {
                    assert_eq!(span_depth(), 2);
                }
            }
            if crate::enabled() {
                assert_eq!(span_depth(), 1);
            }
        }
        assert_eq!(span_depth(), 0);
        if crate::enabled() {
            assert_eq!(OUTER.count(), 1);
            assert_eq!(INNER.count(), 1);
            // Outer span encloses the inner one.
            assert!(OUTER.durations_ns().sum() >= INNER.durations_ns().sum());
        } else {
            assert_eq!(OUTER.count(), 0);
        }
    }
}
