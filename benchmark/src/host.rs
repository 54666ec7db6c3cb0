//! Host-side measurements: the drift sentinel and peak memory.

use crate::report::Sink;
use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A fixed integer loop the benchmark owns and no library change can
/// touch. Timed between passes, it exposes host slowdowns (a noisy
/// neighbour, a frequency drop) that would otherwise read as a code
/// change.
pub struct Sentinel {
    samples: Vec<f64>,
    last: Option<Instant>,
}

/// How often the sentinel is sampled while a workload runs.
const EVERY: Duration = Duration::from_millis(50);

/// Sustained-slowdown threshold for `host.ref_spread`.
const NOISY_SPREAD: f64 = 1.10;

fn reference_loop() -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for i in 0..(1u64 << 16) {
        x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    }
    x
}

impl Default for Sentinel {
    fn default() -> Sentinel {
        Sentinel::new()
    }
}

impl Sentinel {
    pub fn new() -> Sentinel {
        Sentinel {
            samples: Vec::new(),
            last: None,
        }
    }

    /// Takes a sample if the last one is older than [`EVERY`]. Each sample
    /// is the fastest of three back-to-back loops, so a single interrupt
    /// does not register but a slow window does.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        let best = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(reference_loop());
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        self.samples.push(best);
        self.last = Some(Instant::now());
    }

    pub fn report(&self, sink: &mut Sink) {
        if self.samples.is_empty() {
            return;
        }
        let n = self.samples.len() as u64;
        let (lo, hi) = self
            .samples
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| {
                (lo.min(s), hi.max(s))
            });
        sink.layer("host.ref_ns", median(&self.samples), "ns", n);
        sink.layer("host.ref_spread", hi / lo, "ratio", n);
        sink.note(
            "host_noisy",
            if hi / lo > NOISY_SPREAD { "yes" } else { "no" },
        );
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
