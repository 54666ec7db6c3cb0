//! Order statistics over timing samples.

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Values kept by [`Samples`] before it thins them.
const KEEP: usize = 4096;

/// An evenly spaced subsample of a stream of measurements: keeps every
/// `stride`-th value, and when full drops every other kept value and
/// doubles the stride. Memory stays bounded, so peak RSS measures the
/// library rather than how many passes a run happened to make.
pub struct Samples {
    kept: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::new()
    }
}

impl Samples {
    pub fn new() -> Samples {
        // Write the whole buffer once so its pages are resident from the
        // start, whatever the run length.
        let mut kept = vec![f64::NAN; KEEP];
        kept.clear();
        Samples {
            kept,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == KEEP {
                let mut odd = true;
                self.kept.retain(|_| {
                    odd = !odd;
                    !odd
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(v);
            }
        }
        self.seen += 1;
    }

    pub fn values(&self) -> &[f64] {
        &self.kept
    }
}

/// Log-bucketed histogram of nanosecond latencies with 0.5% relative
/// resolution: pools millions of samples in a few kilobytes.
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

const STEP: f64 = 1.005;

impl Default for LogHist {
    fn default() -> LogHist {
        LogHist::new()
    }
}

impl LogHist {
    pub fn new() -> LogHist {
        LogHist {
            counts: Vec::new(),
            n: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        let b = ((ns.max(1) as f64).ln() / STEP.ln()) as usize;
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    /// Nearest-rank quantile, reported at its bucket's geometric centre.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.n > 0, "quantile of an empty histogram");
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return STEP.powf(b as f64 + 0.5);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn samples_stay_bounded_and_evenly_spaced() {
        let mut s = Samples::new();
        for i in 0..(3 * KEEP as u64) {
            s.push(i as f64);
        }
        assert!(s.values().len() <= KEEP);
        let v = s.values();
        assert!(
            v.windows(2).all(|w| w[1] - w[0] == v[1] - v[0]),
            "kept values are evenly spaced"
        );
        assert!((median(v) / (1.5 * KEEP as f64) - 1.0).abs() < 0.01);
    }

    #[test]
    fn histogram_tracks_exact_quantiles() {
        let mut h = LogHist::new();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        for q in [0.5, 0.99, 0.999] {
            let exact = q * 10_000.0;
            assert!((h.quantile(q) / exact - 1.0).abs() < 0.006, "q={q}");
        }
    }
}
