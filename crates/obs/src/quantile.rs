//! Shared quantile estimation: exact nearest-rank over sorted samples,
//! and bucket-interpolated estimates over the log2 histograms this
//! crate records. Pure functions, independent of the `telemetry`
//! feature — the `serve_report` harness uses them on both raw latency
//! vectors (per-scenario p50/p99/p999) and snapshot bucket lists (the
//! stage quantiles).

use crate::metric::bucket_lo;

/// Nearest-rank percentile of an ascending-sorted sample vector:
/// `sorted[round((len - 1) * q)]`, 0 for an empty slice. This is the
/// exact estimator the serve harnesses have always reported.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Inclusive upper bound of log2 bucket `i` (the largest value that
/// lands in it): bucket 0 holds exact zeros, bucket `i >= 1` covers
/// `[2^(i-1), 2^i - 1]`, bucket 64 tops out at `u64::MAX`.
pub fn bucket_hi(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= 64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Estimates the `q`-quantile from a histogram's nonzero
/// `(bucket index, count)` pairs (ascending, as produced by
/// [`crate::Histogram::nonzero_buckets`] and
/// [`crate::HistogramSnapshot`]). Finds the bucket holding the
/// nearest-rank sample, then interpolates linearly across the bucket's
/// value range by the rank's position within the bucket — exact when
/// the bucket spans a single value (bucket 0 and bucket 1), within a
/// factor of 2 otherwise, which is the resolution the histograms store.
/// Returns 0 when the histogram is empty.
pub fn from_log2_buckets(buckets: &[(u32, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0;
    }
    // Nearest rank, 1-based, clamped to [1, total].
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(i, n) in buckets {
        if rank <= seen + n {
            let lo = bucket_lo(i as usize);
            let hi = bucket_hi(i as usize);
            let pos = rank - seen; // 1..=n within this bucket
            let span = (hi - lo) as f64;
            return lo + (span * pos as f64 / n as f64) as u64;
        }
        seen += n;
    }
    // Unreachable when counts sum to total; be lenient about malformed
    // input rather than panicking inside telemetry.
    buckets.last().map_or(0, |&(i, _)| bucket_hi(i as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.0), 7);
        assert_eq!(percentile(&[7], 1.0), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51); // round(99 * 0.5) = 50
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Each bucket's range is [bucket_lo, bucket_hi] and adjacent
        // buckets tile the u64 line with no gap or overlap.
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(1), 1);
        assert_eq!(bucket_hi(2), 3);
        assert_eq!(bucket_hi(64), u64::MAX);
        for i in 0..64 {
            assert_eq!(bucket_hi(i) + 1, bucket_lo(i + 1), "bucket {i} boundary");
            assert!(bucket_lo(i) <= bucket_hi(i));
        }
    }

    #[test]
    fn log2_estimate_is_exact_on_single_value_buckets() {
        // All samples zero.
        assert_eq!(from_log2_buckets(&[(0, 10)], 0.5), 0);
        assert_eq!(from_log2_buckets(&[(0, 10)], 1.0), 0);
        // Bucket 1 holds only the value 1.
        assert_eq!(from_log2_buckets(&[(1, 5)], 0.5), 1);
        // Boundary between buckets: 50 zeros then 50 ones — the median
        // rank lands in the zeros bucket, p99 in the ones bucket.
        let b = [(0, 50), (1, 50)];
        assert_eq!(from_log2_buckets(&b, 0.5), 0);
        assert_eq!(from_log2_buckets(&b, 0.99), 1);
    }

    #[test]
    fn log2_estimate_stays_in_bucket_and_is_monotone() {
        assert_eq!(from_log2_buckets(&[], 0.5), 0);
        let b = [(5u32, 100u64), (11, 10), (20, 1)];
        let mut last = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = from_log2_buckets(&b, q);
            assert!(est >= last, "monotone in q");
            last = est;
            // The estimate never leaves the histogram's covered range.
            assert!(est >= bucket_lo(5) && est <= bucket_hi(20));
        }
        // p50 of 111 samples is rank 56, inside bucket 5: [16, 31].
        let p50 = from_log2_buckets(&b, 0.5);
        assert!((16..=31).contains(&p50), "p50 {p50} in bucket 5");
        // p999 is rank 111, the last sample, inside bucket 20.
        let p999 = from_log2_buckets(&b, 0.999);
        assert!(p999 >= bucket_lo(20) && p999 <= bucket_hi(20));
    }
}
