//! Log-bucketed (HDR-style) integer histograms.
//!
//! Latency distributions span four orders of magnitude (a 50 µs local
//! hop to a 30 s build timeout), which rules out fixed-width buckets.
//! [`LogHistogram`] uses the HdrHistogram bucketing scheme: values
//! below `2 · 2^g` (where `g` is the grouping-bits parameter) are
//! counted exactly, and above that each power-of-two range is split
//! into `2^g` sub-buckets, giving a bounded relative error of
//! `2^-g` everywhere. With the default `g = 5` that is ~3% — more than
//! enough to read a p99 off a phase-latency distribution.
//!
//! Counts live in a sparse `BTreeMap<bucket index, u64>`, so the
//! exported buckets come out in value order.

use std::collections::BTreeMap;

/// A sparse log-bucketed histogram over `u64` values.
///
/// Units are the caller's business; the observability layer records
/// durations in integer microseconds (see [`crate::ms_to_us`]).
#[derive(Debug, Clone)]
pub(crate) struct LogHistogram {
    /// Sub-bucket grouping bits `g`: each power-of-two range is split
    /// into `2^g` sub-buckets; values below `2^(g+1)` are exact.
    grouping_bits: u32,
    /// Sparse bucket counts, keyed by bucket index.
    counts: BTreeMap<u32, u64>,
    total: u64,
    /// Exact extrema (`min > max` ⇔ empty).
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(5)
    }
}

impl LogHistogram {
    /// Creates an empty histogram with `grouping_bits` sub-bucket bits
    /// (relative error ≤ `2^-grouping_bits`). Panics outside `1..=16`.
    pub(crate) fn new(grouping_bits: u32) -> LogHistogram {
        assert!(
            (1..=16).contains(&grouping_bits),
            "grouping_bits {grouping_bits} outside 1..=16"
        );
        LogHistogram {
            grouping_bits,
            counts: BTreeMap::new(),
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index covering `v`.
    pub(crate) fn index_of(&self, v: u64) -> u32 {
        let g = self.grouping_bits;
        let sub = 1u64 << g;
        if v < 2 * sub {
            // Exact region: one value per bucket.
            return v as u32;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - g;
        ((shift + 1) << g) + ((v >> shift) - sub) as u32
    }

    /// The inclusive `[lo, hi]` value range of bucket `index`.
    pub(crate) fn bucket_bounds(&self, index: u32) -> (u64, u64) {
        let g = self.grouping_bits;
        let sub = 1u64 << g;
        if u64::from(index) < 2 * sub {
            return (u64::from(index), u64::from(index));
        }
        let block = index >> g; // ≥ 2 past the exact region
        let shift = block - 1;
        let rem = u64::from(index) & (sub - 1);
        let lo = (sub + rem) << shift;
        // `(1 << shift) - 1` first: the top bucket's `hi` is u64::MAX
        // and `lo + (1 << shift)` would overflow before the subtract.
        let hi = lo + ((1u64 << shift) - 1);
        (lo, hi)
    }

    /// Records one observation of `v`.
    pub(crate) fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v`.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(self.index_of(v)).or_insert(0) += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations recorded.
    pub(crate) fn count(&self) -> u64 {
        self.total
    }

    /// Exact minimum recorded value.
    pub(crate) fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Exact maximum recorded value.
    pub(crate) fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The nearest-rank `q`-quantile, reported as the upper bound of
    /// the bucket holding that rank, clamped to the recorded extrema
    /// (so `quantile(0.0..=1.0)` always lies in `[min, max]` and is
    /// monotone in `q`). `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (&idx, &n) in &self.counts {
            cum += n;
            if cum >= rank {
                return Some(self.bucket_bounds(idx).1.clamp(self.min, self.max));
            }
        }
        unreachable!("rank {rank} beyond total {}", self.total)
    }

    /// Occupied buckets in value order, as `(lo, hi, count)`.
    pub(crate) fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().map(|(&idx, &n)| {
            let (lo, hi) = self.bucket_bounds(idx);
            (lo, hi, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms_to_us;
    use proptest::prelude::*;

    fn hist_of(grouping_bits: u32, values: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new(grouping_bits);
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn exact_region_is_exact() {
        let mut h = LogHistogram::new(5);
        for v in 0..64 {
            h.record(v);
        }
        for v in 0..64u64 {
            let (lo, hi) = h.bucket_bounds(h.index_of(v));
            assert_eq!((lo, hi), (v, v));
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(63));
    }

    #[test]
    fn buckets_bracket_and_bound_relative_error() {
        let h = LogHistogram::new(5);
        for v in [
            0,
            1,
            63,
            64,
            65,
            1000,
            4096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let (lo, hi) = h.bucket_bounds(h.index_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
            // Bucket width ≤ 2^-g of the bucket's low bound.
            assert!(hi - lo <= lo >> 5, "bucket [{lo},{hi}] too wide");
        }
    }

    #[test]
    fn indices_are_contiguous_over_bucket_boundaries() {
        let h = LogHistogram::new(3);
        let mut last = None;
        let mut v = 0u64;
        while v < 10_000 {
            let idx = h.index_of(v);
            if let Some(prev) = last {
                assert!(idx == prev || idx == prev + 1, "index jumped at {v}");
            }
            last = Some(idx);
            v += 1;
        }
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let mut h = LogHistogram::new(5);
        for v in 1..=1000 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((480..=540).contains(&p50), "p50 {p50}");
        assert!((980..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn empty_histogram_has_no_statistics() {
        let h = LogHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    proptest! {
        #[test]
        fn bucket_bounds_bracket_recorded_values(v in any::<u64>(), g in 1u32..=16) {
            let h = LogHistogram::new(g);
            let (lo, hi) = h.bucket_bounds(h.index_of(v));
            prop_assert!(lo <= v && v <= hi, "{} outside [{}, {}]", v, lo, hi);
            // Relative error bound: bucket width ≤ 2^-g · lo.
            prop_assert!(hi - lo <= lo >> g, "bucket [{}, {}] too wide for g={}", lo, hi, g);
        }

        #[test]
        fn quantiles_are_monotone_and_bracketed(
            values in proptest::collection::vec(any::<u64>(), 1..80),
            qs in proptest::collection::vec(0.0f64..1.0, 2..8),
            g in 1u32..=10,
        ) {
            let h = hist_of(g, &values);
            let mut sorted_qs = qs;
            sorted_qs.push(1.0); // always exercise the endpoint
            sorted_qs.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let mut last = None;
            for &q in &sorted_qs {
                let quantile = h.quantile(q).unwrap();
                prop_assert!(quantile >= h.min().unwrap() && quantile <= h.max().unwrap());
                if let Some(prev) = last {
                    prop_assert!(quantile >= prev, "quantile({}) = {} < {}", q, quantile, prev);
                }
                last = Some(quantile);
            }
        }

        /// Any bit pattern — NaN, ±∞, subnormals, negatives — converts
        /// without panicking, and garbage lands on the deterministic
        /// clamp values.
        #[test]
        fn ms_to_us_total_on_all_bit_patterns(bits in any::<u64>()) {
            let ms = f64::from_bits(bits);
            let us = ms_to_us(ms);
            if ms.is_nan() || ms <= 0.0 {
                prop_assert_eq!(us, 0);
            } else if ms >= 2e16 {
                // 2e16 ms = 2e19 µs > u64::MAX µs: must saturate high.
                prop_assert_eq!(us, u64::MAX);
            }
            // Recording the result must never panic either.
            let mut h = LogHistogram::new(5);
            h.record(us);
            prop_assert_eq!(h.count(), 1);
        }
    }
}
