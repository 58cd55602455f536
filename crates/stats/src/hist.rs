//! Fixed-width histograms.
//!
//! Figs. 16 and 17 bin circuit RTTs into 50 ms buckets ("Bin size: 50ms")
//! and report, per bucket, circuit counts and median node-selection
//! probabilities. [`Histogram`] provides the binning plus per-bin value
//! accumulation used by those analyses.

/// A histogram over `[lo, hi)` with equal-width bins.
///
/// Values outside the range are counted in saturated edge bins, so no
/// observation is silently dropped (a "no silent truncation" rule the
/// experiment harness relies on).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram spanning `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "invalid histogram range [{lo}, {hi})");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
        }
    }

    /// Creates a histogram with bins of exactly `width` covering
    /// `[lo, hi)` (the last bin may extend past `hi`).
    pub fn with_bin_width(lo: f64, hi: f64, width: f64) -> Histogram {
        assert!(width > 0.0 && hi > lo);
        let bins = ((hi - lo) / width).ceil() as usize;
        Histogram {
            lo,
            width,
            counts: vec![0; bins.max(1)],
        }
    }

    /// Bin index for `x`, clamped to the edge bins.
    pub fn bin_of(&self, x: f64) -> usize {
        if x < self.lo {
            return 0;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        idx.min(self.counts.len() - 1)
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        let b = self.bin_of(x);
        self.counts[b] += 1;
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint x-value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }

    /// `(bin_center, count)` pairs for plotting.
    pub fn series(&self) -> Vec<(f64, u64)> {
        (0..self.bins())
            .map(|i| (self.bin_center(i), self.counts[i]))
            .collect()
    }
}

/// Groups `(x, value)` observations into the bins of a reference
/// histogram layout and returns, per bin, the vector of values.
///
/// Fig. 17 needs, for each 50 ms RTT bin, the distribution of per-node
/// selection probabilities; this helper does the grouping.
pub fn group_by_bins(
    layout: &Histogram,
    observations: impl IntoIterator<Item = (f64, f64)>,
) -> Vec<Vec<f64>> {
    let mut groups = vec![Vec::new(); layout.bins()];
    for (x, v) in observations {
        groups[layout.bin_of(x)].push(v);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.add(0.0);
        h.add(1.9);
        h.add(2.0);
        h.add(9.99);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_clamps_to_edges() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.add(-5.0);
        h.add(100.0);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn bin_width_constructor_covers_range() {
        let h = Histogram::with_bin_width(0.0, 2.5, 0.05); // paper's 50ms bins
        assert_eq!(h.bins(), 50);
        assert!((h.bin_center(0) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn series_matches_counts() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.5);
        h.add(1.5);
        h.add(1.6);
        let s = h.series();
        assert_eq!(s, vec![(0.5, 1), (1.5, 2)]);
    }

    #[test]
    fn grouping_by_bins() {
        let layout = Histogram::new(0.0, 10.0, 2);
        let groups = group_by_bins(&layout, vec![(1.0, 0.1), (6.0, 0.2), (7.0, 0.3)]);
        assert_eq!(groups[0], vec![0.1]);
        assert_eq!(groups[1], vec![0.2, 0.3]);
    }

    #[test]
    #[should_panic]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
