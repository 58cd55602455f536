//! Fixed-width bins.
//!
//! Figs. 16 and 17 bin circuit RTTs into 50 ms buckets ("Bin size: 50ms")
//! and report, per bucket, circuit counts and median node-selection
//! probabilities; Fig. 13 bins victim RTTs the same way. [`BinLayout`]
//! maps a value to its bin and [`group_by_bins`] collects each bin's
//! values. Counting histograms are `obs::LogHistogram`.

/// Equal-width bins starting at `lo`.
///
/// Values outside the range land in the edge bins, so no observation is
/// silently dropped (a "no silent truncation" rule the experiment
/// harness relies on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinLayout {
    lo: f64,
    width: f64,
    bins: usize,
}

impl BinLayout {
    /// Bins of exactly `width` covering `[lo, hi)` (the last bin may
    /// extend past `hi`).
    ///
    /// # Panics
    /// Panics if `width <= 0` or `hi <= lo`.
    pub fn with_bin_width(lo: f64, hi: f64, width: f64) -> BinLayout {
        assert!(width > 0.0 && hi > lo);
        let bins = ((hi - lo) / width).ceil() as usize;
        BinLayout {
            lo,
            width,
            bins: bins.max(1),
        }
    }

    /// Bin index for `x`, clamped to the edge bins.
    pub fn bin_of(&self, x: f64) -> usize {
        if x < self.lo {
            return 0;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        idx.min(self.bins - 1)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Midpoint x-value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.width
    }
}

/// Groups `(x, value)` observations into the bins of `layout` and
/// returns, per bin, the vector of values.
///
/// Fig. 17 needs, for each 50 ms RTT bin, the distribution of per-node
/// selection probabilities; this helper does the grouping.
pub fn group_by_bins(
    layout: &BinLayout,
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
        let layout = BinLayout::with_bin_width(0.0, 10.0, 2.0);
        assert_eq!(layout.bins(), 5);
        assert_eq!(layout.bin_of(0.0), 0);
        assert_eq!(layout.bin_of(1.9), 0);
        assert_eq!(layout.bin_of(2.0), 1);
        assert_eq!(layout.bin_of(9.99), 4);
    }

    #[test]
    fn out_of_range_clamps_to_edges() {
        let layout = BinLayout::with_bin_width(0.0, 10.0, 5.0);
        assert_eq!(layout.bin_of(-5.0), 0);
        assert_eq!(layout.bin_of(100.0), 1);
    }

    #[test]
    fn bin_width_constructor_covers_range() {
        let layout = BinLayout::with_bin_width(0.0, 2.5, 0.05); // paper's 50ms bins
        assert_eq!(layout.bins(), 50);
        assert!((layout.bin_center(0) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn grouping_by_bins() {
        let layout = BinLayout::with_bin_width(0.0, 10.0, 5.0);
        let groups = group_by_bins(&layout, vec![(1.0, 0.1), (6.0, 0.2), (7.0, 0.3)]);
        assert_eq!(groups[0], vec![0.1]);
        assert_eq!(groups[1], vec![0.2, 0.3]);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = BinLayout::with_bin_width(0.0, 1.0, 0.0);
    }
}
