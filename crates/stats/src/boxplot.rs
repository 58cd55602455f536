//! Box-plot five-number summaries (Figs. 5 and 10).
//!
//! The paper draws box plots "capturing the median, interquartile ranges,
//! and minimum and maximum values within the interquartiles" — i.e. Tukey
//! whiskers clamped to observed data — for per-relay forwarding delays
//! (Fig. 5) and per-pair weekly stability (Fig. 10). [`BoxplotSummary`]
//! computes exactly that, plus the outliers beyond the whiskers.

use crate::sorted;
use crate::summary::quantile_sorted;

/// Tukey box-plot summary of one sample.
#[derive(Debug, Clone)]
pub struct BoxplotSummary {
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lowest observation ≥ `q1 − 1.5·IQR`.
    pub whisker_lo: f64,
    /// Highest observation ≤ `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Observations outside the whiskers, ascending.
    pub outliers: Vec<f64>,
}

impl BoxplotSummary {
    /// Summarizes `xs`. Returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<BoxplotSummary> {
        if xs.is_empty() {
            return None;
        }
        let v = sorted(xs);
        let q1 = quantile_sorted(&v, 0.25);
        let q3 = quantile_sorted(&v, 0.75);
        let iqr = q3 - q1;
        let fence_lo = q1 - 1.5 * iqr;
        let fence_hi = q3 + 1.5 * iqr;
        let whisker_lo = v.iter().copied().find(|&x| x >= fence_lo).unwrap_or(v[0]);
        let whisker_hi = v
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= fence_hi)
            .unwrap_or(v[v.len() - 1]);
        let outliers = v
            .iter()
            .copied()
            .filter(|&x| x < fence_lo || x > fence_hi)
            .collect();
        Some(BoxplotSummary {
            q1,
            median: quantile_sorted(&v, 0.5),
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Whether this sample has no outliers beyond the whiskers — the
    /// paper's Fig. 10 observation that "67% of the pairs do not show a
    /// single outlier".
    pub fn has_outliers(&self) -> bool {
        !self.outliers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_sample_without_outliers() {
        let b = BoxplotSummary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 5.0);
        assert!(!b.has_outliers());
    }

    #[test]
    fn detects_outlier() {
        let b = BoxplotSummary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        // IQR = q3 - q1 = 4 - 2 = 2; hi fence = 4 + 3 = 7.
        assert_eq!(b.outliers, vec![100.0]);
        assert_eq!(b.whisker_hi, 4.0);
    }

    #[test]
    fn whiskers_clamp_to_data_not_fences() {
        let b = BoxplotSummary::of(&[10.0, 11.0, 12.0, 13.0]).unwrap();
        assert_eq!(b.whisker_lo, 10.0);
        assert_eq!(b.whisker_hi, 13.0);
    }

    #[test]
    fn single_value_degenerate() {
        let b = BoxplotSummary::of(&[7.0]).unwrap();
        assert_eq!(b.median, 7.0);
        assert_eq!(b.q1, 7.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.whisker_lo, 7.0);
        assert_eq!(b.whisker_hi, 7.0);
        assert!(!b.has_outliers());
    }

    #[test]
    fn empty_is_none() {
        assert!(BoxplotSummary::of(&[]).is_none());
    }

    #[test]
    fn low_outlier_detected() {
        let b = BoxplotSummary::of(&[-50.0, 10.0, 11.0, 12.0, 13.0, 14.0]).unwrap();
        assert_eq!(b.outliers, vec![-50.0]);
        assert_eq!(b.whisker_lo, 10.0);
    }
}
