//! Empirical cumulative distribution functions.
//!
//! Most of the paper's figures are CDFs: Ting-vs-ground-truth accuracy
//! ratios (Figs. 3, 4, 7), coefficients of variation (Fig. 9), all-pairs
//! RTTs (Fig. 11), deanonymization cost (Fig. 12), and TIV savings
//! (Fig. 14). [`EmpiricalCdf`] stores the sorted sample once and answers
//! `F(x)`, quantiles, and plot-ready point series.

use crate::sorted;
use crate::summary::quantile_sorted;

/// An empirical CDF over a finite sample.
///
/// Construction sorts the sample (`O(n log n)`); evaluation is a binary
/// search (`O(log n)`).
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    xs: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds the CDF of `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(samples: &[f64]) -> EmpiricalCdf {
        assert!(!samples.is_empty(), "empty sample for CDF");
        EmpiricalCdf {
            xs: sorted(samples),
        }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x)`: the fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the count of elements <= x given the
        // sorted order (first index where element > x).
        let count = self.xs.partition_point(|&v| v <= x);
        count as f64 / self.xs.len() as f64
    }

    /// The `q`-quantile (inverse CDF) with linear interpolation.
    ///
    /// # Panics
    /// Panics if `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        quantile_sorted(&self.xs, q)
    }

    /// Median shortcut.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.xs[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.xs[self.xs.len() - 1]
    }

    /// The fraction of samples within `tol` (relative) of `target`, i.e.
    /// with `|x/target − 1| ≤ tol`. Used for headline claims like
    /// "91% of estimates are within 10% of the true value" (§4.2).
    pub fn fraction_within_relative(&self, target: f64, tol: f64) -> f64 {
        assert!(target != 0.0);
        let lo = target * (1.0 - tol);
        let hi = target * (1.0 + tol);
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        self.eval(hi) - self.eval(lo) + self.point_mass(lo)
    }

    /// The probability mass exactly at `x` (ties in the sample).
    pub fn point_mass(&self, x: f64) -> f64 {
        let below = self.xs.partition_point(|&v| v < x);
        let at_or_below = self.xs.partition_point(|&v| v <= x);
        (at_or_below - below) as f64 / self.xs.len() as f64
    }

    /// Plot-ready `(x, F(x))` step points, one per sample, ascending.
    ///
    /// This is exactly the series gnuplot would draw for the paper's CDF
    /// figures; the bench binaries print these rows.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.xs.len() as f64;
        self.xs
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Read-only access to the sorted sample.
    pub fn sorted_samples(&self) -> &[f64] {
        &self.xs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf() -> EmpiricalCdf {
        EmpiricalCdf::new(&[3.0, 1.0, 2.0, 2.0])
    }

    #[test]
    fn eval_steps() {
        let c = cdf();
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(1.5), 0.25);
        assert_eq!(c.eval(2.0), 0.75);
        assert_eq!(c.eval(3.0), 1.0);
        assert_eq!(c.eval(10.0), 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let c = cdf();
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 3.0);
        assert_eq!(c.median(), 2.0);
    }

    #[test]
    fn point_mass_counts_ties() {
        let c = cdf();
        assert_eq!(c.point_mass(2.0), 0.5);
        assert_eq!(c.point_mass(1.0), 0.25);
        assert_eq!(c.point_mass(9.0), 0.0);
    }

    #[test]
    fn fraction_within_relative_of_target() {
        // Ratios of estimate/truth clustered near 1.0.
        let c = EmpiricalCdf::new(&[0.95, 0.99, 1.0, 1.02, 1.3]);
        let f = c.fraction_within_relative(1.0, 0.10);
        assert!((f - 0.8).abs() < 1e-12, "got {f}");
    }

    #[test]
    fn points_are_monotone_and_end_at_one() {
        let c = cdf();
        let pts = c.points();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts.last().unwrap().1, 1.0);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    #[should_panic]
    fn empty_sample_rejected() {
        let _ = EmpiricalCdf::new(&[]);
    }

    #[test]
    fn min_max_accessors() {
        let c = cdf();
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 3.0);
        assert_eq!(c.len(), 4);
    }
}
