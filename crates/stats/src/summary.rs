//! Scalar summaries: mean, variance, quantiles, coefficient of variation.
//!
//! The paper's stability analysis (§4.6, Fig. 9) reports the coefficient
//! of variation `c_v = σ / μ` per relay pair; its accuracy analysis uses
//! medians and quantiles throughout. These helpers operate on `&[f64]`
//! and are deliberately allocation-light.

use crate::sorted;

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`, not `n − 1`).
///
/// The paper's c_v figures are descriptive statistics over a fixed set of
/// hourly measurements, so the population convention is the right one.
/// Returns `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Coefficient of variation `σ / μ` (Fig. 9's x-axis).
///
/// Returns `None` for an empty slice or when the mean is zero (the paper's
/// caveat that c_v "is very sensitive to changes when the mean is low" is
/// about small-but-nonzero means; a zero mean makes it undefined).
pub fn coefficient_of_variation(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    if m == 0.0 {
        return None;
    }
    Some(stddev(xs)? / m)
}

/// Minimum value. Returns `None` for an empty slice.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Maximum value. Returns `None` for an empty slice.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// Quantile by linear interpolation between closest ranks
/// (the "type 7" estimator used by R and NumPy's default).
///
/// `q` must lie in `[0, 1]`. Returns `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    Some(quantile_sorted(&v, q))
}

/// Same as [`quantile`] but assumes `v` is already sorted ascending.
pub(crate) fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty());
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Median (the 0.5 quantile). Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_simple_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_and_stddev() {
        // Population variance of {2, 4, 4, 4, 5, 5, 7, 9} is 4.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(variance(&xs), Some(4.0));
        assert_eq!(stddev(&xs), Some(2.0));
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(variance(&[3.5; 10]), Some(0.0));
    }

    #[test]
    fn cv_matches_sigma_over_mu() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let cv = coefficient_of_variation(&xs).unwrap();
        assert!((cv - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn cv_undefined_for_zero_mean() {
        assert_eq!(coefficient_of_variation(&[-1.0, 1.0]), None);
        assert_eq!(coefficient_of_variation(&[]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&xs, 0.5), Some(2.5));
        // Type-7: pos = 0.25 * 3 = 0.75 → 1 + 0.75*(2-1) = 1.75
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn min_max_reduce() {
        assert_eq!(min(&[3.0, -1.0, 2.0]), Some(-1.0));
        assert_eq!(max(&[3.0, -1.0, 2.0]), Some(3.0));
        assert_eq!(min(&[]), None);
    }
}
