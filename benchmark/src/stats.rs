//! Order statistics for the report.

/// Sorts in place and returns the slice (NaN-total order).
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Quantile `q ∈ [0, 1]` of an ascending slice, linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(sorted(&mut v), 0.5)
}

/// The percentiles a report may quote.
const LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// The highest percentile of [`LADDER`] with at least ten samples
/// beyond it among `n` — the highest one worth reporting. `None` below
/// twenty samples, where not even the median qualifies.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// Whether `n` samples leave at least ten beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    highest_supported(n).is_some_and(|top| q <= top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.50));
        assert_eq!(highest_supported(99), Some(0.50));
        assert_eq!(highest_supported(100), Some(0.90));
        assert_eq!(highest_supported(150), Some(0.90));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(250_000), Some(0.999));
        assert!(supports(150, 0.90) && !supports(50, 0.90) && supports(50, 0.50));
    }
}
