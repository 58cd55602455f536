//! Correlation coefficients.
//!
//! §4.2 of the paper reports a Spearman rank-order correlation of 0.997
//! between Ting's estimates and ground truth ("for some applications, it
//! suffices to know only the rank order of latencies"). Spearman is
//! Pearson applied to fractional ranks with ties averaged; both are here.

/// Pearson product-moment correlation of two equal-length samples.
///
/// Returns `None` if the slices are empty, have different lengths, or if
/// either sample has zero variance (correlation undefined).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank-order correlation with average ranks for ties.
///
/// Returns `None` under the same conditions as [`pearson`].
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.len() != ys.len() {
        return None;
    }
    let rx = fractional_ranks(xs);
    let ry = fractional_ranks(ys);
    pearson(&rx, &ry)
}

/// Assigns 1-based fractional ranks, averaging over ties.
///
/// E.g. `[10, 20, 20, 30]` → `[1.0, 2.5, 2.5, 4.0]`.
pub(crate) fn fractional_ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN in rank input"));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        // Find the run of tied values [i, j).
        let mut j = i + 1;
        while j < idx.len() && xs[idx[j]] == xs[idx[i]] {
            j += 1;
        }
        // Average of 1-based ranks i+1 ..= j.
        let avg = (i + 1 + j) as f64 / 2.0;
        for &k in &idx[i..j] {
            ranks[k] = avg;
        }
        i = j;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_zero_variance_undefined() {
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn pearson_mismatched_lengths() {
        assert_eq!(pearson(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(pearson(&[], &[]), None);
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        // y = x^3 is monotone: Spearman 1, Pearson < 1.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|&x: &f64| x.powi(3)).collect();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &ys).unwrap() < 1.0);
    }

    #[test]
    fn spearman_reversed_is_minus_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [8.0, 6.0, 4.0, 2.0];
        assert!((spearman(&xs, &ys).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(
            fractional_ranks(&[10.0, 20.0, 20.0, 30.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
    }

    #[test]
    fn ranks_of_sorted_input() {
        assert_eq!(fractional_ranks(&[5.0, 6.0, 7.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ranks_all_tied() {
        assert_eq!(fractional_ranks(&[4.0, 4.0, 4.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn spearman_with_ties() {
        let xs = [1.0, 2.0, 2.0, 3.0];
        let ys = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #[test]
        fn ranks_are_a_permutation_mass(xs in proptest::collection::vec(-1.0e6..1.0e6f64, 1..64)) {
            let r = fractional_ranks(&xs);
            let sum: f64 = r.iter().sum();
            let expect = (xs.len() * (xs.len() + 1)) as f64 / 2.0;
            proptest::prop_assert!((sum - expect).abs() < 1e-6);
        }
    }
}
