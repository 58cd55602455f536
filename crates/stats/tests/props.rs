//! Property-based tests for the statistics toolkit.

use proptest::prelude::*;
use stats::{
    group_by_bins, linear_fit, spearman, BinLayout, BoxplotSummary, EmpiricalCdf, MinConvergence,
};

fn finite_vec(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e6..1.0e6f64, min_len..64)
}

proptest! {
    #[test]
    fn cdf_is_monotone_and_bounded(xs in finite_vec(1)) {
        let c = EmpiricalCdf::new(&xs);
        let pts = c.points();
        prop_assert_eq!(pts.len(), xs.len());
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!(c.eval(f64::NEG_INFINITY) == 0.0);
        prop_assert!((c.eval(f64::INFINITY) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_inverts_eval(xs in finite_vec(2), q in 0.0..1.0f64) {
        let c = EmpiricalCdf::new(&xs);
        let x = c.quantile(q);
        // The interpolated (type-7) quantile lies between two order
        // statistics, so the CDF at it can undershoot q by at most one
        // sample's worth of mass.
        prop_assert!(c.eval(x) + 1.0 / xs.len() as f64 + 1e-9 >= q);
        prop_assert!(x >= c.min() && x <= c.max());
    }

    #[test]
    fn boxplot_whiskers_inside_data(xs in finite_vec(1)) {
        let b = BoxplotSummary::of(&xs).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(b.whisker_lo >= lo && b.whisker_hi <= hi);
        // NB: when all data below q1 are outliers the whisker can land
        // inside the box (matplotlib behaves the same), so we only check
        // the whiskers bracket the median.
        prop_assert!(b.whisker_lo <= b.median + 1e-9);
        prop_assert!(b.whisker_hi >= b.median - 1e-9);
        // Every outlier is strictly outside the whiskers.
        for &o in &b.outliers {
            prop_assert!(o < b.whisker_lo || o > b.whisker_hi);
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(xs in prop::collection::vec(0.001..1.0e3f64, 3..32)) {
        // Ranks are preserved by exp-like monotone maps, so spearman(x, f(x)) = 1.
        let ys: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
        if let Some(r) = spearman(&xs, &ys) {
            prop_assert!((r - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_fit_recovers_exact_lines(
        slope in -100.0..100.0f64,
        intercept in -100.0..100.0f64,
        xs in prop::collection::vec(-1000.0..1000.0f64, 2..32),
    ) {
        // Need at least two distinct x values.
        prop_assume!(xs.iter().any(|&x| (x - xs[0]).abs() > 1e-6));
        let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        prop_assert!((f.slope - slope).abs() < 1e-4 * (1.0 + slope.abs()));
        prop_assert!((f.intercept - intercept).abs() < 1e-3 * (1.0 + intercept.abs()));
    }

    #[test]
    fn bin_of_clamps_to_the_edge_bins(xs in finite_vec(1)) {
        // Narrower than the data, so both edges clamp.
        let (lo, hi, width) = (-1.0e5, 1.0e5, 5.0e3);
        let layout = BinLayout::with_bin_width(lo, hi, width);
        let last = layout.bins() - 1;
        for &x in &xs {
            let b = layout.bin_of(x);
            if x < lo {
                prop_assert_eq!(b, 0);
            } else if x >= hi {
                prop_assert_eq!(b, last);
            } else {
                prop_assert!((layout.bin_center(b) - x).abs() <= width / 2.0 + 1e-6);
            }
        }
        let groups = group_by_bins(&layout, xs.iter().map(|&x| (x, x)));
        prop_assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), xs.len());
    }

    #[test]
    fn convergence_indices_ordered(xs in prop::collection::vec(0.001..1.0e4f64, 1..128)) {
        let c = MinConvergence::analyze(&xs).unwrap();
        let exact = c.samples_to_min;
        let w1 = c.samples_to_within_rel(0.01);
        let w5 = c.samples_to_within_rel(0.05);
        let w10 = c.samples_to_within_rel(0.10);
        // Looser tolerance can never require more samples.
        prop_assert!(w10 <= w5 && w5 <= w1 && w1 <= exact);
        prop_assert!(exact <= xs.len());
    }
}
