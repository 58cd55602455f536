//! Statistics toolkit for the Ting reproduction.
//!
//! Every experiment in the paper reduces to one of a small set of
//! statistical summaries: empirical CDFs (Figs. 3, 4, 7, 9, 11, 12, 14),
//! box-plot five-number summaries (Figs. 5, 10), rank correlation
//! (Spearman ρ = 0.997 headline), ordinary-least-squares fits (Fig. 8),
//! fixed-width bins (Figs. 13, 16, 17), coefficients of variation
//! (Fig. 9), and minimum-convergence tracking (Fig. 6). This crate
//! implements all of them on plain `f64` slices with no dependencies, so
//! the rest of the workspace shares one audited implementation.
//!
//! All functions treat NaN as a programming error: inputs are asserted
//! NaN-free in debug builds — measurement code should never produce NaN
//! latencies.

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

mod boxplot;
mod cdf;
mod convergence;
mod corr;
mod hist;
mod linfit;
mod summary;

pub use boxplot::BoxplotSummary;
pub use cdf::EmpiricalCdf;
pub use convergence::MinConvergence;
pub use corr::spearman;
pub use hist::{group_by_bins, BinLayout};
pub use linfit::{linear_fit, LinearFit};
pub use summary::{coefficient_of_variation, mean, median, quantile};

/// Sorts a copy of `xs` ascending, treating all values as totally ordered.
///
/// Panics if any value is NaN.
pub(crate) fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in statistics input"));
    v
}
