//! Ordinary least-squares linear fit.
//!
//! Fig. 8 draws a linear fit of RTT against great-circle distance for
//! 10,000 live Tor pairs, and compares its slope to the Htrae gaming
//! dataset's fit. [`linear_fit`] produces the slope/intercept plus `r²`
//! so the bench binary can print and compare both lines.

/// Result of an OLS fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub slope: f64,
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]`.
    pub r_squared: f64,
    /// Number of points fitted.
    pub(crate) n: usize,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Fits `y ≈ slope·x + intercept` by ordinary least squares.
///
/// Returns `None` if fewer than two points are given, lengths differ, or
/// all `x` are identical (slope undefined).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() < 2 || xs.len() != ys.len() {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    // r² = explained variance / total variance; define r² = 1 for a
    // perfectly flat response (syy == 0) since the fit is exact.
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
        n: xs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        let f = linear_fit(&xs, &ys).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(f.n, 4);
    }

    #[test]
    fn noisy_line_r_squared_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let f = linear_fit(&xs, &ys).unwrap();
        assert!(f.r_squared > 0.97 && f.r_squared < 1.0);
        assert!((f.slope - 1.0).abs() < 0.1);
    }

    #[test]
    fn vertical_data_is_none() {
        assert_eq!(linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn too_few_points_is_none() {
        assert_eq!(linear_fit(&[1.0], &[1.0]), None);
        assert_eq!(linear_fit(&[], &[]), None);
        assert_eq!(linear_fit(&[1.0, 2.0], &[1.0]), None);
    }

    #[test]
    fn flat_response_is_perfect_fit() {
        let f = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r_squared, 1.0);
    }

    #[test]
    fn predict_and_residual() {
        let f = LinearFit {
            slope: 2.0,
            intercept: 1.0,
            r_squared: 1.0,
            n: 2,
        };
        assert_eq!(f.predict(3.0), 7.0);
        assert_eq!(8.0 - f.predict(3.0), 1.0);
    }
}
