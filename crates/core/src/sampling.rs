//! Sampling policies.
//!
//! §4.4: "The Ting algorithm takes as a parameter the number of times to
//! sample each circuit, which allows one to adjust the balance between
//! speed of measurement and accuracy." The validation takes 1000 samples,
//! shows 200 matches it almost exactly (Fig. 7), and notes that
//! accepting 5% error lets a pair be measured "in less than 15 seconds".
//! [`SamplePolicy::EarlyStop`] encodes that trade-off as a stopping rule:
//! quit once the running minimum stops improving.

/// When to stop sampling a circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplePolicy {
    /// Take exactly `n` samples (the paper's validation setting:
    /// 1000, later 200).
    FixedCount(usize),
    /// Stop when `window` consecutive samples fail to improve the
    /// running minimum by more than `epsilon_ms`, subject to
    /// `min_samples ≤ taken ≤ max_samples`.
    EarlyStop {
        min_samples: usize,
        window: usize,
        epsilon_ms: f64,
        max_samples: usize,
    },
}

impl SamplePolicy {
    /// The paper's high-accuracy setting.
    pub(crate) fn paper_accurate() -> SamplePolicy {
        SamplePolicy::FixedCount(200)
    }

    /// The paper's "measure a pair in under 15 seconds" setting (§4.4,
    /// ~5% error budget).
    pub(crate) fn paper_fast() -> SamplePolicy {
        SamplePolicy::EarlyStop {
            min_samples: 8,
            window: 6,
            epsilon_ms: 0.5,
            max_samples: 50,
        }
    }

    /// Given the samples so far, should we take another?
    pub(crate) fn wants_more(&self, samples: &[f64]) -> bool {
        match *self {
            SamplePolicy::FixedCount(n) => samples.len() < n,
            SamplePolicy::EarlyStop {
                min_samples,
                window,
                epsilon_ms,
                max_samples,
            } => {
                if samples.len() < min_samples.max(1) {
                    return true;
                }
                if samples.len() >= max_samples {
                    return false;
                }
                // Has the running min improved by > epsilon within the
                // last `window` samples?
                let n = samples.len();
                if n < window + 1 {
                    return true;
                }
                let min_before: f64 = samples[..n - window]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                let min_now: f64 = samples.iter().copied().fold(f64::INFINITY, f64::min);
                min_before - min_now > epsilon_ms
            }
        }
    }
}

/// The minimum filter: the final estimate for a circuit is the minimum
/// of its samples (§3.3: "we take multiple samples, and use the minimum
/// value"). Returns `None` for an empty slice.
pub(crate) fn min_filter(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_count_takes_exactly_n() {
        let p = SamplePolicy::FixedCount(3);
        assert!(p.wants_more(&[]));
        assert!(p.wants_more(&[1.0, 2.0]));
        assert!(!p.wants_more(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn early_stop_quits_on_plateau() {
        let p = SamplePolicy::EarlyStop {
            min_samples: 2,
            window: 3,
            epsilon_ms: 0.5,
            max_samples: 100,
        };
        // Still improving: min went 10 → 5 within the window.
        assert!(p.wants_more(&[10.0, 9.0, 8.0, 6.0, 5.0]));
        // Plateau: the window's samples didn't improve the min.
        assert!(!p.wants_more(&[5.0, 9.0, 8.0, 7.0, 6.0]));
    }

    #[test]
    fn early_stop_respects_min_and_max() {
        let p = SamplePolicy::EarlyStop {
            min_samples: 5,
            window: 2,
            epsilon_ms: 0.1,
            max_samples: 6,
        };
        assert!(p.wants_more(&[1.0; 4])); // below min_samples
        assert!(!p.wants_more(&[1.0; 6])); // at max_samples
    }

    #[test]
    fn early_stop_keeps_going_while_window_unfilled() {
        let p = SamplePolicy::EarlyStop {
            min_samples: 1,
            window: 10,
            epsilon_ms: 0.1,
            max_samples: 100,
        };
        assert!(p.wants_more(&[3.0, 3.0, 3.0]));
    }

    #[test]
    fn min_filter_finds_minimum() {
        assert_eq!(min_filter(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(min_filter(&[]), None);
    }

    #[test]
    fn paper_presets_are_sane() {
        assert_eq!(
            SamplePolicy::paper_accurate(),
            SamplePolicy::FixedCount(200)
        );
        assert!(matches!(
            SamplePolicy::paper_fast(),
            SamplePolicy::EarlyStop { max_samples, .. } if max_samples <= 100
        ));
    }
}
