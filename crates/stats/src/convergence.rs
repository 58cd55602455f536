//! Minimum-convergence tracking (Fig. 6 and §4.4).
//!
//! Ting's estimator takes the *minimum* of many RTT samples through a
//! circuit. Fig. 6 asks: how many samples are needed before the running
//! minimum reaches (or gets acceptably close to) the eventual minimum of
//! 1000 samples? [`MinConvergence`] replays a sample sequence and records
//! the first index at which the running minimum enters each tolerance
//! band ("within 1 ms", "within 1%", "within 5%", "within 10%", exact).

/// Analysis of how quickly the running minimum of a sample sequence
/// approaches the final minimum.
#[derive(Debug, Clone, PartialEq)]
pub struct MinConvergence {
    /// The minimum over the whole sequence.
    pub final_min: f64,
    /// 1-based index of the sample that first achieved `final_min`.
    pub samples_to_min: usize,
    /// Total samples in the sequence.
    pub n: usize,
    mins: Vec<f64>, // running minimum after each sample
}

impl MinConvergence {
    /// Replays `samples` in order. Returns `None` for an empty sequence.
    pub fn analyze(samples: &[f64]) -> Option<MinConvergence> {
        if samples.is_empty() {
            return None;
        }
        let mut mins = Vec::with_capacity(samples.len());
        let mut cur = f64::INFINITY;
        for &s in samples {
            cur = cur.min(s);
            mins.push(cur);
        }
        let final_min = cur;
        let samples_to_min = mins.iter().position(|&m| m == final_min).unwrap() + 1;
        Some(MinConvergence {
            final_min,
            samples_to_min,
            n: samples.len(),
            mins,
        })
    }

    /// 1-based index of the first sample where the running minimum is
    /// within absolute tolerance `abs` of the final minimum.
    pub fn samples_to_within_abs(&self, abs: f64) -> usize {
        assert!(abs >= 0.0);
        let target = self.final_min + abs;
        self.mins.iter().position(|&m| m <= target).unwrap() + 1
    }

    /// 1-based index of the first sample where the running minimum is
    /// within relative tolerance `rel` (e.g. `0.05` = 5%) of the final
    /// minimum.
    pub fn samples_to_within_rel(&self, rel: f64) -> usize {
        assert!(rel >= 0.0);
        self.samples_to_within_abs(self.final_min.abs() * rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_min_monotone_nonincreasing() {
        let c = MinConvergence::analyze(&[5.0, 3.0, 4.0, 2.0, 6.0]).unwrap();
        assert_eq!(c.final_min, 2.0);
        assert_eq!(c.samples_to_min, 4);
        for i in 1..c.n {
            assert!(c.mins[i] <= c.mins[i - 1]);
        }
    }

    #[test]
    fn within_abs_band_reached_earlier() {
        let c = MinConvergence::analyze(&[5.0, 3.0, 4.0, 2.0, 6.0]).unwrap();
        // Running mins: 5, 3, 3, 2, 2. Within 1.0 of 2.0 → first value ≤ 3.0 → index 2.
        assert_eq!(c.samples_to_within_abs(1.0), 2);
        assert_eq!(c.samples_to_within_abs(0.0), 4);
        assert_eq!(c.samples_to_within_abs(10.0), 1);
    }

    #[test]
    fn within_rel_band() {
        let c = MinConvergence::analyze(&[110.0, 104.0, 101.0, 100.0]).unwrap();
        // 5% of 100 = 5 → first running min ≤ 105 is at sample 2.
        assert_eq!(c.samples_to_within_rel(0.05), 2);
        // 1% → ≤ 101 at sample 3.
        assert_eq!(c.samples_to_within_rel(0.01), 3);
        assert_eq!(c.samples_to_within_rel(0.0), 4);
    }

    #[test]
    fn min_first_sample() {
        let c = MinConvergence::analyze(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(c.samples_to_min, 1);
        assert_eq!(c.samples_to_within_rel(0.10), 1);
    }

    #[test]
    fn empty_is_none() {
        assert!(MinConvergence::analyze(&[]).is_none());
    }

    #[test]
    fn duplicate_minimum_uses_first_occurrence() {
        let c = MinConvergence::analyze(&[4.0, 2.0, 2.0, 3.0]).unwrap();
        assert_eq!(c.samples_to_min, 2);
    }
}
