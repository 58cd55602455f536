//! Triangle-inequality violations (§5.2.1, Figs. 14–15).
//!
//! A TIV exists for a pair `(s, d)` when some relay `r` satisfies
//! `R(s,r) + R(r,d) < R(s,d)`. The paper finds a TIV for 69% of all
//! pairs in its 50-node dataset, with a median best saving of 7.5% and
//! a tenth of TIVs saving 28% or more — evidence that geographic
//! distance cannot substitute for measured RTTs.

use netsim::NodeId;
use ting::RttMatrix;

/// The best detour found for one pair.
#[derive(Debug, Clone, Copy)]
pub struct TivFinding {
    pub src: NodeId,
    pub dst: NodeId,
    /// Direct-path RTT (ms).
    pub direct_ms: f64,
    /// Best `R(s,r) + R(r,d)` over all relays (ms).
    pub best_detour_ms: f64,
    /// The relay achieving it.
    pub best_relay: NodeId,
}

impl TivFinding {
    /// Whether the detour beats the direct path.
    pub fn is_violation(&self) -> bool {
        self.best_detour_ms < self.direct_ms
    }

    /// Relative saving in percent (Fig. 14's x-axis); 0 when no TIV.
    pub(crate) fn savings_percent(&self) -> f64 {
        if !self.is_violation() {
            return 0.0;
        }
        (1.0 - self.best_detour_ms / self.direct_ms) * 100.0
    }
}

/// Whole-matrix TIV analysis.
#[derive(Debug, Clone)]
pub struct TivReport {
    pub findings: Vec<TivFinding>,
}

impl TivReport {
    /// Scans every measured pair for its best detour, via the shared
    /// index-space kernel ([`RttMatrix::best_detour`]) that also
    /// powers the latency oracle's ShorTor-style via-relay queries —
    /// one implementation, two consumers, bit-identical answers.
    ///
    /// # Panics
    /// Panics if the matrix is incomplete.
    pub fn analyze(matrix: &RttMatrix) -> TivReport {
        assert!(matrix.is_complete(), "TIV analysis needs all pairs");
        let nodes = matrix.nodes();
        let mut findings = Vec::new();
        for (i, &s) in nodes.iter().enumerate() {
            for (j, &d) in nodes.iter().enumerate().skip(i + 1) {
                let direct = matrix.get_idx(i as u32, j as u32).expect("complete");
                // A pair with no third relay (n = 2) keeps the
                // historical "no detour" encoding: +∞ through itself.
                let (best_relay, best_detour_ms) = match matrix.best_detour(i as u32, j as u32) {
                    Some(best) => (matrix.node(best.via), best.rtt_ms),
                    None => (s, f64::INFINITY),
                };
                findings.push(TivFinding {
                    src: s,
                    dst: d,
                    direct_ms: direct,
                    best_detour_ms,
                    best_relay,
                });
            }
        }
        TivReport { findings }
    }

    /// Fraction of pairs with at least one TIV (the paper's 69%).
    pub fn violation_fraction(&self) -> f64 {
        if self.findings.is_empty() {
            return 0.0;
        }
        self.findings.iter().filter(|f| f.is_violation()).count() as f64
            / self.findings.len() as f64
    }

    /// Savings percentages of the violating pairs (Fig. 14's sample).
    pub fn savings_distribution(&self) -> Vec<f64> {
        self.findings
            .iter()
            .filter(|f| f.is_violation())
            .map(|f| f.savings_percent())
            .collect()
    }

    /// `(direct, detour)` scatter points for the violating pairs
    /// (Fig. 15).
    pub fn scatter(&self) -> Vec<(f64, f64)> {
        self.findings
            .iter()
            .filter(|f| f.is_violation())
            .map(|f| (f.direct_ms, f.best_detour_ms))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planted_matrix() -> RttMatrix {
        // Triangle: A—B expensive (100), A—C and C—B cheap (20 + 20):
        // the detour through C saves 60%.
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut m = RttMatrix::new(vec![a, b, c, d]);
        m.set(a, b, 100.0);
        m.set(a, c, 20.0);
        m.set(c, b, 20.0);
        // d is far from everything: no TIV through or for it.
        m.set(a, d, 300.0);
        m.set(b, d, 300.0);
        m.set(c, d, 300.0);
        m
    }

    #[test]
    fn finds_planted_tiv() {
        let report = TivReport::analyze(&planted_matrix());
        let ab = report
            .findings
            .iter()
            .find(|f| f.src == NodeId(0) && f.dst == NodeId(1))
            .unwrap();
        assert!(ab.is_violation());
        assert_eq!(ab.best_relay, NodeId(2));
        assert_eq!(ab.best_detour_ms, 40.0);
        assert!((ab.savings_percent() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn non_tiv_pairs_report_no_savings() {
        let report = TivReport::analyze(&planted_matrix());
        let ac = report
            .findings
            .iter()
            .find(|f| f.src == NodeId(0) && f.dst == NodeId(2))
            .unwrap();
        assert!(!ac.is_violation());
        assert_eq!(ac.savings_percent(), 0.0);
    }

    #[test]
    fn violation_fraction_counts_correctly() {
        let report = TivReport::analyze(&planted_matrix());
        // Only A–B has a TIV among the 6 pairs.
        assert!((report.violation_fraction() - 1.0 / 6.0).abs() < 1e-9);
        assert_eq!(report.savings_distribution().len(), 1);
        assert_eq!(report.scatter(), vec![(100.0, 40.0)]);
    }

    #[test]
    fn detour_never_exceeds_direct_in_scatter() {
        let report = TivReport::analyze(&planted_matrix());
        for (direct, detour) in report.scatter() {
            assert!(detour < direct);
        }
    }

    #[test]
    #[should_panic]
    fn incomplete_matrix_rejected() {
        let m = RttMatrix::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let _ = TivReport::analyze(&m);
    }
}
