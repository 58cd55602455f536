//! Tor as a measurement platform: coverage analysis (§5.3, Fig. 18).
//!
//! Quantifies what the paper's final application depends on: how many
//! distinct /24 networks the relay population reaches, and what kinds
//! of hosts run relays (the extended Schulman-style residential
//! classifier over rDNS names; the paper finds ≥ 61% of named relays
//! residential and several hundred at named hosting companies).

use geo::{classify_hostname, HostClass};
use std::collections::HashSet;
use tor_sim::churn::PopulationRelay;

/// Aggregate coverage statistics over one relay population snapshot.
#[derive(Debug, Clone, Copy)]
pub struct CoverageReport {
    pub total_relays: usize,
    pub unique_slash24: usize,
    pub unique_slash16: usize,
    /// Relays with a reverse-DNS name.
    pub named: usize,
    pub residential: usize,
    pub datacenter: usize,
    pub unknown_named: usize,
}

impl CoverageReport {
    /// Classifies a population (one consensus' worth of relays).
    pub fn analyze(relays: &[PopulationRelay]) -> CoverageReport {
        let mut s24: HashSet<[u8; 3]> = HashSet::new();
        let mut s16: HashSet<[u8; 2]> = HashSet::new();
        let mut named = 0;
        let mut residential = 0;
        let mut datacenter = 0;
        let mut unknown_named = 0;
        for r in relays {
            s24.insert(r.slash24());
            s16.insert([r.ip[0], r.ip[1]]);
            if let Some(name) = &r.rdns {
                named += 1;
                match classify_hostname(name) {
                    HostClass::Residential => residential += 1,
                    HostClass::Datacenter => datacenter += 1,
                    HostClass::Unknown => unknown_named += 1,
                }
            }
        }
        CoverageReport {
            total_relays: relays.len(),
            unique_slash24: s24.len(),
            unique_slash16: s16.len(),
            named,
            residential,
            datacenter,
            unknown_named,
        }
    }

    /// Fraction of *named* relays classified residential (the paper's
    /// "roughly 61%").
    pub fn residential_fraction_of_named(&self) -> f64 {
        if self.named == 0 {
            return 0.0;
        }
        self.residential as f64 / self.named as f64
    }

    /// Fraction of all relays that have an rDNS name at all.
    pub fn named_fraction(&self) -> f64 {
        if self.total_relays == 0 {
            return 0.0;
        }
        self.named as f64 / self.total_relays as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tor_sim::churn::{ChurnConfig, ChurnModel};

    #[test]
    fn report_on_default_population_matches_paper_shape() {
        let model = ChurnModel::new(ChurnConfig::default(), 42);
        let report = CoverageReport::analyze(model.relays());
        // §5.3 numbers: 6634 relays, 5426–6044 unique /24s, 1150
        // unnamed, ~61% of named relays residential.
        assert!(report.total_relays > 6000 && report.total_relays < 7000);
        assert!(
            report.unique_slash24 > 4800 && report.unique_slash24 < 6500,
            "/24s {}",
            report.unique_slash24
        );
        let res = report.residential_fraction_of_named();
        assert!((res - 0.61).abs() < 0.06, "residential {res}");
        let named = report.named_fraction();
        assert!((named - 0.83).abs() < 0.05, "named {named}");
        assert!(report.datacenter > 200, "datacenter {}", report.datacenter);
    }

    #[test]
    fn empty_population() {
        let report = CoverageReport::analyze(&[]);
        assert_eq!(report.total_relays, 0);
        assert_eq!(report.residential_fraction_of_named(), 0.0);
        assert_eq!(report.named_fraction(), 0.0);
    }

    #[test]
    fn counts_are_consistent() {
        let model = ChurnModel::new(ChurnConfig::default(), 7);
        let r = CoverageReport::analyze(model.relays());
        assert_eq!(r.named, r.residential + r.datacenter + r.unknown_named);
        assert!(r.unique_slash16 <= r.unique_slash24);
        assert!(r.unique_slash24 <= r.total_relays);
        assert!(r.named <= r.total_relays);
    }
}
