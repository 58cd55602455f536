//! Applications of Ting's all-pairs RTT data (paper §5).
//!
//! Three disparate consumers of an [`ting::RttMatrix`]:
//!
//! * [`deanon`] — §5.1: speeding up active-probing deanonymization of
//!   Tor circuits. Three strategies (brute force, ignore-too-large-RTTs,
//!   and Algorithm 1's informed target selection) plus the
//!   bandwidth-weighted variants, with the probe-count accounting used
//!   in Figs. 12–13.
//! * [`tiv`] — §5.2.1: triangle-inequality violations. Finds detour
//!   relays that beat direct paths (Figs. 14–15).
//! * [`circuits`] — §5.2.2: longer circuits. Samples ℓ-hop circuits for
//!   ℓ = 3..10, bins their RTTs, scales counts to C(n, ℓ), and computes
//!   the node-selection-probability diversity metric (Figs. 16–17).
//! * [`coverage`] — §5.3: Tor as a measurement platform. /24 counting
//!   and residential classification over a relay population (Fig. 18).

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

pub mod circuits;
pub mod coverage;
pub mod deanon;
pub mod defense;
pub mod geobaseline;
pub mod pathsel;
pub mod tiv;

pub use circuits::{CircuitLengthAnalysis, LengthBinSeries};
pub use coverage::CoverageReport;
pub use deanon::{DeanonOutcome, DeanonSimulator, Strategy};
pub use defense::{evaluate_length_randomization, evaluate_padding, DefenseOutcome};
pub use geobaseline::GeoPredictor;
pub use pathsel::{PathSelector, PathSelectorConfig, SelectionProfile};
pub use tiv::{TivFinding, TivReport};

#[cfg(test)]
/// Property tests for the §5 application algorithms.
mod props {
    use crate::{
        CircuitLengthAnalysis, DeanonSimulator, PathSelector, PathSelectorConfig, Strategy,
        TivReport,
    };
    use netsim::NodeId;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use ting::RttMatrix;

    /// A random complete matrix with line-metric structure plus noise.
    fn matrix(n: usize, seed: u64) -> RttMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let pos: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..250.0)).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(
                    nodes[i],
                    nodes[j],
                    (pos[i] - pos[j]).abs() + rng.gen_range(2.0..30.0),
                );
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Deanonymization terminates, stays in bounds, and implicit
        /// rule-outs never exceed the universe.
        #[test]
        fn deanon_outcomes_in_bounds(seed in 0u64..1000, n in 8usize..40) {
            let m = matrix(n, seed);
            let sim = DeanonSimulator::new(&m);
            let mut rng = SmallRng::seed_from_u64(seed ^ 7);
            for strategy in [Strategy::RttUnaware, Strategy::IgnoreTooLarge, Strategy::Informed] {
                let o = sim.run_once(strategy, &mut rng);
                prop_assert!(o.probes >= 2);
                prop_assert!(o.probes <= o.universe);
                prop_assert!(o.ruled_out_implicitly + o.probes <= o.universe + 2);
                prop_assert!(o.re2e_ms > 0.0);
                prop_assert!((0.0..=1.0).contains(&o.fraction_probed()));
                prop_assert!((0.0..=1.0).contains(&o.fraction_ruled_out()));
            }
        }

        /// Padding can only weaken (or not change) the budget filter: the
        /// padded attack never implicitly rules out *more* than the
        /// unpadded one on the same victim distribution (statistically:
        /// mean over several runs).
        #[test]
        fn padding_weakens_filtering(seed in 0u64..500) {
            let m = matrix(24, seed);
            let sim = DeanonSimulator::new(&m);
            let runs = 40;
            let mut rng_a = SmallRng::seed_from_u64(seed ^ 1);
            let mut rng_b = SmallRng::seed_from_u64(seed ^ 1);
            let base: f64 = (0..runs)
                .map(|_| sim.run_once_padded(Strategy::IgnoreTooLarge, 0.0, &mut rng_a).fraction_ruled_out())
                .sum::<f64>() / runs as f64;
            let padded: f64 = (0..runs)
                .map(|_| sim.run_once_padded(Strategy::IgnoreTooLarge, 300.0, &mut rng_b).fraction_ruled_out())
                .sum::<f64>() / runs as f64;
            prop_assert!(padded <= base + 0.05, "padded {padded} rules out more than {base}");
        }

        /// TIV findings are internally consistent and the best detour is
        /// really the best over all relays.
        #[test]
        fn tiv_findings_consistent(seed in 0u64..1000, n in 4usize..20) {
            let m = matrix(n, seed);
            let report = TivReport::analyze(&m);
            prop_assert_eq!(report.findings.len(), n * (n - 1) / 2);
            prop_assert!((0.0..=1.0).contains(&report.violation_fraction()));
            for f in &report.findings {
                // Verify optimality by brute force.
                for &r in m.nodes() {
                    if r == f.src || r == f.dst {
                        continue;
                    }
                    let detour = m.get(f.src, r).unwrap() + m.get(r, f.dst).unwrap();
                    prop_assert!(detour >= f.best_detour_ms - 1e-9);
                }
                if f.is_violation() {
                    prop_assert!(f.savings_percent() > 0.0 && f.savings_percent() < 100.0);
                } else {
                    prop_assert_eq!(f.savings_percent(), 0.0);
                }
            }
        }

        /// Circuit-length analysis conserves mass and probabilities.
        #[test]
        fn circuit_analysis_conserves_mass(seed in 0u64..500, n in 10usize..25) {
            let m = matrix(n, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 3);
            let a = CircuitLengthAnalysis::run(&m, [3, 4], 500, 4.0, &mut rng);
            for s in &a.series {
                let total: f64 = s.scaled_counts.iter().sum();
                let pop = crate::circuits::choose(n, s.length);
                prop_assert!((total - pop).abs() / pop < 1e-9);
                for p in s.median_node_prob.iter().flatten() {
                    prop_assert!((0.0..=1.0).contains(p));
                }
            }
        }

        /// Path selection only emits circuits that fit the budget, with
        /// distinct relays and in-range lengths.
        #[test]
        fn pathsel_respects_contract(seed in 0u64..500, budget in 100.0..500.0f64) {
            let m = matrix(18, seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 5);
            let sel = PathSelector::new(
                &m,
                PathSelectorConfig { max_len: 5, budget_ms: budget, pilot_samples: 300 },
                &mut rng,
            );
            for _ in 0..10 {
                if let Some(c) = sel.sample_circuit(&mut rng) {
                    prop_assert!(c.len() >= 3 && c.len() <= 5);
                    prop_assert!(crate::pathsel::circuit_rtt_ms(&m, &c) <= budget + 1e-9);
                    let set: std::collections::HashSet<_> = c.iter().collect();
                    prop_assert_eq!(set.len(), c.len());
                }
            }
        }
    }
}
