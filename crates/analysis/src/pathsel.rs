//! Latency-aware path selection — the algorithm the paper leaves to
//! future work.
//!
//! §5.2.2 closes: "there is potential for a larger design space than
//! Tor's three-hop default: longer hops need not induce greater
//! latency … though we leave specific algorithms to future work", and
//! §6 suggests Ting data "could also be used to improve the latency of
//! Tor while maintaining, and even improving, the level of anonymity it
//! provides, by greatly increasing the set of acceptable circuits for a
//! given RTT".
//!
//! [`PathSelector`] is one such algorithm. Given an all-pairs matrix
//! and an RTT budget, it samples uniformly from the set of *all*
//! circuits (any length in a configured range) whose predicted internal
//! RTT fits the budget, using rejection sampling with per-length
//! proposal weights proportional to each length's estimated acceptance
//! mass. Selection entropy — the paper's Fig. 17 concern — can then be
//! compared against budget-constrained 3-hop-only selection.

use netsim::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use ting::RttMatrix;

/// The shortest circuit drawn: Tor's three-hop default.
const MIN_LEN: usize = 3;

/// Configuration for latency-aware selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSelectorConfig {
    /// The longest circuit drawn; lengths run from 3 to this, inclusive.
    pub max_len: usize,
    /// Internal-RTT budget (ms): sum of hop RTTs along the circuit.
    pub budget_ms: f64,
    /// Pilot samples per length used to estimate acceptance rates.
    pub pilot_samples: usize,
}

impl Default for PathSelectorConfig {
    fn default() -> Self {
        PathSelectorConfig {
            max_len: 6,
            budget_ms: 300.0,
            pilot_samples: 2000,
        }
    }
}

/// Summary of what a selector can offer at its budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionProfile {
    /// Estimated number of distinct acceptable circuits per length.
    pub circuits_per_length: HashMap<usize, f64>,
    /// Shannon entropy (bits) of per-node selection probability, i.e.
    /// how spread-out relay usage is under this policy.
    pub node_entropy_bits: f64,
    /// The maximum possible entropy (uniform over all relays).
    pub max_entropy_bits: f64,
}

impl SelectionProfile {
    /// Normalized entropy in `[0, 1]`.
    pub fn normalized_entropy(&self) -> f64 {
        if self.max_entropy_bits == 0.0 {
            return 0.0;
        }
        self.node_entropy_bits / self.max_entropy_bits
    }

    /// Estimated total acceptable circuits across lengths.
    pub fn total_circuits(&self) -> f64 {
        self.circuits_per_length.values().sum()
    }
}

/// The latency-aware selector.
pub struct PathSelector<'a> {
    matrix: &'a RttMatrix,
    config: PathSelectorConfig,
    /// Per-length acceptance rate estimated from pilot sampling.
    acceptance: HashMap<usize, f64>,
}

impl<'a> PathSelector<'a> {
    /// Builds a selector, running the pilot estimation.
    ///
    /// # Panics
    /// Panics if the matrix is incomplete or the length range invalid.
    pub fn new<R: Rng + ?Sized>(
        matrix: &'a RttMatrix,
        config: PathSelectorConfig,
        rng: &mut R,
    ) -> PathSelector<'a> {
        assert!(matrix.is_complete(), "path selection needs all pairs");
        assert!((MIN_LEN..=matrix.len()).contains(&config.max_len));
        let mut acceptance = HashMap::new();
        for len in MIN_LEN..=config.max_len {
            let mut hits = 0usize;
            for _ in 0..config.pilot_samples {
                let c = random_circuit(matrix, len, rng);
                if circuit_rtt_ms(matrix, &c) <= config.budget_ms {
                    hits += 1;
                }
            }
            acceptance.insert(len, hits as f64 / config.pilot_samples as f64);
        }
        PathSelector {
            matrix,
            config,
            acceptance,
        }
    }

    /// Draws one circuit uniformly-ish from the acceptable set: pick a
    /// length with probability ∝ (acceptance × population), then
    /// rejection-sample circuits of that length until one fits.
    /// Returns `None` if no length has any acceptance mass.
    pub(crate) fn sample_circuit<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Vec<NodeId>> {
        let n = self.matrix.len();
        let masses: Vec<(usize, f64)> = (MIN_LEN..=self.config.max_len)
            .map(|len| {
                // Ordered-circuit population: n! / (n-len)!.
                let mut pop = 1.0f64;
                for i in 0..len {
                    pop *= (n - i) as f64;
                }
                (len, self.acceptance[&len] * pop)
            })
            .collect();
        let total: f64 = masses.iter().map(|(_, m)| m).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = MIN_LEN;
        for (len, m) in &masses {
            target -= m;
            if target <= 0.0 {
                chosen = *len;
                break;
            }
        }
        // Rejection-sample within the chosen length.
        for _ in 0..100_000 {
            let c = random_circuit(self.matrix, chosen, rng);
            if circuit_rtt_ms(self.matrix, &c) <= self.config.budget_ms {
                return Some(c);
            }
        }
        None
    }

    /// Profiles this policy: circuits available per length and the
    /// node-usage entropy over `samples` drawn circuits.
    pub fn profile<R: Rng + ?Sized>(&self, samples: usize, rng: &mut R) -> SelectionProfile {
        let n = self.matrix.len();
        let mut circuits_per_length = HashMap::new();
        for len in MIN_LEN..=self.config.max_len {
            let mut pop = 1.0f64;
            for i in 0..len {
                pop *= (n - i) as f64;
            }
            circuits_per_length.insert(len, self.acceptance[&len] * pop);
        }
        // Node-usage entropy.
        let mut usage: HashMap<NodeId, u64> = HashMap::new();
        let mut drawn = 0u64;
        for _ in 0..samples {
            if let Some(c) = self.sample_circuit(rng) {
                for node in c {
                    *usage.entry(node).or_insert(0) += 1;
                }
                drawn += 1;
            }
        }
        let total_usage: u64 = usage.values().sum();
        let node_entropy_bits = if total_usage == 0 {
            0.0
        } else {
            usage
                .values()
                .map(|&u| {
                    let p = u as f64 / total_usage as f64;
                    -p * p.log2()
                })
                .sum()
        };
        let _ = drawn;
        SelectionProfile {
            circuits_per_length,
            node_entropy_bits,
            max_entropy_bits: (n as f64).log2(),
        }
    }
}

/// A uniformly random ordered circuit of `len` distinct relays.
fn random_circuit<R: Rng + ?Sized>(matrix: &RttMatrix, len: usize, rng: &mut R) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = matrix.nodes().to_vec();
    // NB: `partial_shuffle` shuffles into the slice's *tail*; the first
    // returned sub-slice is the shuffled part.
    let (shuffled, _) = nodes.partial_shuffle(rng, len);
    shuffled.to_vec()
}

/// Sum of consecutive hop RTTs.
pub(crate) fn circuit_rtt_ms(matrix: &RttMatrix, circuit: &[NodeId]) -> f64 {
    circuit
        .windows(2)
        .map(|w| matrix.get(w[0], w[1]).expect("complete matrix"))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn matrix(n: u32, seed: u64) -> RttMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                m.set(nodes[i], nodes[j], rng.gen_range(20.0..200.0));
            }
        }
        m
    }

    #[test]
    fn sampled_circuits_respect_budget_and_length() {
        let m = matrix(25, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = PathSelectorConfig {
            max_len: 6,
            budget_ms: 250.0,
            pilot_samples: 500,
        };
        let sel = PathSelector::new(&m, cfg, &mut rng);
        for _ in 0..50 {
            let c = sel.sample_circuit(&mut rng).expect("circuit");
            assert!(c.len() >= 3 && c.len() <= 6);
            assert!(circuit_rtt_ms(&m, &c) <= 250.0);
            // Distinct relays.
            let set: std::collections::HashSet<_> = c.iter().collect();
            assert_eq!(set.len(), c.len());
        }
    }

    #[test]
    fn wider_length_range_offers_more_circuits() {
        let m = matrix(25, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let narrow = PathSelector::new(
            &m,
            PathSelectorConfig {
                max_len: 3,
                budget_ms: 300.0,
                pilot_samples: 2000,
            },
            &mut rng,
        )
        .profile(200, &mut rng);
        let wide = PathSelector::new(
            &m,
            PathSelectorConfig {
                max_len: 6,
                budget_ms: 300.0,
                pilot_samples: 2000,
            },
            &mut rng,
        )
        .profile(200, &mut rng);
        // §6's claim: longer lengths greatly increase the acceptable set.
        assert!(
            wide.total_circuits() > narrow.total_circuits() * 2.0,
            "wide {} vs narrow {}",
            wide.total_circuits(),
            narrow.total_circuits()
        );
    }

    #[test]
    fn entropy_reasonable_and_bounded() {
        let m = matrix(20, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let sel = PathSelector::new(&m, PathSelectorConfig::default(), &mut rng);
        let p = sel.profile(300, &mut rng);
        assert!(p.node_entropy_bits > 0.0);
        assert!(p.node_entropy_bits <= p.max_entropy_bits + 1e-9);
        assert!(p.normalized_entropy() > 0.5, "selection too concentrated");
    }

    #[test]
    fn acceptance_rates_decrease_with_length() {
        // With a fixed budget, longer circuits fit less often.
        let m = matrix(25, 7);
        let mut rng = SmallRng::seed_from_u64(8);
        let sel = PathSelector::new(
            &m,
            PathSelectorConfig {
                max_len: 7,
                budget_ms: 350.0,
                pilot_samples: 3000,
            },
            &mut rng,
        );
        for len in 3..7 {
            let (here, longer) = (sel.acceptance[&len], sel.acceptance[&(len + 1)]);
            assert!(here >= longer, "len {len}: {here} < {longer}");
        }
    }

    #[test]
    fn impossible_budget_returns_none() {
        let m = matrix(15, 9);
        let mut rng = SmallRng::seed_from_u64(10);
        let sel = PathSelector::new(
            &m,
            PathSelectorConfig {
                max_len: 4,
                budget_ms: 1.0, // nothing fits
                pilot_samples: 300,
            },
            &mut rng,
        );
        assert!(sel.sample_circuit(&mut rng).is_none());
    }

    #[test]
    fn circuit_rtt_sums_hops() {
        let mut m = RttMatrix::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        m.set(NodeId(0), NodeId(1), 10.0);
        m.set(NodeId(1), NodeId(2), 20.0);
        m.set(NodeId(0), NodeId(2), 99.0);
        assert_eq!(circuit_rtt_ms(&m, &[NodeId(0), NodeId(1), NodeId(2)]), 30.0);
    }
}
