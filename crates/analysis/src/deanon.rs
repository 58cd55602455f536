//! Deanonymization of Tor circuits with RTT knowledge (§5.1).
//!
//! Threat model (§5.1.1): the attacker is the destination. It knows the
//! exit node `x`, its own RTT `r` to the exit, and the end-to-end RTT
//! `Re2e` of the victim circuit. It has a Murdoch–Danezis-style oracle
//! that can *probe* whether a given relay is on the circuit, but each
//! probe is expensive, so the figure of merit is **how many relays must
//! be probed** before both the entry and the middle are identified
//! (Fig. 12: medians 72% / 62% / 48% of the network for the three
//! strategies).
//!
//! The three strategies:
//!
//! 1. [`Strategy::RttUnaware`] — brute force in random order.
//! 2. [`Strategy::IgnoreTooLarge`] — skip relays that cannot possibly
//!    fit in the RTT budget, and re-prune after each on-circuit hit
//!    using the four §5.1.1 rules.
//! 3. [`Strategy::Informed`] — Algorithm 1: score every remaining relay
//!    by how close its best-case circuit's expected end-to-end RTT
//!    (`R(c) + r + µ`, with µ the dataset's mean RTT standing in for
//!    the unknown source→entry leg) comes to `Re2e`; probe the lowest
//!    score first.
//!
//! Weighted variants divide scores by bandwidth weight (§5.1.1,
//! "Weighted Node Selection") and the weighted baseline probes in
//! decreasing-weight order.

use netsim::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;
use ting::RttMatrix;

/// Probe-ordering strategies under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Brute force, uniform random order.
    RttUnaware,
    /// Random order over the not-ruled-out set, with implicit rule-outs.
    IgnoreTooLarge,
    /// Algorithm 1: informed target selection.
    Informed,
    /// Baseline for the weighted comparison: probe in decreasing
    /// bandwidth-weight order.
    WeightOrdered,
    /// Algorithm 1 with scores divided by bandwidth weight.
    InformedWeighted,
}

/// One simulated attack's outcome.
#[derive(Debug, Clone, Copy)]
pub struct DeanonOutcome {
    /// Relays probed before both entry and middle were identified.
    pub probes: usize,
    /// Size of the probe universe (relays that could have been tested).
    pub universe: usize,
    /// Relays implicitly ruled out before any probing (Fig. 13's
    /// numerator).
    pub(crate) ruled_out_implicitly: usize,
    /// The victim circuit's end-to-end RTT (ms).
    pub re2e_ms: f64,
}

impl DeanonOutcome {
    /// Fraction of the universe probed (Fig. 12's x-axis).
    pub fn fraction_probed(&self) -> f64 {
        self.probes as f64 / self.universe as f64
    }

    /// Fraction implicitly ruled out (Fig. 13's y-axis).
    pub fn fraction_ruled_out(&self) -> f64 {
        self.ruled_out_implicitly as f64 / self.universe as f64
    }
}

/// A victim circuit instance.
#[derive(Debug, Clone, Copy)]
struct Victim {
    entry: NodeId,
    middle: NodeId,
    exit: NodeId,
    /// Attacker (destination) ↔ exit RTT (ms).
    r_ms: f64,
    re2e_ms: f64,
}

/// The deanonymization simulator over one RTT matrix.
pub struct DeanonSimulator<'a> {
    matrix: &'a RttMatrix,
    /// Bandwidth weights per node (all 1.0 = "traditional Tor").
    weights: HashMap<NodeId, f64>,
    /// µ: mean RTT across the dataset (Algorithm 1).
    mean_rtt_ms: f64,
}

impl<'a> DeanonSimulator<'a> {
    /// Builds a simulator with uniform weights.
    ///
    /// # Panics
    /// Panics if the matrix is incomplete (the attacker is assumed to
    /// hold full all-pairs data) or has fewer than 5 nodes.
    pub fn new(matrix: &'a RttMatrix) -> DeanonSimulator<'a> {
        assert!(matrix.is_complete(), "deanonymization needs all pairs");
        assert!(matrix.len() >= 5, "too few relays to form circuits");
        let weights = matrix.nodes().iter().map(|&n| (n, 1.0)).collect();
        DeanonSimulator {
            matrix,
            weights,
            mean_rtt_ms: matrix.mean_rtt_ms().expect("complete matrix"),
        }
    }

    /// Sets bandwidth weights (for the §5.1.1 weighted evaluation).
    pub fn with_weights(mut self, weights: HashMap<NodeId, f64>) -> DeanonSimulator<'a> {
        for n in self.matrix.nodes() {
            assert!(weights.contains_key(n), "missing weight for {n:?}");
        }
        self.weights = weights;
        self
    }

    fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
        self.matrix.get(a, b).expect("complete matrix")
    }

    /// Samples a victim circuit. The source is a uniformly random node
    /// (§5.1.2); entry/middle/exit are distinct relays, selected
    /// uniformly or by weight; the destination's RTT to the exit is
    /// modelled as the exit's RTT to one more random node (the attacker
    /// sits somewhere network-like relative to the exit).
    fn sample_victim<R: Rng + ?Sized>(&self, weighted: bool, rng: &mut R) -> Victim {
        let nodes = self.matrix.nodes();
        let pick = |rng: &mut R, exclude: &[NodeId]| -> NodeId {
            loop {
                let cand = if weighted {
                    let total: f64 = nodes.iter().map(|n| self.weights[n]).sum();
                    let mut t = rng.gen_range(0.0..total);
                    let mut chosen = nodes[nodes.len() - 1];
                    for &n in nodes {
                        t -= self.weights[&n];
                        if t <= 0.0 {
                            chosen = n;
                            break;
                        }
                    }
                    chosen
                } else {
                    nodes[rng.gen_range(0..nodes.len())]
                };
                if !exclude.contains(&cand) {
                    return cand;
                }
            }
        };
        let entry = pick(rng, &[]);
        let middle = pick(rng, &[entry]);
        let exit = pick(rng, &[entry, middle]);
        let source = nodes[rng.gen_range(0..nodes.len())];
        let dest_proxy = pick(rng, &[exit]);
        let r_ms = self.rtt(exit, dest_proxy);
        let re2e_ms =
            self.rtt(source, entry) + self.rtt(entry, middle) + self.rtt(middle, exit) + r_ms;
        let _ = source; // the attacker never learns the source
        Victim {
            entry,
            middle,
            exit,
            r_ms,
            re2e_ms,
        }
    }

    /// Runs one simulated attack with `strategy`.
    pub(crate) fn run_once<R: Rng + ?Sized>(
        &self,
        strategy: Strategy,
        rng: &mut R,
    ) -> DeanonOutcome {
        let weighted_selection = matches!(
            strategy,
            Strategy::WeightOrdered | Strategy::InformedWeighted
        );
        let victim = self.sample_victim(weighted_selection, rng);
        self.attack(strategy, victim, rng)
    }

    /// Runs one attack against a victim whose end-to-end RTT has been
    /// artificially inflated by `pad_ms` — the §5.1.3 latency-padding
    /// defense. The attacker only ever sees the padded RTT, so its
    /// budget-based filtering weakens.
    pub(crate) fn run_once_padded<R: Rng + ?Sized>(
        &self,
        strategy: Strategy,
        pad_ms: f64,
        rng: &mut R,
    ) -> DeanonOutcome {
        assert!(pad_ms >= 0.0);
        let weighted_selection = matches!(
            strategy,
            Strategy::WeightOrdered | Strategy::InformedWeighted
        );
        let mut victim = self.sample_victim(weighted_selection, rng);
        victim.re2e_ms += pad_ms;
        self.attack(strategy, victim, rng)
    }

    /// Runs `runs` attacks and returns their outcomes.
    pub fn run_many<R: Rng + ?Sized>(
        &self,
        strategy: Strategy,
        runs: usize,
        rng: &mut R,
    ) -> Vec<DeanonOutcome> {
        (0..runs).map(|_| self.run_once(strategy, rng)).collect()
    }

    fn attack<R: Rng + ?Sized>(
        &self,
        strategy: Strategy,
        victim: Victim,
        rng: &mut R,
    ) -> DeanonOutcome {
        // Probe universe: every relay except the (known) exit.
        let universe: Vec<NodeId> = self
            .matrix
            .nodes()
            .iter()
            .copied()
            .filter(|&n| n != victim.exit)
            .collect();
        let universe_size = universe.len();
        let budget = victim.re2e_ms;
        let x = victim.exit;
        let r = victim.r_ms;

        let rtt_aware = !matches!(strategy, Strategy::RttUnaware | Strategy::WeightOrdered);

        // A node c is a viable middle if some entry e fits the budget:
        //   R(e,c) + R(c,x) + r ≤ Re2e,
        // and a viable entry if some middle m fits:
        //   R(c,m) + R(m,x) + r ≤ Re2e.
        let viable_middle = |c: NodeId, pool: &[NodeId]| {
            pool.iter()
                .any(|&e| e != c && self.rtt(e, c) + self.rtt(c, x) + r <= budget)
        };
        let viable_entry = |c: NodeId, pool: &[NodeId]| {
            pool.iter()
                .any(|&m| m != c && self.rtt(c, m) + self.rtt(m, x) + r <= budget)
        };

        let mut candidates: Vec<NodeId> = if rtt_aware {
            universe
                .iter()
                .copied()
                .filter(|&c| viable_middle(c, &universe) || viable_entry(c, &universe))
                .collect()
        } else {
            universe.clone()
        };
        let ruled_out_implicitly = universe_size - candidates.len();
        // The true circuit members always survive the filter (their own
        // circuit fits the budget by construction).
        debug_assert!(candidates.contains(&victim.entry));
        debug_assert!(candidates.contains(&victim.middle));

        // Probe ordering state.
        candidates.shuffle(rng);
        if matches!(strategy, Strategy::WeightOrdered) {
            candidates.sort_by(|a, b| {
                self.weights[b]
                    .partial_cmp(&self.weights[a])
                    .expect("finite weights")
            });
        }

        let mut probes = 0usize;
        let mut found_entry = false;
        let mut found_middle = false;
        // Position knowledge from the §5.1.1 inference rules.
        let mut known_entry: Option<NodeId> = None;
        let mut known_middle: Option<NodeId> = None;

        while !(found_entry && found_middle) {
            // Pick the next node to probe.
            let next = match strategy {
                Strategy::Informed | Strategy::InformedWeighted => self.pick_informed(
                    &candidates,
                    x,
                    r,
                    budget,
                    strategy,
                    known_entry,
                    known_middle,
                ),
                _ => 0,
            };
            if candidates.is_empty() {
                // Should not happen: the true members are never pruned.
                break;
            }
            let c = candidates.remove(next.min(candidates.len() - 1));
            probes += 1;

            let on_circuit = c == victim.entry || c == victim.middle;
            if on_circuit {
                if c == victim.entry {
                    found_entry = true;
                } else {
                    found_middle = true;
                }
                if rtt_aware {
                    // Infer the position of c where possible.
                    let pool: Vec<NodeId> = candidates.clone();
                    let can_be_middle = viable_middle(c, &pool)
                        || known_entry
                            .map(|e| self.rtt(e, c) + self.rtt(c, x) + r <= budget)
                            .unwrap_or(false);
                    let can_be_entry = viable_entry(c, &pool)
                        || known_middle
                            .map(|m| self.rtt(c, m) + self.rtt(m, x) + r <= budget)
                            .unwrap_or(false);
                    if can_be_middle && !can_be_entry {
                        known_middle = Some(c);
                    } else if can_be_entry && !can_be_middle {
                        known_entry = Some(c);
                    } else if c == victim.entry {
                        // The attacker eventually disambiguates by
                        // probing behaviour; model as knowledge once
                        // both rules pass (conservative).
                        known_entry = Some(c);
                    } else {
                        known_middle = Some(c);
                    }
                    // Prune with the position-specific rules.
                    if let Some(e) = known_entry {
                        candidates.retain(|&m| {
                            self.rtt(e, m) + self.rtt(m, x) + r <= budget
                                || (found_entry && found_middle)
                        });
                    }
                    if let Some(m) = known_middle {
                        candidates.retain(|&e| {
                            self.rtt(e, m) + self.rtt(m, x) + r <= budget
                                || (found_entry && found_middle)
                        });
                    }
                }
            }
        }

        DeanonOutcome {
            probes,
            universe: universe_size,
            ruled_out_implicitly,
            re2e_ms: victim.re2e_ms,
        }
    }

    /// Algorithm 1's scoring: index of the candidate with the lowest
    /// `min_c |Re2e − (R(c) + r + µ)|`, where the circuits `c` place the
    /// candidate as entry or middle with every viable partner. Once a
    /// circuit member's position is known, only circuits through it are
    /// enumerated — the found hop pins one end of R(c).
    #[allow(clippy::too_many_arguments)]
    fn pick_informed(
        &self,
        candidates: &[NodeId],
        x: NodeId,
        r: f64,
        budget: f64,
        strategy: Strategy,
        known_entry: Option<NodeId>,
        known_middle: Option<NodeId>,
    ) -> usize {
        let mu = self.mean_rtt_ms;
        let mut best_idx = 0;
        let mut best_score = f64::INFINITY;
        for (i, &c) in candidates.iter().enumerate() {
            let mut node_best = f64::INFINITY;
            let mut consider = |circuit_rtt: f64| {
                if circuit_rtt + r <= budget {
                    node_best = node_best.min((budget - (circuit_rtt + r + mu)).abs());
                }
            };
            match (known_entry, known_middle) {
                (Some(e), _) => {
                    // c must be the middle of (e, c, x).
                    consider(self.rtt(e, c) + self.rtt(c, x));
                }
                (_, Some(m)) => {
                    // c must be the entry of (c, m, x).
                    consider(self.rtt(c, m) + self.rtt(m, x));
                }
                (None, None) => {
                    for &p in candidates {
                        if p == c {
                            continue;
                        }
                        // c as entry, p as middle.
                        consider(self.rtt(c, p) + self.rtt(p, x));
                        // c as middle, p as entry.
                        consider(self.rtt(p, c) + self.rtt(c, x));
                    }
                }
            }
            let score = if matches!(strategy, Strategy::InformedWeighted) {
                node_best / self.weights[&c]
            } else {
                node_best
            };
            if score < best_score {
                best_score = score;
                best_idx = i;
            }
        }
        best_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A synthetic complete matrix with geographic-ish structure.
    fn matrix(n: u32, seed: u64) -> RttMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        // Place nodes on a line; RTT = |distance| + noise. Correlated
        // structure matters: it's what the informed strategy exploits.
        let pos: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..300.0)).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                let d = (pos[i] - pos[j]).abs() + rng.gen_range(5.0..20.0);
                m.set(nodes[i], nodes[j], d);
            }
        }
        m
    }

    #[test]
    fn all_strategies_always_find_the_circuit() {
        let m = matrix(30, 1);
        let sim = DeanonSimulator::new(&m);
        let mut rng = SmallRng::seed_from_u64(2);
        for strategy in [
            Strategy::RttUnaware,
            Strategy::IgnoreTooLarge,
            Strategy::Informed,
        ] {
            for _ in 0..50 {
                let o = sim.run_once(strategy, &mut rng);
                assert!(o.probes >= 2, "needs at least two hits");
                assert!(o.probes <= o.universe, "{strategy:?} overran");
            }
        }
    }

    #[test]
    fn unaware_median_matches_order_statistics() {
        // The max of two uniform positions among n has median ≈ n·√½.
        let m = matrix(40, 3);
        let sim = DeanonSimulator::new(&m);
        let mut rng = SmallRng::seed_from_u64(4);
        let outcomes = sim.run_many(Strategy::RttUnaware, 600, &mut rng);
        let fracs: Vec<f64> = outcomes.iter().map(|o| o.fraction_probed()).collect();
        let med = stats::median(&fracs).unwrap();
        assert!((med - 0.707).abs() < 0.08, "median {med}");
    }

    #[test]
    fn rtt_knowledge_reduces_probes() {
        let m = matrix(40, 5);
        let sim = DeanonSimulator::new(&m);
        let mut rng = SmallRng::seed_from_u64(6);
        let runs = 400;
        let med = |s: Strategy, rng: &mut SmallRng| {
            let o = sim.run_many(s, runs, rng);
            let f: Vec<f64> = o.iter().map(|x| x.fraction_probed()).collect();
            stats::median(&f).unwrap()
        };
        let unaware = med(Strategy::RttUnaware, &mut rng);
        let ignore = med(Strategy::IgnoreTooLarge, &mut rng);
        let informed = med(Strategy::Informed, &mut rng);
        assert!(
            ignore < unaware,
            "ignore-too-large {ignore} not better than unaware {unaware}"
        );
        assert!(
            informed < ignore,
            "informed {informed} not better than ignore {ignore}"
        );
        // Fig. 12's overall shape: a meaningful speedup end to end.
        assert!(unaware / informed > 1.2, "speedup too small");
    }

    #[test]
    fn low_rtt_circuits_rule_out_more() {
        let m = matrix(40, 7);
        let sim = DeanonSimulator::new(&m);
        let mut rng = SmallRng::seed_from_u64(8);
        let outcomes = sim.run_many(Strategy::IgnoreTooLarge, 400, &mut rng);
        // Correlation between Re2e and fraction ruled out must be
        // negative (Fig. 13).
        let re2e: Vec<f64> = outcomes.iter().map(|o| o.re2e_ms).collect();
        let ruled: Vec<f64> = outcomes.iter().map(|o| o.fraction_ruled_out()).collect();
        let rho = stats::spearman(&re2e, &ruled).unwrap();
        assert!(rho < -0.3, "expected negative correlation, got {rho}");
    }

    #[test]
    fn weighted_informed_beats_weight_ordered() {
        let m = matrix(40, 9);
        let mut rng = SmallRng::seed_from_u64(10);
        // Moderately skewed weights (~1–10×, like consensus weights
        // within a relay class). With extreme skew, weight order alone
        // pins the circuit and RTT data can add nothing.
        let weights: HashMap<NodeId, f64> = m
            .nodes()
            .iter()
            .map(|&n| (n, 1.0 / rng.gen_range(0.1..1.0f64)))
            .collect();
        let sim = DeanonSimulator::new(&m).with_weights(weights);
        let med = |s: Strategy, rng: &mut SmallRng| {
            let o = sim.run_many(s, 300, rng);
            let f: Vec<f64> = o.iter().map(|x| x.fraction_probed()).collect();
            stats::median(&f).unwrap()
        };
        let baseline = med(Strategy::WeightOrdered, &mut rng);
        let informed = med(Strategy::InformedWeighted, &mut rng);
        assert!(
            informed < baseline,
            "weighted informed {informed} vs baseline {baseline}"
        );
    }

    #[test]
    #[should_panic]
    fn incomplete_matrix_rejected() {
        let m = RttMatrix::new((0..10).map(NodeId).collect());
        let _ = DeanonSimulator::new(&m);
    }
}
