//! Defenses against RTT-assisted deanonymization (§5.1.3).
//!
//! The paper names two countermeasures and evaluates neither: "One
//! countermeasure would be to artificially inflate latencies within a
//! circuit … Another approach that would slow down, but not completely
//! eliminate, this deanonymization attack would be to randomize the
//! length of circuits." This module evaluates both quantitatively:
//!
//! * [`evaluate_padding`] — victims add random per-circuit latency
//!   padding; the attacker's RTT budget becomes an over-estimate, so
//!   too-large filtering and Algorithm 1's scores degrade toward the
//!   brute-force baseline;
//! * [`evaluate_length_randomization`] — victims build 3-, 4-, or
//!   5-hop circuits; an attacker assuming three hops mis-models Re2e.
//!
//! Both are measured the same way as Fig. 12: median fraction of the
//! network probed.

use crate::deanon::{DeanonSimulator, Strategy};
use rand::Rng;
use ting::RttMatrix;

/// Outcome of a defense evaluation.
#[derive(Debug, Clone, Copy)]
pub struct DefenseOutcome {
    /// Median fraction probed with no defense.
    pub undefended: f64,
    /// Median fraction probed with the defense active.
    pub defended: f64,
}

impl DefenseOutcome {
    /// How much of the attacker's advantage the defense removes,
    /// relative to the brute-force baseline `unaware`: 1.0 means the
    /// attack degraded all the way back to brute force.
    pub fn advantage_removed(&self, unaware: f64) -> f64 {
        if unaware <= self.undefended {
            return 0.0;
        }
        ((self.defended - self.undefended) / (unaware - self.undefended)).clamp(0.0, 1.0)
    }
}

/// Evaluates latency padding: before each attack, the victim inflates
/// its end-to-end RTT by a uniform draw from `[0, padding_ms]`. The
/// attacker (who knows only the padded Re2e) runs `strategy`.
pub fn evaluate_padding<R: Rng + ?Sized>(
    matrix: &RttMatrix,
    strategy: Strategy,
    padding_ms: f64,
    runs: usize,
    rng: &mut R,
) -> DefenseOutcome {
    let sim = DeanonSimulator::new(matrix);
    let mut base = Vec::with_capacity(runs);
    let mut defended = Vec::with_capacity(runs);
    for _ in 0..runs {
        base.push(sim.run_once(strategy, rng).fraction_probed());
        let pad = rng.gen_range(0.0..padding_ms.max(1e-9));
        defended.push(sim.run_once_padded(strategy, pad, rng).fraction_probed());
    }
    DefenseOutcome {
        undefended: stats::median(&base).expect("runs > 0"),
        defended: stats::median(&defended).expect("runs > 0"),
    }
}

/// Evaluates circuit-length randomization: the victim uses a uniformly
/// random length from `lengths`; the attacker still assumes the default
/// three hops when filtering (extra hops inflate Re2e like padding
/// equal to the extra legs' RTTs).
pub fn evaluate_length_randomization<R: Rng + ?Sized>(
    matrix: &RttMatrix,
    strategy: Strategy,
    lengths: &[usize],
    runs: usize,
    rng: &mut R,
) -> DefenseOutcome {
    assert!(!lengths.is_empty());
    let sim = DeanonSimulator::new(matrix);
    let nodes = matrix.nodes();
    let mut base = Vec::with_capacity(runs);
    let mut defended = Vec::with_capacity(runs);
    for _ in 0..runs {
        base.push(sim.run_once(strategy, rng).fraction_probed());
        // Extra hops beyond 3 contribute unmodelled RTT ≈ that many
        // random inter-relay RTTs on top of the three-hop budget.
        let len = lengths[rng.gen_range(0..lengths.len())];
        let extra_hops = len.saturating_sub(3);
        let mut pad = 0.0;
        for _ in 0..extra_hops {
            let a = nodes[rng.gen_range(0..nodes.len())];
            let b = nodes[rng.gen_range(0..nodes.len())];
            if a != b {
                pad += matrix.get(a, b).expect("complete");
            }
        }
        defended.push(sim.run_once_padded(strategy, pad, rng).fraction_probed());
    }
    DefenseOutcome {
        undefended: stats::median(&base).expect("runs > 0"),
        defended: stats::median(&defended).expect("runs > 0"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn matrix(n: u32, seed: u64) -> RttMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let pos: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..300.0)).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                m.set(
                    nodes[i],
                    nodes[j],
                    (pos[i] - pos[j]).abs() + rng.gen_range(5.0..20.0),
                );
            }
        }
        m
    }

    #[test]
    fn padding_degrades_the_attack() {
        let m = matrix(30, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let o = evaluate_padding(&m, Strategy::IgnoreTooLarge, 400.0, 300, &mut rng);
        assert!(
            o.defended > o.undefended,
            "padding didn't help: {} vs {}",
            o.defended,
            o.undefended
        );
    }

    #[test]
    fn small_padding_barely_matters() {
        let m = matrix(30, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let o = evaluate_padding(&m, Strategy::IgnoreTooLarge, 1.0, 300, &mut rng);
        assert!((o.defended - o.undefended).abs() < 0.08);
    }

    #[test]
    fn length_randomization_slows_but_does_not_stop() {
        // §5.1.3: "would slow down, but not completely eliminate".
        let m = matrix(30, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let o =
            evaluate_length_randomization(&m, Strategy::IgnoreTooLarge, &[3, 4, 5], 300, &mut rng);
        assert!(o.defended >= o.undefended - 0.02);
        // The attack still terminates below exhaustive search a lot of
        // the time: fraction stays < 1.
        assert!(o.defended < 1.0);
    }

    #[test]
    fn advantage_removed_is_bounded() {
        let o = DefenseOutcome {
            undefended: 0.5,
            defended: 0.65,
        };
        let frac = o.advantage_removed(0.72);
        assert!(frac > 0.0 && frac <= 1.0);
        assert!((frac - (0.15 / 0.22)).abs() < 1e-9);
    }
}
