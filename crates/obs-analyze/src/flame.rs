//! Folded-stack flamegraph output (the `inferno` / `flamegraph.pl`
//! input format: `frame;frame;frame value`, one stack per line).
//!
//! Values are self-time **nanoseconds of virtual time**, so the graph
//! profiles the simulated measurement pipeline, not the host. Lines
//! are sorted, so equal traces fold to byte-equal output.

use crate::tree::{circuit_self_times, pair_self_times, PairNode, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the trace as folded stacks.
pub fn folded_stacks(trace: &Trace) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for (i, round) in trace.rounds.iter().enumerate() {
        let prefix = format!("scan;round-{i}");
        for pair in &round.pairs {
            fold_pair(&mut stacks, &prefix, pair);
        }
    }
    for pair in &trace.orphan_pairs {
        fold_pair(&mut stacks, "scan;raw", pair);
    }
    for c in &trace.orphan_circuits {
        let [b, s, smp] = circuit_self_times(c);
        let prefix = format!("scan;raw;circuit-{}-a{}", c.kind, c.attempt);
        for (label, ns) in [("build", b), ("stream", s), ("sample", smp)] {
            if ns > 0 {
                *stacks.entry(format!("{prefix};{label}")).or_insert(0) += ns;
            }
        }
    }
    let mut out = String::new();
    for (stack, ns) in stacks {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

fn fold_pair(stacks: &mut BTreeMap<String, u64>, prefix: &str, pair: &PairNode) {
    let pair_frame = format!("{prefix};pair-{}-{}@{}", pair.a, pair.b, pair.vantage);
    let st = pair_self_times(pair);
    for (label, ns) in [("setup", st[0]), ("wait", st[4]), ("finalize", st[5])] {
        if ns > 0 {
            *stacks.entry(format!("{pair_frame};{label}")).or_insert(0) += ns;
        }
    }
    for c in &pair.circuits {
        let [b, s, smp] = circuit_self_times(c);
        let circuit_frame = format!("{pair_frame};circuit-{}-a{}", c.kind, c.attempt);
        for (label, ns) in [("build", b), ("stream", s), ("sample", smp)] {
            if ns > 0 {
                *stacks
                    .entry(format!("{circuit_frame};{label}"))
                    .or_insert(0) += ns;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{CircuitNode, PhasePoint, RoundNode};

    #[test]
    fn folds_a_pair_into_sorted_stacks() {
        let c = CircuitNode {
            kind: "full".into(),
            path: vec![1, 5, 6, 2],
            attempt: 1,
            vantage: 0,
            t0: 20,
            t1: 80,
            outcome: "ok".into(),
            phases: vec![
                PhasePoint {
                    phase: "build".into(),
                    t_ns: 50,
                    dur_us: 0,
                },
                PhasePoint {
                    phase: "stream".into(),
                    t_ns: 60,
                    dur_us: 0,
                },
            ],
            errors: vec![],
        };
        let trace = Trace {
            rounds: vec![RoundNode {
                t0: 0,
                t1: 100,
                planned: 1,
                measured: 1,
                failed: 0,
                pairs: vec![PairNode {
                    id: 3,
                    a: 5,
                    b: 6,
                    vantage: 0,
                    t0: 10,
                    t1: 100,
                    outcome: "accepted".into(),
                    circuits: vec![c],
                }],
            }],
            orphan_pairs: vec![],
            orphan_circuits: vec![],
        };
        let folded = folded_stacks(&trace);
        let expected = "\
scan;round-0;pair-5-6@0;circuit-full-a1;build 30
scan;round-0;pair-5-6@0;circuit-full-a1;sample 20
scan;round-0;pair-5-6@0;circuit-full-a1;stream 10
scan;round-0;pair-5-6@0;finalize 20
scan;round-0;pair-5-6@0;setup 10
";
        assert_eq!(folded, expected);
        // Total folded time equals the pair span's duration.
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, 90);
    }
}
