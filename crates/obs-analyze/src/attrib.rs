//! Per-relay delay and failure attribution.
//!
//! **Forwarding delay `F_i`.** Paper §4.3 estimates a relay's
//! forwarding delay from circuits that traverse it. In a trace, every
//! leg circuit (`x`/`y`/`leg` kinds) is a two-hop `w → i` path whose
//! probe RTTs the emitter logged per circuit. All legs measuring the
//! same relay share that path, so their probes are pooled: the pooled
//! *minimum* RTT is the floor (propagation + crypto with empty queues),
//! and each probe's excess over it is queueing drawn at `w` and `i`
//! plus link jitter. With `w` deliberately provisioned quiet, the mean
//! excess is dominated by relay `i`'s busy-queue draws on the two
//! traversals each probe makes, so `F̂_i = mean-excess / 2` ranks
//! relays by forwarding delay. (Pooling matters: a per-circuit floor
//! from a handful of probes is biased high on busy relays, washing the
//! ranking out.) Note what the subtraction cancels: the relay's
//! constant crypto cost rides in every probe — fastest included — so it
//! lands in the floor alongside propagation, and `F̂_i` recovers the
//! *queueing* excess (`busy_prob · busy_mean_ms` of the simulator's
//! `tor_sim::RelayConfig`), not the full `base + queueing` mean. The simulator
//! knows each relay's true configuration, and a test holds the rank
//! correlation between `F̂_i` and that ground truth.
//!
//! **Failure involvement.** Circuit attempts ending in an error count
//! against every relay on their path; quarantine/release/probe events
//! from `core::health` are tallied alongside, so the table shows
//! whether the health model's verdicts track the relays that actually
//! broke circuits.

use crate::tree::{CircuitNode, PairNode, Trace};
use obs::names;
use obs::Document;
use std::collections::BTreeMap;

/// Attribution totals for one relay.
#[derive(Debug, Clone, Default)]
pub struct RelayAttribution {
    /// Leg circuits that measured this relay directly.
    pub leg_circuits: u64,
    /// Probe RTT samples across those legs.
    pub(crate) probes: u64,
    /// Estimated forwarding delay (ms); `None` without enough probes.
    pub f_est_ms: Option<f64>,
    /// Circuit attempts through this relay that ended in an error.
    pub(crate) failed_circuits: u64,
    /// Circuit attempts through this relay in total.
    pub(crate) circuits: u64,
    /// `health.quarantine` events naming this relay.
    pub quarantines: u64,
    /// `health.release` events naming this relay.
    pub releases: u64,
}

/// Per-relay attribution over the whole trace, keyed by node id.
pub fn per_relay(doc: &Document, trace: &Trace) -> BTreeMap<u32, RelayAttribution> {
    let mut table: BTreeMap<u32, RelayAttribution> = BTreeMap::new();
    // All probe RTTs (µs) over each relay's leg circuits, pooled.
    let mut pooled: BTreeMap<u32, Vec<f64>> = BTreeMap::new();

    let mut visit = |c: &CircuitNode| {
        for &node in &c.path {
            let entry = table.entry(node).or_default();
            entry.circuits += 1;
            if c.outcome != "ok" {
                entry.failed_circuits += 1;
            }
        }
        // Leg circuits are `w → relay`: the measured relay is the last
        // hop. Full circuits mix four relays' delays, so only legs feed
        // the forwarding-delay estimator.
        if c.kind == "full" || c.path.len() != 2 {
            return;
        }
        let relay = c.path[1];
        let probes: Vec<f64> = c
            .phases
            .iter()
            .filter(|p| p.phase == "probe")
            .map(|p| p.dur_us as f64)
            .collect();
        let entry = table.entry(relay).or_default();
        entry.leg_circuits += 1;
        entry.probes += probes.len() as u64;
        pooled.entry(relay).or_default().extend(probes);
    };

    let mut visit_pair = |p: &PairNode| {
        for c in &p.circuits {
            visit(c);
        }
    };
    for round in &trace.rounds {
        for pair in &round.pairs {
            visit_pair(pair);
        }
    }
    for pair in &trace.orphan_pairs {
        visit_pair(pair);
    }
    for c in &trace.orphan_circuits {
        visit(c);
    }

    for (relay, probes) in pooled {
        if probes.len() >= 2 {
            let min = probes.iter().copied().fold(f64::INFINITY, f64::min);
            let mean = probes.iter().sum::<f64>() / probes.len() as f64;
            // Two traversals of the relay per probe round-trip.
            table.entry(relay).or_default().f_est_ms = Some((mean - min) / 1000.0 / 2.0);
        }
    }

    for ev in &doc.events {
        let counter = match ev.name.as_str() {
            names::HEALTH_QUARANTINE => 0,
            names::HEALTH_RELEASE => 1,
            _ => continue,
        };
        if let Some(node) = ev.field_u64("node") {
            let entry = table.entry(node as u32).or_default();
            if counter == 0 {
                entry.quarantines += 1;
            } else {
                entry.releases += 1;
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{PhasePoint, RoundNode};
    use obs::{EventRecord, ObsConfig, Value};

    fn leg(relay: u32, probes_us: &[u64], outcome: &str) -> CircuitNode {
        CircuitNode {
            kind: "x".into(),
            path: vec![0, relay],
            attempt: 1,
            vantage: 0,
            t0: 0,
            t1: 10,
            outcome: outcome.into(),
            phases: probes_us
                .iter()
                .map(|&us| PhasePoint {
                    phase: "probe".into(),
                    t_ns: 0,
                    dur_us: us,
                })
                .collect(),
            errors: vec![],
        }
    }

    #[test]
    fn estimates_half_mean_excess_and_counts_failures() {
        let trace = Trace {
            rounds: vec![RoundNode {
                t0: 0,
                t1: 100,
                planned: 1,
                measured: 1,
                failed: 0,
                pairs: vec![PairNode {
                    id: 2,
                    a: 7,
                    b: 8,
                    vantage: 0,
                    t0: 0,
                    t1: 100,
                    outcome: "accepted".into(),
                    circuits: vec![
                        leg(7, &[1000, 3000, 2000], "ok"),
                        leg(8, &[500], "probe-lost"),
                    ],
                }],
            }],
            orphan_pairs: vec![],
            orphan_circuits: vec![],
        };
        let doc = obs::Document {
            config: ObsConfig::Trace,
            seed: 0,
            config_hash: 0,
            counters: vec![],
            gauges: vec![],
            hists: vec![],
            events: vec![EventRecord {
                name: names::HEALTH_QUARANTINE.into(),
                t_ns: 5,
                fields: vec![("node".into(), Value::U64(8))],
            }],
        };
        let table = per_relay(&doc, &trace);
        // Relay 7: probes 1000/3000/2000 µs → min 1000, mean 2000,
        // excess 1000 µs → F̂ = 0.5 ms.
        assert_eq!(table[&7].f_est_ms, Some(0.5));
        assert_eq!(table[&7].failed_circuits, 0);
        // Relay 8: single probe (no estimate), failed circuit, one
        // quarantine.
        assert_eq!(table[&8].f_est_ms, None);
        assert_eq!(table[&8].failed_circuits, 1);
        assert_eq!(table[&8].quarantines, 1);
        // The shared local hop (node 0) is on both paths.
        assert_eq!(table[&0].circuits, 2);
    }
}
