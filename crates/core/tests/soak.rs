//! Self-healing acceptance test: the health/quarantine model must pay
//! for itself (permanently dead relays must not slow down the live
//! pairs). The chaos soak over the same stack lives in
//! `crates/bench/tests/soak.rs`.

use netsim::{NodeId, SimDuration, SimTime};
use ting::{Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

const SEED: u64 = 0x50AC;

fn all_pairs_measured(scanner: &Scanner, nodes: &[NodeId]) -> bool {
    nodes.iter().enumerate().all(|(i, &a)| {
        nodes[i + 1..]
            .iter()
            .all(|&b| scanner.measured_at(a, b).is_some())
    })
}

/// Scans a 10-relay set with 3 relays permanently dead, returning the
/// virtual instant at which every live–live pair is measured.
fn time_to_complete_live_pairs(health: bool) -> SimTime {
    let mut net = TorNetworkBuilder::live(SEED, 12).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(10).collect();
    let dead = [nodes[2], nodes[5], nodes[8]];
    for &d in &dead {
        net.crash_relay(d, None);
    }
    // The consensus still lists the dead relays as running — exactly
    // the stale-directory window where a scanner keeps trying them.
    let live: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !dead.contains(n))
        .collect();
    let mut scanner = Scanner::new(
        nodes,
        ScannerConfig {
            staleness: SimDuration::from_hours(24 * 365),
            pairs_per_round: 6,
            retry_backoff: SimDuration::from_secs(60),
            retry_backoff_cap: SimDuration::from_secs(600),
            health,
            validation: false,
        },
    );
    let ting = Ting::new(TingConfig {
        max_attempts: 2,
        max_lost_probes: 4,
        ..TingConfig::fast()
    });
    for _round in 0..400u64 {
        scanner.run_round(&mut net, &ting);
        if all_pairs_measured(&scanner, &live) {
            return net.sim.now();
        }
        let next = net.sim.now() + SimDuration::from_secs(120);
        net.sim.advance_to(next);
    }
    panic!("live pairs never completed (health={health})");
}

/// The tentpole acceptance criterion: with 3 permanently dead relays in
/// the set, quarantining them must strictly shorten the virtual time to
/// finish every pair among the live relays — the health model's whole
/// justification is that dead relays stop taxing everyone else.
#[test]
fn quarantine_speeds_up_scan_with_dead_relays() {
    let with_health = time_to_complete_live_pairs(true);
    let without = time_to_complete_live_pairs(false);
    assert!(
        with_health < without,
        "health model must strictly help: with={with_health:?} without={without:?}"
    );
}
