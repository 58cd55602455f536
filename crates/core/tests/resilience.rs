//! Resilience-layer acceptance tests.
//!
//! Three properties the fault-injection work must hold:
//! 1. the whole pipeline is deterministic — same seed, same fault plan,
//!    byte-identical scan state and byte-identical `obs` trace exports;
//! 2. with every fault knob at zero the resilience layer is a strict
//!    no-op — estimates are bit-identical to a build with no plan at
//!    all;
//! 3. a scan killed mid-run and resumed from its checkpoint ends up in
//!    exactly the state of an uninterrupted scan, with failed pairs
//!    re-queued under backoff rather than dropped.

use netsim::{FaultPlan, NodeId, SimDuration, SimTime};
use ting::obs::{config_hash, ExportMeta, Obs, ObsConfig};
use ting::{Scanner, ScannerConfig, Ting, TingConfig, TingError};
use tor_sim::{RelayFaultProfile, TorNetwork, TorNetworkBuilder};

const SEED: u64 = 0x4E51;

fn faulty_builder(seed: u64) -> TorNetworkBuilder {
    TorNetworkBuilder::live(seed, 14)
        .fault_plan(
            FaultPlan::new(seed ^ 0x7)
                .with_link_loss(0.004)
                .with_stalls(0.002, 300.0),
        )
        .relay_faults(RelayFaultProfile {
            extend_refuse_prob: 0.01,
            overload_drop_prob: 0.0,
            seed: seed ^ 0x9,
        })
}

fn faulty_net(seed: u64) -> TorNetwork {
    faulty_builder(seed).build()
}

fn scan_config() -> ScannerConfig {
    ScannerConfig {
        staleness: SimDuration::from_hours(24),
        pairs_per_round: 8,
        retry_backoff: SimDuration::from_secs(60),
        retry_backoff_cap: SimDuration::from_hours(1),
        ..ScannerConfig::default()
    }
}

/// Runs `rounds` scan rounds, 30 virtual minutes apart, over the first
/// 6 relays of a faulty network traced end to end. Returns the final
/// checkpoint, the exported JSONL trace, and how many retries and
/// re-queues the faults provoked.
fn run_scan(rounds: u64) -> (String, String, u64) {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = faulty_builder(SEED).observability(obs.clone()).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut scanner = Scanner::new(nodes, scan_config());
    let ting = Ting::with_obs(TingConfig::fast(), obs.clone());
    for round in 0..rounds {
        net.sim
            .advance_to(SimTime::ZERO + SimDuration::from_secs(round * 1800));
        scanner.run_round(&mut net, &ting);
    }
    let meta = ExportMeta {
        seed: SEED,
        config_hash: config_hash("resilience-v1"),
    };
    (
        scanner.to_checkpoint(),
        obs.export_jsonl(&meta),
        obs.counter_value("ting.retry") + obs.counter_value("ting.pair_requeued"),
    )
}

/// Same seed + same fault plan ⇒ byte-identical scan state and an
/// identical trace, event for event.
#[test]
fn faulty_scan_is_deterministic() {
    let (cp1, trace1, recovered1) = run_scan(4);
    let (cp2, trace2, _) = run_scan(4);
    assert_eq!(cp1, cp2, "scan state diverged across identical runs");
    assert!(trace1 == trace2, "traces diverged across identical runs");
    assert!(
        recovered1 > 0,
        "fault rates were meant to provoke at least one retry/requeue"
    );
}

/// Every fault knob at zero ⇒ the fault layer and the resilience
/// timeouts are strict no-ops: estimates come out bit-identical to a
/// network built with no fault plan at all, and no failure counter
/// moves.
#[test]
fn zero_rate_faults_give_bit_identical_estimates() {
    let measure = |with_plan: bool| {
        let mut b = TorNetworkBuilder::live(SEED, 14);
        if with_plan {
            b = b
                .fault_plan(
                    FaultPlan::new(0xDEAD)
                        .with_link_loss(0.0)
                        .with_stalls(0.0, 500.0),
                )
                .relay_faults(RelayFaultProfile {
                    extend_refuse_prob: 0.0,
                    overload_drop_prob: 0.0,
                    seed: 0xBEEF,
                });
        }
        let mut net = b.build();
        let (x, y) = (net.relays[0], net.relays[1]);
        let obs = Obs::new(ObsConfig::Metrics);
        let ting = Ting::with_obs(TingConfig::fast(), obs.clone());
        let m = ting
            .measure_pair(&mut net, x, y)
            .expect("clean measurement");
        (m.estimate_ms().to_bits(), obs)
    };
    let (bits_plain, counters_plain) = measure(false);
    let (bits_zeroed, counters_zeroed) = measure(true);
    assert_eq!(
        bits_plain, bits_zeroed,
        "zero-rate faults perturbed the estimate"
    );
    assert_eq!(counters_plain.counters(), counters_zeroed.counters());
    assert_eq!(
        counters_zeroed.counter_value("ting.error.circuit_build_failed"),
        0
    );
    assert_eq!(counters_zeroed.counter_value("ting.retry"), 0);
}

/// Drives the §4.6 scan with a mid-run relay crash. When `kill_after`
/// is set, the scanner is serialized to a checkpoint after that round
/// and a brand-new scanner resumes from it — simulating a killed and
/// restarted scan process against the same (still-running) network.
fn scan_with_crash(net: &mut TorNetwork, kill_after: Option<u64>) -> (String, Vec<(u32, SimTime)>) {
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let victim = nodes[4];
    let mut scanner = Scanner::new(nodes.clone(), scan_config());
    let mut ting = Ting::new(TingConfig::fast());
    let mut backoff_states = Vec::new();
    for round in 0..6u64 {
        net.sim
            .advance_to(SimTime::ZERO + SimDuration::from_secs(round * 1800));
        // The victim departs before round 1 (while unmeasured pairs
        // through it remain) and comes back before round 3.
        if round == 1 {
            net.crash_relay(victim, None);
        }
        if round == 3 {
            net.revive_relay(victim);
            net.refresh_consensus();
        }
        scanner.run_round(net, &ting);
        // (2, 4) is still unmeasured when the victim departs, so it is
        // the pair whose backoff history we follow.
        if let Some(state) = scanner.retry_state(nodes[2], victim) {
            backoff_states.push(state);
        }
        if kill_after == Some(round) {
            let checkpoint = scanner.to_checkpoint();
            scanner = Scanner::from_checkpoint(&checkpoint).expect("checkpoint parses");
            ting = Ting::new(TingConfig::fast());
        }
    }
    (scanner.to_checkpoint(), backoff_states)
}

/// A scan killed mid-run and resumed from its checkpoint completes the
/// same pair set, with the same estimates and timestamps, as the scan
/// that was never interrupted — and while the victim relay is down its
/// pairs sit under exponential backoff instead of being hot-looped or
/// forgotten.
#[test]
fn checkpoint_resume_matches_uninterrupted_scan() {
    let (uninterrupted, backoffs) = scan_with_crash(&mut faulty_net(SEED), None);
    // Kill right after the round that saw the crash-induced failures.
    let (resumed, backoffs_resumed) = scan_with_crash(&mut faulty_net(SEED), Some(1));

    assert_eq!(
        uninterrupted, resumed,
        "resumed scan diverged from the uninterrupted one"
    );
    assert_eq!(backoffs, backoffs_resumed);

    // The crashed relay's pair really was re-queued under backoff …
    assert!(!backoffs.is_empty(), "victim pair never entered backoff");
    let (attempts, next_at) = backoffs[0];
    assert!(attempts >= 1);
    assert!(next_at > SimTime::ZERO);
    // … with attempts growing while the relay stayed down.
    let max_attempts = backoffs.iter().map(|&(a, _)| a).max().unwrap();
    assert!(max_attempts >= 2, "backoff never escalated: {backoffs:?}");

    // After revival + consensus refresh the scan recovered: the final
    // matrix covers all 15 pairs and nothing is left under backoff.
    let final_scanner = Scanner::from_checkpoint(&uninterrupted).unwrap();
    assert!(final_scanner.matrix().is_complete());
    let nodes = final_scanner.matrix().nodes().to_vec();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            assert_eq!(final_scanner.retry_state(a, b), None);
        }
    }
}

/// The checkpoint text format round-trips exactly, including f64
/// estimates and failure backoff state.
#[test]
fn checkpoint_roundtrip_is_exact() {
    let mut net = faulty_net(SEED);
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let victim = nodes[4];
    let mut scanner = Scanner::new(nodes, scan_config());
    let ting = Ting::new(TingConfig::fast());
    scanner.run_round(&mut net, &ting);
    net.crash_relay(victim, None);
    net.sim
        .advance_to(SimTime::ZERO + SimDuration::from_secs(1800));
    scanner.run_round(&mut net, &ting); // provokes failures → backoff state
    let text = scanner.to_checkpoint();
    let reloaded = Scanner::from_checkpoint(&text).expect("parses");
    assert_eq!(reloaded.to_checkpoint(), text);
}

/// A network whose relay `x` has crashed, and a driver whose build
/// deadline sits below the network's own connect timeout — so the
/// deadline, not a settled failure, is what ends each build through
/// `x`. Returns the virtual time `max_attempts` such timeouts must cost.
fn dead_relay_setup() -> (TorNetwork, NodeId, NodeId, Ting, SimDuration) {
    let config = TingConfig {
        max_attempts: 2,
        circuit_build_timeout_ms: 1_000.0,
        ..TingConfig::fast()
    };
    let mut net = TorNetworkBuilder::live(SEED, 14).build();
    let (x, y) = (net.relays[0], net.relays[1]);
    net.crash_relay(x, None);
    let ting = Ting::with_obs(config, Obs::new(ObsConfig::Metrics));
    (net, x, y, ting, SimDuration::from_secs(2))
}

/// A circuit-build timeout costs its full configured virtual duration:
/// a driver that gives up at the last event before the deadline
/// under-reports what a dead relay cost the scan.
#[test]
fn build_timeout_is_charged_in_full_by_measure_pair() {
    let (mut net, x, y, ting, floor) = dead_relay_setup();
    let started = net.sim.now();
    let err = ting.measure_pair(&mut net, x, y).unwrap_err();
    assert!(matches!(
        err,
        TingError::CircuitBuildFailed {
            permanent: false,
            ..
        }
    ));
    assert_eq!(
        ting.obs().counter_value("ting.error.circuit_build_failed"),
        2
    );
    let charged = net.sim.now() - started;
    assert!(charged >= floor, "charged {charged:?}, owed {floor:?}");
}

/// The same cost from the scanner's entry point.
#[test]
fn build_timeout_is_charged_in_full_by_run_round() {
    let (mut net, x, y, ting, floor) = dead_relay_setup();
    let mut scanner = Scanner::new(vec![x, y], scan_config());
    let started = net.sim.now();
    let report = scanner.run_round(&mut net, &ting);
    assert_eq!((report.measured, report.failed), (0, 1));
    let charged = net.sim.now() - started;
    assert!(charged >= floor, "charged {charged:?}, owed {floor:?}");
}
