//! End-to-end analysis contract over real scanner traces.
//!
//! A fault-laden multi-round scan is traced, exported, parsed, and
//! pushed through the whole `ting-prof` stack. The assertions are the
//! issue's acceptance criteria:
//!
//! * traces from both scan drivers (sequential and parallel `K > 1`)
//!   lint clean — every span closed on every exit path;
//! * the report is a pure function of the trace bytes (byte-identical
//!   across two independent runs of the same seed);
//! * per-pair self-times partition each measurement span **exactly**;
//! * the per-relay forwarding-delay estimate `F̂_i` rank-correlates
//!   with the simulator's configured relay delays;
//! * health-event attribution agrees with the raw event stream.

use netsim::{FaultPlan, NodeId, SimDuration};
use obs_analyze::tree::{self, SELF_TIME_LABELS};
use ting::obs::{config_hash, ExportMeta, Obs, ObsConfig};
use ting::{Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

const SEED: u64 = 0x7106;

fn meta(seed: u64) -> ExportMeta {
    ExportMeta {
        seed,
        config_hash: config_hash("golden-analysis-v1"),
    }
}

/// One traced campaign: 3 fault-laden rounds over 10 live relays, with
/// enough probes per circuit for delay attribution.
fn traced_scan(seed: u64) -> String {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::live(seed, 10)
        .fault_plan(FaultPlan::new(seed ^ 0x7).with_link_loss(0.004))
        .observability(obs.clone())
        .build();
    let nodes: Vec<NodeId> = net.relays.clone();
    let ting = Ting::with_obs(TingConfig::with_samples(8), obs.clone());
    let mut scanner = Scanner::new(
        nodes.clone(),
        ScannerConfig {
            pairs_per_round: 20,
            retry_backoff: SimDuration::from_secs(60),
            ..ScannerConfig::default()
        },
    );
    for _ in 0..3 {
        scanner.run_round(&mut net, &ting);
        let next = net.sim.now() + SimDuration::from_secs(120);
        net.sim.advance_to(next);
    }
    obs.export_jsonl(&meta(seed))
}

/// A multi-vantage round through the parallel driver, which has its own
/// early-return error paths to keep span-clean.
fn traced_parallel_scan(seed: u64, vantages: usize) -> String {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::live(seed, 12)
        .vantages(vantages)
        .fault_plan(FaultPlan::new(seed ^ 0x3).with_link_loss(0.004))
        .observability(obs.clone())
        .build();
    let ting = Ting::with_obs(TingConfig::fast(), obs.clone());
    let mut scanner = Scanner::new(net.relays.clone(), ScannerConfig::default());
    let report = scanner.run_round_parallel(&mut net, &ting);
    assert!(report.measured > 0, "parallel fixture measured nothing");
    obs.export_jsonl(&meta(seed))
}

#[test]
fn both_scan_drivers_produce_lint_clean_traces() {
    for (label, text) in [
        ("sequential", traced_scan(SEED)),
        ("parallel-k3", traced_parallel_scan(SEED, 3)),
    ] {
        let doc = obs_analyze::parse_document(&text)
            .unwrap_or_else(|e| panic!("{label}: exporter output rejected: {e}"));
        let issues = obs_analyze::lint(&doc);
        assert!(
            issues.is_empty(),
            "{label} trace has lint issues (leaked spans on an error path?):\n{}",
            issues
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        // Lint-clean implies the tree builder accepts it too.
        tree::build(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn report_is_byte_deterministic() {
    let a = traced_scan(SEED);
    let b = traced_scan(SEED);
    assert_eq!(a, b, "trace itself must be deterministic first");
    let render = |text: &str| {
        let doc = obs_analyze::parse_document(text).unwrap();
        let trace = tree::build(&doc).unwrap();
        obs_analyze::report::render(&doc, &trace)
    };
    let ra = render(&a);
    assert_eq!(
        ra,
        render(&b),
        "report must be a pure function of the trace"
    );
    assert!(
        ra.contains("## self time over"),
        "report missing self-time table:\n{ra}"
    );
    assert!(ra.contains("## per-relay attribution"));
}

#[test]
fn pair_self_times_partition_each_span_exactly() {
    let text = traced_scan(SEED);
    let doc = obs_analyze::parse_document(&text).unwrap();
    let trace = tree::build(&doc).unwrap();
    let pairs: Vec<_> = trace
        .rounds
        .iter()
        .flat_map(|r| r.pairs.iter())
        .chain(trace.orphan_pairs.iter())
        .collect();
    assert!(
        pairs.len() >= 40,
        "fixture too small: {} pairs",
        pairs.len()
    );
    for p in pairs {
        let st = tree::pair_self_times(p);
        assert_eq!(
            st.iter().sum::<u64>(),
            p.t1 - p.t0,
            "pair {}-{} self-times {:?} ({:?}) do not telescope to its span",
            p.a,
            p.b,
            st,
            SELF_TIME_LABELS,
        );
    }
    // The same exactness must hold for the rounds' critical paths.
    for round in &trace.rounds {
        let path = tree::critical_path(round);
        let covered: u64 = path.iter().map(|s| s.t1 - s.t0).sum();
        assert_eq!(
            covered,
            round.t1 - round.t0,
            "critical path must tile the round"
        );
    }
}

/// A delay-attribution fixture: the `testbed` scenario (institutional
/// hosts with uniform, low jitter) isolates the relays' configured
/// queueing delays from the per-link noise the `live` scenario layers
/// on, and extra rounds give every relay a healthy probe pool.
fn traced_testbed_scan(seed: u64) -> (String, Vec<(u32, f64, f64)>) {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::testbed(seed)
        .relays(10)
        .fault_plan(FaultPlan::new(seed ^ 0x7).with_link_loss(0.004))
        .observability(obs.clone())
        .build();
    let nodes: Vec<NodeId> = net.relays.clone();
    let ting = Ting::with_obs(TingConfig::with_samples(8), obs.clone());
    let mut scanner = Scanner::new(
        nodes.clone(),
        ScannerConfig {
            pairs_per_round: 20,
            retry_backoff: SimDuration::from_secs(60),
            ..ScannerConfig::default()
        },
    );
    for _ in 0..4 {
        scanner.run_round(&mut net, &ting);
        let next = net.sim.now() + SimDuration::from_secs(120);
        net.sim.advance_to(next);
    }
    let truth = net
        .relays
        .iter()
        .zip(&net.relay_configs)
        .map(|(n, cfg)| {
            (
                n.0,
                cfg.expected_queueing_ms(),
                cfg.expected_forwarding_ms(),
            )
        })
        .collect();
    (obs.export_jsonl(&meta(seed)), truth)
}

#[test]
fn forwarding_delay_estimates_track_configured_relay_delays() {
    let (text, truth) = traced_testbed_scan(SEED);
    let doc = obs_analyze::parse_document(&text).unwrap();
    let trace = tree::build(&doc).unwrap();
    let table = obs_analyze::per_relay(&doc, &trace);

    let mut est = Vec::new();
    let mut queueing = Vec::new();
    let mut forwarding = Vec::new();
    for (node, queueing_ms, forwarding_ms) in &truth {
        let a = table
            .get(node)
            .unwrap_or_else(|| panic!("relay {node} never traversed"));
        if let Some(f) = a.f_est_ms {
            assert!(
                a.leg_circuits >= 2,
                "relay {node}: too few legs for an estimate"
            );
            est.push(f);
            queueing.push(*queueing_ms);
            forwarding.push(*forwarding_ms);
        }
    }
    assert!(est.len() >= 8, "only {} relays got estimates", est.len());
    // F̂_i targets the queueing excess (the crypto floor cancels with
    // the min-RTT subtraction), so that's the primary correlation; the
    // full forwarding delay shares the queueing term and must still
    // rank positively.
    let rho_q = stats::spearman(&est, &queueing).expect("correlation defined");
    assert!(
        rho_q > 0.5,
        "F̂_i should rank-correlate with configured queueing delay, got ρ = {rho_q:.3}\n\
         est = {est:?}\ncfg = {queueing:?}"
    );
    let rho_f = stats::spearman(&est, &forwarding).expect("correlation defined");
    assert!(
        rho_f > 0.3,
        "F̂_i should rank-correlate with configured forwarding delay, got ρ = {rho_f:.3}"
    );
}

#[test]
fn health_attribution_matches_the_raw_event_stream() {
    let text = traced_scan(SEED);
    let doc = obs_analyze::parse_document(&text).unwrap();
    let trace = tree::build(&doc).unwrap();
    let table = obs_analyze::per_relay(&doc, &trace);

    let count_events = |name: &str| doc.events.iter().filter(|e| e.name == name).count() as u64;
    let quarantines: u64 = table.values().map(|a| a.quarantines).sum();
    let releases: u64 = table.values().map(|a| a.releases).sum();
    assert_eq!(quarantines, count_events("health.quarantine"));
    assert_eq!(releases, count_events("health.release"));
}

#[test]
fn flamegraph_totals_cover_every_pair_nanosecond() {
    let text = traced_scan(SEED);
    let doc = obs_analyze::parse_document(&text).unwrap();
    let trace = tree::build(&doc).unwrap();
    let folded = obs_analyze::folded_stacks(&trace);

    let mut total = 0u64;
    for line in folded.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("folded line shape");
        assert!(stack.starts_with("scan;"), "stack {stack:?} not rooted");
        total += n.parse::<u64>().expect("folded count");
    }
    let pair_ns: u64 = trace
        .rounds
        .iter()
        .flat_map(|r| r.pairs.iter())
        .chain(trace.orphan_pairs.iter())
        .map(|p| p.t1 - p.t0)
        .sum();
    assert_eq!(total, pair_ns, "flamegraph must conserve pair time exactly");
}
