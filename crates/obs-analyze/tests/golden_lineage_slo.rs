//! Golden-trace tests for the two audit reports: `ting-prof lineage`
//! must name the exact shard-outage → coalesce → publish chain behind
//! a served cell, and `ting-prof slo` must pin the staleness breach
//! window the fixture deliberately opens and closes. The fixture is a
//! real scan→serve campaign (supervisor + pipeline on one `Obs`), so
//! these tests break whenever an emitter stops carrying the fields the
//! walk depends on — the acceptance criterion for the lineage story.

use netsim::{NodeId, SimDuration, SimTime};
use oracle::{Journal, Pipeline, PipelineConfig, ServingState, SloConfig, TtlPolicy};
use ting::obs::{config_hash, names, ExportMeta, Lineage, Obs, ObsConfig};
use ting::shard::{DeltaPair, MergeDelta, Supervisor, SupervisorConfig};
use ting::{ScannerConfig, TingConfig};
use tor_sim::TorNetworkBuilder;

const SEED: u64 = 0x11EA;
const SHARDS: usize = 3;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 1,
        publish_interval: SimDuration(0),
        staleness: ScannerConfig::default().staleness,
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(24)).unwrap(),
        slo: Some(SloConfig {
            bucket: SimDuration::from_hours(1),
            buckets: 24,
            coverage_objective_ppm: 0,
            progress_objective_ppm: 0,
            latency_budget: SimDuration::from_hours(1),
            latency_objective_ppm: 0,
            staleness_objective_ppm: 990_000,
        }),
    }
}

/// The audited campaign: round 1 drains into the queue, shard 0 then
/// crashes and restarts (the outage a stale cell's audit must name),
/// round 2 overflows the capacity-one queue so delta 1 coalesces into
/// delta 2, one tick publishes the folded batch, and the TTL ladder is
/// walked down to `Degraded` (staleness breach begins) and revived a
/// full SLO window later (breach ends).
fn traced_audit_run(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ting-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::testbed(SEED)
        .vantages(2)
        .observability(obs.clone())
        .build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let config = SupervisorConfig {
        shards: SHARDS,
        scanner: ScannerConfig {
            pairs_per_round: 7,
            ..ScannerConfig::default()
        },
        heartbeat_timeout: SimDuration::from_hours(4),
        restart_budget: 3,
        restart_backoff: SimDuration::from_nanos(0),
        restart_backoff_cap: SimDuration::from_nanos(0),
    };
    let mut sup = Supervisor::with_obs(nodes.clone(), config, TingConfig::fast(), obs.clone());

    let mut p = Pipeline::with_obs(
        nodes.clone(),
        SHARDS,
        pipeline_config(),
        obs.clone(),
        Some(Journal::open(&dir).unwrap()),
    );

    sup.run_round(&mut net);
    p.offer(sup.take_delta(net.sim.now()));
    // The outage: shard 0 dies after round 1's measurements, so every
    // cell it measured has a crash+restart between probe and audit.
    sup.inject_crash(0, net.sim.now());
    sup.run_round(&mut net);
    p.offer(sup.take_delta(net.sim.now()));
    p.tick(net.sim.now()).unwrap();
    assert_eq!(p.state(), ServingState::Fresh);

    let newest = p.reader().snapshot().meta().newest_ns.unwrap();
    p.tick(SimTime(newest + SimDuration::from_hours(1).as_nanos()))
        .unwrap();
    assert_eq!(p.state(), ServingState::Stale);
    let degraded_at = SimTime(newest + SimDuration::from_hours(24).as_nanos());
    p.tick(degraded_at).unwrap();
    assert_eq!(p.state(), ServingState::Degraded);

    let revived_at = SimTime(degraded_at.as_nanos() + SimDuration::from_hours(25).as_nanos());
    p.offer(MergeDelta {
        seq: 3,
        pairs: vec![DeltaPair {
            a: nodes[0],
            b: nodes[1],
            rtt_ms: 42.0,
            measured_at: revived_at,
            lineage: Lineage { shard: 0, round: 9 },
        }],
        statuses: vec!["live"; SHARDS],
        now: revived_at,
    });
    p.tick(revived_at).unwrap();
    assert_eq!(p.state(), ServingState::Fresh);

    let text = obs.export_jsonl(&ExportMeta {
        seed: SEED,
        config_hash: config_hash("golden-lineage-slo-v1"),
    });
    std::fs::remove_dir_all(&dir).unwrap();
    text
}

/// A pair whose *latest* drain was shard 0's round-1 delta: its audit
/// must cross the coalesce fold, the crash, and the first publish.
fn audited_pair(doc: &obs::Document) -> (u64, u64) {
    use std::collections::HashMap;
    let mut last: HashMap<(u64, u64), (u64, u64)> = HashMap::new();
    for ev in doc
        .events
        .iter()
        .filter(|ev| ev.name == names::LINEAGE_PAIR)
    {
        let a = ev.field_u64("a").unwrap();
        let b = ev.field_u64("b").unwrap();
        let key = (a.min(b), a.max(b));
        let val = (ev.field_u64("seq").unwrap(), ev.field_u64("shard").unwrap());
        last.insert(key, val);
    }
    let mut candidates: Vec<(u64, u64)> = last
        .into_iter()
        .filter(|&(_, (seq, shard))| seq == 1 && shard == 0)
        .map(|(k, _)| k)
        .collect();
    candidates.sort_unstable();
    *candidates
        .first()
        .expect("shard 0 drained at least one round-1 pair that round 2 did not re-measure")
}

#[test]
fn lineage_names_the_outage_coalesce_and_publish_chain() {
    let text = traced_audit_run("lineage");
    let doc = obs_analyze::parse_document(&text).unwrap();
    let (x, y) = audited_pair(&doc);

    let chain = obs_analyze::trace_pair(&doc, x, y).expect("audited pair has lineage");
    assert_eq!((chain.shard, chain.seq), (0, 1));
    assert!(chain.round >= 1, "scan rounds are 1-based");
    // The capacity-one queue folded delta 1 into delta 2 …
    assert_eq!(chain.coalesces.len(), 1);
    assert_eq!(
        (chain.coalesces[0].from_seq, chain.coalesces[0].into_seq),
        (1, 2)
    );
    // … and the first publish (bootstrap gen 1 → gen 2) served the fold.
    let p = chain
        .published
        .expect("the tick published the folded batch");
    assert_eq!((p.generation, p.last_seq), (2, 2));
    // The outage is attributed: shard 0's crash and restart both land
    // after the measurement instant.
    let incident_names: Vec<&str> = chain.incidents.iter().map(|i| i.name.as_str()).collect();
    assert!(
        incident_names.contains(&names::SHARD_CRASH)
            && incident_names.contains(&names::SHARD_RESTART),
        "expected crash+restart on the owning shard, got {incident_names:?}"
    );
    // The trace's last TTL transition is the revival.
    assert_eq!(
        chain
            .serving
            .as_ref()
            .map(|(_, f, t)| (f.as_str(), t.as_str())),
        Some(("degraded", "fresh"))
    );

    // The rendered audit names every link of the chain.
    let audit = obs_analyze::render_lineage(&doc, x, y);
    for needle in [
        "measured  shard=0",
        "drained   seq=1",
        "coalesced seq 1 -> 2",
        "published generation=2",
        "shard 0 incidents since measurement",
        names::SHARD_CRASH,
        names::SHARD_RESTART,
        "serving   degraded -> fresh",
    ] {
        assert!(audit.contains(needle), "audit missing {needle:?}:\n{audit}");
    }
    // And the unknown-pair direction renders (and exits) as a miss.
    let miss = obs_analyze::render_lineage(&doc, 999_998, 999_999);
    assert!(miss.contains("no lineage recorded for pair (999998,999999)"));
}

#[test]
fn slo_report_pins_the_staleness_breach_window() {
    let text = traced_audit_run("slo");
    let doc = obs_analyze::parse_document(&text).unwrap();

    let windows = obs_analyze::breaches(&doc);
    assert_eq!(windows.len(), 1, "exactly one breach: {windows:?}");
    let w = &windows[0];
    assert_eq!(w.slo, "staleness");
    assert!(w.end_ns.is_some(), "the revival must close the breach");
    assert!(obs_analyze::breached(&doc, "staleness"));
    assert!(!obs_analyze::breached(&doc, "coverage"));

    let report = obs_analyze::render_slo(&doc);
    assert!(report.contains("breach windows (1):"), "{report}");
    assert!(report.contains("  staleness  ["), "{report}");
    assert!(report.contains("held "), "closed windows report their span");
    // The engine leaves its windowed totals behind as gauges.
    assert!(report.contains("slo.staleness.good = "), "{report}");
    assert!(report.contains("slo.staleness.burn_milli = "), "{report}");
}

/// Satellite: gauges survive export → parse → report. The SLO engine's
/// `slo.*` family plus the pipeline's own gauges must all show up in
/// the profile report's gauges section.
#[test]
fn report_round_trips_gauges_through_parse() {
    let text = traced_audit_run("gauges");
    let doc = obs_analyze::parse_document(&text).unwrap();
    assert!(!doc.gauges.is_empty(), "the fixture sets gauges");
    let trace = obs_analyze::build(&doc).unwrap();
    let report = obs_analyze::report::render(&doc, &trace);
    assert!(
        report.contains(&format!("## gauges ({})", doc.gauges.len())),
        "{report}"
    );
    for (name, value) in &doc.gauges {
        assert!(
            report.contains(&format!("  {name} = {value}")),
            "gauge {name:?} missing from report"
        );
    }
    // Re-render through a second parse: byte-stable.
    let doc2 = obs_analyze::parse_document(&text).unwrap();
    let trace2 = obs_analyze::build(&doc2).unwrap();
    assert_eq!(report, obs_analyze::report::render(&doc2, &trace2));
}

#[test]
fn audit_reports_are_byte_deterministic() {
    let ta = traced_audit_run("det");
    let tb = traced_audit_run("det");
    assert_eq!(ta, tb, "the audited campaign must be reproducible");
    let da = obs_analyze::parse_document(&ta).unwrap();
    let db = obs_analyze::parse_document(&tb).unwrap();
    let (x, y) = audited_pair(&da);
    assert_eq!(
        obs_analyze::render_lineage(&da, x, y),
        obs_analyze::render_lineage(&db, x, y)
    );
    assert_eq!(obs_analyze::render_slo(&da), obs_analyze::render_slo(&db));
}
