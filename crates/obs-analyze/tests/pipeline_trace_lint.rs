//! Pipeline traces are analysis inputs too: a supervised scan feeding
//! the live scan→serve pipeline through its interesting paths —
//! delta ingest, overflow coalescing, publish spans, a kill/recover
//! cycle, and the full TTL ladder — must export a trace that lints
//! clean against `obs::names::REGISTRY` and actually emits every
//! `oracle.pipeline.*` / `oracle.stale.*` event, so a renamed or
//! unregistered emitter cannot slip through. The flip side is pinned
//! explicitly: an event name outside the registry is a lint failure.

use netsim::{NodeId, SimDuration, SimTime};
use oracle::{Journal, Pipeline, PipelineConfig, ServingState, SloConfig, TtlPolicy};
use ting::obs::{config_hash, names, ExportMeta, Lineage, Obs, ObsConfig};
use ting::shard::{DeltaPair, MergeDelta, Supervisor, SupervisorConfig};
use ting::{ScannerConfig, TingConfig};
use tor_sim::TorNetworkBuilder;

const SEED: u64 = 0x0513;
const SHARDS: usize = 3;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        // Capacity one: the second offer before a tick must coalesce.
        queue_cap: 1,
        publish_interval: SimDuration(0),
        staleness: ScannerConfig::default().staleness,
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(24)).unwrap(),
        // Only the staleness SLO has a real objective: the fixture
        // walks the TTL ladder, so its breach must begin and end; the
        // other three (objective 0 = breach only when *everything*
        // fails) stay quiet.
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

/// One traced scan→serve campaign: two supervised rounds drained into
/// an overflowing queue, a publish, the TTL ladder walked to
/// `Degraded`, then a kill and journal recovery — all on one `Obs` so
/// supervision and serving land in a single trace.
fn traced_pipeline_run(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ting-ptrace-{}-{tag}", std::process::id()));
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

    // Two rounds drained without an intervening tick: the second offer
    // overflows the capacity-one queue (`oracle.pipeline.coalesce`),
    // then one tick publishes the folded batch
    // (`oracle.pipeline.publish.*`) and flips bootstrap `Degraded` →
    // `Fresh` (`oracle.stale.transition`).
    sup.run_round(&mut net);
    p.offer(sup.take_delta(net.sim.now()));
    sup.run_round(&mut net);
    p.offer(sup.take_delta(net.sim.now()));
    p.tick(net.sim.now()).unwrap();
    assert_eq!(p.state(), ServingState::Fresh);

    // Walk the TTL ladder in virtual time: soft boundary (→ `Stale`),
    // hard boundary (→ `Degraded`) — transitions without traffic. The
    // off-ladder judgments burn the 99% staleness budget, so
    // `slo.breach.begin` fires on the way down.
    let newest = p.reader().snapshot().meta().newest_ns.unwrap();
    p.tick(SimTime(newest + SimDuration::from_hours(1).as_nanos()))
        .unwrap();
    assert_eq!(p.state(), ServingState::Stale);
    let degraded_at = SimTime(newest + SimDuration::from_hours(24).as_nanos());
    p.tick(degraded_at).unwrap();
    assert_eq!(p.state(), ServingState::Degraded);

    // Fresh data a full SLO window later: the burnt buckets rotate
    // out, the judgment lands `Fresh`, and the breach ends
    // (`slo.breach.end`) — the span must close before the kill or the
    // trace would (correctly) lint as leaking it.
    let revived_at = SimTime(degraded_at.as_nanos() + SimDuration::from_hours(25).as_nanos());
    p.offer(MergeDelta {
        seq: 3,
        pairs: vec![DeltaPair {
            a: nodes[0],
            b: nodes[1],
            rtt_ms: 42.0,
            measured_at: revived_at,
            lineage: Lineage { shard: 0, round: 3 },
        }],
        statuses: vec!["live"; SHARDS],
        now: revived_at,
    });
    p.tick(revived_at).unwrap();
    assert_eq!(p.state(), ServingState::Fresh);

    // Kill the serving process and recover from the journal
    // (`oracle.pipeline.recover`); the resume instant is past the hard
    // TTL again, so the recovered pipeline re-judges straight to
    // `Degraded`.
    let died_at = SimTime(revived_at.as_nanos() + SimDuration::from_hours(24).as_nanos());
    drop(p);
    let (p, recovered) = Pipeline::recover(
        nodes,
        SHARDS,
        pipeline_config(),
        obs.clone(),
        Journal::open(&dir).unwrap(),
        died_at,
    )
    .unwrap();
    assert!(recovered.published.is_some());
    assert_eq!(p.state(), ServingState::Degraded);

    let text = obs.export_jsonl(&ExportMeta {
        seed: SEED,
        config_hash: config_hash("pipeline-trace-lint-v1"),
    });
    std::fs::remove_dir_all(&dir).unwrap();
    text
}

#[test]
fn pipeline_trace_lints_clean_and_covers_every_pipeline_event() {
    let text = traced_pipeline_run("lint");
    let doc = obs_analyze::parse_document(&text).expect("exporter output must parse");
    let issues = obs_analyze::lint(&doc);
    assert!(
        issues.is_empty(),
        "pipeline trace has lint issues:\n{}",
        issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let count = |name: &str| doc.events.iter().filter(|e| e.name == name).count();
    for name in [
        names::ORACLE_PIPELINE_DELTA,
        names::ORACLE_PIPELINE_COALESCE,
        names::ORACLE_PIPELINE_PUBLISH_BEGIN,
        names::ORACLE_PIPELINE_PUBLISH_END,
        names::ORACLE_PIPELINE_RECOVER,
        names::ORACLE_STALE_TRANSITION,
        names::LINEAGE_PAIR,
        names::SLO_BREACH_BEGIN,
        names::SLO_BREACH_END,
    ] {
        assert!(count(name) >= 1, "fixture never emitted {name:?}");
    }
    assert_eq!(
        count(names::ORACLE_PIPELINE_PUBLISH_BEGIN),
        count(names::ORACLE_PIPELINE_PUBLISH_END),
        "publish spans must balance"
    );
    assert_eq!(
        count(names::SLO_BREACH_BEGIN),
        count(names::SLO_BREACH_END),
        "breach spans must balance"
    );
    // The full ladder was walked: bootstrap→fresh→stale→degraded→fresh.
    assert!(count(names::ORACLE_STALE_TRANSITION) >= 4);
}

/// The enforcement direction: an emitter whose name is not in
/// `obs::names::REGISTRY` is a test failure, not a silently ignored
/// record — this is what keeps the taxonomy closed.
#[test]
fn an_unregistered_pipeline_event_fails_the_lint() {
    let text = traced_pipeline_run("rogue");
    let mut doc = obs_analyze::parse_document(&text).unwrap();
    doc.events[0].name = "oracle.pipeline.bogus".to_owned();
    let issues = obs_analyze::lint(&doc);
    assert!(
        issues
            .iter()
            .any(|i| i.to_string().contains("unknown event name")),
        "lint must flag an unregistered emitter"
    );
}

#[test]
fn pipeline_trace_is_byte_deterministic() {
    let a = traced_pipeline_run("det");
    let b = traced_pipeline_run("det");
    assert_eq!(a, b, "the serve path must not add nondeterminism");
}
