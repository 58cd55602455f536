//! The TTL ladder's boundary instants driven against the staleness
//! SLO window, as the exported trace shows them: each `tick` re-judges
//! the dataset's age *and* feeds the verdict into the windowed
//! burn-rate engine, so the exact instants where `TtlPolicy::judge`
//! flips states are also the instants where budget burn accrues. This
//! pins the full deterministic transition sequence and the breach
//! window the burn opens and the rotation closes. The ladder states and
//! burn totals at each boundary are pinned beside the engine, in
//! `pipeline`'s unit tests.
use netsim::{NodeId, SimDuration, SimTime};
use obs::{config_hash, names, ExportMeta, Lineage, Obs, ObsConfig, Value};
use oracle::{Pipeline, PipelineConfig, SloConfig, TtlPolicy};
use ting::shard::{DeltaPair, MergeDelta};

const SOFT_S: u64 = 10;
const HARD_S: u64 = 100;

fn secs(s: u64) -> SimTime {
    SimTime(SimDuration::from_secs(s).as_nanos())
}

/// Soft 10s / hard 100s ladder over a 10×10s SLO window: one judgment
/// per bucket, so window rotation and TTL boundaries interact on the
/// same clock.
fn config(staleness_objective_ppm: u32) -> PipelineConfig {
    PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: SimDuration::from_secs(HARD_S),
        ttl: TtlPolicy::new(
            SimDuration::from_secs(SOFT_S),
            SimDuration::from_secs(HARD_S),
        )
        .unwrap(),
        slo: Some(SloConfig {
            bucket: SimDuration::from_secs(SOFT_S),
            buckets: 10,
            coverage_objective_ppm: 0,
            progress_objective_ppm: 0,
            latency_budget: SimDuration::from_secs(HARD_S),
            latency_objective_ppm: 0,
            staleness_objective_ppm,
        }),
    }
}

fn nodes() -> Vec<NodeId> {
    (0..4).map(NodeId).collect()
}

fn delta(seq: u64, at: SimTime) -> MergeDelta {
    MergeDelta {
        seq,
        pairs: vec![DeltaPair {
            a: NodeId(0),
            b: NodeId(1),
            rtt_ms: 5.0,
            measured_at: at,
            lineage: Lineage {
                shard: 0,
                round: seq,
            },
        }],
        statuses: vec!["live"],
        now: at,
    }
}

/// The full event-level pin: the exact `(from, to, t_ns)` transition
/// sequence and the breach window the walk opens and closes, as seen
/// by `ting-prof` on the exported trace.
#[test]
fn transition_and_breach_sequences_are_pinned() {
    let obs = Obs::new(ObsConfig::Trace);
    let mut p = Pipeline::with_obs(nodes(), 1, config(400_000), obs.clone(), None);
    p.offer(delta(1, secs(0)));
    p.tick(secs(0)).unwrap();
    p.tick(SimTime(secs(SOFT_S).as_nanos() - 1)).unwrap();
    p.tick(secs(SOFT_S)).unwrap();
    p.tick(SimTime(secs(HARD_S).as_nanos() - 1)).unwrap();
    p.tick(secs(HARD_S)).unwrap();
    p.offer(delta(2, secs(2 * HARD_S)));
    p.tick(secs(2 * HARD_S)).unwrap();

    let text = obs.export_jsonl(&ExportMeta {
        seed: 1,
        config_hash: config_hash("slo-ttl-v1"),
    });
    let doc = obs_analyze::parse_document(&text).unwrap();

    let field_str = |ev: &obs::EventRecord, key: &str| -> String {
        ev.fields
            .iter()
            .find_map(|(k, v)| match (k.as_str(), v) {
                (k2, Value::Str(s)) if k2 == key => Some(s.clone()),
                _ => None,
            })
            .unwrap()
    };
    let transitions: Vec<(String, String, u64)> = doc
        .events
        .iter()
        .filter(|ev| ev.name == names::ORACLE_STALE_TRANSITION)
        .map(|ev| (field_str(ev, "from"), field_str(ev, "to"), ev.t_ns))
        .collect();
    let owned = |s: &str| s.to_owned();
    assert_eq!(
        transitions,
        vec![
            (owned("degraded"), owned("fresh"), secs(0).as_nanos()),
            (owned("fresh"), owned("stale"), secs(SOFT_S).as_nanos()),
            (owned("stale"), owned("degraded"), secs(HARD_S).as_nanos()),
            (
                owned("degraded"),
                owned("fresh"),
                secs(2 * HARD_S).as_nanos()
            ),
        ],
        "the ladder walk must transition exactly at the boundaries"
    );

    let windows = obs_analyze::breaches(&doc);
    assert_eq!(windows.len(), 1, "{windows:?}");
    assert_eq!(windows[0].slo, "staleness");
    assert_eq!(windows[0].begin_ns, secs(HARD_S).as_nanos());
    assert_eq!(windows[0].end_ns, Some(secs(2 * HARD_S).as_nanos()));
}
