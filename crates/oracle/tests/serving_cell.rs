//! The serving cell: the judgment travels with the served generation,
//! so the guard holds for the handle a worker already has. One reader
//! is cloned **before** any transition and then walked through every
//! state of the TTL ladder × every query family; the same table is
//! read again through a recovered pipeline, and through a bare
//! `Oracle` that nobody judges.

use netsim::{NodeId, SimDuration, SimTime};
use obs::{Lineage, Obs, ObsConfig};
use oracle::{
    Journal, Oracle, OracleReader, Pipeline, PipelineConfig, QueryError, ServingState, Snapshot,
    TtlPolicy,
};
use ting::shard::{DeltaPair, MergeDelta};
use ting::RttMatrix;

const SOFT_S: u64 = 10;
const HARD_S: u64 = 100;
const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn secs(s: u64) -> SimTime {
    SimTime(SimDuration::from_secs(s).as_nanos())
}

fn config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: SimDuration::from_secs(HARD_S),
        ttl: TtlPolicy::new(
            SimDuration::from_secs(SOFT_S),
            SimDuration::from_secs(HARD_S),
        )
        .unwrap(),
        slo: None,
    }
}

fn nodes() -> Vec<NodeId> {
    (0..4).map(NodeId).collect()
}

/// Every pair of the four nodes, measured at `at`.
fn delta(seq: u64, at: SimTime) -> MergeDelta {
    let mut pairs = Vec::new();
    for a in 0..4 {
        for b in a + 1..4 {
            pairs.push(DeltaPair {
                a: NodeId(a),
                b: NodeId(b),
                rtt_ms: 5.0 + f64::from(a + b),
                measured_at: at,
                lineage: Lineage {
                    shard: 0,
                    round: seq,
                },
            });
        }
    }
    MergeDelta {
        seq,
        pairs,
        statuses: vec!["live"],
        now: at,
    }
}

/// One row of the table: all four families through `reader`, which is
/// being served `generation` in `state` with the dataset `age_s` old.
fn check_row(reader: &OracleReader, state: ServingState, generation: u64, age_s: Option<u64>) {
    // Points answer in every state; `point` says which state it was.
    let plain = reader.rtt(A, B).unwrap();
    assert_eq!(plain.snapshot_version, generation, "{state:?}");
    let guarded = reader.point(A, B).unwrap();
    assert_eq!((guarded.answer, guarded.state), (plain, state));
    assert_eq!(
        reader.point(A, NodeId(9)),
        Err(QueryError::UnknownNode(NodeId(9)))
    );

    // The pinned snapshot is the opt-out: it ranks whatever the state.
    let pinned = reader.snapshot();
    let nearest = pinned.k_nearest(A, 2).unwrap();
    let detour = pinned.best_via(A, B).unwrap();
    if state == ServingState::Degraded {
        let refusal = QueryError::Degraded {
            age_ns: age_s.map(|s| secs(s).as_nanos()),
            hard_ttl_ns: secs(HARD_S).as_nanos(),
        };
        assert_eq!(reader.k_nearest(A, 2), Err(refusal));
        assert_eq!(reader.best_via(A, B), Err(refusal));
    } else {
        assert_eq!(reader.k_nearest(A, 2), Ok(nearest), "{state:?} still ranks");
        assert_eq!(reader.best_via(A, B), Ok(detour), "{state:?} still ranks");
    }
}

#[test]
fn a_reader_cloned_before_the_transition_serves_under_the_new_judgment() {
    let dir = std::env::temp_dir().join(format!("ting-serving-cell-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::new(ObsConfig::Metrics);
    let journal = Journal::open(&dir).unwrap();
    let mut p = Pipeline::with_obs(nodes(), 1, config(), obs.clone(), Some(journal));
    // The handle a worker thread holds: taken once, before anything
    // was published or judged, and never refreshed.
    let reader = p.reader();
    let stale_counts = |obs: &Obs| {
        (
            obs.counter_value("oracle.stale.refused"),
            obs.counter_value("oracle.stale.served_stale"),
        )
    };

    // The clockless bootstrap has no age to cite.
    check_row(&reader, ServingState::Degraded, 1, None);

    p.offer(delta(1, secs(0)));
    assert_eq!(p.tick(secs(0)).unwrap(), Some(2));
    for (at_s, state) in [
        (0, ServingState::Fresh),
        (SOFT_S, ServingState::Stale),
        (HARD_S, ServingState::Degraded),
    ] {
        p.tick(secs(at_s)).unwrap();
        assert_eq!(p.state(), state);
        check_row(&reader, state, 2, Some(at_s));
    }

    // Readers hold no registry handle: what they refused and flagged
    // reaches `oracle.stale.*` with the next tick. The Degraded row's
    // two refusals and one flagged point are still in the cell.
    assert_eq!(stale_counts(&obs), (2, 2), "bootstrap and Stale rows");
    p.tick(secs(HARD_S)).unwrap();
    assert_eq!(stale_counts(&obs), (4, 3));

    // A publish and the judgment on it land together: fresh data lifts
    // the refusal for the same old handle.
    p.offer(delta(2, secs(HARD_S)));
    assert_eq!(p.tick(secs(HARD_S)).unwrap(), Some(3));
    check_row(&reader, ServingState::Fresh, 3, Some(0));
    drop(p);

    // Recovery re-judges at the resume instant before it hands out a
    // reader: past the hard TTL the recovered front refuses too.
    for (resume_s, state) in [
        (HARD_S + 1, ServingState::Fresh),
        (2 * HARD_S + 7, ServingState::Degraded),
    ] {
        let journal = Journal::open(&dir).unwrap();
        let (p, _) =
            Pipeline::recover(nodes(), 1, config(), Obs::off(), journal, secs(resume_s)).unwrap();
        assert_eq!(p.state(), state);
        check_row(&p.reader(), state, 3, Some(resume_s - HARD_S));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Nobody judges a bare `Oracle`, so its readers serve every family —
/// including a clockless matrix no TTL policy could certify.
#[test]
fn a_bare_oracle_never_refuses() {
    let mut m = RttMatrix::new(nodes());
    m.set(A, B, 5.0);
    m.set(A, NodeId(2), 7.0);
    m.set(B, NodeId(2), 1.0);
    let mut oracle = Oracle::new(Snapshot::from_matrix(&m));
    let reader = oracle.reader();
    for generation in 1..=2 {
        assert!(reader.snapshot().meta().newest_ns.is_none());
        check_row(&reader, ServingState::Fresh, generation, None);
        oracle.publish_versioned(Snapshot::from_matrix(&m), generation + 1);
    }
}
