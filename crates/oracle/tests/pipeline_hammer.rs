//! Publish-under-load hammer for the live pipeline: one writer thread
//! of truth (the pipeline is single-threaded by design) interleaves
//! journal appends, oracle swaps, and journal recoveries while four
//! reader threads hammer the swap cell. The invariant under fire: **no
//! reader ever observes a generation that was not sealed in the
//! journal first**, and no recovery ever reports one either — the
//! seal-before-swap ordering is what makes a kill at any instant
//! recoverable.

use netsim::{NodeId, SimDuration, SimTime};
use oracle::{Journal, Pipeline, PipelineConfig, QueryError, ServingState, TtlPolicy};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use ting::obs::{Lineage, Obs, ObsConfig};
use ting::shard::{DeltaPair, MergeDelta};

const ROUNDS: u64 = 200;
const READERS: usize = 4;
const BOOTSTRAP_GEN: u64 = 1;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ting-phammer-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: SimDuration::from_hours(24),
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(24)).unwrap(),
        slo: None,
    }
}

fn nodes() -> Vec<NodeId> {
    (0..6).map(NodeId).collect()
}

/// A synthetic one-shard delta: round `seq` measures one pair at a
/// deterministic instant, so every publish changes the dataset.
fn delta(seq: u64) -> MergeDelta {
    let a = NodeId((seq % 5) as u32);
    let b = NodeId((seq % 5) as u32 + 1);
    MergeDelta {
        seq,
        pairs: vec![DeltaPair {
            a,
            b,
            rtt_ms: 1.0 + seq as f64,
            measured_at: SimTime(seq * 1_000),
            lineage: Lineage {
                shard: 0,
                round: seq,
            },
        }],
        statuses: vec!["live"],
        now: SimTime(seq * 1_000),
    }
}

#[test]
fn readers_never_observe_an_unsealed_generation() {
    let dir = tempdir("storm");
    let mut p = Pipeline::with_obs(
        nodes(),
        1,
        config(),
        ting::obs::Obs::off(),
        Some(Journal::open(&dir).unwrap()),
    );

    // Generations recorded as sealed *before* the corresponding swap
    // is allowed to happen — mirroring the pipeline's own append →
    // seal → swap ordering. A reader seeing a version outside this set
    // (plus the bootstrap generation) saw state that could be lost by
    // a kill.
    let sealed: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let mut observers = Vec::new();
        for _ in 0..READERS {
            let reader = p.reader();
            let sealed = &sealed;
            let stop = &stop;
            observers.push(s.spawn(move || {
                let mut seen = HashSet::new();
                while !stop.load(Ordering::Relaxed) {
                    let snap = reader.snapshot();
                    let version = snap.meta().version;
                    if seen.insert(version) && version != BOOTSTRAP_GEN {
                        assert!(
                            sealed.lock().unwrap().contains(&version),
                            "reader observed generation {version} before it was sealed"
                        );
                    }
                    // Exercise the dataset, not just the version: the
                    // snapshot must be internally consistent.
                    let _ = snap.rtt(NodeId(0), NodeId(1));
                }
                seen
            }));
        }

        for seq in 1..=ROUNDS {
            p.offer(delta(seq));
            // Seal-before-swap: the generation this tick will publish
            // enters the sealed set first, exactly as the journal
            // append commits before the oracle swap.
            sealed.lock().unwrap().insert(p.generation() + 1);
            let published = p.tick(SimTime(seq * 1_000)).unwrap();
            assert_eq!(published, Some(seq + 1));

            // Interleave read-only recoveries against the live
            // directory: whatever they find must already be sealed.
            if seq % 16 == 0 {
                let r = Journal::open(&dir).unwrap().recover().unwrap();
                let (gen, _) = r.serve().expect("publishes have happened");
                assert!(
                    sealed.lock().unwrap().contains(gen),
                    "recovery surfaced unsealed generation {gen}"
                );
                assert!(!r.torn_tail, "writer-only traffic never tears the log");
            }
        }
        stop.store(true, Ordering::Relaxed);

        let mut total_seen = HashSet::new();
        for o in observers {
            let seen = o.join().unwrap();
            let sealed = sealed.lock().unwrap();
            assert!(
                seen.iter()
                    .all(|v| *v == BOOTSTRAP_GEN || sealed.contains(v)),
                "a reader retired with an unsealed generation"
            );
            drop(sealed);
            total_seen.extend(seen);
        }
        // Liveness: the readers actually raced the publisher — they
        // saw generations beyond bootstrap, and the final generation
        // is observable after the storm.
        assert!(total_seen.len() > 1, "readers never saw a publish");
        assert_eq!(p.generation(), ROUNDS + 1);
        assert_eq!(p.reader().snapshot().meta().version, ROUNDS + 1);
    });

    // The directory the storm left behind is a clean, converged
    // journal: recovery serves exactly the final generation.
    let (recovered, r) = Pipeline::recover(
        nodes(),
        1,
        config(),
        ting::obs::Obs::off(),
        Journal::open(&dir).unwrap(),
        SimTime(ROUNDS * 1_000),
    )
    .unwrap();
    assert_eq!(recovered.generation(), ROUNDS + 1);
    assert_eq!(recovered.serving_document(), p.serving_document());
    assert!(r.pending.is_none());
    assert_eq!(recovered.state(), ServingState::Fresh);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The judgment travels with the generation: the writer alternates
/// fresh publishes with clock jumps past the hard TTL while four
/// readers rank through handles taken before the storm. Every refusal
/// must be a whole judgment (an age at or past the policy's hard TTL,
/// never one half of a `Fresh` verdict), every ranking that answers
/// must cite a sealed generation, and once the writer stops in
/// `Degraded` every reader refuses.
#[test]
fn readers_rank_only_under_a_whole_judgment() {
    const JUMPS: u64 = 100;
    let hard = config().ttl.hard_ttl.as_nanos();
    // Far enough apart that each publish is `Fresh` at its own instant
    // whatever the jump before it was.
    let at = |seq: u64| SimTime(seq * 4 * hard);
    let fresh = |seq: u64| {
        let mut d = delta(seq);
        d.now = at(seq);
        d.pairs[0].measured_at = at(seq);
        d
    };

    let dir = tempdir("judged");
    let obs = Obs::new(ObsConfig::Metrics);
    let journal = Journal::open(&dir).unwrap();
    let mut p = Pipeline::with_obs(nodes(), 1, config(), obs.clone(), Some(journal));
    // One publish before the readers start, so every refusal they can
    // meet cites a known age (the clockless bootstrap has none).
    p.offer(fresh(1));
    assert_eq!(p.tick(at(1)).unwrap(), Some(2));
    let sealed: Mutex<HashSet<u64>> = Mutex::new(HashSet::from([2]));
    let stop = AtomicBool::new(false);
    let start = Barrier::new(READERS + 1);

    std::thread::scope(|s| {
        let mut observers = Vec::new();
        for _ in 0..READERS {
            let reader = p.reader();
            let (sealed, stop, start) = (&sealed, &stop, &start);
            observers.push(s.spawn(move || {
                let (mut ranked, mut refused, mut flagged) = (0u64, 0u64, 0u64);
                let mut rank = |detour: bool| {
                    let version = if detour {
                        reader
                            .best_via(NodeId(0), NodeId(1))
                            .map(|d| d.snapshot_version)
                    } else {
                        reader.k_nearest(NodeId(0), 3).map(|k| k.snapshot_version)
                    };
                    match version {
                        Ok(version) => {
                            assert!(
                                sealed.lock().unwrap().contains(&version),
                                "ranked over generation {version} before it was sealed"
                            );
                            ranked += 1;
                            true
                        }
                        Err(QueryError::Degraded {
                            age_ns,
                            hard_ttl_ns,
                        }) => {
                            assert_eq!(hard_ttl_ns, hard, "the policy's hard TTL");
                            assert!(
                                age_ns.is_some_and(|age| age >= hard),
                                "refused under half a judgment: age {age_ns:?}"
                            );
                            refused += 1;
                            false
                        }
                        Err(e) => panic!("unexpected refusal: {e}"),
                    }
                };
                start.wait();
                let mut detour = false;
                while !stop.load(Ordering::Acquire) {
                    rank(detour);
                    detour = !detour;
                    let point = reader.point(NodeId(0), NodeId(1)).unwrap();
                    flagged += u64::from(point.state != ServingState::Fresh);
                }
                // The writer stopped in `Degraded` before raising the
                // flag: from here on nothing may rank.
                assert!(!rank(false) && !rank(true), "ranked after the last jump");
                (ranked, refused, flagged)
            }));
        }

        start.wait();
        for seq in 2..=JUMPS {
            p.offer(fresh(seq));
            sealed.lock().unwrap().insert(p.generation() + 1);
            assert_eq!(p.tick(at(seq)).unwrap(), Some(seq + 1));
            assert_eq!(p.state(), ServingState::Fresh);
            // The clock jumps past the hard TTL with nothing to publish.
            assert_eq!(p.tick(SimTime(at(seq).0 + hard + seq)).unwrap(), None);
            assert_eq!(p.state(), ServingState::Degraded);
        }
        stop.store(true, Ordering::Release);

        let (mut ranked, mut refused, mut flagged) = (0, 0, 0);
        for o in observers {
            let (a, b, c) = o.join().unwrap();
            (ranked, refused, flagged) = (ranked + a, refused + b, flagged + c);
        }
        // Liveness: the readers met both sides of the ladder.
        assert!(ranked > 0, "no reader ever ranked");
        assert!(refused >= 2 * READERS as u64);
        // What the readers refused and flagged is what the registry
        // reads once the next tick has folded the cell's tallies in.
        p.tick(SimTime(at(JUMPS).0 + 2 * hard)).unwrap();
        assert_eq!(obs.counter_value("oracle.stale.refused"), refused);
        assert_eq!(obs.counter_value("oracle.stale.served_stale"), flagged);
    });
    std::fs::remove_dir_all(&dir).unwrap();
}
