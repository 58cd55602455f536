//! Chaos acceptance for the live scan→serve pipeline: a kill at **any
//! byte** of the publish journal, in any crash window (mid-append,
//! mid-compaction, at a compaction's rename), must recover to
//! exactly the last sealed generation — and resuming the delta stream
//! from there must converge bit-identically to an uninterrupted run.
//! Plus the staleness SLO: hard-TTL expiry flips serving to `Degraded`
//! at a deterministic virtual instant and recovers on the next
//! publish of fresh data.

use netsim::{NodeId, SimDuration, SimTime};
use oracle::journal::{frame_record, render_published, Journal, JOURNAL_FILE};
use oracle::{Pipeline, PipelineConfig, QueryError, ServingState, TtlPolicy};
use std::path::{Path, PathBuf};
use ting::obs::{Lineage, Obs};
use ting::shard::{DeltaPair, MergeDelta, Supervisor, SupervisorConfig};
use ting::{ScannerConfig, TingConfig};
use tor_sim::TorNetworkBuilder;

const SHARDS: usize = 3;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ting-pchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 8,
        publish_interval: SimDuration(0),
        // Must mirror the scanners feeding the stream, or coverage
        // rows drift from an offline merge.
        staleness: ScannerConfig::default().staleness,
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(24)).unwrap(),
        slo: None,
    }
}

/// A deterministic supervised scan: returns the node set, the drained
/// per-round delta stream, and the offline merge document at the final
/// instant (the ground truth every pipeline variant must reproduce).
fn fixture(rounds: usize) -> (Vec<NodeId>, Vec<MergeDelta>, String) {
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
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
    let mut sup = Supervisor::new(nodes.clone(), config, TingConfig::fast());
    let mut deltas = Vec::new();
    for _ in 0..rounds {
        sup.run_round(&mut net);
        deltas.push(sup.take_delta(net.sim.now()));
    }
    let merged = sup.merge(net.sim.now()).unwrap().to_document();
    (nodes, deltas, merged)
}

/// Feeds `deltas` through a pipeline, one tick per delta.
fn drive(p: &mut Pipeline, deltas: &[MergeDelta]) {
    for d in deltas {
        let now = d.now;
        p.offer(d.clone());
        p.tick(now).unwrap();
    }
}

/// The uninterrupted journaled run is the baseline everything else is
/// judged against: it matches a volatile (journal-less) run, matches
/// the offline merge, and leaves a journal that recovers the served
/// generation with no torn tail.
#[test]
fn journaled_run_matches_volatile_run_and_offline_merge() {
    let (nodes, deltas, merged) = fixture(4);
    let dir = tempdir("baseline");

    let mut journaled = Pipeline::with_obs(
        nodes.clone(),
        SHARDS,
        pipeline_config(),
        Obs::off(),
        Some(Journal::open(&dir).unwrap()),
    );
    let mut volatile = Pipeline::new(nodes, SHARDS, pipeline_config());
    drive(&mut journaled, &deltas);
    drive(&mut volatile, &deltas);

    assert_eq!(journaled.serving_document(), volatile.serving_document());
    assert_eq!(
        journaled.serving_document(),
        merged,
        "the pipeline serves exactly what an offline merge would produce"
    );
    assert_eq!(journaled.generation(), deltas.len() as u64 + 1);

    let r = Journal::open(&dir).unwrap().recover().unwrap();
    let (gen, doc) = r.published.expect("published generation on disk");
    assert_eq!(gen, journaled.generation());
    assert_eq!(doc, journaled.serving_document());
    assert!(!r.torn_tail);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Byte-offset fault injection over the append window: for **every**
/// prefix length of a whole `@gen` record appended after a compaction's
/// record, recovery serves exactly the
/// last sealed generation (the previous one until the final byte is
/// down, the new one after), and resuming the remaining delta stream
/// converges bit-identically to the uninterrupted run.
#[test]
fn kill_at_any_append_byte_recovers_the_last_sealed_generation() {
    let (nodes, deltas, _) = fixture(3);
    let mut baseline = Pipeline::new(nodes.clone(), SHARDS, pipeline_config());
    // Per-generation documents: docs[i] is what generation i + 2
    // served, having consumed deltas[..=i].
    let mut docs = Vec::new();
    for d in &deltas {
        let now = d.now;
        baseline.offer(d.clone());
        baseline.tick(now).unwrap();
        docs.push((baseline.generation(), baseline.serving_document(), now));
    }
    let (final_gen, ref final_doc, _) = *docs.last().unwrap();

    // Crash during the append of generation g1 = docs[1].0, with
    // generation g0 = docs[0].0 already published.
    let (g0, ref doc0, now0) = docs[0];
    let (g1, ref doc1, _) = docs[1];
    let frame = frame_record(g1, doc1);
    let base = render_published(g0, doc0);
    for cut in 0..=frame.len() {
        let dir = tempdir("append");
        let j = Journal::open(&dir).unwrap();
        let log = [base.as_bytes(), &frame.as_bytes()[..cut]].concat();
        std::fs::write(j.journal_path(), log).unwrap();

        let sealed_next = cut == frame.len();
        let expect_gen = if sealed_next { g1 } else { g0 };
        let expect_doc = if sealed_next { doc1 } else { doc0 };
        let (mut p, r) = Pipeline::recover(
            nodes.clone(),
            SHARDS,
            pipeline_config(),
            Obs::off(),
            Journal::open(&dir).unwrap(),
            now0,
        )
        .unwrap();
        assert_eq!(p.generation(), expect_gen, "cut at byte {cut}");
        assert_eq!(&p.serving_document(), expect_doc, "cut at byte {cut}");
        let torn = 0 < cut && !sealed_next;
        assert_eq!(r.torn_tail, torn, "cut at byte {cut}");

        // Resume the stream from the recovered generation onward: the
        // end state must be bit-identical to the uninterrupted run.
        drive(&mut p, &deltas[(expect_gen - 1) as usize..]);
        assert_eq!(p.generation(), final_gen);
        assert_eq!(&p.serving_document(), final_doc, "cut at byte {cut}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The bytes a journaled run writes, cut at every offset: the first
/// compaction (every byte of its tmp file, then the rename), two
/// `@delta` frames, and a second compaction (every byte of its tmp file,
/// then the rename).
/// Recovery from each cut must serve the last generation whose commit
/// point the bytes reached, with the document that generation served
/// (`cmp`-equal); and from the state at each commit point the rest of
/// the stream converges on the uninterrupted run's last document.
#[test]
fn kill_at_any_byte_of_a_base_two_frames_and_a_compaction_recovers_the_last_sealed_generation() {
    // 31 relays: 496 pair slots, sixteen chunks; a third of the pairs
    // measured first, then one pair twice (a frame each), then one pair
    // in every chunk (a compaction).
    let nodes: Vec<NodeId> = (0..31).map(|i| NodeId(900 - 7 * i)).collect();
    let at = |seq: u64| SimTime(1_000_000 * seq);
    let pair = |i: usize, j: usize, seq: u64| DeltaPair {
        a: nodes[i],
        b: nodes[j],
        rtt_ms: (i * 31 + j) as f64 / 8.0 + seq as f64,
        measured_at: at(seq),
        lineage: Lineage {
            shard: 0,
            round: seq,
        },
    };
    let bulk = (0..31).flat_map(|i| (i + 1..31).map(move |j| (i, j)));
    let stream: Vec<Vec<DeltaPair>> = vec![
        bulk.filter(|(i, j)| (i + j) % 3 == 0)
            .map(|(i, j)| pair(i, j, 1))
            .collect(),
        vec![pair(0, 3, 2)],
        vec![pair(20, 29, 3)],
        (0..30).map(|i| pair(i, i + 1, 4)).collect(),
    ];
    let deltas: Vec<MergeDelta> = (1..)
        .zip(stream)
        .map(|(seq, pairs)| MergeDelta {
            seq,
            pairs,
            statuses: vec!["live"; SHARDS],
            now: at(seq),
        })
        .collect();

    // The uninterrupted run: what each generation served, and the
    // directory after each publish.
    let dir = tempdir("sweep");
    let j = Journal::open(&dir).unwrap();
    let open = || {
        Pipeline::with_obs(
            nodes.clone(),
            SHARDS,
            pipeline_config(),
            Obs::off(),
            Some(j.clone()),
        )
    };
    let mut p = open();
    let mut served = vec![p.serving_document()];
    let mut disk = Vec::new();
    for d in &deltas {
        p.offer(d.clone());
        p.tick(d.now).unwrap();
        served.push(p.serving_document());
        disk.push(std::fs::read(j.journal_path()).unwrap());
    }
    let last = served.last().unwrap().clone();
    // A compaction's log, two frames appended to it, another compaction.
    let (base2, frame3, frames, base5) = (&disk[0], &disk[1], &disk[2], &disk[3]);
    let starts = |log: &[u8], with: &[u8]| log.len() > with.len() && log.starts_with(with);
    assert!(starts(frame3, base2) && starts(frames, frame3) && base5.len() < frames.len());

    // A directory holding `files` and nothing else; recovery must serve
    // generation `gen`.
    let tmp = format!("{JOURNAL_FILE}.tmp");
    let recovers = |files: &[(&str, &[u8])], gen: u64, at: &str| {
        for entry in std::fs::read_dir(&dir).unwrap() {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
        }
        for (file, bytes) in files {
            std::fs::write(dir.join(file), bytes).unwrap();
        }
        let (p, _) = Pipeline::recover(
            nodes.clone(),
            SHARDS,
            pipeline_config(),
            Obs::off(),
            Journal::open(&dir).unwrap(),
            deltas[3].now,
        )
        .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(p.generation(), gen, "{at}");
        assert!(
            p.serving_document() == served[gen as usize - 1],
            "{at}: document"
        );
        p
    };
    // Each commit point's state, resumed to the end of the stream.
    let resumes = |mut p: Pipeline| {
        let from = p.generation();
        drive(&mut p, &deltas[from as usize - 1..]);
        assert!(
            p.serving_document() == last,
            "resumed from generation {from}"
        );
    };
    for cut in 0..=base2.len() {
        let files = [(tmp.as_str(), &base2[..cut])];
        recovers(&files, 1, &format!("compaction 2, tmp cut at {cut}"));
    }
    for cut in base2.len()..=frames.len() {
        let gen = match cut {
            _ if cut == frames.len() => 4,
            _ if cut >= frame3.len() => 3,
            _ => 2,
        };
        let files = [(JOURNAL_FILE, &frames[..cut])];
        let p = recovers(&files, gen, &format!("frames 3 and 4 cut at {cut}"));
        if [base2.len(), frame3.len(), frames.len()].contains(&cut) {
            resumes(p);
        }
    }
    let log = (JOURNAL_FILE, &frames[..]);
    for cut in 0..=base5.len() {
        let files = [log, (tmp.as_str(), &base5[..cut])];
        recovers(&files, 4, &format!("compaction 5, tmp cut at {cut}"));
    }
    let files = [(JOURNAL_FILE, &base5[..])];
    resumes(recovers(&files, 5, "compaction 5 renamed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every file of the journal directory, by name.
fn on_disk(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let files = std::fs::read_dir(dir).unwrap().map(|f| f.unwrap().path());
    let mut files: Vec<_> = files
        .map(|f| (f.clone(), std::fs::read(f).unwrap()))
        .collect();
    files.sort();
    files
}

/// Two kills: the first mid-append (every cut point), the second just
/// after the restarted process sealed its next record. Recovery must
/// serve that record — which it can only find if the first restart cut
/// the torn tail instead of letting the record be appended behind it.
#[test]
fn a_generation_sealed_after_a_torn_tail_survives_a_second_kill() {
    let (nodes, deltas, _) = fixture(2);
    let mut baseline = Pipeline::new(nodes.clone(), SHARDS, pipeline_config());
    let mut docs = Vec::new();
    for d in &deltas {
        baseline.offer(d.clone());
        baseline.tick(d.now).unwrap();
        docs.push((baseline.generation(), baseline.serving_document(), d.now));
    }
    let (g0, ref doc0, now0) = docs[0];
    let (g1, ref doc1, now1) = docs[1];
    let restart = |dir: &Path, now| {
        let journal = Journal::open(dir).unwrap();
        Pipeline::recover(
            nodes.clone(),
            SHARDS,
            pipeline_config(),
            Obs::off(),
            journal,
            now,
        )
        .unwrap()
    };
    let frame = frame_record(g1, doc1);
    let base = render_published(g0, doc0);
    for cut in 0..frame.len() {
        let dir = tempdir("twokills");
        let j = Journal::open(&dir).unwrap();
        let log = [base.as_bytes(), &frame.as_bytes()[..cut]].concat();
        std::fs::write(j.journal_path(), log).unwrap();

        let (p, r) = restart(&dir, now0);
        assert_eq!((p.generation(), r.torn_tail), (g0, cut > 0), "cut {cut}");
        let after_first = on_disk(&dir);
        drop(restart(&dir, now0));
        assert_eq!(on_disk(&dir), after_first, "recover ∘ recover = recover");

        // The restarted process seals generation `g1` as a whole
        // record, and is killed.
        drop(p);
        j.append(g1, doc1).unwrap();
        let sealed = on_disk(&dir);
        let (p, r) = restart(&dir, now1);
        assert_eq!(p.generation(), g1, "cut {cut}: sealed generation lost");
        assert_eq!(&p.serving_document(), doc1, "cut {cut}");
        assert!(!r.torn_tail, "cut {cut}");
        assert_eq!(
            on_disk(&dir),
            sealed,
            "cut {cut}: a sealed log is not written"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A frame header whose length token overflows `usize` arithmetic is a
/// torn tail like any other framing violation — not a panic.
#[test]
fn an_overflowing_frame_length_recovers_the_sealed_prefix() {
    let (nodes, deltas, _) = fixture(1);
    let mut baseline = Pipeline::new(nodes.clone(), SHARDS, pipeline_config());
    drive(&mut baseline, &deltas);
    let (gen, doc) = (baseline.generation(), baseline.serving_document());

    let dir = tempdir("overflow");
    let j = Journal::open(&dir).unwrap();
    let torn = format!("{}@gen 3 {}\n", frame_record(gen, &doc), usize::MAX);
    std::fs::write(j.journal_path(), torn).unwrap();
    let (p, r) = Pipeline::recover(
        nodes,
        SHARDS,
        pipeline_config(),
        Obs::off(),
        Journal::open(&dir).unwrap(),
        deltas[0].now,
    )
    .unwrap();
    assert_eq!((p.generation(), p.serving_document()), (gen, doc));
    assert!(r.torn_tail);
    assert_eq!(r.published.map(|(g, _)| g), Some(gen));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Hard-TTL expiry is a deterministic function of virtual time: the
/// flip to `Degraded` lands exactly on the boundary instant, ranking
/// queries refuse while point lookups serve-with-warning, and the next
/// publish of fresh data restores `Fresh` — identically across runs.
#[test]
fn hard_ttl_expiry_flips_serving_deterministically_in_virtual_time() {
    let run = || {
        let (nodes, deltas, _) = fixture(1);
        let mut p = Pipeline::new(nodes.clone(), SHARDS, pipeline_config());
        let mut ladder = vec![p.state()];
        drive(&mut p, &deltas);
        ladder.push(p.state());

        let newest = p
            .reader()
            .snapshot()
            .meta()
            .newest_ns
            .expect("published data carries timestamps");
        let soft = SimDuration::from_hours(1).as_nanos();
        let hard = SimDuration::from_hours(24).as_nanos();
        // One nanosecond before each boundary, then the boundary.
        for t in [
            newest + soft - 1,
            newest + soft,
            newest + hard - 1,
            newest + hard,
        ] {
            p.tick(SimTime(t)).unwrap();
            ladder.push(p.state());
        }
        let (a, b) = (nodes[0], nodes[1]);
        let refusal = p.reader().k_nearest(a, 4).unwrap_err();
        assert_eq!(
            refusal,
            QueryError::Degraded {
                age_ns: Some(hard),
                hard_ttl_ns: hard
            }
        );
        let point = p.reader().point(a, b).unwrap();
        assert_eq!(point.state, ServingState::Degraded);

        // Fresh data recovers serving on the next publish.
        let revive_at = SimTime(newest + hard + 1);
        p.offer(MergeDelta {
            seq: deltas.len() as u64 + 1,
            pairs: vec![DeltaPair {
                a,
                b,
                rtt_ms: 12.5,
                measured_at: revive_at,
                lineage: Lineage { shard: 0, round: 9 },
            }],
            statuses: vec!["live"; SHARDS],
            now: revive_at,
        });
        p.tick(revive_at).unwrap();
        ladder.push(p.state());
        ladder
    };

    let ladder = run();
    assert_eq!(
        ladder,
        vec![
            ServingState::Degraded, // bootstrap: nothing to certify
            ServingState::Fresh,    // first publish
            ServingState::Fresh,    // soft boundary - 1
            ServingState::Stale,    // soft boundary (inclusive)
            ServingState::Stale,    // hard boundary - 1
            ServingState::Degraded, // hard boundary (inclusive)
            ServingState::Fresh,    // fresh publish recovers
        ]
    );
    assert_eq!(ladder, run(), "the ladder is deterministic");
}

/// Recovery re-judges the TTL ladder at the resume instant: the same
/// directory is `Fresh` when reopened promptly and `Degraded` when
/// reopened past the hard TTL — staleness survives the crash, it is
/// not reset by it.
#[test]
fn recovery_judges_staleness_at_the_resume_instant() {
    let (nodes, deltas, _) = fixture(1);
    let dir = tempdir("ttl");
    let mut p = Pipeline::with_obs(
        nodes.clone(),
        SHARDS,
        pipeline_config(),
        Obs::off(),
        Some(Journal::open(&dir).unwrap()),
    );
    drive(&mut p, &deltas);
    let newest = p.reader().snapshot().meta().newest_ns.unwrap();
    drop(p);

    let (p, _) = Pipeline::recover(
        nodes.clone(),
        SHARDS,
        pipeline_config(),
        Obs::off(),
        Journal::open(&dir).unwrap(),
        SimTime(newest + 1),
    )
    .unwrap();
    assert_eq!(p.state(), ServingState::Fresh);

    let hard = SimDuration::from_hours(24).as_nanos();
    let (a, b) = (nodes[0], nodes[1]);
    let (p, _) = Pipeline::recover(
        nodes,
        SHARDS,
        pipeline_config(),
        Obs::off(),
        Journal::open(&dir).unwrap(),
        SimTime(newest + hard),
    )
    .unwrap();
    assert_eq!(p.state(), ServingState::Degraded);
    assert!(matches!(
        p.reader().best_via(a, b),
        Err(QueryError::Degraded { .. })
    ));
    assert_eq!(
        p.reader().point(a, b).unwrap().state,
        ServingState::Degraded
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A CRC seal vouches for a file's bytes, not for its generation
/// number. Generation 1 is the bootstrap and is never journaled, and
/// the publish after `u64::MAX` has no number: a sealed `@gen` record,
/// a compaction's or an append's, outside `2..u64::MAX` is refused with
/// an error naming the file and the value — it used to reach the oracle's
/// version assert (0, 1) or overflow the next publish (`u64::MAX`) —
/// and the refusal leaves the directory byte for byte as it found it.
fn recovery_refuses_generation(gen: u64) {
    let (nodes, deltas, _) = fixture(1);
    let mut honest = Pipeline::new(nodes.clone(), SHARDS, pipeline_config());
    drive(&mut honest, &deltas);
    let doc = honest.serving_document();
    let now = deltas[0].now;

    let listing = |dir: &PathBuf| {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(p).unwrap()))
            .collect();
        files.sort();
        files
    };
    let records = [render_published(gen, &doc), frame_record(gen, &doc)];
    for (form, sealed) in records.iter().enumerate() {
        let dir = tempdir(&format!("gen-{gen}-{form}"));
        std::fs::write(dir.join(JOURNAL_FILE), sealed).unwrap();
        let before = listing(&dir);
        let err = Pipeline::recover(
            nodes.clone(),
            SHARDS,
            pipeline_config(),
            Obs::off(),
            Journal::open(&dir).unwrap(),
            now,
        )
        .map(|(p, _)| p.generation())
        .unwrap_err();
        assert!(
            err.starts_with(JOURNAL_FILE) && err.contains(&format!("generation {gen} ")),
            "{err}"
        );
        assert_eq!(listing(&dir), before, "a refused recovery writes nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recovery_refuses_generation_zero() {
    recovery_refuses_generation(0);
}

#[test]
fn recovery_refuses_the_bootstrap_generation() {
    recovery_refuses_generation(1);
}

#[test]
fn recovery_refuses_the_last_generation() {
    recovery_refuses_generation(u64::MAX);
}
