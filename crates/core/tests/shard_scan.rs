//! Tests for the shard supervision layer (`ting::shard`): the
//! partitioner's exact-cover property, bit-identity of a one-shard
//! supervised scan with the plain `Scanner`, kill/resume losslessness
//! (in memory and through checkpoint files), heartbeat stall detection,
//! corrupt-checkpoint recovery, and degraded-mode scanning with a shard
//! dead past its restart budget.

use netsim::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use ting::checkpoint::bak_path;
use ting::matrix::PairMap;
use ting::obs::{Obs, ObsConfig};
use ting::shard::{
    partition_pairs, shard_path, MergeDelta, ShardStatus, Supervisor, SupervisorConfig,
};
use ting::{RttMatrix, Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// An empty checkpoint directory private to this process and `tag`.
fn checkpoint_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ting-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The partitioner covers every relay pair exactly once — no gaps,
    /// no duplicates, no pair in two shards — for arbitrary relay and
    /// shard counts, including more shards than pairs.
    #[test]
    fn partition_covers_every_pair_exactly_once(n in 0u32..40, shards in 1usize..60) {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let owned = partition_pairs(&nodes, shards);
        prop_assert_eq!(owned.len(), shards);
        let mut seen = HashSet::new();
        for pairs in &owned {
            for &(a, b) in pairs {
                prop_assert!(a < b, "pairs are emitted in index order");
                prop_assert!(seen.insert((a, b)), "pair {:?} assigned twice", (a, b));
            }
        }
        let expected = (n as usize) * (n as usize).saturating_sub(1) / 2;
        prop_assert_eq!(seen.len(), expected, "every pair must be owned");
        // Round-robin balance: shard sizes differ by at most one.
        let sizes: Vec<usize> = owned.iter().map(Vec::len).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(hi - lo <= 1, "unbalanced shards: {:?}", sizes);
    }
}

/// The scanner config every test here shares.
fn scanner_config() -> ScannerConfig {
    ScannerConfig {
        pairs_per_round: 7,
        ..ScannerConfig::default()
    }
}

fn supervisor_config(shards: usize) -> SupervisorConfig {
    SupervisorConfig {
        shards,
        scanner: scanner_config(),
        heartbeat_timeout: SimDuration::from_hours(4),
        restart_budget: 3,
        restart_backoff: SimDuration::from_nanos(0),
        restart_backoff_cap: SimDuration::from_nanos(0),
    }
}

/// A one-shard supervised scan must be bit-identical to the plain
/// `Scanner` over the same network: same checkpoint bytes, same merged
/// matrix. Sharding at S = 1 is a pure refactor, not a behavior change.
#[test]
fn one_shard_supervised_scan_is_bit_identical_to_plain_scanner() {
    // Plain run.
    let mut net = TorNetworkBuilder::testbed(97).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut scanner = Scanner::new(nodes.clone(), scanner_config());
    let ting = Ting::new(TingConfig::fast());
    for _ in 0..3 {
        scanner.run_round_parallel(&mut net, &ting);
    }
    let plain_ckpt = scanner.to_checkpoint();
    let plain_end = net.sim.now();

    // Supervised run over an identically seeded network.
    let mut net2 = TorNetworkBuilder::testbed(97).vantages(2).build();
    let mut sup = Supervisor::new(nodes, supervisor_config(1), TingConfig::fast());
    for _ in 0..3 {
        sup.run_round(&mut net2);
    }
    assert_eq!(net2.sim.now(), plain_end, "virtual clocks must agree");
    assert_eq!(
        sup.scanner(0).unwrap().to_checkpoint(),
        plain_ckpt,
        "one-shard checkpoint must match the plain scanner byte for byte"
    );
    let merged = sup.merge(net2.sim.now()).unwrap();
    assert_eq!(merged.matrix.to_tsv(), scanner.matrix().to_tsv());
    assert_eq!(merged.coverage(), 1.0);
    assert_eq!(merged.shards.len(), 1);
    assert_eq!(merged.shards[0].status, "live");
    assert_eq!(merged.shards[0].uncovered, 0);
}

/// Runs an S-shard supervised scan to completion and returns the
/// supervisor plus its network.
fn run_sharded(shards: usize, rounds: usize) -> (Supervisor, tor_sim::TorNetwork) {
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut sup = Supervisor::new(nodes, supervisor_config(shards), TingConfig::fast());
    for _ in 0..rounds {
        sup.run_round(&mut net);
    }
    (sup, net)
}

/// Killing a shard mid-scan and letting the supervisor restart it from
/// the scanner it kept must not change one bit of the final merged
/// output relative to an uninterrupted run.
#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted_run() {
    let rounds = 4;
    let baseline = {
        let (sup, net) = run_sharded(4, rounds);
        sup.merge(net.sim.now()).unwrap().to_document()
    };

    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut sup = Supervisor::new(nodes, supervisor_config(4), TingConfig::fast());
    for round in 0..rounds {
        if round == 1 {
            // Crash shard 2 between rounds: its driver is gone; it
            // resumes the scanner kept after round 0.
            sup.inject_crash(2, net.sim.now());
            assert!(matches!(sup.status(2), ShardStatus::Restarting { .. }));
        }
        sup.run_round(&mut net);
    }
    assert_eq!(sup.status(2), ShardStatus::Running);
    assert_eq!(sup.restarts(2), 1);
    let resumed = sup.merge(net.sim.now()).unwrap().to_document();
    assert_eq!(
        resumed, baseline,
        "restart from checkpoint must be lossless"
    );
}

/// The file-backed twin of the test above, with every shard killed at
/// once: each restarts by parsing its own checkpoint file, so this pins
/// the supervisor's text round trip — render, save, recover, re-deal —
/// against the uninterrupted run's final document.
#[test]
fn killing_every_file_backed_shard_is_bit_identical_to_uninterrupted_run() {
    let rounds = 4;
    let baseline = {
        let (sup, net) = run_sharded(4, rounds);
        sup.merge(net.sim.now()).unwrap().to_document()
    };

    let dir = checkpoint_dir("kill-all");
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut sup = Supervisor::new(nodes, supervisor_config(4), TingConfig::fast());
    sup.set_checkpoint_dir(&dir);
    for round in 0..rounds {
        if round == 1 {
            for k in 0..4 {
                sup.inject_crash(k, net.sim.now());
            }
        }
        sup.run_round(&mut net);
    }
    for k in 0..4 {
        assert_eq!(sup.status(k), ShardStatus::Running);
        assert_eq!(sup.restarts(k), 1);
    }
    let resumed = sup.merge(net.sim.now()).unwrap().to_document();
    assert_eq!(
        resumed, baseline,
        "restart through checkpoint files must be lossless"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A downed shard still merges its last completed round: the merged
/// rows are the same before and after the crash, and only the shard's
/// status tag moves.
#[test]
fn a_downed_shard_merges_its_last_round() {
    let (mut sup, net) = run_sharded(3, 2);
    let now = net.sim.now();
    let before = sup.merge(now).unwrap();
    sup.inject_crash(1, now);
    assert!(sup.scanner(1).is_none(), "a downed shard lends no scanner");
    let after = sup.merge(now).unwrap();
    assert!(
        before.shards[1].covered > 0,
        "shard 1 measured before it died"
    );
    assert!(before.rows().eq(after.rows()));
    let mut expected = before.shards.clone();
    expected[1].status = "restarting";
    assert_eq!(after.shards, expected);
}

/// A shard killed past its restart budget is quarantined; the scan
/// continues degraded: the surviving shards complete their pairs, the
/// merged matrix reports the dead shard's pairs as uncovered with
/// staleness metadata, and the whole scenario is deterministic.
#[test]
fn dead_shard_degrades_scan_without_blocking_it() {
    let run = || {
        let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
        let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
        let mut config = supervisor_config(4);
        config.restart_budget = 0; // first crash quarantines
        let obs = Obs::new(ObsConfig::Metrics);
        let mut sup = Supervisor::with_obs(nodes, config, TingConfig::fast(), obs.clone());
        // Kill shard 1 before it ever measures: every owned pair stays
        // uncovered.
        sup.inject_crash(1, net.sim.now());
        assert_eq!(sup.status(1), ShardStatus::Quarantined);
        for _ in 0..4 {
            let report = sup.run_round(&mut net);
            assert_eq!(report.shards_quarantined, 1);
        }
        assert_eq!(obs.counter_value("ting.shard.crashed"), 1);
        assert_eq!(obs.counter_value("ting.shard.quarantined"), 1);
        assert_eq!(obs.counter_value("ting.shard.restarted"), 0);
        let merged = sup.merge(net.sim.now()).unwrap();
        (merged.to_document(), merged)
    };

    let (doc_a, merged) = run();
    let (doc_b, _) = run();
    assert_eq!(doc_a, doc_b, "degraded runs must be deterministic");

    let dead = &merged.shards[1];
    assert_eq!(dead.status, "dead");
    assert!(dead.owned > 0);
    assert_eq!(dead.covered, 0);
    assert_eq!(dead.uncovered, dead.owned);
    assert_eq!(
        dead.oldest_ns, None,
        "no staleness data for unmeasured pairs"
    );
    for k in [0usize, 2, 3] {
        let live = &merged.shards[k];
        assert_eq!(live.status, "live");
        assert_eq!(
            live.uncovered, 0,
            "surviving shard {k} must complete its pairs"
        );
        assert!(live.oldest_ns.is_some() && live.newest_ns.is_some());
        assert!(live.oldest_ns <= live.newest_ns);
        assert_eq!(live.stale, 0, "just-measured pairs are not stale");
    }
    assert!(merged.coverage() < 1.0);
    // The dead shard's pairs are absent from the matrix itself.
    for &(a, b) in &partition_pairs(merged.matrix.nodes(), 4)[1] {
        assert_eq!(merged.matrix.get(a, b), None);
    }
}

/// A wedged shard — alive but making no progress — trips the heartbeat
/// deadline, is killed and restarted, and then finishes its work.
#[test]
fn heartbeat_detects_wedged_shard_and_restarts_it() {
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut config = supervisor_config(3);
    config.heartbeat_timeout = SimDuration::from_hours(1);
    let obs = Obs::new(ObsConfig::Metrics);
    let mut sup = Supervisor::with_obs(nodes, config, TingConfig::fast(), obs.clone());
    // Wedge shard 1 indefinitely; only the heartbeat can free it.
    sup.inject_hang(1, t(1_000_000));
    let round_secs = 600;
    for round in 0..12u64 {
        net.sim.advance_to(t(round * round_secs).max(net.sim.now()));
        sup.run_round(&mut net);
    }
    assert!(
        obs.counter_value("ting.shard.stalled") >= 1,
        "the wedge must be detected as a stall"
    );
    assert!(obs.counter_value("ting.shard.restarted") >= 1);
    assert_eq!(sup.status(1), ShardStatus::Running);
    let merged = sup.merge(net.sim.now()).unwrap();
    assert_eq!(
        merged.coverage(),
        1.0,
        "the restarted shard must finish its pairs"
    );
}

/// A file-backed shard whose checkpoint file and `.bak` are both
/// refused — or whose file is a sound checkpoint of another node list —
/// resumes the scanner it kept across the crash: nothing is
/// re-measured, and its round count carries on.
#[test]
fn refused_checkpoint_files_resume_the_kept_scanner() {
    let dir = checkpoint_dir("refused");
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let obs = Obs::new(ObsConfig::Metrics);
    let mut sup =
        Supervisor::with_obs(nodes, supervisor_config(2), TingConfig::fast(), obs.clone());
    sup.set_checkpoint_dir(&dir);
    sup.run_round(&mut net);
    sup.run_round(&mut net); // second save promotes a `.bak` generation
    assert_eq!(sup.merge(net.sim.now()).unwrap().coverage(), 1.0);
    let rounds = sup.scanner(0).unwrap().rounds_run();

    let path = shard_path(&dir, 0);
    for file in [path.clone(), bak_path(&path)] {
        assert!(file.exists());
        std::fs::write(&file, "not a checkpoint\n").unwrap();
    }
    sup.inject_crash(0, net.sim.now());
    assert_eq!(sup.merge(net.sim.now()).unwrap().coverage(), 1.0);
    sup.run_round(&mut net);
    assert_eq!(sup.status(0), ShardStatus::Running);
    assert_eq!(obs.counter_value("ting.shard.restarted"), 1);
    assert_eq!(obs.counter_value("ting.checkpoint.recovered_bak"), 0);
    assert_eq!(sup.scanner(0).unwrap().rounds_run(), rounds + 1);
    let merged = sup.merge(net.sim.now()).unwrap();
    assert_eq!(merged.coverage(), 1.0, "the kept scanner lost nothing");

    let foreign = Scanner::new((100..106).map(NodeId).collect(), scanner_config());
    std::fs::write(&path, foreign.to_checkpoint()).unwrap();
    sup.inject_crash(0, net.sim.now());
    sup.run_round(&mut net);
    assert_eq!(sup.scanner(0).unwrap().rounds_run(), rounds + 2);
    assert_eq!(sup.merge(net.sim.now()).unwrap().coverage(), 1.0);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// File-backed shard checkpoints: every shard persists its own sealed
/// file, restarts recover through it, and a corrupt primary falls back
/// to `.bak` (visible through the recovery counter).
#[test]
fn file_backed_shards_recover_from_bak_generation() {
    let dir = checkpoint_dir("files");

    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let obs = Obs::new(ObsConfig::Metrics);
    let mut sup =
        Supervisor::with_obs(nodes, supervisor_config(2), TingConfig::fast(), obs.clone());
    sup.set_checkpoint_dir(&dir);
    sup.run_round(&mut net);
    sup.run_round(&mut net); // second save promotes a `.bak` generation
    for k in 0..2u32 {
        let path = shard_path(&dir, k);
        assert!(path.exists(), "shard {k} must persist a checkpoint");
        let text = std::fs::read_to_string(&path).unwrap();
        Scanner::from_checkpoint(&text).expect("persisted shard checkpoint must verify");
    }

    // Corrupt shard 0's primary on disk; a crash-restart must recover
    // through the `.bak` generation and say so.
    let path = shard_path(&dir, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    sup.inject_crash(0, net.sim.now());
    sup.run_round(&mut net);
    assert_eq!(sup.status(0), ShardStatus::Running);
    assert_eq!(obs.counter_value("ting.checkpoint.recovered_bak"), 1);
    let merged = sup.merge(net.sim.now()).unwrap();
    assert_eq!(merged.coverage(), 1.0);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Replaying the incremental delta stream reproduces exactly the full
/// merge: same matrix, same per-pair freshness. The pipeline's
/// apply-deltas path and the offline `merge()` path agree.
#[test]
fn delta_stream_replays_to_the_full_merge() {
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut sup = Supervisor::new(nodes.clone(), supervisor_config(3), TingConfig::fast());

    let mut matrix = RttMatrix::new(nodes);
    let mut measured_at: PairMap<SimTime> = PairMap::default();
    let mut seqs = Vec::new();
    for _ in 0..4 {
        sup.run_round(&mut net);
        let delta = sup.take_delta(net.sim.now());
        seqs.push(delta.seq);
        assert_eq!(delta.statuses, vec!["live"; 3]);
        for p in delta.pairs {
            matrix.set(p.a, p.b, p.rtt_ms);
            measured_at.insert((p.a, p.b), p.measured_at);
            assert!(
                p.lineage.round >= 1,
                "live-scanned pairs must carry a real lineage round"
            );
        }
    }
    assert_eq!(seqs, vec![1, 2, 3, 4], "drains are sequence-numbered");

    // Draining again may re-emit watermark-boundary measurements
    // (inclusive filter), but applying them must change nothing.
    let matrix_before = matrix.to_tsv();
    for p in sup.take_delta(net.sim.now()).pairs {
        assert_eq!(
            measured_at.get(&(p.a, p.b)),
            Some(&p.measured_at),
            "only boundary re-emits"
        );
        matrix.set(p.a, p.b, p.rtt_ms);
    }
    assert_eq!(matrix.to_tsv(), matrix_before, "re-application is a no-op");

    let merged = sup.merge(net.sim.now()).unwrap();
    assert_eq!(matrix.to_tsv(), merged.matrix.to_tsv());
    assert_eq!(measured_at, merged.measured_at);
}

/// A downed shard's frozen kept scanner enters the delta stream once
/// per outage — repeated drains while it stays down do not
/// re-emit it, and its watermark stays put so a restore re-covers the
/// gap.
#[test]
fn downed_shard_emits_its_checkpoint_once_per_outage() {
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut sup = Supervisor::new(nodes.clone(), supervisor_config(3), TingConfig::fast());
    sup.run_round(&mut net);
    sup.inject_crash(1, net.sim.now());

    let owned = partition_pairs(&nodes, 3);
    let has_shard1 = |d: &MergeDelta| d.pairs.iter().any(|p| owned[1].contains(&(p.a, p.b)));
    let d1 = sup.take_delta(net.sim.now());
    assert_eq!(d1.statuses[1], "restarting");
    assert!(
        has_shard1(&d1),
        "the first drain after the crash carries the kept scanner"
    );
    // Crash again without an intervening restore: still one outage as
    // far as the stream is concerned — nothing new to say.
    let d2 = sup.take_delta(net.sim.now());
    assert!(!has_shard1(&d2), "the kept scanner is not re-emitted");

    // Restore (zero backoff) and finish: the shard's fresh
    // measurements re-enter the stream.
    let mut revived = false;
    for _ in 0..4 {
        sup.run_round(&mut net);
        revived |= has_shard1(&sup.take_delta(net.sim.now()));
    }
    assert_eq!(sup.status(1), ShardStatus::Running);
    assert!(revived, "a restored shard's new measurements are drained");
}

/// The delta stream's pair order is part of the publish contract (later
/// pairs win collisions when deltas coalesce), so the sequence a
/// supervised scan drains — live shards in shard then partition order,
/// a crashed shard's kept scanner, the re-emits after its restore
/// — is pinned by CRC to the bytes captured before the scanner's
/// per-pair maps became one table (e4aead0).
#[test]
fn delta_pairs_keep_their_order() {
    use std::fmt::Write as _;
    let mut net = TorNetworkBuilder::testbed(41).vantages(2).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut config = supervisor_config(3);
    config.scanner.pairs_per_round = 2;
    let mut sup = Supervisor::new(nodes, config, TingConfig::fast());
    let mut text = String::new();
    for round in 0..5 {
        sup.run_round(&mut net);
        if round == 1 {
            // Shard 1's second round reaches the stream while it is
            // down, through the scanner it kept.
            sup.inject_crash(1, net.sim.now());
        }
        let delta = sup.take_delta(net.sim.now());
        for p in &delta.pairs {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                delta.seq,
                p.a.0,
                p.b.0,
                p.rtt_ms,
                p.measured_at.as_nanos(),
                p.lineage.shard,
                p.lineage.round
            );
        }
    }
    assert_eq!(
        (ting::checkpoint::crc32(text.as_bytes()), text.len()),
        (0x8e74_0b44, 787),
        "drained pairs left the pinned sequence:\n{text}"
    );
}
