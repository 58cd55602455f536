//! Supervision traces are first-class analysis inputs: a supervised
//! sharded scan driven through every failure path — crash, restart,
//! heartbeat stall, refused checkpoint files, `.bak` fallback,
//! quarantine — must export a trace that lints clean against
//! `obs::names::REGISTRY`, and the fixture must actually emit every
//! shard-supervision event so a renamed or unregistered emitter cannot
//! slip through.

use netsim::{NodeId, SimDuration};
use ting::checkpoint::bak_path;
use ting::obs::{config_hash, names, ExportMeta, Obs, ObsConfig};
use ting::shard::{shard_path, ShardStatus, Supervisor, SupervisorConfig};
use ting::{ScannerConfig, TingConfig};
use tor_sim::TorNetworkBuilder;

const SEED: u64 = 0x51AD;

/// One traced supervised campaign exercising every supervision event.
/// `tag` keys the checkpoint directory so parallel tests don't collide;
/// the same tag reproduces the same directory (and so the same trace
/// bytes, paths included).
fn traced_supervised_scan(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ting-shard-trace-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::testbed(SEED)
        .vantages(2)
        .observability(obs.clone())
        .build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let config = SupervisorConfig {
        shards: 3,
        scanner: ScannerConfig {
            pairs_per_round: 7,
            ..ScannerConfig::default()
        },
        heartbeat_timeout: SimDuration::from_hours(1),
        restart_budget: 3,
        restart_backoff: SimDuration::from_nanos(0),
        restart_backoff_cap: SimDuration::from_nanos(0),
    };
    let mut sup = Supervisor::with_obs(nodes, config, TingConfig::fast(), obs.clone());
    sup.set_checkpoint_dir(&dir);

    // Two clean rounds: `shard.round` spans, and a `.bak` generation
    // behind every shard's checkpoint file.
    sup.run_round(&mut net);
    sup.run_round(&mut net);

    // Corrupt shard 0's on-disk primary only: the crash-restart
    // recovers through `.bak` (`scan.recover.bak`).
    let path = shard_path(&dir, 0);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    sup.inject_crash(0, net.sim.now());
    sup.run_round(&mut net);

    // Overwrite both of shard 1's generations on disk: the restart
    // resumes the scanner the supervisor kept across the crash.
    let path = shard_path(&dir, 1);
    for file in [path.clone(), bak_path(&path)] {
        std::fs::write(file, "not a checkpoint\n").unwrap();
    }
    sup.inject_crash(1, net.sim.now());
    sup.run_round(&mut net);

    // Wedge shard 2 past the heartbeat deadline (`shard.stall`).
    let far = net.sim.now() + SimDuration::from_hours(1_000);
    sup.inject_hang(2, far);
    for _ in 0..4 {
        let next = net.sim.now() + SimDuration::from_secs(1800);
        net.sim.advance_to(next);
        sup.run_round(&mut net);
    }
    assert_eq!(sup.status(2), ShardStatus::Running, "stall must restart");

    // Exhaust shard 0's restart budget (`shard.quarantine`).
    for _ in 0..8 {
        if sup.status(0) == ShardStatus::Quarantined {
            break;
        }
        sup.inject_crash(0, net.sim.now());
        sup.run_round(&mut net);
    }
    assert_eq!(sup.status(0), ShardStatus::Quarantined);

    let text = obs.export_jsonl(&ExportMeta {
        seed: SEED,
        config_hash: config_hash("shard-trace-lint-v1"),
    });
    std::fs::remove_dir_all(&dir).unwrap();
    text
}

#[test]
fn supervised_scan_trace_lints_clean_and_covers_every_shard_event() {
    let text = traced_supervised_scan("lint");
    let doc = obs_analyze::parse_document(&text).expect("exporter output must parse");
    let issues = obs_analyze::lint(&doc);
    assert!(
        issues.is_empty(),
        "supervised trace has lint issues:\n{}",
        issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let count = |name: &str| doc.events.iter().filter(|e| e.name == name).count();
    for name in [
        names::SHARD_ROUND_BEGIN,
        names::SHARD_ROUND_END,
        names::SHARD_CRASH,
        names::SHARD_RESTART,
        names::SHARD_STALL,
        names::SHARD_QUARANTINE,
        names::SCAN_RECOVER_BAK,
    ] {
        assert!(count(name) >= 1, "fixture never emitted {name:?}");
    }
    // Span discipline specifically: rounds open exactly as often as
    // they close, even across crash/restart boundaries.
    assert_eq!(
        count(names::SHARD_ROUND_BEGIN),
        count(names::SHARD_ROUND_END)
    );
}

#[test]
fn supervised_trace_is_byte_deterministic() {
    // Same tag ⇒ same checkpoint directory ⇒ any path strings in the
    // trace agree; the runs are sequential so the directory is private.
    let a = traced_supervised_scan("det");
    let b = traced_supervised_scan("det");
    assert_eq!(a, b, "supervision must not add nondeterminism");
}
