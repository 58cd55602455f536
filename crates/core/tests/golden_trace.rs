//! Golden-trace determinism tests for the observability layer.
//!
//! The contract `obs` pins across the whole stack:
//!
//! 1. a fixed-seed scan exports **byte-identical** JSONL across runs —
//!    the trace is a pure function of seed + config;
//! 2. attaching observability (at any level) never changes behaviour —
//!    an `Off` run, a `Metrics` run, and a `Trace` run of the same
//!    campaign end in bit-identical scanner checkpoints at the same
//!    virtual instant;
//! 3. a single lane of the engine logs byte-for-byte what the blocking
//!    sequential orchestrator logged before the engines merged (pinned
//!    by CRC), however the lane is entered.

use netsim::{FaultPlan, NodeId, SimDuration};
use ting::checkpoint::crc32;
use ting::obs::{config_hash, ExportMeta, Obs, ObsConfig};
use ting::{measure_interleaved, Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::{TorNetwork, TorNetworkBuilder};

const SEED: u64 = 0x601d;

fn meta(seed: u64) -> ExportMeta {
    ExportMeta {
        seed,
        config_hash: config_hash("golden-trace-v1"),
    }
}

/// Runs one short, fault-laden scan campaign with every layer
/// instrumented at `mode`, returning the exported JSONL plus the
/// behavioural fingerprint (checkpoint text, final virtual instant).
fn traced_scan(seed: u64, mode: ObsConfig) -> (String, String, u64) {
    let obs = Obs::new(mode);
    let mut net = TorNetworkBuilder::live(seed, 10)
        .fault_plan(FaultPlan::new(seed ^ 0x7).with_link_loss(0.004))
        .observability(obs.clone())
        .build();
    let nodes: Vec<NodeId> = net.relays.clone();
    let ting = Ting::with_obs(TingConfig::fast(), obs.clone());
    let mut scanner = Scanner::new(
        nodes,
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
    net.publish_relay_totals();
    (
        obs.export_jsonl(&meta(seed)),
        scanner.to_checkpoint(),
        net.sim.now().as_nanos(),
    )
}

/// Contract 1: same seed → byte-identical JSONL; different seed →
/// a different document.
#[test]
fn fixed_seed_scan_exports_byte_identical_jsonl() {
    let (a, _, _) = traced_scan(SEED, ObsConfig::Trace);
    let (b, _, _) = traced_scan(SEED, ObsConfig::Trace);
    assert_eq!(a, b, "same seed must export byte-identical JSONL");
    let (c, _, _) = traced_scan(SEED + 1, ObsConfig::Trace);
    assert_ne!(a, c, "a different seed must produce a different trace");
}

/// The export really is the *unified* layer: one document carries
/// netsim fault/link counters, tor-sim relay gauges, orchestrator
/// phase histograms, and scanner round spans.
#[test]
fn export_covers_every_layer_of_the_stack() {
    let (doc, _, _) = traced_scan(SEED, ObsConfig::Trace);
    for needle in [
        "\"counter\":\"net.delivers\"",
        "\"counter\":\"net.conns_opened\"",
        "\"gauge\":\"tor.relay.cells_processed\"",
        "\"hist\":\"ting.phase.build_us\"",
        "\"hist\":\"ting.phase.probe_us\"",
        "\"event\":\"scan.round.begin\"",
        "\"event\":\"scan.pair.end\"",
        "\"event\":\"ting.phase\"",
    ] {
        assert!(doc.contains(needle), "export missing {needle}");
    }
}

/// Contract 2: observability is passive. The scan's outcome — the full
/// checkpoint (cache, timestamps, backoff, health) and the virtual
/// clock — is bit-identical whether obs is off, counting, or tracing.
#[test]
fn observability_level_never_changes_behaviour() {
    let (_, off_ckpt, off_now) = traced_scan(SEED, ObsConfig::Off);
    let (_, met_ckpt, met_now) = traced_scan(SEED, ObsConfig::Metrics);
    let (_, trc_ckpt, trc_now) = traced_scan(SEED, ObsConfig::Trace);
    assert_eq!(off_ckpt, met_ckpt, "Metrics mode perturbed the scan");
    assert_eq!(off_ckpt, trc_ckpt, "Trace mode perturbed the scan");
    assert_eq!(off_now, met_now);
    assert_eq!(off_now, trc_now);
}

/// One scan round over a single-vantage network, sequentially or via
/// the parallel entry point, exported as JSONL.
fn k1_round(parallel: bool) -> String {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::live(SEED, 8)
        .observability(obs.clone())
        .build();
    let ting = Ting::with_obs(TingConfig::fast(), obs.clone());
    let mut scanner = Scanner::new(net.relays.clone(), ScannerConfig::default());
    let report = if parallel {
        scanner.run_round_parallel(&mut net, &ting)
    } else {
        scanner.run_round(&mut net, &ting)
    };
    assert!(report.measured > 0);
    obs.export_jsonl(&meta(SEED))
}

/// CRC-32 and byte length of `k1_round(false)`'s JSONL as the blocking
/// sequential engine logged it at c1a2311, the last commit that had
/// one. Both scan entry points now drive the same engine, so comparing
/// them with each other would compare a path with itself.
const SEQUENTIAL_K1_TRACE: (u32, usize) = (0xbad3_4db8, 673_043);

/// Contract 3a: a single lane logs byte-for-byte the document the
/// sequential scanner did, from either scan entry point.
#[test]
fn parallel_k1_round_logs_identically_to_sequential() {
    for parallel in [false, true] {
        let doc = k1_round(parallel);
        assert_eq!(
            (crc32(doc.as_bytes()), doc.len()),
            SEQUENTIAL_K1_TRACE,
            "parallel={parallel} left the sequential trace"
        );
    }
}

/// Contract 3b: job boundaries are invisible on a single lane. Three
/// separate `measure_pair` calls (three driver calls of one job each)
/// and one raw single-lane batch of the same three pairs produce the
/// same measurements to the bit — samples, `elapsed_s` — and stop the
/// clock at the same instant. The CRC pins above go through the scanner
/// and so only ever see one driver call per round.
#[test]
fn single_lane_batch_equals_repeated_measure_pair() {
    let pairs = |net: &TorNetwork| {
        let n = &net.relays;
        vec![(n[0], n[1]), (n[2], n[3]), (n[4], n[5])]
    };
    let ting = Ting::new(TingConfig::fast());

    let mut net_seq = TorNetworkBuilder::live(SEED, 8).build();
    let one_by_one: Vec<_> = pairs(&net_seq)
        .into_iter()
        .map(|(x, y)| ting.measure_pair(&mut net_seq, x, y))
        .collect();

    let mut net_par = TorNetworkBuilder::live(SEED, 8).build();
    let assignments: Vec<(usize, NodeId, NodeId)> = pairs(&net_par)
        .into_iter()
        .map(|(x, y)| (0usize, x, y))
        .collect();
    let batch: Vec<_> = measure_interleaved(&mut net_par, &ting, &assignments)
        .expect("vantage 0 always exists")
        .into_iter()
        .map(|o| o.result)
        .collect();

    assert!(one_by_one.iter().all(Result::is_ok));
    assert_eq!(one_by_one, batch);
    assert_eq!(net_seq.sim.now(), net_par.sim.now());
}
