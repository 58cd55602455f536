//! Tests for the multi-vantage parallel scanner: single-lane scans —
//! `run_round`, and `run_round_parallel` at `K = 1` — are held to the
//! bytes the blocking sequential engine produced before the engines
//! merged, and `K = 4` must actually halve the virtual time of a full
//! all-pairs scan.

use netsim::{NodeId, SimTime};
use ting::checkpoint::crc32;
use ting::obs::{ExportMeta, Obs, ObsConfig};
use ting::{measure_interleaved, Scanner, ScannerConfig, Ting, TingConfig, UnknownVantage};
use tor_sim::TorNetworkBuilder;

/// Runs a 3-round scan over 6 relays on an identically seeded testbed
/// and returns the full scanner checkpoint (matrix values + timestamps).
fn scan_checkpoint(vantages: Option<usize>, parallel: bool) -> String {
    let mut builder = TorNetworkBuilder::testbed(97);
    if let Some(k) = vantages {
        builder = builder.vantages(k);
    }
    let mut net = builder.build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
    let mut scanner = Scanner::new(
        nodes,
        ScannerConfig {
            pairs_per_round: 7,
            ..ScannerConfig::default()
        },
    );
    let ting = Ting::new(TingConfig::fast());
    for _ in 0..3 {
        if parallel {
            scanner.run_round_parallel(&mut net, &ting);
        } else {
            scanner.run_round(&mut net, &ting);
        }
    }
    scanner.to_checkpoint()
}

/// CRC-32 and byte length of `scan_checkpoint(None, false)` as the
/// blocking sequential engine wrote it at c1a2311, the last commit that
/// had one. Both scan entry points now drive the same engine, so
/// comparing them with each other would compare a path with itself.
const SEQUENTIAL_CHECKPOINT: (u32, usize) = (0x7a4e_facc, 733);

/// One lane must reproduce the sequential scanner bit for bit: neither
/// provisioning a (single) vantage pool nor routing through the
/// parallel entry point may change a single bit of the output.
#[test]
fn k1_parallel_scan_is_bit_identical_to_sequential() {
    for (vantages, parallel) in [(None, false), (Some(1), false), (Some(1), true)] {
        let checkpoint = scan_checkpoint(vantages, parallel);
        assert_eq!(
            (crc32(checkpoint.as_bytes()), checkpoint.len()),
            SEQUENTIAL_CHECKPOINT,
            "vantages={vantages:?} parallel={parallel} left the sequential bytes:\n{checkpoint}"
        );
    }
}

/// An assignment to a vantage the network does not have refuses the
/// whole call before anything starts: no span opens, no event runs, the
/// clock does not move.
#[test]
fn unknown_vantage_is_refused_before_any_measurement_starts() {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::testbed(97)
        .vantages(2)
        .observability(obs.clone())
        .build();
    let ting = Ting::with_obs(TingConfig::fast(), obs.clone());
    let (x, y) = (net.relays[0], net.relays[1]);
    // Settle start-up events so the counters below are stable.
    net.sim.run_until_idle();
    let before = (net.sim.now(), obs.counter_value("net.events"));
    let refused = measure_interleaved(&mut net, &ting, &[(0, x, y), (2, y, x)]);
    assert_eq!(
        refused.err(),
        Some(UnknownVantage {
            vantage: 2,
            provisioned: 2
        })
    );
    assert_eq!((net.sim.now(), obs.counter_value("net.events")), before);
    assert!(
        obs.document(&ExportMeta {
            seed: 0,
            config_hash: 0
        })
        .events
        .iter()
        .all(|e| !e.name.starts_with("scan.")),
        "a refused call must not open spans"
    );
    assert_eq!(net.sim.run_until_idle(), 0, "nothing was left queued");
}

/// A fixed (seed, K) must reproduce the interleaved scan exactly,
/// estimates and timestamps included.
#[test]
fn parallel_scan_is_deterministic_for_fixed_seed_and_k() {
    let run = || {
        let mut net = TorNetworkBuilder::testbed(7).vantages(3).build();
        let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
        let mut scanner = Scanner::new(
            nodes,
            ScannerConfig {
                pairs_per_round: 8,
                ..ScannerConfig::default()
            },
        );
        let ting = Ting::new(TingConfig::fast());
        let r1 = scanner.run_round_parallel(&mut net, &ting);
        let r2 = scanner.run_round_parallel(&mut net, &ting);
        (scanner.to_checkpoint(), net.sim.now(), r1, r2)
    };
    assert_eq!(run(), run());
}

/// The tentpole acceptance: on a 40-relay network, K = 4 vantages must
/// complete a full all-pairs scan in at most half the virtual time of
/// the sequential scanner, while both reach full coverage.
#[test]
fn four_vantages_halve_full_scan_virtual_time() {
    let full_scan = |k: usize| {
        let mut net = TorNetworkBuilder::live(41, 40).vantages(k).build();
        let nodes: Vec<NodeId> = net.relays.clone();
        let pairs = nodes.len() * (nodes.len() - 1) / 2;
        let mut scanner = Scanner::new(
            nodes,
            ScannerConfig {
                pairs_per_round: pairs,
                ..ScannerConfig::default()
            },
        );
        let ting = Ting::new(TingConfig::with_samples(3));
        let report = scanner.run_round_parallel(&mut net, &ting);
        assert_eq!(
            report.measured + report.failed,
            pairs,
            "round must attempt every pair"
        );
        assert!(
            scanner.coverage() > 0.95,
            "k={k}: coverage {:.3}",
            scanner.coverage()
        );
        net.sim.now() - SimTime::ZERO
    };
    let sequential = full_scan(1);
    let interleaved = full_scan(4);
    assert!(
        interleaved.as_nanos() * 2 <= sequential.as_nanos(),
        "k=4 took {:.1} virtual s vs {:.1} sequential — not a 2x speedup",
        interleaved.as_secs_f64(),
        sequential.as_secs_f64()
    );
}
