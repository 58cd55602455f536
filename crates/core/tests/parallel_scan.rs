//! Tests for the multi-vantage parallel scanner: the work queue's plan,
//! backlog and probation probe are held to bit-equality with the
//! reference planner (defined here, over its own shadow state) across
//! randomized histories, single-lane scans —
//! `run_round`, and `run_round_parallel` at `K = 1` — are held to the
//! bytes the blocking sequential engine produced before the engines
//! merged, and `K = 4` must actually halve the virtual time of a full
//! all-pairs scan.

use netsim::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use ting::checkpoint::crc32;
use ting::obs::{Obs, ObsConfig};
use ting::{
    measure_interleaved, Scanner, ScannerConfig, Ting, TingConfig, UnknownVantage, WorkQueue,
};
use tor_sim::TorNetworkBuilder;

const STALENESS_S: u64 = 1_000;

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// The shadow state the reference planner reads: what a history did to
/// each pair and relay, in plain maps with the scanner's record
/// semantics.
#[derive(Default)]
struct Shadow {
    /// Pair → last successful measurement (seconds).
    measured: BTreeMap<(u32, u32), u64>,
    /// Pair → backoff deadline (seconds) of its pending retry.
    failed: BTreeMap<(u32, u32), u64>,
    /// Pairs retired out of scope, for good.
    retired: BTreeSet<(u32, u32)>,
    /// Relays currently quarantined.
    quarantined: BTreeSet<u32>,
}

/// The executable specification of the scan priority order: one O(n²)
/// sweep over every pair. Never-measured pairs first in index order,
/// then stale ones oldest first (ties in index order); pairs out of
/// scope, touching a quarantined relay, or inside a failure backoff are
/// withheld.
fn reference_plan(n: u32, limit: usize, now_s: u64, shadow: &Shadow) -> Vec<(u32, u32)> {
    let mut unmeasured = Vec::new();
    let mut stale = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            let parked = shadow.quarantined.contains(&i) || shadow.quarantined.contains(&j);
            let backing_off = shadow
                .failed
                .get(&(i, j))
                .is_some_and(|&until| now_s < until);
            if shadow.retired.contains(&(i, j)) || parked || backing_off {
                continue;
            }
            match shadow.measured.get(&(i, j)) {
                None => unmeasured.push((i, j)),
                Some(&at) if now_s.saturating_sub(at) >= STALENESS_S => stale.push((at, (i, j))),
                Some(_) => {}
            }
        }
    }
    stale.sort_by_key(|&(at, _)| at);
    let stale = stale.into_iter().map(|(_, pair)| pair);
    unmeasured.into_iter().chain(stale).take(limit).collect()
}

/// The probation probe for quarantined relay `i`: the first pair in
/// index order that is in scope, touches `i`, and whose other endpoint
/// is not quarantined.
fn reference_probe(n: u32, i: u32, shadow: &Shadow) -> Option<(u32, u32)> {
    (0..n)
        .filter(|&k| k != i && !shadow.quarantined.contains(&k))
        .map(|k| if k < i { (k, i) } else { (i, k) })
        .find(|pair| !shadow.retired.contains(pair))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue's plan must be bit-equal to the reference sweep after
    /// any sequence of measurement successes and failures, scope
    /// retirements, and relay quarantines and releases, queried at any
    /// (non-decreasing) instant and round cap; its backlog must be the
    /// reference's uncapped count, and its probation probe for every
    /// quarantined relay the reference's.
    #[test]
    fn work_queue_plan_matches_reference_plan_round(
        n in 3u32..8,
        limit in 1usize..30,
        events in prop::collection::vec((any::<u16>(), any::<u8>(), 0u64..400), 0..60),
    ) {
        let mut queue = WorkQueue::new(n as usize, SimDuration::from_secs(STALENESS_S));
        let mut shadow = Shadow::default();
        let mut clock = 0u64;
        for (sel, kind, dt) in events {
            clock += dt;
            let i = (sel as u32) % n;
            let j = (i + 1 + ((sel as u32) / n) % (n - 1)) % n;
            let pair = if i < j { (i, j) } else { (j, i) };
            match kind % 8 {
                // A success overwrites the timestamp and clears any
                // backoff — also for a parked or retired pair, whose
                // record stays current while it is unscheduled.
                0..=2 => {
                    queue.on_measured(i, j, t(clock), 1);
                    shadow.measured.insert(pair, clock);
                    shadow.failed.remove(&pair);
                }
                // A failure sets the backoff and keeps the history.
                3 | 4 => {
                    let until = clock + 1 + (kind as u64 / 8 % 7) * 100;
                    queue.on_failed(i, j, t(until));
                    shadow.failed.insert(pair, until);
                }
                5 => {
                    queue.retire(i, j);
                    shadow.retired.insert(pair);
                }
                // Quarantine is the health model's to keep; the queue
                // reads it as the mask below.
                6 => {
                    shadow.quarantined.insert(i);
                }
                _ => {
                    shadow.quarantined.remove(&i);
                }
            }
        }
        let parked: Vec<bool> = (0..n).map(|i| shadow.quarantined.contains(&i)).collect();
        for now_s in [clock, clock + STALENESS_S / 2, clock + 2 * STALENESS_S + 700] {
            let plan = queue.plan(t(now_s), limit, &parked);
            prop_assert_eq!(reference_plan(n, limit, now_s, &shadow), plan);
            let uncapped = reference_plan(n, usize::MAX, now_s, &shadow).len();
            prop_assert_eq!(uncapped, queue.backlog(t(now_s), &parked));
            for &i in &shadow.quarantined {
                prop_assert_eq!(reference_probe(n, i, &shadow), queue.probe_pair(i, &parked));
            }
        }
    }
}

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
        obs.events().iter().all(|e| !e.name.starts_with("scan.")),
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
