//! Snapshot isolation: a reader holding an old snapshot sees one
//! consistent matrix across a concurrent swap, and no reader ever
//! observes a half-published generation.

use netsim::NodeId;
use oracle::{Oracle, Snapshot};
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use ting::RttMatrix;

const N: u32 = 8;

/// A complete matrix where every pair carries the same `value` — any
/// mix of values inside one observed snapshot is a torn read.
fn homogeneous(value: f64) -> Snapshot {
    let nodes: Vec<NodeId> = (0..N).map(NodeId).collect();
    let mut m = RttMatrix::new(nodes.clone());
    for i in 0..N as usize {
        for j in (i + 1)..N as usize {
            m.set(nodes[i], nodes[j], value);
        }
    }
    Snapshot::from_matrix(&m)
}

fn all_pairs() -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::new();
    for i in 0..N {
        for j in 0..N {
            if i != j {
                pairs.push((NodeId(i), NodeId(j)));
            }
        }
    }
    pairs
}

/// Deterministic barrier-sequenced interleaving: the reader pins a
/// snapshot, the writer publishes a new generation *while the reader
/// still holds the old one*, and the held snapshot must keep answering
/// from the old generation while fresh reads see the new one.
#[test]
fn held_snapshot_is_consistent_across_a_concurrent_swap() {
    let mut oracle = Oracle::new(homogeneous(10.0));
    let reader = oracle.reader();
    let pinned = Arc::new(Barrier::new(2));
    let published = Arc::new(Barrier::new(2));
    let (tx, rx) = mpsc::channel();

    let handle = {
        let (pinned, published) = (Arc::clone(&pinned), Arc::clone(&published));
        thread::spawn(move || {
            let held = reader.snapshot();
            pinned.wait(); // writer may now publish
            published.wait(); // generation 2 is live
            for (a, b) in all_pairs() {
                assert_eq!(
                    held.rtt(a, b).unwrap().rtt_ms,
                    Some(10.0),
                    "held snapshot must not see the concurrent publish"
                );
            }
            assert_eq!(held.meta().version, 1);
            let fresh = reader.snapshot();
            assert_eq!(fresh.meta().version, 2);
            assert_eq!(fresh.rtt(NodeId(0), NodeId(1)).unwrap().rtt_ms, Some(20.0));
            tx.send(()).unwrap();
        })
    };

    pinned.wait();
    assert_eq!(oracle.publish_versioned(homogeneous(20.0), 2), 2);
    published.wait();
    rx.recv().expect("reader thread failed");
    handle.join().unwrap();
}

/// Hammer test: four reader threads race ~50 publishes. Every snapshot
/// a reader pins must be internally homogeneous (all pairs share one
/// value) and versions must be monotone per reader.
#[test]
fn racing_readers_never_observe_a_torn_generation() {
    const GENERATIONS: u64 = 50;
    const READERS: usize = 4;

    let mut oracle = Oracle::new(homogeneous(1.0));
    let start = Arc::new(Barrier::new(READERS + 1));
    let pairs = all_pairs();

    let handles: Vec<_> = (0..READERS)
        .map(|_| {
            let reader = oracle.reader();
            let start = Arc::clone(&start);
            let pairs = pairs.clone();
            thread::spawn(move || {
                start.wait();
                let mut last_version = 0;
                loop {
                    let snap = reader.snapshot();
                    let version = snap.meta().version;
                    assert!(version >= last_version, "versions went backwards");
                    last_version = version;
                    let expected = version as f64;
                    for &(a, b) in &pairs {
                        assert_eq!(
                            snap.rtt(a, b).unwrap().rtt_ms,
                            Some(expected),
                            "torn generation: snapshot v{version} mixes values"
                        );
                    }
                    if version >= GENERATIONS {
                        return;
                    }
                }
            })
        })
        .collect();

    start.wait();
    for g in 2..=GENERATIONS {
        oracle.publish_versioned(homogeneous(g as f64), g);
    }
    for h in handles {
        h.join().unwrap();
    }
}
