//! Query cost at network size: seeded complete matrices at 300, 1,200
//! and 6,600 relays (the shape of `common::seeded_matrix`), each family
//! timed per query on the snapshot that serves it.
//!
//! Ignored by default: it times the host, and at 6,600 relays the
//! matrix and the snapshot's copy of it take ≈ 0.7 GB. Run it by hand:
//!
//! ```text
//! cargo test --release -p oracle --test query_sweep -- --ignored --nocapture
//! ```

mod common;

use common::seeded_matrix;
use netsim::NodeId;
use oracle::Snapshot;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Mean nanoseconds a call of `query` over `pairs`, in the fastest of
/// five passes — the one a shared host disturbed least.
fn ns_per_query<T>(pairs: &[(NodeId, NodeId)], mut query: impl FnMut(NodeId, NodeId) -> T) -> f64 {
    let mut pass = || {
        let start = Instant::now();
        for &(x, y) in pairs {
            black_box(query(x, y));
        }
        start.elapsed().as_nanos() as f64 / pairs.len() as f64
    };
    (0..5).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "host timing at up to 6,600 relays; run by hand"]
fn query_cost_at_network_size() {
    for n in [300u32, 1_200, 6_600] {
        let snapshot = Snapshot::from_matrix(&seeded_matrix(2015, n));
        let mut rng = SmallRng::seed_from_u64(u64::from(n));
        let mut pairs = |count: u32| -> Vec<(NodeId, NodeId)> {
            let mut draw = || NodeId(rng.gen_range(0..n));
            (0..count).map(|_| (draw(), draw())).collect()
        };
        // Counts scaled so each family runs for ≈ 0.1 s or more.
        let (points, rankings, detours) = (
            pairs(1_000_000),
            pairs(4_000_000 / n),
            pairs(40_000_000 / n),
        );
        let rtt = ns_per_query(&points, |x, y| snapshot.rtt(x, y).unwrap());
        let knn = ns_per_query(&rankings, |x, _| {
            let near = snapshot.k_nearest(x, 16).unwrap();
            assert_eq!(near.neighbors.len(), 16);
            near
        });
        let via = ns_per_query(&detours, |x, y| {
            let d = snapshot.best_via(x, y).unwrap();
            assert!(d.via.is_some(), "a complete matrix always has a via");
            d
        });
        println!(
            "n {n:>5}: rtt {rtt:>8.1} ns  k_nearest(16) {knn:>10.1} ns  best_via {via:>9.1} ns"
        );
    }
}
