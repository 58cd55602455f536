//! `Snapshot::k_nearest` against a sort-everything reference built from
//! point lookups alone, on merged datasets that carry timestamps and
//! lineage.
//!
//! The datasets mix full, sparse and empty rows over up to 40 relays
//! (several 8-cell chunks and a ragged tail), with repeated RTTs, ±0
//! and negative values, and repeated timestamps. Every answer is
//! compared by neighbour order, node, `rtt_ms` bits and the stalest
//! pair's `origin`, for k ∈ {0, 1, 16, n − 1, n, `usize::MAX`}.

use netsim::{NodeId, SimTime};
use obs::{Lineage, Origin};
use oracle::Snapshot;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ting::shard::{DeltaPair, MergeDelta, MergeOutcome};

/// RTTs drawn from a small pool, so ties are common and the sign of
/// zero decides order (`total_cmp` puts −0 first).
const RTTS: [f64; 8] = [-0.0, 0.0, -3.0, 0.25, 5.0, 5.0, 17.5, 120.0];

/// A merged dataset over `n` relays whose ids are not in index order.
/// Each relay has a coverage level: 0 measures nothing, 4 measures
/// every pair with a relay that measures anything, and 1–3 measure that
/// many quarters of their pairs. Half the datasets have no level-0
/// relay, so their level-4 rows are full.
fn merged(n: u32, seed: u64) -> MergeOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = (0..n).map(|i| NodeId(1_000 - 3 * i)).collect();
    let lowest = u32::from(rng.gen_bool(0.5));
    let level: Vec<u32> = (0..n).map(|_| rng.gen_range(lowest..=4)).collect();
    let mut pairs = Vec::new();
    for a in 0..n as usize {
        for b in a + 1..n as usize {
            let (lo, hi) = (level[a].min(level[b]), level[a].max(level[b]));
            if lo > 0 && (hi == 4 || rng.gen_range(0..4u32) < lo) {
                pairs.push(DeltaPair {
                    a: nodes[a],
                    b: nodes[b],
                    rtt_ms: RTTS[rng.gen_range(0..RTTS.len())],
                    measured_at: SimTime(rng.gen_range(0..4)),
                    lineage: Lineage {
                        shard: rng.gen_range(0..3),
                        round: rng.gen_range(0..5),
                    },
                });
            }
        }
    }
    let mut merged = MergeOutcome::new(nodes, 1);
    let delta = MergeDelta {
        seq: 1,
        pairs,
        statuses: vec!["live"],
        now: SimTime(10),
    };
    merged.fold(delta).expect("every pair is admissible");
    merged
}

/// The ranking by its definition: every other relay with a measured
/// RTT, sorted by `total_cmp` then index, cut to `k`; the origin is the
/// stalest pair's, the first in ranking order on a tie.
fn reference(s: &Snapshot, x: NodeId, k: usize) -> (Vec<(NodeId, u64)>, Option<Origin>) {
    let mut ranked = Vec::new();
    for (index, &y) in s.view().nodes().iter().enumerate() {
        let point = s.rtt(x, y).unwrap();
        if let (true, Some(ms)) = (y != x, point.rtt_ms) {
            ranked.push((ms, index, y, point.measured_at_ns, point.origin));
        }
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.truncate(k);
    let mut stalest: Option<(u64, Option<Origin>)> = None;
    for &(_, _, _, at, origin) in &ranked {
        if let Some(t) = at {
            if stalest.is_none_or(|(best, _)| t < best) {
                stalest = Some((t, origin));
            }
        }
    }
    let neighbours = ranked.iter().map(|&(ms, _, y, ..)| (y, ms.to_bits()));
    (neighbours.collect(), stalest.and_then(|(_, o)| o))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn k_nearest_is_the_sorted_prefix_of_every_measured_neighbour(
        n in 1u32..=40,
        seed in any::<u64>(),
    ) {
        let s = Snapshot::from_merged(&merged(n, seed));
        let n = n as usize;
        for &x in s.view().nodes() {
            for k in [0, 1, 16, n - 1, n, usize::MAX] {
                let got = s.k_nearest(x, k).unwrap();
                let ranked = got.neighbors.iter().map(|v| (v.node, v.rtt_ms.to_bits()));
                let got = (ranked.collect::<Vec<_>>(), got.origin);
                prop_assert_eq!(&got, &reference(&s, x, k), "x {:?}, k {}", x, k);
            }
        }
    }
}

#[test]
fn the_datasets_cover_every_row_shape() {
    // The generator reaches every row shape the property is about: an
    // empty row, a full one, a tie, and −0 ranked before +0.
    let (mut empty, mut full, mut tie, mut signed_zeros) = (false, false, false, false);
    for seed in 0..64 {
        let s = Snapshot::from_merged(&merged(40, seed));
        for &x in s.view().nodes() {
            let all = s.k_nearest(x, usize::MAX).unwrap().neighbors;
            empty |= all.is_empty();
            full |= all.len() == 39;
            tie |= all
                .windows(2)
                .any(|w| w[0].rtt_ms.to_bits() == w[1].rtt_ms.to_bits());
            signed_zeros |= all.windows(2).any(|w| {
                w[0].rtt_ms.to_bits() == (-0.0f64).to_bits() && w[1].rtt_ms.to_bits() == 0
            });
        }
    }
    assert!(empty && full && tie && signed_zeros);
}
