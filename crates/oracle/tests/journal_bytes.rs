//! The on-disk bytes of a journaled publish, pinned. A seeded stream of
//! deltas runs through a journaled [`Pipeline`] — one bulk delta, then
//! trickles of re-measured and new pairs, shard statuses moving — and
//! after every publish the test records the length and CRC-32 of
//! `oracle.published` and of the journal frame the generation was staged
//! as. Any byte that moves in the document, the frame or the published
//! wrapper fails here by generation; an edit to the constants is a
//! format change, not a fix.

use netsim::{NodeId, SimDuration, SimTime};
use oracle::journal::frame_record;
use oracle::{Journal, Pipeline, PipelineConfig, TtlPolicy};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ting::checkpoint::crc32;
use ting::obs::{Lineage, Obs};
use ting::shard::{DeltaPair, MergeDelta};

const SHARDS: usize = 3;
const STATUSES: [&str; 3] = ["live", "restarting", "dead"];

/// `(published length, published CRC, frame length, frame CRC)` of one
/// generation.
type Written = (usize, u32, usize, u32);

/// `n` relays whose ids are not in index order.
fn nodes(n: u32) -> Vec<NodeId> {
    (0..n).map(|i| NodeId((i * 7) % n + 100)).collect()
}

fn pair(rng: &mut SmallRng, a: NodeId, b: NodeId, at: u64) -> DeltaPair {
    DeltaPair {
        a,
        b,
        rtt_ms: rng.gen_range(0.5..400.0),
        measured_at: SimTime(at - rng.gen_range(0..1_000_000_000u64)),
        lineage: Lineage {
            shard: rng.gen_range(0..SHARDS as u32),
            round: rng.gen_range(0..5_000),
        },
    }
}

/// Runs `publishes` generations over `n` relays: a first delta that
/// measures most pairs, then 64-pair trickles (some of them named the
/// other way round), every fourth one status-only. Returns what each
/// publish left on disk.
fn run(n: u32, seed: u64, publishes: u64) -> Vec<Written> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes = nodes(n);
    let dir = std::env::temp_dir().join(format!("ting-journal-bytes-{n}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir).unwrap();
    let config = PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: SimDuration::from_secs(3),
        ttl: TtlPolicy::new(SimDuration::from_secs(60), SimDuration::from_secs(600)).unwrap(),
        slo: None,
    };
    let mut p = Pipeline::with_obs(
        nodes.clone(),
        SHARDS,
        config,
        Obs::off(),
        Some(journal.clone()),
    );
    let mut written = Vec::new();
    for seq in 1..=publishes {
        let now = 1_000_000_000_000 + seq * 1_700_000_000;
        let mut pairs = Vec::new();
        if seq == 1 {
            for (i, &a) in nodes.iter().enumerate() {
                for &b in &nodes[i + 1..] {
                    if rng.gen_range(0..10) > 0 {
                        pairs.push(pair(&mut rng, a, b, now));
                    }
                }
            }
        } else if seq % 4 != 0 {
            while pairs.len() < 64 {
                let (i, j) = (rng.gen_range(0..n as usize), rng.gen_range(0..n as usize));
                if i != j {
                    pairs.push(pair(&mut rng, nodes[i], nodes[j], now));
                }
            }
        }
        let statuses = (0..SHARDS)
            .map(|_| STATUSES[rng.gen_range(0..3usize)])
            .collect();
        p.offer(MergeDelta {
            seq,
            pairs,
            statuses,
            now: SimTime(now),
        });
        let generation = p.tick(SimTime(now)).unwrap().unwrap();
        let published = std::fs::read(journal.published_path()).unwrap();
        let frame = frame_record(generation, &p.serving_document());
        written.push((
            published.len(),
            crc32(&published),
            frame.len(),
            crc32(frame.as_bytes()),
        ));
        assert_eq!(std::fs::metadata(journal.journal_path()).unwrap().len(), 0);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    written
}

#[test]
fn published_bytes_at_40_relays_are_pinned() {
    let pinned: &[Written] = &[
        (35_104, 0x3a16_ab25, 35_080, 0x0ebe_3df3),
        (35_376, 0x18f6_7f8f, 35_352, 0xb87f_b32e),
        (35_765, 0xc935_6084, 35_741, 0xa8e9_4300),
        (35_765, 0x6672_e52d, 35_741, 0x5ace_9307),
        (35_980, 0xee0c_c328, 35_956, 0x68f2_074f),
        (36_157, 0x3dc4_3a38, 36_133, 0x7fb9_8816),
    ];
    assert_eq!(run(40, 2015, 6), pinned);
}

#[test]
fn published_bytes_at_300_relays_are_pinned() {
    let pinned: &[Written] = &[
        (1_989_941, 0xf4ef_c570, 1_989_919, 0x57e7_5481),
        (1_990_198, 0x697c_6cf1, 1_990_176, 0xb232_5995),
        (1_990_449, 0x93fb_41b3, 1_990_427, 0x3107_9d29),
        (1_990_449, 0x7d0b_effa, 1_990_427, 0x347a_a1e8),
        (1_991_046, 0xb13e_4fbf, 1_991_024, 0x1f75_3807),
    ];
    assert_eq!(run(300, 7, 5), pinned);
}
