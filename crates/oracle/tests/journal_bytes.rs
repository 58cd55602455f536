//! The on-disk bytes of a journaled publish, pinned. A seeded stream of
//! deltas runs through a journaled [`Pipeline`] — one bulk delta, then
//! trickles of re-measured and new pairs, shard statuses moving — and
//! after every publish the test records the length and CRC-32 of the
//! `@gen` record at the head of `oracle.journal` (the base, rewritten
//! only by a compaction), of the whole-document record the served
//! generation frames to, and of the rest of `oracle.journal` (the
//! `@delta` frames appended since the last compaction). Any byte that
//! moves in the document, the base or a frame fails here by generation;
//! an edit to the constants is a format change, not a fix.

use netsim::{NodeId, SimDuration, SimTime};
use oracle::journal::{frame_record, JOURNAL_FILE};
use oracle::{Journal, Pipeline, PipelineConfig, TtlPolicy};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ting::checkpoint::crc32;
use ting::obs::{Lineage, Obs};
use ting::shard::{parse_merged_document, DeltaPair, MergeDelta, MergeOutcome, RowText};

const SHARDS: usize = 3;
const STATUSES: [&str; 3] = ["live", "restarting", "dead"];

/// `(length, CRC)` of one file or record.
type Bytes = (usize, u32);

/// What one generation left: the log's `@gen` record, the whole
/// document's record, and the frames after it.
type Written = (Bytes, Bytes, Bytes);

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

fn sized(bytes: &[u8]) -> Bytes {
    (bytes.len(), crc32(bytes))
}

/// The log cut after its first record: the `@gen` record a compaction
/// wrote, and the `@delta` frames appended after it.
fn split_log(log: &[u8]) -> (&[u8], &[u8]) {
    let text = std::str::from_utf8(log).unwrap();
    let (header, _) = text.split_once('\n').unwrap();
    assert!(header.starts_with("@gen "), "{header:?}");
    let len: usize = header.rsplit(' ').next().unwrap().parse().unwrap();
    let seal = header.len() + 1 + len;
    log.split_at(seal + text[seal..].find('\n').unwrap() + 1)
}

/// The most a `@delta` frame of `pairs` changed pairs of `doc` can
/// take: the document's head and trailer, its `pairs` longest row
/// chunks, a `@chunk` line for each, and the frame's own three lines.
fn frame_bound(doc: &str, pairs: usize) -> usize {
    let dataset = MergeOutcome::from(parse_merged_document(doc).unwrap());
    let mut text = RowText::new(&dataset);
    text.render(&dataset);
    let (parts, _) = text.document();
    let mut chunks: Vec<usize> = parts[2..parts.len() - 1].iter().map(|c| c.len()).collect();
    chunks.sort_unstable_by(|a, b| b.cmp(a));
    let lines = "@delta 18446744073709551615 1000000000\n@head 1000000000\n@seal 18446744073709551615 00000000\n";
    let chunk_line = "@chunk 1000000 1000000\n".len();
    let longest: usize = chunks.iter().take(pairs).map(|len| len + chunk_line).sum();
    parts[1].len() + parts[parts.len() - 1].len() + longest + lines.len()
}

/// Runs `publishes` generations over `n` relays: a first delta that
/// measures most pairs, then 64-pair trickles (some of them named the
/// other way round), every fourth one status-only. Returns what each
/// publish left on disk, and the bytes each appended to the log.
fn run(n: u32, seed: u64, publishes: u64) -> (Vec<Written>, Vec<usize>) {
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
    let (mut written, mut appended) = (Vec::new(), Vec::new());
    let mut frames_len = 0;
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
        let changed = pairs.len();
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
        let log = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let (base, frames) = split_log(&log);
        let doc = p.serving_document();
        let frame = frame_record(generation, &doc);
        written.push((sized(base), sized(frame.as_bytes()), sized(frames)));
        if !frames.is_empty() {
            // Not a compaction: one frame appended, no larger than what
            // the publish changed.
            let frame = frames.len() - frames_len;
            assert!(
                frame <= frame_bound(&doc, changed),
                "generation {generation}: {frame} bytes"
            );
            appended.push(frame);
        }
        frames_len = frames.len();
        let recovered = journal.recover().unwrap();
        assert_eq!(recovered.serve(), Some(&(generation, doc)));
    }
    std::fs::remove_dir_all(&dir).unwrap();
    (written, appended)
}

#[test]
fn published_bytes_at_40_relays_are_pinned() {
    let pinned: &[Written] = &[
        (
            (35_229, 0x1824_4815),
            (35_080, 0x0ebe_3df3),
            (0, 0x0000_0000),
        ),
        (
            (35_501, 0xea23_021a),
            (35_352, 0xb87f_b32e),
            (0, 0x0000_0000),
        ),
        (
            (35_890, 0x15ce_14f5),
            (35_741, 0xa8e9_4300),
            (0, 0x0000_0000),
        ),
        (
            (35_890, 0x15ce_14f5),
            (35_741, 0x5ace_9307),
            (238, 0xb5fb_5ccb),
        ),
        (
            (36_105, 0x5f4f_1abf),
            (35_956, 0x68f2_074f),
            (0, 0x0000_0000),
        ),
        (
            (36_282, 0x6610_1fbc),
            (36_133, 0x7fb9_8816),
            (0, 0x0000_0000),
        ),
    ];
    let (written, _) = run(40, 2015, 6);
    assert_eq!(written, pinned);
}

#[test]
fn published_bytes_at_300_relays_are_pinned() {
    let pinned: &[Written] = &[
        (
            (1_996_994, 0xf237_d990),
            (1_989_919, 0x57e7_5481),
            (0, 0x0000_0000),
        ),
        (
            (1_996_994, 0xf237_d990),
            (1_990_176, 0xb232_5995),
            (89_595, 0x2e8d_1752),
        ),
        (
            (1_996_994, 0xf237_d990),
            (1_990_427, 0x3107_9d29),
            (179_238, 0xa097_6639),
        ),
        (
            (1_996_994, 0xf237_d990),
            (1_990_427, 0x347a_a1e8),
            (179_500, 0x1b27_cd89),
        ),
        (
            (1_996_994, 0xf237_d990),
            (1_991_024, 0x1f75_3807),
            (266_332, 0x4b9d_8fd4),
        ),
    ];
    let (written, appended) = run(300, 7, 5);
    assert_eq!(written, pinned);
    // A 64-pair publish appends one frame of ≈ 87–90 KB, against a
    // 1,996,994-byte compaction; the status-only one appends its head
    // and trailer.
    assert_eq!(appended, [89_595, 89_643, 262, 86_832]);
}
