//! Served ≡ sealed. A publish builds the served snapshot from the
//! dataset in hand and renders the sealed document from the same
//! dataset — two walks over one row source, and nothing on the publish
//! path parses the text back. This test closes that gap from outside:
//! after every publish and every recovery, the snapshot readers get is
//! the one [`Snapshot::from_merged_document`] loads from the sealed
//! document, answer for answer, and the document is a fixed point of
//! parse → render. Both sides share the row walk, so a third party
//! checks them: the stream's own last-write-wins record of what it
//! offered.

use netsim::{NodeId, SimDuration, SimTime};
use oracle::{Journal, Oracle, Pipeline, PipelineConfig, Snapshot, TtlPolicy};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ting::checkpoint::{seal, verify_sealed};
use ting::obs::{Lineage, Obs, ObsConfig};
use ting::shard::{parse_merged_document, DeltaPair, MergeDelta, MergeOutcome};

const NODES: u32 = 9;
const SHARDS: usize = 3;
const STEPS: usize = 60;

fn nodes() -> Vec<NodeId> {
    // Ids out of order: index order and id order must not be confused.
    (0..NODES).map(|i| NodeId((i * 4) % NODES + 10)).collect()
}

fn config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 3,
        publish_interval: SimDuration(0),
        staleness: SimDuration::from_secs(30),
        ttl: TtlPolicy::new(SimDuration::from_secs(60), SimDuration::from_secs(600)).unwrap(),
        slo: None,
    }
}

/// What the stream has produced so far, by kind: the test is only as
/// good as the cases its seed reached.
#[derive(Debug, Default)]
struct Reached {
    first: usize,
    again: usize,
    older: usize,
    status_only: usize,
    unlineaged: usize,
    recoveries: usize,
}

/// A seeded stream of deltas over [`nodes`], remembering the last
/// measurement it offered of every pair and whether a served answer
/// may cite its lineage.
struct Stream {
    rng: SmallRng,
    seq: u64,
    clock: u64,
    measured: Vec<(DeltaPair, bool)>,
    reached: Reached,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed),
            seq: 0,
            clock: 1_000_000,
            measured: Vec::new(),
            reached: Reached::default(),
        }
    }

    fn pair(&mut self) -> DeltaPair {
        let nodes = nodes();
        let known = self.measured.len();
        let (a, b, measured_at) = match self.rng.gen_range(0..4) {
            // A pair measured before, measured again — now, or (the
            // inclusive watermark re-emits these) at an instant older
            // than the one it replaces and than the dataset's newest.
            kind @ (0 | 1) if known > 0 => {
                let was = self.measured[self.rng.gen_range(0..known)].0;
                if kind == 0 {
                    self.reached.again += 1;
                    (was.a, was.b, self.clock)
                } else {
                    self.reached.older += 1;
                    let older = was.measured_at.0 - self.rng.gen_range(1..1_000u64);
                    (was.b, was.a, older)
                }
            }
            _ => {
                let i = self.rng.gen_range(0..nodes.len());
                let j = (i + self.rng.gen_range(1..nodes.len())) % nodes.len();
                self.reached.first += 1;
                (nodes[i], nodes[j], self.clock)
            }
        };
        self.measured
            .retain(|(p, _)| (p.a, p.b) != (a, b) && (p.a, p.b) != (b, a));
        let pair = DeltaPair {
            a,
            b,
            rtt_ms: self.rng.gen_range(1..400_000) as f64 / 1e3,
            measured_at: SimTime(measured_at),
            lineage: Lineage {
                shard: self.rng.gen_range(0..SHARDS as u32),
                round: self.seq,
            },
        };
        self.measured.push((pair, true));
        pair
    }

    /// The next delta: now and then status-only, else up to five pairs.
    fn delta(&mut self) -> MergeDelta {
        let pairs = match self.rng.gen_range(0..5) {
            0 => 0,
            _ => self.rng.gen_range(1..6),
        };
        self.delta_of(pairs)
    }

    fn delta_of(&mut self, pairs: usize) -> MergeDelta {
        self.seq += 1;
        self.clock += self.rng.gen_range(1..5_000_000_000u64);
        self.reached.status_only += (pairs == 0) as usize;
        let tags = ["live", "restarting", "dead"];
        MergeDelta {
            seq: self.seq,
            pairs: (0..pairs).map(|_| self.pair()).collect(),
            statuses: (0..SHARDS)
                .map(|_| tags[self.rng.gen_range(0..tags.len())])
                .collect(),
            now: SimTime(self.clock),
        }
    }
}

/// The sealed document's own snapshot, stamped with the generation it
/// is served under so whole answers compare.
fn sealed_snapshot(doc: &str, generation: u64) -> std::sync::Arc<Snapshot> {
    let sealed = Snapshot::from_merged_document(doc).expect("the served document loads");
    let mut stamp = Oracle::new(sealed.clone());
    stamp.publish_versioned(sealed, generation);
    stamp.reader().snapshot()
}

fn assert_served_is_sealed(p: &Pipeline, stream: &mut Stream) {
    let doc = p.serving_document();
    let parsed = parse_merged_document(&doc).expect("the served document parses");
    assert_eq!(MergeOutcome::from(parsed).to_document(), doc);

    let served = p.reader().snapshot();
    let sealed = sealed_snapshot(&doc, p.generation());
    assert_eq!(served.meta(), sealed.meta());
    assert_eq!(served.meta().measured_pairs, stream.measured.len());
    let newest = stream.measured.iter().map(|(p, _)| p.measured_at.0).max();
    assert_eq!(served.meta().newest_ns, newest);
    for &(offered, lineaged) in &stream.measured {
        let answer = served.rtt(offered.a, offered.b).unwrap();
        assert_eq!(answer, served.rtt(offered.b, offered.a).unwrap());
        assert_eq!(answer.rtt_ms, Some(offered.rtt_ms));
        assert_eq!(answer.measured_at_ns, Some(offered.measured_at.0));
        let cited = answer.origin.map(|o| (o.shard, o.round));
        let lineage = (offered.lineage.shard, offered.lineage.round);
        assert_eq!(cited, lineaged.then_some(lineage), "{offered:?}");
    }
    let nodes = nodes();
    for &x in &nodes {
        for &y in &nodes {
            let answer = served.rtt(x, y).unwrap();
            assert_eq!(answer, sealed.rtt(x, y).unwrap(), "rtt({x:?}, {y:?})");
            let unlineaged = answer.measured_at_ns.is_some() && answer.origin.is_none();
            stream.reached.unlineaged += unlineaged as usize;
        }
        for k in [1, 3, nodes.len()] {
            assert_eq!(served.k_nearest(x, k), sealed.k_nearest(x, k), "{x:?}, {k}");
        }
    }
    for _ in 0..20 {
        let x = nodes[stream.rng.gen_range(0..nodes.len())];
        let y = nodes[stream.rng.gen_range(0..nodes.len())];
        assert_eq!(served.best_via(x, y), sealed.best_via(x, y), "{x:?}, {y:?}");
    }
}

/// Offers bursts (past `queue_cap`, so the queue coalesces) and ticks,
/// checking after every publish; `kill`, when given, drops the pipeline
/// now and then and hands back what recovery reopened.
fn drive(mut p: Pipeline, stream: &mut Stream, kill: Option<&dyn Fn(SimTime) -> Pipeline>) {
    for step in 0..STEPS {
        for _ in 0..stream.rng.gen_range(1..7) {
            let delta = stream.delta();
            p.offer(delta);
        }
        let generation = p.generation();
        let now = SimTime(stream.clock);
        assert_eq!(p.tick(now).unwrap(), Some(generation + 1));
        assert_served_is_sealed(&p, stream);
        if let (Some(kill), 0) = (kill, step % 7) {
            drop(p);
            p = kill(now);
            assert_eq!(p.generation(), generation + 1);
            assert_served_is_sealed(&p, stream);
            stream.reached.recoveries += 1;
        }
    }
}

#[test]
fn volatile_pipeline_serves_what_it_seals() {
    let obs = Obs::new(ObsConfig::Metrics);
    let mut stream = Stream::new(2015);
    let p = Pipeline::with_obs(nodes(), SHARDS, config(), obs.clone(), None);
    drive(p, &mut stream, None);
    let reached = &stream.reached;
    let kinds = [
        reached.first,
        reached.again,
        reached.older,
        reached.status_only,
    ];
    assert!(kinds.iter().all(|&n| n > 0), "{reached:?}");
    assert!(obs.counter_value("oracle.pipeline.coalesced") > 0);
}

#[test]
fn journaled_pipeline_serves_what_it_seals_across_recoveries() {
    let dir = std::env::temp_dir().join(format!("ting-served-sealed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir).unwrap();

    // The directory starts with a generation sealed before lineage was
    // recorded for two of its pairs: their rows carry `-` markers, and
    // they are served unlineaged until something re-measures them.
    let mut stream = Stream::new(7);
    let mut seed = MergeOutcome::new(nodes(), SHARDS);
    let first = stream.delta_of(6);
    let sealed_at = first.now;
    seed.fold(first, |_, _| {}).unwrap();
    seed.judge_coverage(sealed_at, config().staleness);
    for (_, lineaged) in &mut stream.measured[..2] {
        *lineaged = false;
    }
    let unlineaged = |line: &str| {
        let row = format!("{line}\t");
        let of = |a: NodeId, b: NodeId| row.starts_with(&format!("m\t{}\t{}\t", a.0, b.0));
        let mut pairs = stream.measured[..2].iter();
        pairs.any(|(p, _)| of(p.a, p.b) || of(p.b, p.a))
    };
    let body: Vec<String> = verify_sealed(&seed.to_document())
        .unwrap()
        .lines()
        .map(|line| match line.rsplitn(3, '\t').last() {
            Some(row) if unlineaged(line) => format!("{row}\t-\t-"),
            _ => line.to_owned(),
        })
        .collect();
    let doc = seal(body.join("\n"));
    journal.append(2, &doc).unwrap();
    journal.mark_published(2, &doc).unwrap();

    let obs = Obs::new(ObsConfig::Metrics);
    let recover = |now| {
        let journal = Journal::open(&dir).unwrap();
        let (p, _) = Pipeline::recover(nodes(), SHARDS, config(), obs.clone(), journal, now)
            .expect("the journal directory recovers");
        p
    };
    let p = recover(sealed_at);
    assert_eq!(p.serving_document(), doc);
    assert_served_is_sealed(&p, &mut stream);
    assert!(stream.reached.unlineaged > 0, "the seed rows are served");
    drive(p, &mut stream, Some(&recover));

    let reached = &stream.reached;
    let kinds = [
        reached.first,
        reached.again,
        reached.older,
        reached.status_only,
        reached.recoveries,
    ];
    assert!(kinds.iter().all(|&n| n > 0), "{reached:?}");
    assert!(obs.counter_value("oracle.pipeline.coalesced") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}
