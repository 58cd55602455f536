//! One repetition of one workload: set-up, then the timed scan →
//! publish → query → recover stages, then the correctness checks
//! against the harness's own model. Runs in a child process of its own
//! so peak memory and allocator state start fresh every time.

use crate::gen::{self, SplitMix64, Stream};
use crate::host;
use crate::model::Model;
use crate::span::Recorder;
use crate::spec::{Feed, Spec, KNN_GROUP, K_NEAREST, NET_SEED, QUERY_SLICES};
use netsim::{NodeId, SimDuration, SimTime};
use oracle::journal::{frame_record, render_published};
use oracle::{Journal, Oracle, OracleReader, Pipeline, PipelineConfig, Snapshot, TtlPolicy};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use ting::obs::{ExportMeta, Lineage, Obs, ObsConfig};
use ting::shard::{parse_merged_document, DeltaPair, MergeDelta, MergeOutcome};
use ting::{Scanner, ScannerConfig, Supervisor, SupervisorConfig, Ting, TingConfig};
use tor_sim::{TorNetwork, TorNetworkBuilder};

/// What a repetition records besides the timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `obs` off, spans off: the end-to-end numbers come from here.
    Plain,
    /// Spans on, and every publish replayed step by step.
    Traced,
    /// `ObsConfig::Metrics` threaded through every layer, for the
    /// exact per-pair counts and the `obs` overhead.
    Metrics,
}

impl Mode {
    pub fn tag(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Metrics => "metrics",
        }
    }

    pub fn parse(tag: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Traced, Mode::Metrics]
            .into_iter()
            .find(|m| m.tag() == tag)
    }
}

/// Extra scan rounds allowed when a pair's estimate was refused and
/// sits under retry backoff at the end of the planned rounds.
const MAX_RETRY_ROUNDS: usize = 3;
/// Answers of each query family checked against brute force.
const VERIFIED_PER_FAMILY: usize = 1_000;
/// Pairs per shard in the supervisor's one set-up round.
const WARM_PAIRS_PER_SHARD: usize = 4;

/// Everything one repetition reports, in a line-oriented text form the
/// parent process parses back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepResult {
    /// One number per repetition (rates, set-up, memory, clocks).
    pub values: BTreeMap<String, f64>,
    /// Per-operation samples, pooled by the parent.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Values that are a pure function of seed and sizes, kept as text
    /// so the parent can demand byte equality across repetitions.
    pub exact: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness misses, one line each.
    pub errors: Vec<String>,
}

impl RepResult {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.errors.push(message.into());
    }

    pub fn to_wire(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (k, v) in &self.values {
            let _ = writeln!(out, "v {k} {v:?}");
        }
        for (k, vs) in &self.series {
            let _ = write!(out, "s {k}");
            for v in vs {
                let _ = write!(out, " {v:?}");
            }
            out.push('\n');
        }
        for (k, v) in &self.exact {
            let _ = writeln!(out, "x {k} {v}");
        }
        let _ = writeln!(out, "n {} {}", self.attempted, self.failed);
        for e in &self.errors {
            let _ = writeln!(out, "e {}", e.replace('\n', " "));
        }
        out
    }

    pub fn from_wire(text: &str) -> Result<RepResult, String> {
        let mut r = RepResult::default();
        let mut counted = false;
        for line in text.lines() {
            let bad = || format!("unparseable repetition line: {line}");
            let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
            match kind {
                "v" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
                    r.values.insert(k.to_owned(), v.parse().map_err(|_| bad())?);
                }
                "s" => {
                    let mut f = rest.split(' ');
                    let k = f.next().ok_or_else(bad)?;
                    let vs: Result<Vec<f64>, _> = f.map(str::parse).collect();
                    r.series.insert(k.to_owned(), vs.map_err(|_| bad())?);
                }
                "x" => {
                    let (k, v) = rest.split_once(' ').ok_or_else(bad)?;
                    r.exact.insert(k.to_owned(), v.to_owned());
                }
                "n" => {
                    let (a, f) = rest.split_once(' ').ok_or_else(bad)?;
                    r.attempted = a.parse().map_err(|_| bad())?;
                    r.failed = f.parse().map_err(|_| bad())?;
                    counted = true;
                }
                "e" => r.errors.push(rest.to_owned()),
                _ => return Err(bad()),
            }
        }
        if !counted {
            return Err("repetition ended without its operation counts".into());
        }
        Ok(r)
    }
}

pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: SimDuration::from_hours(24),
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(48))
            .expect("soft TTL below hard TTL"),
        slo: None,
    }
}

/// The publish workloads' supervisor: the pair space over `shards`
/// shards, a few pairs per shard and round.
pub fn supervisor_config(shards: usize) -> SupervisorConfig {
    SupervisorConfig {
        shards,
        scanner: ScannerConfig {
            pairs_per_round: WARM_PAIRS_PER_SHARD,
            ..ScannerConfig::default()
        },
        ..SupervisorConfig::default()
    }
}

/// `delta` seeded re-measurements, as `(i, j, rtt_ms)`.
pub fn remeasurements(rng: &mut SplitMix64, n: usize, delta: usize) -> Vec<(usize, usize, f64)> {
    gen::pair_subset(rng, n, delta)
        .into_iter()
        .map(|(i, j)| (i, j, rng.rtt_ms()))
        .collect()
}

/// Re-measurements as the delta pairs of scan round `round`, measured
/// at `now`.
pub fn delta_pairs<'a>(
    nodes: &'a [NodeId],
    batch: &'a [(usize, usize, f64)],
    now: SimTime,
    round: u64,
) -> impl Iterator<Item = DeltaPair> + 'a {
    batch.iter().map(move |&(i, j, rtt_ms)| DeltaPair {
        a: nodes[i],
        b: nodes[j],
        rtt_ms,
        measured_at: now,
        lineage: Lineage { shard: 0, round },
    })
}

/// Pre-generated query lists, as node ids.
struct Queries {
    points: Vec<(NodeId, NodeId)>,
    sources: Vec<NodeId>,
    detours: Vec<(NodeId, NodeId)>,
}

impl Queries {
    /// Over the full node set for a full matrix; over the scanned
    /// subset when only that subset is ever covered.
    fn generate(spec: &Spec, seed: u64, nodes: &[NodeId], subset: &[(usize, usize)]) -> Queries {
        let n = nodes.len();
        let mut points = SplitMix64::new(seed, Stream::Points);
        let mut sources = SplitMix64::new(seed, Stream::Sources);
        let mut detours = SplitMix64::new(seed, Stream::Detours);
        let ids = |pairs: Vec<(usize, usize)>| -> Vec<(NodeId, NodeId)> {
            pairs
                .into_iter()
                .map(|(a, b)| (nodes[a], nodes[b]))
                .collect()
        };
        match spec.feed {
            Feed::Synthetic { .. } => Queries {
                points: ids(gen::query_pairs(&mut points, n, spec.points)),
                sources: (0..spec.knn).map(|_| nodes[sources.below(n)]).collect(),
                detours: ids(gen::query_pairs(&mut detours, n, spec.detours)),
            },
            Feed::Scan => Queries {
                points: ids(gen::queries_among(&mut points, subset, spec.points)),
                sources: gen::queries_among(&mut sources, subset, spec.knn)
                    .into_iter()
                    .map(|(a, _)| nodes[a])
                    .collect(),
                detours: ids(gen::queries_among(&mut detours, subset, spec.detours)),
            },
        }
    }
}

/// The synthetic feed's moving parts: a real supervisor to drain, and
/// the seeded re-measurements appended to each drain.
struct Synthetic {
    supervisor: Supervisor,
    /// One list of `(i, j, rtt_ms)` per timed publish.
    remeasured: Vec<Vec<(usize, usize, f64)>>,
    warm_pairs: usize,
}

/// Step-by-step replay of a publish on scratch state, traced runs only.
struct Replay {
    journal: Journal,
    oracle: Oracle,
    generation: u64,
}

/// Mutable state of one repetition.
struct Campaign {
    nodes: Vec<NodeId>,
    rec: Recorder,
    pipeline: Pipeline,
    model: Model,
    replay: Option<Replay>,
    /// Whether the pipeline journals its publishes.
    journaled: bool,
    res: RepResult,
    /// Next operation id for spans.
    op: u64,
    last_publish: SimTime,
    publish_ms: Vec<f64>,
    unattributed_ms: Vec<f64>,
    journal_bytes: Vec<f64>,
    /// Mean latency of each group of [`KNN_GROUP`] k-nearest queries.
    knn_us: Vec<f64>,
    /// Queries per second of each timed slice.
    point_rates: Vec<f64>,
    detour_rates: Vec<f64>,
    /// Running sum over every served answer; order-sensitive on
    /// purpose, so a reordered or altered answer stream changes it.
    checksum: f64,
}

impl Campaign {
    fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Offers `delta` and ticks: the part of a publish every feed
    /// shares. `drained_s` is the time the feed already spent inside
    /// the program producing the delta (`Supervisor::take_delta`).
    fn publish(&mut self, delta: MergeDelta, now: SimTime, drained_s: f64, op: u64) {
        self.model.apply(&delta);
        self.rec.enter("oracle.offer", op);
        let t = Instant::now();
        self.pipeline.offer(delta);
        let offer_s = t.elapsed().as_secs_f64();
        self.rec.exit();
        self.rec.enter("oracle.tick", op);
        let t = Instant::now();
        let outcome = self.pipeline.tick(now);
        let tick_s = t.elapsed().as_secs_f64();
        self.rec.exit();
        self.res.attempted += 1;
        match outcome {
            Ok(Some(_)) => self.last_publish = now,
            Ok(None) => self
                .res
                .fail(format!("publish {op}: tick published nothing")),
            Err(e) => self.res.fail(format!("publish {op}: {e}")),
        }
        self.publish_ms.push((drained_s + offer_s + tick_s) * 1e3);
        if self.replay.is_some() {
            self.replay_publish(op, tick_s * 1e3);
        }
    }

    /// Repeats the sub-steps of the publish just made, through the
    /// public functions, each under its own span — so the split of a
    /// publish across layers is measured from outside the program.
    fn replay_publish(&mut self, op: u64, tick_ms: f64) {
        let doc = self.pipeline.serving_document();
        let replay = self.replay.as_mut().expect("traced repetition");
        let rec = &mut self.rec;
        rec.enter("benchmark.replay", op);

        rec.enter("core.doc_parse", op);
        let parsed = parse_merged_document(&doc);
        rec.exit();
        let parsed = match parsed {
            Ok(p) => p,
            Err(e) => {
                rec.exit();
                self.res
                    .fail(format!("replay {op}: served document does not parse: {e}"));
                return;
            }
        };
        let outcome = MergeOutcome {
            matrix: parsed.matrix,
            measured_at: parsed
                .measured_at_ns
                .into_iter()
                .map(|(k, t)| (k, SimTime(t)))
                .collect(),
            lineage: parsed.lineage,
            shards: parsed.shards,
            now: SimTime(parsed.now_ns),
        };
        // A volatile pipeline's tick has no journal steps: they are
        // still replayed (every workload reports their cost) but do
        // not count against its tick.
        let journaled = self.journaled;
        let mut children_ms = 0.0;
        let mut step =
            |rec: &mut Recorder, name: &'static str, in_tick: bool, f: &mut dyn FnMut()| {
                rec.enter(name, op);
                let t = Instant::now();
                f();
                if in_tick {
                    children_ms += t.elapsed().as_secs_f64() * 1e3;
                }
                rec.exit();
            };
        replay.generation += 1;
        let generation = replay.generation;
        let mut rendered = String::new();
        let mut snapshot = None;
        let mut io_error = None;
        step(rec, "core.doc_render", true, &mut || {
            rendered = outcome.to_document()
        });
        step(rec, "oracle.journal_append", journaled, &mut || {
            io_error = replay.journal.append(generation, &doc).err();
        });
        step(rec, "oracle.snapshot_build", true, &mut || {
            snapshot = Snapshot::from_merged_document(&doc).ok();
        });
        let oracle = &mut replay.oracle;
        step(rec, "oracle.swap", true, &mut || {
            if let Some(s) = snapshot.take() {
                oracle.publish_versioned(s, generation);
            }
        });
        step(rec, "oracle.journal_mark", journaled, &mut || {
            io_error = io_error
                .take()
                .or(replay.journal.mark_published(generation, &doc).err());
        });
        rec.exit();

        if rendered != doc {
            self.res
                .fail(format!("replay {op}: parse → render is not the identity"));
        }
        if let Some(e) = io_error {
            self.res.fail(format!("replay {op}: scratch journal: {e}"));
        }
        self.unattributed_ms.push(tick_ms - children_ms);
        let written =
            frame_record(generation, &doc).len() + render_published(generation, &doc).len();
        self.journal_bytes.push(written as f64);
    }

    /// `batches` query batches on one snapshot. They are the same
    /// operations executed again, so — like operations across
    /// repetitions — each slice and group keeps its best execution.
    fn serve_batches(&mut self, reader: &OracleReader, queries: &Queries, batches: usize) {
        let first = self.query_marks();
        self.serve(reader, queries);
        for _ in 1..batches {
            let again = self.query_marks();
            self.serve(reader, queries);
            self.fold_queries(first, again);
        }
    }

    /// Lengths of the three query series: where the next batch's
    /// samples will start.
    fn query_marks(&self) -> [usize; 3] {
        [
            self.point_rates.len(),
            self.knn_us.len(),
            self.detour_rates.len(),
        ]
    }

    /// Folds the batch whose samples start at `again` into the one
    /// that starts at `first`, sample by sample.
    fn fold_queries(&mut self, first: [usize; 3], again: [usize; 3]) {
        fold_best(&mut self.point_rates, first[0], again[0], f64::max);
        fold_best(&mut self.knn_us, first[1], again[1], f64::min);
        fold_best(&mut self.detour_rates, first[2], again[2], f64::max);
    }

    /// One query batch through one reader, on whatever snapshot is
    /// current.
    fn serve(&mut self, reader: &OracleReader, queries: &Queries) {
        let op = self.next_op();
        let mut errs = 0u64;
        let mut sum = self.checksum;
        self.rec.enter("benchmark.queries", op);

        // Rates are sampled per slice and latencies per small group, so
        // the parent can take medians over many short windows: a burst
        // of host noise then spoils a few samples, not the repetition.
        self.rec.enter("oracle.points", op);
        for slice in queries
            .points
            .chunks(queries.points.len().div_ceil(QUERY_SLICES))
        {
            let t = Instant::now();
            for &(a, b) in slice {
                match reader.rtt(a, b) {
                    Ok(answer) => sum += answer.rtt_ms.unwrap_or(0.0),
                    Err(_) => errs += 1,
                }
            }
            self.point_rates
                .push(slice.len() as f64 / t.elapsed().as_secs_f64());
        }
        self.rec.exit();

        self.rec.enter("oracle.k_nearest", op);
        for group in queries.sources.chunks(KNN_GROUP) {
            let t = Instant::now();
            for &x in group {
                match reader.k_nearest(x, K_NEAREST) {
                    Ok(a) => sum += a.neighbors.iter().map(|n| n.rtt_ms).sum::<f64>(),
                    Err(_) => errs += 1,
                }
            }
            self.knn_us
                .push(t.elapsed().as_nanos() as f64 / 1e3 / group.len() as f64);
        }
        self.rec.exit();

        self.rec.enter("oracle.best_via", op);
        for slice in queries
            .detours
            .chunks(queries.detours.len().div_ceil(QUERY_SLICES))
        {
            let t = Instant::now();
            for &(a, b) in slice {
                match reader.best_via(a, b) {
                    Ok(d) => sum += d.via.map_or(0.0, |v| v.rtt_ms),
                    Err(_) => errs += 1,
                }
            }
            self.detour_rates
                .push(slice.len() as f64 / t.elapsed().as_secs_f64());
        }
        self.rec.exit();

        self.rec.exit();
        self.checksum = black_box(sum);
        self.res.attempted +=
            (queries.points.len() + queries.sources.len() + queries.detours.len()) as u64;
        if errs > 0 {
            self.res.failed += errs;
            self.res.errors.push(format!(
                "query batch {op}: {errs} queries returned an error"
            ));
        }
    }

    /// A sample of each query family against brute force over the
    /// model, on the snapshot being served now.
    fn verify_queries(&mut self, queries: &Queries) {
        let snapshot = self.pipeline.reader().snapshot();
        let generation = self.pipeline.generation();
        let model = &self.model;
        let mut misses = Vec::new();
        let sample = |len: usize| {
            let stride = (len / VERIFIED_PER_FAMILY).max(1);
            (0..len).step_by(stride).take(VERIFIED_PER_FAMILY)
        };

        for q in sample(queries.points.len()) {
            let (a, b) = queries.points[q];
            let want = model.cell(model.index_of(a), model.index_of(b));
            let ok = snapshot.rtt(a, b).is_ok_and(|got| {
                got.rtt_ms.map(f64::to_bits) == want.map(|c| c.rtt_ms.to_bits())
                    && got.measured_at_ns == want.map(|c| c.at_ns)
                    && got.origin.map(|o| (o.shard, o.round, o.generation))
                        == want.map(|c| (c.shard, c.round, generation))
            });
            if !ok {
                misses.push(format!("point ({}, {})", a.0, b.0));
            }
        }
        for q in sample(queries.sources.len()) {
            let x = queries.sources[q];
            let want = model.k_nearest(model.index_of(x), K_NEAREST);
            let ok = snapshot.k_nearest(x, K_NEAREST).is_ok_and(|got| {
                got.neighbors.len() == want.len()
                    && got.neighbors.iter().zip(&want).all(|(g, &(v, rtt))| {
                        g.node == model.node(v) && g.rtt_ms.to_bits() == rtt.to_bits()
                    })
            });
            if !ok {
                misses.push(format!("k-nearest of {}", x.0));
            }
        }
        for q in sample(queries.detours.len()) {
            let (a, b) = queries.detours[q];
            let (i, j) = (model.index_of(a), model.index_of(b));
            let want = model.best_via(i, j);
            let ok = snapshot.best_via(a, b).is_ok_and(|got| {
                got.direct_ms.map(f64::to_bits) == model.cell(i, j).map(|c| c.rtt_ms.to_bits())
                    && got.via.map(|v| (v.node, v.rtt_ms.to_bits()))
                        == want.map(|(v, rtt)| (model.node(v), rtt.to_bits()))
            });
            if !ok {
                misses.push(format!("detour ({}, {})", a.0, b.0));
            }
        }
        self.res.attempted += (sample(queries.points.len()).count()
            + sample(queries.sources.len()).count()
            + sample(queries.detours.len()).count()) as u64;
        for m in misses {
            self.res
                .fail(format!("{m}: served answer differs from brute force"));
        }
    }
}

/// Folds the samples `series[again..]` (a batch executed again) into
/// `series[first..]` (its first execution), keeping the better of each
/// pair, and drops the folded tail.
fn fold_best(series: &mut Vec<f64>, first: usize, again: usize, better: fn(f64, f64) -> f64) {
    for k in 0..series.len() - again {
        series[first + k] = better(series[first + k], series[again + k]);
    }
    series.truncate(again);
}

/// New estimates of the scanned subset not yet handed to the pipeline,
/// as the single-shard delta pairs a supervisor would emit for them.
fn drain_scanner(
    scanner: &Scanner,
    owned: &[(NodeId, NodeId)],
    published: &mut [bool],
) -> Vec<DeltaPair> {
    let mut pairs = Vec::new();
    for (k, &(a, b)) in owned.iter().enumerate() {
        if published[k] {
            continue;
        }
        let (Some(rtt_ms), Some(measured_at)) =
            (scanner.matrix().get(a, b), scanner.measured_at(a, b))
        else {
            continue;
        };
        published[k] = true;
        pairs.push(DeltaPair {
            a,
            b,
            rtt_ms,
            measured_at,
            lineage: Lineage {
                shard: 0,
                round: scanner.measured_round(a, b).unwrap_or(0),
            },
        });
    }
    pairs
}

/// The full base matrix as one delta, shard and instant assigned by the
/// pair's position in index order.
pub fn base_delta(seed: u64, nodes: &[NodeId], shards: usize, now: SimTime) -> MergeDelta {
    let mut rng = SplitMix64::new(seed, Stream::BaseMatrix);
    let pairs = gen::all_pairs(nodes.len())
        .into_iter()
        .enumerate()
        .map(|(position, (i, j))| DeltaPair {
            a: nodes[i],
            b: nodes[j],
            rtt_ms: rng.rtt_ms(),
            measured_at: SimTime(1_000 + position as u64),
            lineage: Lineage {
                shard: (position % shards) as u32,
                round: 1,
            },
        })
        .collect();
    MergeDelta {
        seq: 0,
        pairs,
        statuses: vec!["live"; shards],
        now,
    }
}

fn gauge(obs: &Obs, name: &str) -> f64 {
    let doc = obs.document(&ExportMeta {
        seed: 0,
        config_hash: 0,
    });
    doc.gauges
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// Share (in %) of scanned pairs whose estimate lies within 20 % of
/// the simulator's ground truth.
fn within_20pct(net: &mut TorNetwork, scanner: &Scanner, owned: &[(NodeId, NodeId)]) -> (u64, u64) {
    let mut close = 0;
    let mut measured = 0;
    for &(a, b) in owned {
        if let Some(estimate) = scanner.matrix().get(a, b) {
            measured += 1;
            if (estimate / net.true_rtt_ms(a, b) - 1.0).abs() < 0.2 {
                close += 1;
            }
        }
    }
    (close, measured)
}

/// Runs one repetition. `out_dir` holds the journal directories (and
/// nothing survives the call).
pub fn run(spec: Spec, seed: u64, mode: Mode, out_dir: &Path) -> (RepResult, Recorder) {
    let wall = Instant::now();
    let sched_start = host::schedstat();
    let obs = match mode {
        Mode::Metrics => Obs::new(ObsConfig::Metrics),
        _ => Obs::off(),
    };
    let shards = spec.shards();
    let dir: PathBuf = out_dir.join(format!("journal-{}", std::process::id()));
    let scratch = out_dir.join(format!("journal-{}-replay", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);

    // ── Set-up ──────────────────────────────────────────────────────
    let t = Instant::now();
    let mut net = TorNetworkBuilder::live(NET_SEED, spec.relays)
        .vantages(spec.vantages)
        .observability(obs.clone())
        .build();
    let nodes = net.relays.clone();
    let subset = gen::pair_subset(
        &mut SplitMix64::new(seed, Stream::ScanPairs),
        nodes.len(),
        spec.scan_pairs(),
    );
    let owned: Vec<(NodeId, NodeId)> = subset.iter().map(|&(i, j)| (nodes[i], nodes[j])).collect();
    let mut scanner = Scanner::new(
        nodes.clone(),
        ScannerConfig {
            pairs_per_round: spec.pairs_per_round,
            ..ScannerConfig::default()
        },
    );
    scanner.restrict_to(&owned);
    let ting = Ting::with_obs(TingConfig::with_samples(spec.samples), obs.clone());
    // Only the publish workloads journal their publishes. A sparse
    // document is a few kilobytes, so a journaled publish of it is five
    // fsyncs and little else, and their latency on this disk moved 80 %
    // between two sets of runs. The scan workloads publish through the
    // volatile pipeline (the in-process consumer's mode) and journal
    // the final generation once, so the recover stage has a directory.
    let journaled = spec.feed != Feed::Scan;
    let journal = Journal::open(&dir).expect("journal directory under the benchmark's out/");
    let mut c = Campaign {
        nodes: nodes.clone(),
        rec: Recorder::new(mode == Mode::Traced),
        pipeline: Pipeline::with_obs(
            nodes.clone(),
            shards,
            pipeline_config(),
            obs.clone(),
            journaled.then(|| journal.clone()),
        ),
        model: Model::new(nodes.clone(), shards),
        replay: None,
        journaled,
        res: RepResult::default(),
        op: 0,
        last_publish: SimTime::ZERO,
        publish_ms: Vec::new(),
        unattributed_ms: Vec::new(),
        journal_bytes: Vec::new(),
        knn_us: Vec::new(),
        point_rates: Vec::new(),
        detour_rates: Vec::new(),
        checksum: 0.0,
    };
    let mut synthetic = match spec.feed {
        Feed::Scan => None,
        Feed::Synthetic { delta } => {
            let now = SimTime(1_000_000);
            let base = base_delta(seed, &nodes, shards, now);
            c.model.apply(&base);
            c.pipeline.offer(base);
            match c.pipeline.tick(now) {
                Ok(Some(_)) => c.last_publish = now,
                other => c.res.fail(format!("base publish: {other:?}")),
            }
            let mut supervisor = Supervisor::with_obs(
                nodes.clone(),
                supervisor_config(shards),
                TingConfig::with_samples(spec.samples),
                obs.clone(),
            );
            // One real round, so the first drain carries genuine
            // measurements and every shard has a watermark to advance.
            let warm = supervisor.run_round(&mut net);
            let mut rng = SplitMix64::new(seed, Stream::Deltas);
            let remeasured = (0..spec.cycles * spec.ops_per_cycle)
                .map(|_| remeasurements(&mut rng, nodes.len(), delta))
                .collect();
            Some(Synthetic {
                supervisor,
                remeasured,
                warm_pairs: warm.measured + warm.failed,
            })
        }
    };
    let queries = Queries::generate(&spec, seed, &nodes, &subset);
    let setup_s = t.elapsed().as_secs_f64();
    if mode == Mode::Traced {
        c.replay = Some(Replay {
            journal: Journal::open(&scratch).expect("scratch journal directory"),
            oracle: Oracle::new(Snapshot::from_matrix(&ting::RttMatrix::new(nodes.clone()))),
            generation: 1,
        });
    }

    // ── Scan ────────────────────────────────────────────────────────
    let mut virtual_ns = 0u64;
    let mut attempts = 0u64;
    let mut published = vec![false; owned.len()];
    let mut rounds = 0;
    let mut retries = 0;
    let mut seq = 0;
    let mut round_rates = Vec::new();
    loop {
        if rounds >= spec.rounds {
            // A refused estimate (Eq. (4) undershooting on 2 samples)
            // puts its pair under retry backoff. The campaign is "these
            // pairs, measured": step virtual time past the backoff and
            // go again, outside the timed and the virtual totals.
            if scanner.matrix().measured_pairs() >= owned.len() || retries == MAX_RETRY_ROUNDS {
                break;
            }
            retries += 1;
            let resume = net.sim.now() + scanner.config().retry_backoff + SimDuration::from_secs(1);
            net.sim.advance_to(resume);
        }
        rounds += 1;
        let op = c.next_op();
        let began = net.sim.now();
        c.rec.enter("core.run_round", op);
        let t = Instant::now();
        let report = if spec.parallel {
            scanner.run_round_parallel(&mut net, &ting)
        } else {
            scanner.run_round(&mut net, &ting)
        };
        let round_s = t.elapsed().as_secs_f64();
        c.rec.exit();
        virtual_ns += (net.sim.now() - began).as_nanos();
        attempts += (report.measured + report.failed) as u64;
        round_rates.push((report.measured + report.failed) as f64 / round_s);
        if spec.feed == Feed::Scan {
            let now = net.sim.now();
            let fresh = drain_scanner(&scanner, &owned, &mut published);
            for chunk in fresh.chunks(spec.publish_chunk) {
                let op = c.next_op();
                seq += 1;
                let delta = MergeDelta {
                    seq,
                    pairs: chunk.to_vec(),
                    statuses: vec!["live"],
                    now,
                };
                c.rec.enter("benchmark.publish", op);
                c.publish(delta, now, 0.0, op);
                c.rec.exit();
            }
        }
    }
    c.res.attempted += attempts;
    let unmeasured = owned.len() - scanner.matrix().measured_pairs().min(owned.len());
    if unmeasured > 0 {
        c.res.failed += unmeasured as u64;
        c.res.errors.push(format!(
            "scan: {unmeasured} pairs ended without an estimate"
        ));
    }
    if mode == Mode::Metrics {
        net.publish_relay_totals();
        let pairs = (attempts + synthetic.as_ref().map_or(0, |s| s.warm_pairs as u64)) as f64;
        c.res.set(
            "layer.netsim.events_per_pair",
            obs.counter_value("net.events") as f64 / pairs,
        );
        c.res.set(
            "layer.netsim.delivers_per_pair",
            obs.counter_value("net.delivers") as f64 / pairs,
        );
        c.res.set(
            "layer.tor-sim.circuits_per_pair",
            gauge(&obs, "tor.relay.circuits_created") / pairs,
        );
        c.res.set(
            "layer.tor-sim.cells_per_pair",
            gauge(&obs, "tor.relay.cells_processed") / pairs,
        );
    }

    // ── Publish and query ───────────────────────────────────────────
    let reader = c.pipeline.reader();
    if let Some(feed) = synthetic.as_mut() {
        let mut batches = feed.remeasured.iter();
        let scan_end = net.sim.now();
        let mut k = 0u64;
        // Every cycle asks the same queries of a matrix of the same
        // shape (some of its values re-measured): slice i of one cycle
        // is slice i of the next, and keeps its best execution.
        let first_cycle = c.query_marks();
        for cycle in 0..spec.cycles {
            for _ in 0..spec.ops_per_cycle {
                k += 1;
                let now = scan_end + SimDuration::from_secs(k);
                let op = c.next_op();
                c.rec.enter("benchmark.publish", op);
                c.rec.enter("core.take_delta", op);
                let t = Instant::now();
                let mut delta = feed.supervisor.take_delta(now);
                let drained_s = t.elapsed().as_secs_f64();
                c.rec.exit();
                let batch = batches.next().expect("one batch per timed publish");
                delta.pairs.extend(delta_pairs(&nodes, batch, now, 1 + k));
                c.publish(delta, now, drained_s, op);
                c.rec.exit();
            }
            let this_cycle = c.query_marks();
            c.serve_batches(&reader, &queries, spec.query_batches);
            if cycle > 0 {
                c.fold_queries(first_cycle, this_cycle);
            }
        }
    } else {
        c.serve_batches(&reader, &queries, spec.query_batches);
    }
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);

    // ── Recover ─────────────────────────────────────────────────────
    let served = c.pipeline.serving_document();
    if !journaled {
        let generation = c.pipeline.generation();
        if let Err(e) = journal
            .append(generation, &served)
            .and_then(|()| journal.mark_published(generation, &served))
        {
            c.res.fail(format!("journaling the final generation: {e}"));
        }
    }
    let resume_at = c.last_publish + SimDuration::from_secs(1);
    // The directory does not change between recovers: they are one
    // operation executed `recovers` times, and it counts at its best.
    let mut recover_ms_best = f64::INFINITY;
    for _ in 0..spec.recovers {
        let op = c.next_op();
        if mode == Mode::Traced {
            c.rec.enter("benchmark.replay", op);
            c.rec.enter("oracle.journal_recover", op);
            let _ = black_box(
                Journal::open(&dir).and_then(|j| j.recover().map_err(std::io::Error::other)),
            );
            c.rec.exit();
            c.rec.exit();
        }
        c.rec.enter("oracle.recover", op);
        let t = Instant::now();
        let recovered = Journal::open(&dir)
            .map_err(|e| e.to_string())
            .and_then(|journal| {
                Pipeline::recover(
                    c.nodes.clone(),
                    shards,
                    pipeline_config(),
                    Obs::off(),
                    journal,
                    resume_at,
                )
            });
        recover_ms_best = recover_ms_best.min(t.elapsed().as_secs_f64() * 1e3);
        c.rec.exit();
        c.res.attempted += 1;
        match recovered {
            Err(e) => c.res.fail(format!("recover: {e}")),
            Ok((p, found)) => {
                if p.generation() != c.pipeline.generation() {
                    c.res.fail(format!(
                        "recover: generation {} but the pipeline served {}",
                        p.generation(),
                        c.pipeline.generation()
                    ));
                } else if p.serving_document() != served {
                    c.res
                        .fail("recover: recovered document differs from the served one");
                } else if found.pending.is_some() || found.torn_tail {
                    c.res
                        .fail("recover: a clean shutdown left a pending record or a torn tail");
                }
            }
        }
    }
    // ── Checks (untimed) ────────────────────────────────────────────
    let expected = c.model.document(
        c.last_publish.as_nanos(),
        pipeline_config().staleness.as_nanos(),
    );
    if served != expected {
        c.res.fail(format!(
            "served document ({} bytes) differs from the model's ({} bytes)",
            served.len(),
            expected.len()
        ));
    }
    match Journal::open(&dir)
        .map_err(|e| e.to_string())
        .and_then(|j| j.recover())
    {
        Ok(found) => match found.serve() {
            Some((generation, doc))
                if *generation == c.pipeline.generation() && *doc == expected => {}
            Some((generation, doc)) => c.res.fail(format!(
                "journal holds generation {generation} ({} bytes), expected {} ({} bytes)",
                doc.len(),
                c.pipeline.generation(),
                expected.len()
            )),
            None => c
                .res
                .fail("journal directory holds no published generation"),
        },
        Err(e) => c.res.fail(format!("journal directory unreadable: {e}")),
    }
    c.res.attempted += 2;
    c.verify_queries(&queries);
    let (close, measured) = within_20pct(&mut net, &scanner, &owned);

    if mode == Mode::Traced {
        // Planning cost with nothing due: every pair of the subset is
        // fresh, so each of these rounds plans and measures nothing.
        if scanner.matrix().measured_pairs() >= owned.len() {
            for _ in 0..200 {
                c.rec.enter("core.idle_round", 0);
                black_box(scanner.run_round(&mut net, &ting));
                c.rec.exit();
            }
        }
    }

    // ── Report ──────────────────────────────────────────────────────
    c.res.set("setup_s", setup_s);
    c.res.set(
        "virtual_s_per_pair",
        virtual_ns as f64 / 1e9 / attempts as f64,
    );
    c.res.set(
        "est_within_20pct",
        100.0 * close as f64 / measured.max(1) as f64,
    );
    c.res.set("recover_ms_best", recover_ms_best);
    c.res.set("peak_rss_mb", peak_rss_mb);
    c.res.set("wall_s", wall.elapsed().as_secs_f64());
    if let (Some((cpu0, delay0)), Some((cpu1, delay1))) = (sched_start, host::schedstat()) {
        c.res.set("cpu_s", cpu1 - cpu0);
        c.res.set("run_delay_s", delay1 - delay0);
    }
    let exact = [
        ("scan.attempts", attempts.to_string()),
        ("scan.virtual_ns", virtual_ns.to_string()),
        ("scan.within_20pct", format!("{close}/{measured}")),
        ("publish.generation", c.pipeline.generation().to_string()),
        (
            "publish.document",
            format!(
                "{} bytes crc {:08x}",
                served.len(),
                ting::checkpoint::crc32(served.as_bytes())
            ),
        ),
        ("serve.checksum", format!("{:016x}", c.checksum.to_bits())),
    ];
    for (k, v) in exact {
        c.res.exact.insert(k.to_owned(), v);
    }
    c.res
        .series
        .insert("publish_ms".into(), std::mem::take(&mut c.publish_ms));
    c.res.series.insert("round_pairs_per_s".into(), round_rates);
    c.res.series.insert(
        "slice_points_per_s".into(),
        std::mem::take(&mut c.point_rates),
    );
    c.res.series.insert(
        "slice_detours_per_s".into(),
        std::mem::take(&mut c.detour_rates),
    );
    c.res
        .series
        .insert("knn_us".into(), std::mem::take(&mut c.knn_us));
    if mode == Mode::Traced {
        c.res.series.insert(
            "publish_unattributed_ms".into(),
            std::mem::take(&mut c.unattributed_ms),
        );
        c.res
            .series
            .insert("journal_bytes".into(), std::mem::take(&mut c.journal_bytes));
    }

    drop(c.pipeline);
    drop(c.replay);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
    (c.res, c.rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_format_round_trips() {
        let mut r = RepResult::default();
        r.set("pairs_per_s", 166.123_456_789_012_34);
        r.set("setup_s", 1e-9);
        r.series
            .insert("publish_ms".into(), vec![1.5, 0.1 + 0.2, 3.0]);
        r.series.insert("empty".into(), vec![]);
        r.exact
            .insert("publish.document".into(), "12 bytes crc 00ff00ff".into());
        r.attempted = 42;
        r.fail("served document differs");
        assert_eq!(RepResult::from_wire(&r.to_wire()), Ok(r));
    }

    /// A campaign small enough for an unoptimised build.
    fn tiny(feed: Feed) -> Spec {
        Spec {
            name: "tiny",
            why: "test",
            relays: 12,
            vantages: 2,
            samples: 3,
            parallel: true,
            pairs_per_round: 4,
            rounds: 2,
            feed,
            publish_chunk: 3,
            cycles: 2,
            ops_per_cycle: 2,
            query_batches: 2,
            points: 400,
            knn: 40,
            detours: 100,
            recovers: 2,
        }
    }

    fn run_tiny(feed: Feed, seed: u64, mode: Mode, dir: &str) -> RepResult {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(dir);
        std::fs::create_dir_all(&out).unwrap();
        let (result, _) = run(tiny(feed), seed, mode, &out);
        std::fs::remove_dir_all(&out).unwrap();
        result
    }

    #[test]
    fn scan_fed_campaign_passes_every_check_and_repeats() {
        let a = run_tiny(Feed::Scan, 7, Mode::Plain, "test-scan");
        assert_eq!((a.failed, &a.errors), (0, &vec![]));
        assert_eq!(a.exact["scan.attempts"], "8");
        assert_eq!(
            a.series["publish_ms"].len(),
            4,
            "two rounds of 4 pairs, 3 at a time"
        );
        assert_eq!(a.series["round_pairs_per_s"].len(), 2);
        assert!(a.values["recover_ms_best"] > 0.0);
        let b = run_tiny(Feed::Scan, 7, Mode::Metrics, "test-scan");
        assert_eq!(a.exact, b.exact, "obs at Metrics must not change behaviour");
        assert!(b.values["layer.tor-sim.circuits_per_pair"] >= 8.0);
        let c = run_tiny(Feed::Scan, 8, Mode::Plain, "test-scan");
        assert_ne!(a.exact["serve.checksum"], c.exact["serve.checksum"]);
    }

    #[test]
    fn synthetic_campaign_passes_every_check_and_traces() {
        let spec = tiny(Feed::Synthetic { delta: 5 });
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test-synthetic");
        std::fs::create_dir_all(&out).unwrap();
        let (plain, _) = run(spec, 2015, Mode::Plain, &out);
        let (traced, recorder) = run(spec, 2015, Mode::Traced, &out);
        std::fs::remove_dir_all(&out).unwrap();
        assert_eq!((plain.failed, &plain.errors), (0, &vec![]));
        assert_eq!((traced.failed, &traced.errors), (0, &vec![]));
        assert_eq!(plain.exact, traced.exact);
        assert_eq!(
            plain.exact["publish.generation"], "6",
            "bootstrap, base, then 4 publishes"
        );
        assert_eq!(plain.series["publish_ms"].len(), 4);
        assert_eq!(traced.series["publish_unattributed_ms"].len(), 4);
        for name in [
            "core.take_delta",
            "oracle.tick",
            "core.doc_render",
            "oracle.journal_mark",
        ] {
            assert_eq!(recorder.durations(name).len(), 4, "{name}");
        }
        assert_eq!(recorder.durations("oracle.recover").len(), 2);
        assert!(!recorder.durations("core.idle_round").is_empty());
    }

    #[test]
    fn repeated_batches_fold_to_their_best() {
        let mut rates = vec![9.0, 10.0, 12.0, 8.0, 11.0, 7.0];
        fold_best(&mut rates, 2, 4, f64::max);
        assert_eq!(rates, vec![9.0, 10.0, 12.0, 8.0]);
        let mut costs = vec![5.0, 3.0, 4.0, 6.0];
        fold_best(&mut costs, 0, 2, f64::min);
        assert_eq!(costs, vec![4.0, 3.0]);
    }

    #[test]
    fn truncated_wire_is_refused() {
        assert!(RepResult::from_wire("v a 1.0\n").is_err());
        assert!(RepResult::from_wire("q what\nn 1 0\n").is_err());
    }

    #[test]
    fn same_seed_gives_byte_identical_deltas_and_queries() {
        let nodes: Vec<NodeId> = (0..30).map(NodeId).collect();
        let spec = crate::spec::workload("serve_mixed").unwrap().quick();
        let render = |seed| {
            let base = base_delta(seed, &nodes, 4, SimTime(5));
            let subset = gen::pair_subset(&mut SplitMix64::new(seed, Stream::ScanPairs), 30, 50);
            let q = Queries::generate(&spec, seed, &nodes, &subset);
            format!("{base:?}{:?}{:?}{:?}", q.points, q.sources, q.detours)
        };
        assert_eq!(render(2015), render(2015));
        assert_ne!(render(2015), render(7));
    }
}
