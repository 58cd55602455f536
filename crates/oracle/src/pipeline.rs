//! The live scan→serve pipeline: a continuous control loop that turns
//! a running [`ting::shard::Supervisor`]'s incremental merge deltas
//! into crash-consistent oracle generations.
//!
//! One cycle: the scan side [`Pipeline::offer`]s deltas drained with
//! [`ting::shard::Supervisor::take_delta`] (never blocking — a bounded
//! queue coalesces on overflow, because delta application is
//! idempotent assignment); [`Pipeline::tick`] then folds the queue
//! into the accumulated matrix and publishes the generation through the
//! oracle's swap cell. A journaled pipeline first renders the same
//! CRC-sealed merged document an offline
//! [`ting::shard::Supervisor::merge`] would produce and makes it durable
//! through the publish [`Journal`] before it swaps it in — one `@delta`
//! frame of the row chunks the publish changed, one append and one
//! fsync, or now and then a compaction that rewrites the whole document
//! as the journal's base — under the *journal's* generation number, so a
//! kill at any byte and a [`Pipeline::recover`] always serve exactly the
//! last sealed generation, bit-identical to an uninterrupted run. A
//! volatile one (no journal) renders no document: nothing would read it.
//!
//! Serving is guarded by the [`TtlPolicy`] ladder, judged against the
//! snapshot's newest measurement in virtual time. The pipeline is the
//! judge, not the guard: it seats each verdict in the oracle's swap
//! cell — with every publish, and again on every tick — and the
//! [`OracleReader`]s it hands out act on it (see [`crate::service`]).

use crate::journal::{Journal, Recovered, JOURNAL_FILE, PUBLISHED_FILE};
use crate::service::{Oracle, OracleReader};
use crate::snapshot::Snapshot;
use crate::ttl::{ServingState, TtlPolicy};
use netsim::{NodeId, SimDuration, SimTime};
use obs::{
    names, Counter, Hist, Obs, SloEngine, SloSpec, Value, WindowSpec, SLO_COVERAGE,
    SLO_PUBLISH_LATENCY, SLO_SHARD_PROGRESS, SLO_STALENESS,
};
use std::collections::VecDeque;
use ting::shard::{parse_merged_document, MergeDelta, MergeOutcome, RowText};

/// Tuning knobs for the publish loop.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Most deltas held before the two oldest coalesce (≥ 1). The
    /// queue never refuses an offer — backpressure folds history
    /// instead of blocking the scan.
    pub queue_cap: usize,
    /// Minimum virtual time between publishes; zero publishes on every
    /// tick that has queued data.
    pub publish_interval: SimDuration,
    /// Staleness horizon for the document's coverage rows. Must match
    /// the supervisor's `ScannerConfig::staleness` for pipeline output
    /// to stay bit-identical with an offline merge.
    pub staleness: SimDuration,
    /// Snapshot-level freshness SLOs.
    pub ttl: TtlPolicy,
    /// Live SLO evaluation over the control loop itself; `None` runs
    /// the pipeline exactly as before (the engine is observational —
    /// it never changes what publishes or serves).
    pub slo: Option<SloConfig>,
}

/// Window geometry and objectives for the pipeline's live SLOs. All
/// integer fields so [`PipelineConfig`] stays `Copy + Eq`.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Width of one aggregation bucket in virtual time.
    pub bucket: SimDuration,
    /// Ring length; the window spans `bucket × buckets`.
    pub buckets: u32,
    /// Pair-coverage objective at publish (measured / owned), ppm.
    pub coverage_objective_ppm: u32,
    /// Per-shard scan-progress objective (live shards / all), ppm.
    pub progress_objective_ppm: u32,
    /// Offer→publish latency budget per delta.
    pub latency_budget: SimDuration,
    /// Fraction of deltas published within the budget, ppm.
    pub latency_objective_ppm: u32,
    /// Fraction of TTL judgments landing `Fresh`, ppm — burn against
    /// this is the staleness-budget burn of the serving ladder.
    pub staleness_objective_ppm: u32,
}

/// The live SLO engine with the one budget the control loop itself
/// judges deltas against before reporting them to it.
#[derive(Debug)]
struct LiveSlo {
    engine: SloEngine,
    latency_budget: SimDuration,
}

impl SloConfig {
    fn live(&self, obs: &Obs) -> LiveSlo {
        let slo = |name, objective_ppm| SloSpec {
            name,
            objective_ppm,
        };
        let engine = SloEngine::new(
            obs.clone(),
            WindowSpec {
                bucket_ns: self.bucket.as_nanos(),
                buckets: self.buckets,
            },
            &[
                slo(SLO_COVERAGE, self.coverage_objective_ppm),
                slo(SLO_SHARD_PROGRESS, self.progress_objective_ppm),
                slo(SLO_PUBLISH_LATENCY, self.latency_objective_ppm),
                slo(SLO_STALENESS, self.staleness_objective_ppm),
            ],
        );
        LiveSlo {
            engine,
            latency_budget: self.latency_budget,
        }
    }
}

/// Pre-resolved metric handles for the publish loop.
#[derive(Debug, Clone, Default)]
struct Metrics {
    deltas: Counter,
    coalesced: Counter,
    published: Counter,
    served_stale: Counter,
    refused: Counter,
    batch_pairs: Hist,
}

impl Metrics {
    fn new(obs: &Obs) -> Metrics {
        Metrics {
            deltas: obs.counter_handle("oracle.pipeline.deltas"),
            coalesced: obs.counter_handle("oracle.pipeline.coalesced"),
            published: obs.counter_handle("oracle.pipeline.published"),
            served_stale: obs.counter_handle("oracle.stale.served_stale"),
            refused: obs.counter_handle("oracle.stale.refused"),
            batch_pairs: obs.hist_handle("oracle.pipeline.batch_pairs"),
        }
    }
}

/// A publish compacts — writes the whole document as the journal's base
/// and empties its log — instead of appending a `@delta` frame once the
/// frame would take the log past this share of the base's bytes, in
/// percent. At 300 relays a 64-pair frame is ≈ 85 KB of a 1.70 MB base:
/// five frames go between two compactions, and a recovery splices at
/// most ≈ 0.43 MB of them (DESIGN.md §16).
const COMPACT_AT_PERCENT: u64 = 25;

/// The durable half of a journaled pipeline.
#[derive(Debug)]
struct Durable {
    journal: Journal,
    /// `dataset`'s document as rendered at the last publish, chunk by
    /// chunk, with the chunks folded into since marked for the next.
    rows: RowText,
    /// The length in bytes of the base this pipeline last wrote, and of
    /// the frames it appended on it since; `None` before its first
    /// compaction and after a failed write, so the next publish
    /// compacts.
    on_disk: Option<(u64, u64)>,
}

impl Durable {
    fn new(journal: Journal, dataset: &MergeOutcome) -> Durable {
        Durable {
            journal,
            rows: RowText::new(dataset),
            on_disk: None,
        }
    }

    /// Renders generation `gen` of `dataset` — the chunks folded into
    /// since the last render — and makes it durable: one `@delta` frame
    /// of what the render changed, or a compaction when this pipeline
    /// has written no base, the render changed every chunk, or the log
    /// would pass [`COMPACT_AT_PERCENT`] of the base. The document goes
    /// to disk as the row text's parts, under the CRC they were joined
    /// to: nothing copies or hashes it whole.
    fn write(&mut self, dataset: &MergeOutcome, gen: u64) -> Result<(), String> {
        self.rows.render(dataset);
        let (doc, crc) = self.rows.document();
        let fresh = self.rows.fresh();
        let changed = fresh.iter().map(|&k| doc[2 + k as usize].len());
        let frame = (doc[1].len() + changed.sum::<usize>() + doc[doc.len() - 1].len()) as u64;
        let every_chunk = fresh.len() == doc.len() - 3;
        self.on_disk = Some(match self.on_disk.take() {
            Some((base, log))
                if !every_chunk && (log + frame) * 100 <= base * COMPACT_AT_PERCENT =>
            {
                let append = self.journal.append_delta(gen, &doc, fresh);
                let frame = append.map_err(|e| format!("journal append (gen {gen}): {e}"))?;
                (base, log + frame)
            }
            _ => {
                let compact = self.journal.mark_published_with_crc(gen, &doc, crc);
                let base = compact.map_err(|e| format!("journal compaction (gen {gen}): {e}"))?;
                (base, 0)
            }
        });
        Ok(())
    }
}

/// The scan→serve control loop. Single-threaded like the [`Oracle`] it
/// owns; hand [`Pipeline::reader`]s to concurrent consumers.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    /// Accumulated dataset: every pair any delta ever carried, the
    /// shard status tags of the most recent one, and the coverage rows
    /// as judged at the last publish — exactly what
    /// [`ting::Supervisor::merge`] would hand back, folded into,
    /// rendered and served through its own methods.
    dataset: MergeOutcome,
    /// Cells, in index space, folded into `dataset` since the served
    /// snapshot was built: the slots the next serve rewrites in a copy
    /// of it. `None` when that serve builds the snapshot whole instead:
    /// the served one is the bootstrap, with no instant table to patch,
    /// or a journal append was refused since it was served.
    unserved: Option<Vec<(u32, u32)>>,
    /// The journal and the document it is written from; `None` in a
    /// volatile pipeline, which renders nothing.
    durable: Option<Durable>,
    oracle: Oracle,
    queue: VecDeque<MergeDelta>,
    /// Pairs folded into `dataset` since the last sealed generation;
    /// `Some` while it holds folds no sealed generation carries (a
    /// refused journal append leaves them for the next tick).
    unsealed: Option<u64>,
    last_publish: Option<SimTime>,
    /// Highest delta sequence folded into the served generation —
    /// stamped on the publish trace so a lineage walk can tie a pair's
    /// drain back to the generation that first served it.
    last_seq: u64,
    slo: Option<LiveSlo>,
    obs: Obs,
    metrics: Metrics,
}

impl Pipeline {
    /// A pipeline without observability or a journal (volatile mode —
    /// tests and in-process consumers that don't need crash safety; it
    /// renders no document).
    pub fn new(nodes: Vec<NodeId>, shards: usize, config: PipelineConfig) -> Pipeline {
        Pipeline::with_obs(nodes, shards, config, Obs::off(), None)
    }

    /// The fully wired constructor. `shards` must match the supervisor
    /// feeding this pipeline; `journal`, when given, makes every
    /// publish crash-consistent. Serving starts `Degraded` on an empty
    /// bootstrap generation — there is no data to certify yet.
    pub fn with_obs(
        nodes: Vec<NodeId>,
        shards: usize,
        config: PipelineConfig,
        obs: Obs,
        journal: Option<Journal>,
    ) -> Pipeline {
        assert!(config.queue_cap >= 1, "queue capacity must be positive");
        let dataset = MergeOutcome::new(nodes, shards);
        let durable = journal.map(|journal| Durable::new(journal, &dataset));
        let oracle = Oracle::with_obs(Snapshot::from_matrix(&dataset.matrix), obs.clone());
        // No timestamps, no age to certify: the ladder says `Degraded`.
        let bootstrap = config.ttl.judgment(None, 0);
        oracle.judge(bootstrap);
        let metrics = Metrics::new(&obs);
        obs.set_gauge("oracle.stale.state", bootstrap.state.gauge());
        obs.set_gauge("oracle.pipeline.generation", 1);
        let slo = config.slo.map(|c| c.live(&obs));
        Pipeline {
            config,
            dataset,
            unserved: None,
            durable,
            oracle,
            queue: VecDeque::new(),
            unsealed: None,
            last_publish: None,
            last_seq: 0,
            slo,
            obs,
            metrics,
        }
    }

    /// Reopens a journaled pipeline after a kill: replays the journal
    /// directory, republishes exactly the last sealed generation (a
    /// pending whole record when the kill landed between its seal and
    /// swap, else the base with its `@delta` frames spliced in),
    /// rebuilds the accumulated dataset from it, and re-judges serving
    /// at `now`. Its first publish compacts: the row text is new.
    /// Returns what recovery found so harnesses can assert on the crash
    /// window they injected.
    pub fn recover(
        nodes: Vec<NodeId>,
        shards: usize,
        config: PipelineConfig,
        obs: Obs,
        journal: Journal,
        now: SimTime,
    ) -> Result<(Pipeline, Recovered), String> {
        let recovered = journal.recover()?;
        let mut p = Pipeline::with_obs(nodes, shards, config, obs, Some(journal));
        let bootstrap = p.state();
        if let Some(&(gen, ref doc)) = recovered.serve() {
            // No publish writes the bootstrap generation or leaves the
            // next one without a number, whatever a sealed file says.
            if !(2..u64::MAX).contains(&gen) {
                let file = match recovered.pending {
                    Some(_) => JOURNAL_FILE,
                    None => PUBLISHED_FILE,
                };
                return Err(format!("{file}: generation {gen} is outside 2..u64::MAX"));
            }
            let parsed = parse_merged_document(doc)?;
            if parsed.matrix.nodes() != p.dataset.matrix.nodes() {
                return Err("recovered generation's node list differs from the pipeline's".into());
            }
            if parsed.shards.len() != shards {
                return Err(format!(
                    "recovered generation has {} shards, pipeline expects {shards}",
                    parsed.shards.len()
                ));
            }
            p.dataset = MergeOutcome::from(parsed);
            p.last_publish = Some(p.dataset.now);
            p.serve(gen, now);
            // A pending record sealed but never swapped: finish its
            // interrupted publish so the directory converges.
            if let (Some(_), Some(durable)) = (&recovered.pending, &p.durable) {
                durable
                    .journal
                    .mark_published(gen, doc)
                    .map_err(|e| format!("completing interrupted publish: {e}"))?;
            }
            p.obs
                .event(names::ORACLE_PIPELINE_RECOVER, now.as_nanos(), || {
                    vec![
                        ("generation", Value::U64(gen)),
                        ("pending", Value::U64(recovered.pending.is_some() as u64)),
                        ("torn_tail", Value::U64(recovered.torn_tail as u64)),
                    ]
                });
        }
        p.rejudge(now, bootstrap);
        Ok((p, recovered))
    }

    /// Accepts a delta from the scan side. Never blocks and never
    /// refuses: past `queue_cap` the two oldest queued deltas coalesce
    /// into one (later pairs win collisions — application order is
    /// preserved), trading publish granularity for bounded memory so a
    /// supervisor outrunning the publisher is slowed by nothing. A
    /// malformed delta is refused by the `tick` that reaches it, whole:
    /// one that overflowed `queue_cap` takes the neighbour it was
    /// coalesced into with it.
    pub fn offer(&mut self, delta: MergeDelta) {
        self.metrics.deltas.inc();
        if let Some(slo) = &mut self.slo {
            let live = delta.statuses.iter().filter(|s| **s == "live").count() as u64;
            let total = delta.statuses.len() as u64;
            slo.engine
                .observe(SLO_SHARD_PROGRESS, delta.now.as_nanos(), live, total - live);
        }
        self.obs
            .event(names::ORACLE_PIPELINE_DELTA, delta.now.as_nanos(), || {
                vec![
                    ("seq", Value::U64(delta.seq)),
                    ("pairs", Value::U64(delta.pairs.len() as u64)),
                ]
            });
        self.queue.push_back(delta);
        if self.queue.len() > self.config.queue_cap {
            match (self.queue.pop_front(), self.queue.front_mut()) {
                (Some(oldest), Some(into)) => {
                    let mut pairs = oldest.pairs;
                    pairs.append(&mut into.pairs);
                    into.pairs = pairs;
                    self.metrics.coalesced.inc();
                    self.obs
                        .event(names::ORACLE_PIPELINE_COALESCE, into.now.as_nanos(), || {
                            vec![
                                ("from_seq", Value::U64(oldest.seq)),
                                ("into_seq", Value::U64(into.seq)),
                                ("pairs", Value::U64(into.pairs.len() as u64)),
                            ]
                        });
                }
                // `queue_cap >= 1`, so a queue over capacity holds a
                // second delta; without one nothing is dropped.
                (Some(only), None) => self.queue.push_front(only),
                (None, _) => {}
            }
        }
        self.obs
            .set_gauge("oracle.pipeline.queue_depth", self.queue.len() as i64);
    }

    /// One control-loop turn at virtual instant `now`: publishes a new
    /// generation when the queue has data, or the dataset holds folds a
    /// refused journal append left unsealed, and the publish interval
    /// has elapsed, then re-judges the TTL ladder (which moves even when
    /// nothing publishes — expiry is a function of time, not traffic)
    /// and folds what readers refused and flagged since the last turn
    /// into `oracle.stale.{refused, served_stale}`.
    /// Returns the generation published this turn, if any. `Err` is a
    /// journal write failure, or a queued delta the dataset does not
    /// admit ([`MergeOutcome::admits`]): that delta is discarded,
    /// nothing else moves, and the next `tick` proceeds.
    pub fn tick(&mut self, now: SimTime) -> Result<Option<u64>, String> {
        let due = self
            .last_publish
            .is_none_or(|at| now.since(at) >= self.config.publish_interval);
        let before = self.state();
        let published = if (!self.queue.is_empty() || self.unsealed.is_some()) && due {
            Some(self.publish_queued(now)?)
        } else {
            None
        };
        self.rejudge(now, before);
        let (refused, served_stale) = self.oracle.take_stale_counts();
        self.metrics.refused.add(refused);
        self.metrics.served_stale.add(served_stale);
        if let Some(slo) = &mut self.slo {
            slo.engine.evaluate(now.as_nanos());
        }
        Ok(published)
    }

    /// Drains the queue into the accumulated dataset and pushes one
    /// generation, carrying every fold not yet sealed, through journal
    /// and swap cell.
    fn publish_queued(&mut self, now: SimTime) -> Result<u64, String> {
        let next = self
            .generation()
            .checked_add(1)
            .ok_or("generation counter exhausted; nothing published")?;
        // Every queued delta is asked before anything folds or a span
        // opens: a refusal leaves dataset, journal and trace alone, and
        // no fold below can fail.
        let mut queued = self.queue.iter().enumerate();
        let refused = queued.find_map(|(at, d)| Some((at, d.seq, self.dataset.admits(d).err()?)));
        if let Some((at, seq, why)) = refused {
            self.queue.remove(at);
            self.obs
                .set_gauge("oracle.pipeline.queue_depth", self.queue.len() as i64);
            return Err(format!("delta seq {seq} {why}; delta discarded"));
        }
        let span =
            self.obs
                .span_begin(names::ORACLE_PIPELINE_PUBLISH_BEGIN, now.as_nanos(), || {
                    vec![("queued", Value::U64(self.queue.len() as u64))]
                });
        let mut batch_pairs = self.unsealed.unwrap_or(0);
        while let Some(delta) = self.queue.pop_front() {
            batch_pairs += delta.pairs.len() as u64;
            if let Some(slo) = &mut self.slo {
                // One observation per delta: did it reach a served
                // generation within its offer→publish budget?
                let waited = now.as_nanos().saturating_sub(delta.now.as_nanos());
                let on_time = waited <= slo.latency_budget.as_nanos();
                slo.engine.observe(
                    SLO_PUBLISH_LATENCY,
                    now.as_nanos(),
                    on_time as u64,
                    !on_time as u64,
                );
            }
            self.last_seq = self.last_seq.max(delta.seq);
            let (durable, unserved) = (&mut self.durable, &mut self.unserved);
            let _ = self.dataset.fold(delta, |i, j| {
                if let Some(durable) = durable {
                    durable.rows.mark(i, j);
                }
                if let Some(folded) = unserved {
                    folded.push((i, j));
                }
            });
        }
        self.unsealed = Some(batch_pairs);
        self.obs.set_gauge("oracle.pipeline.queue_depth", 0);

        self.dataset.judge_coverage(now, self.config.staleness);
        if let Some(slo) = &mut self.slo {
            let rows = &self.dataset.shards;
            let covered: u64 = rows.iter().map(|row| row.covered as u64).sum();
            let uncovered: u64 = rows.iter().map(|row| row.uncovered as u64).sum();
            slo.engine
                .observe(SLO_COVERAGE, now.as_nanos(), covered, uncovered);
        }
        if let Some(durable) = &mut self.durable {
            // A refused write leaves the folds unsealed for the next
            // tick; its serve builds the snapshot whole, so no list
            // outlives a tick.
            let written = durable.write(&self.dataset, next);
            written.inspect_err(|_| self.unserved = None)?;
        }
        self.unsealed = None;
        self.serve(next, now);
        self.last_publish = Some(now);
        self.metrics.published.inc();
        self.metrics.batch_pairs.record_us(batch_pairs);
        self.obs.span_end(
            names::ORACLE_PIPELINE_PUBLISH_END,
            span,
            now.as_nanos(),
            || {
                vec![
                    ("generation", Value::U64(next)),
                    ("batch_pairs", Value::U64(batch_pairs)),
                    ("last_seq", Value::U64(self.last_seq)),
                ]
            },
        );
        Ok(next)
    }

    /// The one tail `tick` and `recover` end in: the dataset in hand
    /// is swapped in as generation `gen` under its TTL judgment at `now`.
    /// The snapshot is the served one with the pairs folded since
    /// rewritten ([`Snapshot::patched`]), or built whole from the dataset
    /// when no list of them was kept (see `Pipeline::unserved`).
    fn serve(&mut self, gen: u64, now: SimTime) {
        let now_ns = now.as_nanos();
        // Taken, not cleared: a bulk fold's list keeps no capacity.
        let folded = self.unserved.replace(Vec::new());
        let served = self.oracle.snapshot();
        let patched = folded.and_then(|folded| served.patched(&self.dataset, &folded));
        let snapshot = patched.unwrap_or_else(|| Snapshot::from_merged(&self.dataset));
        let verdict = self.config.ttl.judgment(snapshot.freshness_ns(), now_ns);
        self.oracle
            .publish_judged(snapshot, gen, Some(now_ns), verdict);
        self.obs.set_gauge("oracle.pipeline.generation", gen as i64);
    }

    /// Re-judges the served generation at `now`, seats the verdict in
    /// the swap cell and traces the move, if any, away from `before`,
    /// the state this turn began in.
    fn rejudge(&mut self, now: SimTime, before: ServingState) {
        let freshness = self.oracle.snapshot().freshness_ns();
        let verdict = self.config.ttl.judgment(freshness, now.as_nanos());
        self.oracle.judge(verdict);
        let next = verdict.state;
        if let Some(slo) = &mut self.slo {
            // Every judgment burns the staleness budget when it lands
            // anywhere below `Fresh` on the ladder.
            let fresh = next == ServingState::Fresh;
            slo.engine
                .observe(SLO_STALENESS, now.as_nanos(), fresh as u64, !fresh as u64);
        }
        if next != before {
            self.obs
                .event(names::ORACLE_STALE_TRANSITION, now.as_nanos(), || {
                    vec![
                        ("from", Value::Str(before.tag().to_owned())),
                        ("to", Value::Str(next.tag().to_owned())),
                        ("age_ns", Value::U64(verdict.age_ns.unwrap_or(u64::MAX))),
                    ]
                });
            self.obs.set_gauge("oracle.stale.state", next.gauge());
        }
    }

    /// Current serving state on the TTL ladder.
    pub fn state(&self) -> ServingState {
        self.oracle.judgment().state
    }

    /// Current generation: the oracle version, which every publish
    /// keeps equal to the journal's record number — that lockstep is
    /// what makes recovery unambiguous.
    pub fn generation(&self) -> u64 {
        self.oracle.version()
    }

    /// Deltas currently queued for the next publish.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The served generation's sealed document, as judged at its own
    /// publish instant — what the chaos harness compares bit-for-bit
    /// across kill/resume boundaries. After a refused journal append it
    /// is the dataset the next `tick` will seal, already holding the
    /// folds the served generation does not carry yet.
    pub fn serving_document(&self) -> String {
        self.dataset.to_document()
    }

    /// The served front: a `Send + Sync` handle on the swap cell that
    /// answers under the judgment this pipeline keeps there.
    pub fn reader(&self) -> OracleReader {
        self.oracle.reader()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::QueryError;

    use obs::Lineage;
    use ting::checkpoint;
    use ting::shard::DeltaPair;

    fn delta(seq: u64, pairs: Vec<(NodeId, NodeId, f64, SimTime)>, now: u64) -> MergeDelta {
        MergeDelta {
            seq,
            pairs: pairs
                .into_iter()
                .map(|(a, b, rtt_ms, measured_at)| DeltaPair {
                    a,
                    b,
                    rtt_ms,
                    measured_at,
                    lineage: Lineage {
                        shard: 0,
                        round: seq,
                    },
                })
                .collect(),
            statuses: vec!["live"],
            now: SimTime(now),
        }
    }

    fn config() -> PipelineConfig {
        PipelineConfig {
            queue_cap: 4,
            publish_interval: SimDuration(0),
            staleness: SimDuration::from_hours(24),
            ttl: TtlPolicy::new(SimDuration::from_secs(60), SimDuration::from_secs(600)).unwrap(),
            slo: None,
        }
    }

    fn slo_config() -> SloConfig {
        SloConfig {
            bucket: SimDuration::from_secs(60),
            buckets: 10,
            coverage_objective_ppm: 500_000,
            progress_objective_ppm: 990_000,
            latency_budget: SimDuration::from_secs(30),
            latency_objective_ppm: 990_000,
            staleness_objective_ppm: 990_000,
        }
    }

    fn nodes() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    /// A pipeline whose trace records the SLO gauges and breach spans.
    fn traced(nodes: Vec<NodeId>, config: PipelineConfig) -> (Pipeline, Obs) {
        let obs = Obs::new(obs::ObsConfig::Trace);
        (Pipeline::with_obs(nodes, 1, config, obs.clone(), None), obs)
    }

    /// One SLO's windowed totals as of the last `tick`.
    struct Totals {
        good: u64,
        bad: u64,
        breaching: bool,
    }

    /// One live SLO's totals as the trace shows them: its
    /// `slo.{name}.good` / `.bad` gauges, and whether a breach span for
    /// it is open. `None` for a name no gauge carries.
    fn slo_totals(obs: &Obs, name: &str) -> Option<Totals> {
        let doc = obs.document(&obs::ExportMeta {
            seed: 0,
            config_hash: 0,
        });
        let gauge = |family: &str| {
            let key = format!("slo.{name}.{family}");
            let (_, value) = doc.gauges.iter().find(|(k, _)| *k == key)?;
            u64::try_from(*value).ok()
        };
        let open: i64 = doc
            .events
            .iter()
            .filter(|e| e.field_str("slo") == Some(name))
            .map(|e| match e.name.as_str() {
                names::SLO_BREACH_BEGIN => 1,
                names::SLO_BREACH_END => -1,
                _ => 0,
            })
            .sum();
        Some(Totals {
            good: gauge("good")?,
            bad: gauge("bad")?,
            breaching: open > 0,
        })
    }

    #[test]
    fn bootstrap_is_degraded_until_first_publish() {
        let mut p = Pipeline::new(nodes(), 1, config());
        assert_eq!(p.state(), ServingState::Degraded);
        assert_eq!(p.generation(), 1);
        assert!(matches!(
            p.reader().k_nearest(NodeId(0), 2),
            Err(QueryError::Degraded { .. })
        ));
        // Point lookups still serve, with the warning attached.
        let g = p.reader().point(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.state, ServingState::Degraded);
        assert_eq!(g.answer.rtt_ms, None);

        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(5))], 10));
        let published = p.tick(SimTime(10)).unwrap();
        assert_eq!(published, Some(2));
        assert_eq!(p.state(), ServingState::Fresh);
        let g = p.reader().point(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.answer.rtt_ms, Some(7.0));
        assert_eq!(g.state, ServingState::Fresh);
        assert!(p.reader().k_nearest(NodeId(0), 2).is_ok());
    }

    #[test]
    fn ttl_ladder_descends_in_virtual_time_and_recovers_on_publish() {
        let mut p = Pipeline::new(nodes(), 1, config());
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(0))], 0));
        p.tick(SimTime(0)).unwrap();
        assert_eq!(p.state(), ServingState::Fresh);

        let soft = SimDuration::from_secs(60).as_nanos();
        let hard = SimDuration::from_secs(600).as_nanos();
        p.tick(SimTime(soft)).unwrap();
        assert_eq!(p.state(), ServingState::Stale);
        let g = p.reader().point(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.state, ServingState::Stale, "stale answers are flagged");
        assert!(
            p.reader().best_via(NodeId(0), NodeId(1)).is_ok(),
            "stale still ranks"
        );

        p.tick(SimTime(hard)).unwrap();
        assert_eq!(p.state(), ServingState::Degraded);
        let err = p.reader().best_via(NodeId(0), NodeId(1)).unwrap_err();
        assert_eq!(
            err,
            QueryError::Degraded {
                age_ns: Some(hard),
                hard_ttl_ns: hard
            }
        );
        assert!(
            p.reader().point(NodeId(0), NodeId(1)).is_ok(),
            "points serve-with-warning"
        );

        // Fresh data recovers serving on the next publish.
        p.offer(delta(
            2,
            vec![(NodeId(0), NodeId(2), 3.0, SimTime(hard))],
            hard,
        ));
        p.tick(SimTime(hard)).unwrap();
        assert_eq!(p.state(), ServingState::Fresh);
    }

    #[test]
    fn republishing_old_data_does_not_reset_the_clock() {
        let mut p = Pipeline::new(nodes(), 1, config());
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(0))], 0));
        p.tick(SimTime(0)).unwrap();
        let hard = SimDuration::from_secs(600).as_nanos();
        // A status-only delta republishes the same pairs at `hard`.
        p.offer(delta(2, vec![], hard));
        p.tick(SimTime(hard)).unwrap();
        assert_eq!(
            p.state(),
            ServingState::Degraded,
            "freshness follows the data, not the publish instant"
        );
    }

    #[test]
    fn overflow_coalesces_oldest_and_preserves_replay_order() {
        let obs = Obs::new(obs::ObsConfig::Metrics);
        let mut cfg = config();
        cfg.queue_cap = 2;
        let mut p = Pipeline::with_obs(nodes(), 1, cfg, obs.clone(), None);
        // Same pair three times: the last write must win after
        // coalescing, or replay order broke.
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 1.0, SimTime(1))], 1));
        p.offer(delta(2, vec![(NodeId(0), NodeId(1), 2.0, SimTime(2))], 2));
        p.offer(delta(3, vec![(NodeId(0), NodeId(1), 3.0, SimTime(3))], 3));
        assert_eq!(p.queue_depth(), 2, "overflow folded the two oldest");
        assert_eq!(obs.counter_value("oracle.pipeline.coalesced"), 1);
        p.tick(SimTime(3)).unwrap();
        let g = p.reader().point(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.answer.rtt_ms, Some(3.0));
        assert_eq!(g.answer.measured_at_ns, Some(3));
    }

    #[test]
    fn batch_pairs_histogram_counts_pairs_folded_per_generation() {
        let obs = Obs::new(obs::ObsConfig::Metrics);
        let mut cfg = config();
        cfg.queue_cap = 2;
        let mut p = Pipeline::with_obs(nodes(), 1, cfg, obs.clone(), None);
        let sized = |seq: u64, pairs: usize| {
            let pair = (NodeId(0), NodeId(1), seq as f64, SimTime(seq));
            delta(seq, vec![pair; pairs], seq)
        };
        p.offer(sized(1, 1));
        assert_eq!(p.tick(SimTime(1)).unwrap(), Some(2));
        // Three offers against a cap of two: 2 + 1 coalesce, and the
        // tick folds both queued deltas (3 + 3 pairs) into one generation.
        p.offer(sized(2, 2));
        p.offer(sized(3, 1));
        p.offer(sized(4, 3));
        assert_eq!(p.tick(SimTime(4)).unwrap(), Some(3));
        p.offer(sized(5, 2));
        assert_eq!(p.tick(SimTime(5)).unwrap(), Some(4));

        let meta = obs::ExportMeta {
            seed: 0,
            config_hash: 0,
        };
        let doc = obs.document(&meta);
        let h = doc
            .hists
            .iter()
            .find(|h| h.name == "oracle.pipeline.batch_pairs");
        let h = h.unwrap();
        assert_eq!(h.count, obs.counter_value("oracle.pipeline.published"));
        let s = h.summary.unwrap();
        assert_eq!((h.count, s.min, s.max), (3, 1, 6));
        assert_eq!(s.p50, 2, "the batches were 1, 6, 2");
        assert_eq!(obs.counter_value("oracle.pipeline.deltas"), 5);
        assert_eq!(obs.counter_value("oracle.pipeline.coalesced"), 1);
    }

    #[test]
    fn wrong_status_count_is_an_error_and_only_that_delta_is_lost() {
        let dir = std::env::temp_dir().join(format!("ting-pipeline-tags-{}", std::process::id()));
        let served = |p: &Pipeline, b| {
            p.reader()
                .point(NodeId(0), NodeId(b))
                .unwrap()
                .answer
                .rtt_ms
        };
        // Every file of the journal directory, by name.
        let on_disk = || {
            let files = std::fs::read_dir(&dir).unwrap().map(|f| f.unwrap().path());
            let mut files: Vec<_> = files
                .map(|f| (f.clone(), std::fs::read(f).unwrap()))
                .collect();
            files.sort();
            files
        };
        // The bad delta's status tags, pair and RTT, and what the
        // refusal says of it.
        let malformed = [
            (0, (0, 1), 9.0, "0 shard statuses, pipeline has 1 shards"),
            (2, (0, 1), 9.0, "2 shard statuses, pipeline has 1 shards"),
            (1, (0, 9), 9.0, "pair (0, 9): unknown node 9"),
            (1, (1, 1), 9.0, "pair (1, 1): pair of a node with itself"),
            (1, (0, 1), f64::NAN, "pair (0, 1): non-finite RTT NaN"),
        ];
        let cases = malformed.iter().flat_map(|bad| [(false, bad), (true, bad)]);
        for (journaled, &(tags, (a, b), rtt_ms, reason)) in cases {
            let _ = std::fs::remove_dir_all(&dir);
            let journal = journaled.then(|| Journal::open(&dir).unwrap());
            let mut p = Pipeline::with_obs(nodes(), 1, config(), Obs::off(), journal.clone());
            p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(5))], 10));
            assert_eq!(p.tick(SimTime(10)).unwrap(), Some(2));
            let document = p.serving_document();
            let journal_bytes = journaled.then(on_disk);

            p.offer(delta(2, vec![(NodeId(0), NodeId(2), 3.0, SimTime(11))], 12));
            let mut bad = delta(3, vec![(NodeId(a), NodeId(b), rtt_ms, SimTime(12))], 13);
            bad.statuses = vec!["live"; tags];
            p.offer(bad);
            let err = p.tick(SimTime(13)).unwrap_err();
            let carries = format!("delta seq 3 carries {reason}; delta discarded");
            assert_eq!(err, carries);
            assert_eq!((p.generation(), p.queue_depth()), (2, 1));
            assert_eq!(p.serving_document(), document, "dataset untouched");
            assert_eq!(served(&p, 1), Some(7.0), "served generation untouched");
            if let Some(j) = &journal {
                assert_eq!(
                    Some(on_disk()),
                    journal_bytes,
                    "journal directory untouched"
                );
                let on_disk = j.recover().unwrap();
                assert_eq!(on_disk.serve().map(|(gen, _)| *gen), Some(2));
                assert!(on_disk.pending.is_none());
            }

            assert_eq!(p.tick(SimTime(13)).unwrap(), Some(3), "next tick proceeds");
            assert_eq!((served(&p, 1), served(&p, 2)), (Some(7.0), Some(3.0)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A refused write — a frame's append or a compaction — publishes
    /// nothing; the next tick compacts, sealing and serving the folds
    /// though nothing new was offered, and the frames after it land on
    /// that base.
    #[test]
    fn a_refused_journal_write_is_published_by_the_next_tick() {
        let dir = std::env::temp_dir().join(format!("ting-pipeline-append-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).unwrap();
        // 20 nodes: 210 pair slots, seven chunks; (0, b) lies in chunk
        // 0, and the pairs (i, i + 1) lie in every chunk.
        let nodes: Vec<NodeId> = (0..20).map(NodeId).collect();
        let all = nodes
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| nodes[i + 1..].iter().map(move |&b| (a, b, 7.0, SimTime(5))));
        let all = all.collect();
        let mut p = Pipeline::with_obs(nodes, 1, config(), Obs::off(), Some(journal.clone()));
        let served = |p: &Pipeline, a, b| {
            p.reader()
                .point(NodeId(a), NodeId(b))
                .unwrap()
                .answer
                .rtt_ms
        };
        let log = journal.journal_path();
        let log_len = || std::fs::metadata(&log).unwrap().len();
        p.offer(delta(1, all, 10));
        assert_eq!(p.tick(SimTime(10)).unwrap(), Some(2));
        assert_eq!(log_len(), 0, "the first publish compacts");

        // A directory where the log belongs: each write is refused.
        let cases = [
            (vec![(0, 2)], "journal append"),
            (
                (0..19).map(|i| (i, i + 1)).chain([(0, 3)]).collect(),
                "journal compaction",
            ),
        ];
        for (seq, (pairs, refusal)) in (2..).zip(cases) {
            let at = 10 * seq;
            let pairs = pairs
                .iter()
                .map(|&(a, b)| (NodeId(a), NodeId(b), 3.0, SimTime(at)));
            p.offer(delta(seq, pairs.collect(), at));
            std::fs::remove_file(&log).unwrap();
            std::fs::create_dir(&log).unwrap();
            let gen = p.generation();
            let err = p.tick(SimTime(at)).unwrap_err();
            let refusal = format!("{refusal} (gen {}): ", gen + 1);
            assert!(err.starts_with(&refusal), "{err}");
            assert_eq!((p.queue_depth(), served(&p, 0, seq as u32)), (0, Some(7.0)));
            let row = format!("m\t0\t{seq}\t3\t{at}\t0\t{seq}\n");
            assert!(p.serving_document().contains(&row));

            // The disk is back: the next tick compacts.
            std::fs::remove_dir(&log).unwrap();
            assert_eq!(p.tick(SimTime(at + 1)).unwrap(), Some(gen + 1));
            assert_eq!(served(&p, 0, seq as u32), Some(3.0));
            assert_eq!(log_len(), 0, "a publish after a refusal compacts");
            let recovered = journal.recover().unwrap();
            assert_eq!(recovered.serve(), Some(&(gen + 1, p.serving_document())));
            assert_eq!(
                p.tick(SimTime(at + 2)).unwrap(),
                None,
                "nothing left unsealed"
            );

            // And the next publish is a frame on that base.
            p.offer(delta(
                seq,
                vec![(NodeId(0), NodeId(8), 1.0, SimTime(at + 3))],
                at + 3,
            ));
            assert_eq!(p.tick(SimTime(at + 3)).unwrap(), Some(gen + 2));
            assert!(log_len() > 0, "a frame");
            let recovered = journal.recover().unwrap();
            assert_eq!(recovered.serve(), Some(&(gen + 2, p.serving_document())));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A publish that does not compact fsyncs once, the frame it
    /// appends; a compaction three times: the base's tmp file, the
    /// directory after the rename, the emptied log. The first publish
    /// compacts, then one-pair and status-only publishes append frames
    /// until the log would pass its share of the base.
    #[test]
    fn a_frame_publish_fsyncs_once_and_a_compaction_three_times() {
        use crate::journal::tests::fsyncs;
        let dir = std::env::temp_dir().join(format!("ting-pipeline-fsyncs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).unwrap();
        let nodes: Vec<NodeId> = (0..40).map(NodeId).collect();
        let all = nodes
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| nodes[i + 1..].iter().map(move |&b| (a, b, 7.0, SimTime(5))));
        let mut all = Some(all.collect());
        let mut p = Pipeline::with_obs(nodes, 1, config(), Obs::off(), Some(journal.clone()));
        let (mut frames, mut compactions) = (0, 0);
        for seq in 1..=40u64 {
            let pairs = match seq {
                1 => all.take().unwrap(),
                _ if seq % 5 == 0 => vec![],
                _ => vec![(NodeId(0), NodeId(seq as u32 % 40), 2.0, SimTime(seq))],
            };
            p.offer(delta(seq, pairs, seq));
            let before = fsyncs();
            assert_eq!(p.tick(SimTime(seq)).unwrap(), Some(seq + 1));
            let synced = fsyncs() - before;
            let log = std::fs::metadata(journal.journal_path()).unwrap().len();
            match log {
                0 => compactions += 1,
                _ => frames += 1,
            }
            let want = if log == 0 { 3 } else { 1 };
            assert_eq!(synced, want, "publish {seq}, log of {log} bytes");
        }
        assert!(
            frames >= 30 && compactions >= 3,
            "{frames} frames, {compactions} compactions"
        );
        let recovered = journal.recover().unwrap();
        assert_eq!(recovered.serve(), Some(&(41, p.serving_document())));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serving_document_is_the_stored_outcome_until_the_next_publish() {
        let mut cfg = config();
        cfg.publish_interval = SimDuration::from_secs(10);
        let mut p = Pipeline::new(nodes(), 2, cfg);
        let to = |seq, b, at| MergeDelta {
            statuses: vec!["live", "restarting"],
            ..delta(seq, vec![(NodeId(0), NodeId(b), 7.0, SimTime(at))], at)
        };
        let bootstrap = p.serving_document();
        let rows = "# now_ns: 0\ns\t0\tlive\t2\t0\t0\t2\t-\t-\ns\t1\tlive\t1\t0\t0\t1\t-\t-\n";
        assert!(bootstrap.contains(rows), "{bootstrap}");
        p.offer(to(1, 1, 5));
        assert_eq!(p.serving_document(), bootstrap, "offered, not yet ticked");
        assert_eq!(p.tick(SimTime(5)).unwrap(), Some(2));
        let served = p.serving_document();
        let rows =
            "# now_ns: 5\ns\t0\tlive\t2\t1\t0\t1\t5\t5\ns\t1\trestarting\t1\t0\t0\t1\t-\t-\n";
        assert!(served.contains(rows), "{served}");
        p.offer(to(2, 2, 6));
        assert_eq!(p.tick(SimTime(6)).unwrap(), None, "interval not elapsed");
        assert_eq!(p.serving_document(), served, "ticked, nothing published");
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_are_refused_at_construction() {
        Pipeline::new(nodes(), 0, config());
    }

    #[test]
    fn publish_interval_batches_deltas() {
        let mut cfg = config();
        cfg.publish_interval = SimDuration::from_secs(10);
        let mut p = Pipeline::new(nodes(), 1, cfg);
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 1.0, SimTime(1))], 1));
        assert_eq!(
            p.tick(SimTime(1)).unwrap(),
            Some(2),
            "first publish is free"
        );
        p.offer(delta(2, vec![(NodeId(0), NodeId(2), 2.0, SimTime(2))], 2));
        assert_eq!(p.tick(SimTime(2)).unwrap(), None, "interval not elapsed");
        assert_eq!(p.queue_depth(), 1);
        let later = SimTime(1 + SimDuration::from_secs(10).as_nanos());
        assert_eq!(p.tick(later).unwrap(), Some(3));
        assert_eq!(p.queue_depth(), 0);
    }

    #[test]
    fn slo_engine_tracks_latency_coverage_and_staleness() {
        let mut cfg = config();
        cfg.slo = Some(slo_config());
        let (mut p, obs) = traced(nodes(), cfg);
        assert!(slo_totals(&obs, "nonsense").is_none());
        // One delta drained the instant it was offered: within budget.
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(5))], 10));
        p.tick(SimTime(10)).unwrap();
        let lat = slo_totals(&obs, SLO_PUBLISH_LATENCY).unwrap();
        assert_eq!((lat.good, lat.bad), (1, 0));
        assert!(!lat.breaching);
        let prog = slo_totals(&obs, SLO_SHARD_PROGRESS).unwrap();
        assert_eq!((prog.good, prog.bad), (1, 0));
        // 1 of 3 owned pairs measured: a 50% coverage objective with a
        // 2/3 bad fraction is burning beyond its budget.
        let cov = slo_totals(&obs, SLO_COVERAGE).unwrap();
        assert_eq!((cov.good, cov.bad), (1, 2));
        assert!(cov.breaching);
        // The single TTL judgment landed Fresh.
        let st = slo_totals(&obs, SLO_STALENESS).unwrap();
        assert_eq!((st.good, st.bad), (1, 0));
        assert!(!st.breaching);
    }

    #[test]
    fn staleness_slo_burns_while_serving_degraded() {
        let mut cfg = config();
        cfg.slo = Some(slo_config());
        let (mut p, obs) = traced(nodes(), cfg);
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(0))], 0));
        p.tick(SimTime(0)).unwrap();
        assert!(!slo_totals(&obs, SLO_STALENESS).unwrap().breaching);
        // By the hard TTL the window has slid past the healthy epoch:
        // the judgment at `hard` lands Degraded and burns the budget.
        let hard = SimDuration::from_secs(600).as_nanos();
        p.tick(SimTime(hard)).unwrap();
        assert_eq!(p.state(), ServingState::Degraded);
        let st = slo_totals(&obs, SLO_STALENESS).unwrap();
        assert_eq!((st.good, st.bad), (0, 1));
        assert!(st.breaching);
    }

    #[test]
    fn lineage_flows_from_delta_to_served_answer() {
        let mut p = Pipeline::new(nodes(), 1, config());
        p.offer(delta(4, vec![(NodeId(0), NodeId(1), 7.0, SimTime(5))], 10));
        p.tick(SimTime(10)).unwrap();
        let origin = p
            .reader()
            .point(NodeId(0), NodeId(1))
            .unwrap()
            .answer
            .origin
            .unwrap();
        // The test helper stamps `round = seq`; the pair was first
        // served by generation 2 (bootstrap is generation 1).
        assert_eq!((origin.shard, origin.round, origin.generation), (0, 4, 2));
        // The document renders it, so recovery round-trips it too.
        assert!(p.serving_document().contains("\t0\t4\n"));
    }

    /// What a seeded history of the incremental path has reached: the
    /// properties below are only as good as the cases their seeds hit.
    #[derive(Debug, Default)]
    struct Reached {
        coalesced: u64,
        status_only: u64,
        refused_then_healthy: u64,
        reversed: u64,
        older: u64,
        recoveries: u64,
    }

    /// The row text of a journaled pipeline.
    fn rows(p: &Pipeline) -> &RowText {
        &p.durable.as_ref().expect("a journaled pipeline").rows
    }

    /// The served snapshot is the one built whole from the dataset, bit
    /// for bit.
    fn assert_served_is_whole(p: &Pipeline, at: &str) {
        let mut built = Snapshot::from_merged(&p.dataset);
        built.stamp_version(p.generation());
        assert!(
            p.oracle.snapshot().same_bits(&built),
            "{at}: served snapshot"
        );
    }

    /// After a publish, the cached render is the full render of the
    /// dataset, on disk and in memory, and the served snapshot is the
    /// one built whole from the dataset.
    fn assert_incremental_is_whole(p: &mut Pipeline, journal: &Journal, at: &str) {
        let whole = p.dataset.to_document();
        let on_disk = journal.recover().unwrap();
        assert_eq!(
            on_disk.serve(),
            Some(&(p.generation(), whole.clone())),
            "{at}"
        );
        let rows = &mut p.durable.as_mut().expect("a journaled pipeline").rows;
        rows.render(&p.dataset);
        assert_eq!(rows.fresh(), [], "{at}: a publish leaves no dirty chunk");
        let (parts, crc) = rows.document();
        assert_eq!(parts.concat(), whole, "{at}");
        assert_eq!(crc, checkpoint::crc32(whole.as_bytes()), "{at}");
        assert_served_is_whole(p, at);
    }

    /// The render and snapshot properties of the incremental publish:
    /// seeded histories of offers and ticks over ids out of index order —
    /// first measurements and re-measurements, pairs named `(b, a)`,
    /// re-measurements older than what they replace (the newest pair's
    /// included), bursts past `queue_cap` that coalesce, status-only
    /// deltas, a refused journal append followed by a healthy one, and
    /// recoveries — after every publish leave the cached document equal
    /// to the full render and the patched snapshot equal to
    /// `Snapshot::from_merged`, cell for cell and in its metadata, and
    /// the snapshot served before it as it was built. A journal-less
    /// pipeline fed the same offers and ticks (it refuses nothing and
    /// never recovers) keeps no row text, and publishes the same
    /// generation and document and a snapshot as patched as the whole
    /// one after every tick.
    #[test]
    fn the_incremental_publish_is_the_whole_one_after_any_history() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        const N: u32 = 11;
        let nodes: Vec<NodeId> = (0..N).map(|i| NodeId((i * 4) % N + 20)).collect();
        let mut cfg = config();
        cfg.queue_cap = 2;
        let mut reached = Reached::default();
        for seed in 0..6u64 {
            let dir = std::env::temp_dir().join(format!(
                "ting-pipeline-incremental-{seed}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let journal = Journal::open(&dir).unwrap();
            let mut p =
                Pipeline::with_obs(nodes.clone(), 1, cfg, Obs::off(), Some(journal.clone()));
            let mut volatile = Pipeline::new(nodes.clone(), 1, cfg);
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut seq, mut clock) = (0u64, 1_000u64);
            // The pair holding the newest instant, and that instant.
            let mut newest: Option<((NodeId, NodeId), u64)> = None;
            // The last served snapshot, and its dataset built whole.
            let mut held: Option<(std::sync::Arc<Snapshot>, Snapshot)> = None;
            for step in 0..80 {
                let at = format!("seed {seed}, step {step}");
                let offers = if rng.gen_bool(0.3) { 3 } else { 1 };
                for _ in 0..offers {
                    seq += 1;
                    clock += rng.gen_range(1..20u64);
                    let mut pairs = Vec::new();
                    if rng.gen_bool(0.85) {
                        for _ in 0..rng.gen_range(1..5usize) {
                            let i = rng.gen_range(0..N as usize);
                            let j = (i + rng.gen_range(1..N as usize)) % N as usize;
                            let (mut a, mut b) = (nodes[i], nodes[j]);
                            let mut t = clock;
                            if let Some((pair, t_max)) = newest.filter(|_| rng.gen_bool(0.15)) {
                                // The newest pair again, older than it was.
                                (a, b) = pair;
                                t = t_max - rng.gen_range(1..=t_max.min(500));
                                reached.older += 1;
                            } else if rng.gen_bool(0.2) {
                                t = clock.saturating_sub(rng.gen_range(1..400u64));
                                reached.older += 1;
                            }
                            if rng.gen_bool(0.5) {
                                (a, b) = (b, a);
                                reached.reversed += 1;
                            }
                            pairs.push((
                                a,
                                b,
                                f64::from(rng.gen_range(1..9_000u32)) / 8.0,
                                SimTime(t),
                            ));
                        }
                    } else {
                        reached.status_only += 1;
                    }
                    let d = delta(seq, pairs, clock);
                    volatile.offer(d.clone());
                    p.offer(d);
                }
                if offers > 1 {
                    reached.coalesced += 1;
                }
                let refuse = rng.gen_bool(0.1);
                let log = journal.journal_path();
                if refuse {
                    std::fs::remove_file(&log).unwrap();
                    std::fs::create_dir(&log).unwrap();
                    let err = p.tick(SimTime(clock)).unwrap_err();
                    let refused = ["journal append", "journal compaction"];
                    assert!(refused.iter().any(|r| err.starts_with(r)), "{at}: {err}");
                    // Its folds go to the next serve by a whole build.
                    assert!(p.unserved.is_none(), "{at}: list kept past a refusal");
                    std::fs::remove_dir(&log).unwrap();
                }
                let published = p.tick(SimTime(clock)).unwrap();
                assert!(published.is_some(), "{at}");
                assert_eq!(volatile.tick(SimTime(clock)).unwrap(), published, "{at}");
                assert!(
                    volatile.durable.is_none(),
                    "{at}: a row text without a journal"
                );
                assert_eq!(volatile.serving_document(), p.serving_document(), "{at}");
                assert_served_is_whole(&volatile, &format!("{at}, no journal"));
                reached.refused_then_healthy += refuse as u64;
                newest = p
                    .dataset
                    .rows()
                    .map(|(i, j, _, t, _)| {
                        (
                            (p.dataset.matrix.node(i), p.dataset.matrix.node(j)),
                            t.as_nanos(),
                        )
                    })
                    .max_by_key(|&(_, t)| t);
                assert_incremental_is_whole(&mut p, &journal, &at);
                // Folds after a serve never reach the snapshot it swapped
                // in: its matrix grid is shared until the dataset writes.
                if let Some((before, whole)) = &held {
                    assert!(before.same_bits(whole), "{at}: a held snapshot moved");
                }
                let mut whole = Snapshot::from_merged(&p.dataset);
                whole.stamp_version(p.generation());
                held = Some((p.oracle.snapshot(), whole));
                if rng.gen_bool(0.08) {
                    let now = SimTime(clock);
                    let recovered =
                        Pipeline::recover(nodes.clone(), 1, cfg, Obs::off(), journal.clone(), now);
                    p = recovered.unwrap().0;
                    assert_served_is_whole(&p, &format!("{at}, recovered"));
                    reached.recoveries += 1;
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
        let Reached {
            coalesced,
            status_only,
            refused_then_healthy,
            reversed,
            older,
            recoveries,
        } = reached;
        for (case, count) in [
            ("coalesced", coalesced),
            ("status only", status_only),
            ("refused then healthy", refused_then_healthy),
            ("reversed", reversed),
            ("older", older),
            ("recoveries", recoveries),
        ] {
            assert!(count >= 5, "{case}: reached {count} times, {reached:?}");
        }
    }

    /// The work a publish does at 300 relays, counted in chunks: a
    /// 64-pair publish re-renders at most 64 of them, a status-only one
    /// none, and the first publish after a recovery every one.
    #[test]
    fn a_publish_re_renders_the_chunks_it_touched() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let nodes: Vec<NodeId> = (0..300).map(|i| NodeId((i * 7) % 300)).collect();
        let mut rng = SmallRng::seed_from_u64(50);
        let mut pairs = Vec::new();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let at = SimTime(rng.gen_range(0..1_000u64));
                pairs.push((a, b, rng.gen_range(1.0..400.0), at));
            }
        }
        let dir = std::env::temp_dir().join(format!("ting-pipeline-chunks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).unwrap();
        let mut p = Pipeline::with_obs(
            nodes.clone(),
            1,
            config(),
            Obs::off(),
            Some(journal.clone()),
        );
        let all = 45_150usize.div_ceil(32);
        p.offer(delta(1, pairs.clone(), 1_000));
        assert_eq!(p.tick(SimTime(1_000)).unwrap(), Some(2));
        assert_eq!(rows(&p).fresh().len(), all, "the first publish");
        for seq in 2..6 {
            let changed = (0..64).map(|_| {
                let (a, b, rtt, _) = pairs[rng.gen_range(0..pairs.len())];
                (b, a, rtt + 1.0, SimTime(seq * 1_000))
            });
            p.offer(delta(seq, changed.collect(), seq * 1_000));
            assert_eq!(p.tick(SimTime(seq * 1_000)).unwrap(), Some(seq + 1));
            let rendered = rows(&p).fresh().len();
            assert!(
                (1..=64).contains(&rendered),
                "{rendered} chunks for 64 pairs"
            );
        }
        p.offer(delta(6, vec![], 6_000));
        assert_eq!(p.tick(SimTime(6_000)).unwrap(), Some(7));
        assert_eq!(rows(&p).fresh().len(), 0, "a status-only publish");

        let now = SimTime(7_000);
        let (mut p, _) = Pipeline::recover(nodes, 1, config(), Obs::off(), journal, now).unwrap();
        assert_eq!(rows(&p).fresh().len(), 0, "a recovery renders nothing");
        p.offer(delta(7, vec![], 7_000));
        assert_eq!(p.tick(now).unwrap(), Some(8));
        assert_eq!(
            rows(&p).fresh().len(),
            all,
            "the first publish after a recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What each step of a journaled publish, and a whole 64-pair
    /// tick, costs at 300 relays with every pair measured, best and
    /// median of 30:
    /// `cargo test --release -p oracle --lib publish_steps -- --ignored --nocapture`.
    /// `render` and `snapshot` are the full builds (a first publish, a
    /// recovery); `render64` and `patched` the same steps after a
    /// 64-pair fold, as a steady-state publish takes them, and
    /// `render1402` after a bulk one; `crc` is one pass over the whole
    /// document, which no publish makes; `compact` writes the whole
    /// document as the base and `frame` appends a 64-pair publish's
    /// `@delta` frame; `recover` is `Journal::recover` of the base
    /// alone and `replay` of the base under as many 64-pair frames as
    /// a log holds before it compacts; `volatile` is `tick` without a
    /// journal, which renders nothing.
    #[test]
    #[ignore = "prints timings; run by hand in release"]
    fn publish_steps_at_300_relays() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use std::time::{Duration, Instant};
        let nodes: Vec<NodeId> = (0..300).map(NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(2015);
        let mut pairs = Vec::new();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let at = SimTime(rng.gen_range(0..1_000_000_000_000u64));
                pairs.push((a, b, rng.gen_range(1.0..400.0), at));
            }
        }
        // The `seq`-th re-measurement: `count` pairs drawn across the
        // matrix, at instant `seq · 1000`.
        let changed = |seq: u64, count: usize| {
            let mut rng = SmallRng::seed_from_u64(seq);
            let at = SimTime(seq * 1_000);
            let changed = (0..count).map(|_| {
                let (a, b, rtt, _) = pairs[rng.gen_range(0..pairs.len())];
                (a, b, rtt + 1.0, at)
            });
            delta(seq, changed.collect(), seq * 1_000)
        };
        let mut dataset = MergeOutcome::new(nodes.clone(), 1);
        dataset.fold(delta(1, pairs.clone(), 0), |_, _| {}).unwrap();
        let dir = std::env::temp_dir().join(format!("ting-publish-steps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).unwrap();
        let best = |step: &str, f: &mut dyn FnMut() -> Duration| {
            let mut ms: Vec<f64> = (0..30).map(|_| f().as_secs_f64() * 1e3).collect();
            ms.sort_by(f64::total_cmp);
            println!("{step:<10} {:6.2} ms  (median {:6.2} ms)", ms[0], ms[15]);
        };
        let timed = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed()
        };
        let (now, staleness) = (SimTime(1_000_000_000_000), SimDuration::from_hours(24));
        best("judge", &mut || {
            timed(&mut || dataset.judge_coverage(now, staleness))
        });
        best("render", &mut || {
            let mut text = RowText::new(&dataset);
            timed(&mut || text.render(&dataset))
        });
        let (mut live, mut text, mut seq) = (dataset.clone(), RowText::new(&dataset), 1);
        text.render(&live);
        for (step, count) in [("render64", 64), ("render1402", 1_402)] {
            best(step, &mut || {
                seq += 1;
                live.fold(changed(seq, count), |i, j| text.mark(i, j))
                    .unwrap();
                timed(&mut || text.render(&live))
            });
        }
        let whole = dataset.to_document();
        best("crc", &mut || {
            timed(&mut || {
                std::hint::black_box(checkpoint::crc32(whole.as_bytes()));
            })
        });
        best("snapshot", &mut || {
            timed(&mut || drop(std::hint::black_box(Snapshot::from_merged(&dataset))))
        });
        best("patched", &mut || {
            let served = Snapshot::from_merged(&live);
            seq += 1;
            let delta = changed(seq, 64);
            let mut folded = Vec::new();
            live.fold(delta, |i, j| folded.push((i, j))).unwrap();
            timed(&mut || drop(std::hint::black_box(served.patched(&live, &folded))))
        });
        let mut text = RowText::new(&live);
        text.render(&live);
        best("compact", &mut || {
            let (doc, crc) = text.document();
            timed(&mut || {
                journal.mark_published_with_crc(2, &doc, crc).unwrap();
            })
        });
        best("frame", &mut || {
            seq += 1;
            live.fold(changed(seq, 64), |i, j| text.mark(i, j)).unwrap();
            text.render(&live);
            let (doc, _) = text.document();
            std::fs::File::create(journal.journal_path()).unwrap();
            timed(&mut || {
                journal.append_delta(3, &doc, text.fresh()).unwrap();
            })
        });
        // Recovery with the most frames a log holds between two
        // compactions: the base's generation, then one frame a 64-pair
        // publish for as long as the log stays under the threshold.
        let (doc, crc) = text.document();
        let base = journal.mark_published_with_crc(2, &doc, crc).unwrap();
        best("recover", &mut || {
            timed(&mut || drop(journal.recover().unwrap()))
        });
        let (mut gen, mut log) = (2, 0);
        loop {
            seq += 1;
            live.fold(changed(seq, 64), |i, j| text.mark(i, j)).unwrap();
            text.render(&live);
            let (doc, _) = text.document();
            let frame = journal.append_delta(gen + 1, &doc, text.fresh()).unwrap();
            if (log + frame) * 100 > base * COMPACT_AT_PERCENT {
                break;
            }
            (gen, log) = (gen + 1, log + frame);
        }
        std::fs::OpenOptions::new()
            .write(true)
            .open(journal.journal_path())
            .unwrap()
            .set_len(log)
            .unwrap();
        println!("{} frames, {log} bytes on a {base}-byte base", gen - 2);
        best("replay", &mut || {
            timed(&mut || assert_eq!(journal.recover().unwrap().published.unwrap().0, gen))
        });
        // The whole turn, journaled and not: a 64-pair delta folded,
        // published and served.
        for (step, journal) in [("tick", Some(journal)), ("volatile", None)] {
            let mut p = Pipeline::with_obs(nodes.clone(), 1, config(), Obs::off(), journal);
            p.offer(delta(1, pairs.clone(), 0));
            p.tick(SimTime(0)).unwrap();
            let mut seq = 1;
            best(step, &mut || {
                seq += 1;
                p.offer(changed(seq, 64));
                timed(&mut || assert_eq!(p.tick(SimTime(seq * 1_000)).unwrap(), Some(seq + 1)))
            });
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The TTL ladder's boundary instants driven against the staleness
    /// SLO window: each `tick` re-judges the dataset's age *and* feeds
    /// the verdict into the windowed burn-rate engine, so the exact
    /// instants where `TtlPolicy::judge` flips states are also the
    /// instants where budget burn accrues. (The exported event sequence
    /// of the same walk is pinned by the `slo_ttl` integration test.)
    mod ladder {
        use super::*;

        const SOFT_S: u64 = 10;
        const HARD_S: u64 = 100;

        fn secs(s: u64) -> SimTime {
            SimTime(SimDuration::from_secs(s).as_nanos())
        }

        /// Soft 10s / hard 100s ladder over a 10×10s SLO window: one judgment
        /// per bucket, so window rotation and TTL boundaries interact on the
        /// same clock.
        fn config(staleness_objective_ppm: u32) -> PipelineConfig {
            PipelineConfig {
                queue_cap: 4,
                publish_interval: SimDuration(0),
                staleness: SimDuration::from_secs(HARD_S),
                ttl: TtlPolicy::new(
                    SimDuration::from_secs(SOFT_S),
                    SimDuration::from_secs(HARD_S),
                )
                .unwrap(),
                slo: Some(SloConfig {
                    bucket: SimDuration::from_secs(SOFT_S),
                    buckets: 10,
                    coverage_objective_ppm: 0,
                    progress_objective_ppm: 0,
                    latency_budget: SimDuration::from_secs(HARD_S),
                    latency_objective_ppm: 0,
                    staleness_objective_ppm,
                }),
            }
        }

        fn nodes() -> Vec<NodeId> {
            (0..4).map(NodeId).collect()
        }

        fn delta(seq: u64, at: SimTime) -> MergeDelta {
            MergeDelta {
                seq,
                pairs: vec![DeltaPair {
                    a: NodeId(0),
                    b: NodeId(1),
                    rtt_ms: 5.0,
                    measured_at: at,
                    lineage: Lineage {
                        shard: 0,
                        round: seq,
                    },
                }],
                statuses: vec!["live"],
                now: at,
            }
        }

        /// Ladder states at the inclusive boundary instants, with each
        /// judgment feeding the staleness window: `soft` and `hard` flip on
        /// the boundary itself (age ≥ ttl), one nanosecond earlier does not.
        #[test]
        fn boundary_instants_flip_states_and_accrue_burn() {
            // Objective 40%: breach once more than 60% of windowed judgments
            // land off-Fresh.
            let (mut p, obs) = traced(nodes(), config(400_000));
            p.offer(delta(1, secs(0)));
            p.tick(secs(0)).unwrap();
            assert_eq!(p.state(), ServingState::Fresh);
            let t = slo_totals(&obs, SLO_STALENESS).unwrap();
            assert_eq!((t.good, t.bad, t.breaching), (1, 0, false));

            // One nanosecond shy of the soft TTL: still Fresh.
            p.tick(SimTime(secs(SOFT_S).as_nanos() - 1)).unwrap();
            assert_eq!(p.state(), ServingState::Fresh);

            // Exactly the soft boundary: age == soft_ttl is Stale, and the
            // judgment burns budget.
            p.tick(secs(SOFT_S)).unwrap();
            assert_eq!(p.state(), ServingState::Stale);
            let t = slo_totals(&obs, SLO_STALENESS).unwrap();
            assert_eq!((t.good, t.bad, t.breaching), (2, 1, false));

            // One nanosecond shy of the hard TTL: still Stale (and still
            // under the 60% bad threshold: 2 bad of 4).
            p.tick(SimTime(secs(HARD_S).as_nanos() - 1)).unwrap();
            assert_eq!(p.state(), ServingState::Stale);
            let t = slo_totals(&obs, SLO_STALENESS).unwrap();
            assert_eq!((t.good, t.bad, t.breaching), (2, 2, false));

            // Exactly the hard boundary: Degraded. The window also rotates —
            // both good judgments (t=0 and t=soft−1ns) sat in bucket 0, now
            // ten buckets back — so only the bad judgments remain and the
            // breach begins.
            p.tick(secs(HARD_S)).unwrap();
            assert_eq!(p.state(), ServingState::Degraded);
            let t = slo_totals(&obs, SLO_STALENESS).unwrap();
            assert_eq!((t.good, t.bad, t.breaching), (0, 3, true));

            // Fresh data a full window later: every burnt bucket has rotated
            // out, the ladder re-judges Fresh, and the breach closes.
            p.offer(delta(2, secs(2 * HARD_S)));
            p.tick(secs(2 * HARD_S)).unwrap();
            assert_eq!(p.state(), ServingState::Fresh);
            let t = slo_totals(&obs, SLO_STALENESS).unwrap();
            assert_eq!((t.good, t.bad, t.breaching), (1, 0, false));
        }

        /// A dataset with no timestamps at all — the clockless bootstrap —
        /// judges Degraded from the first tick, and every judgment burns.
        #[test]
        fn clockless_bootstrap_burns_from_the_first_judgment() {
            let (mut p, obs) = traced(nodes(), config(990_000));
            assert_eq!(p.state(), ServingState::Degraded);
            p.tick(secs(1)).unwrap();
            let t = slo_totals(&obs, SLO_STALENESS).unwrap();
            // 1 bad of 1 total blows a 1% budget instantly.
            assert_eq!((t.good, t.bad, t.breaching), (0, 1, true));
        }

        /// Republishing unchanged data must not reset the staleness clock:
        /// a status-only generation still judges against the newest probe.
        #[test]
        fn status_only_republish_does_not_reset_the_clock() {
            let (mut p, obs) = traced(nodes(), config(400_000));
            p.offer(delta(1, secs(0)));
            p.tick(secs(0)).unwrap();

            // An empty delta past the soft TTL: a new generation publishes,
            // but the dataset's newest measurement is still t=0 — Stale.
            p.offer(MergeDelta {
                seq: 2,
                pairs: vec![],
                statuses: vec!["live"],
                now: secs(SOFT_S),
            });
            p.tick(secs(SOFT_S)).unwrap();
            assert_eq!(p.state(), ServingState::Stale);
            let t = slo_totals(&obs, SLO_STALENESS).unwrap();
            assert_eq!((t.good, t.bad), (1, 1));
        }
    }
}
