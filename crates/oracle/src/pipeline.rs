//! The live scan→serve pipeline: a continuous control loop that turns
//! a running [`ting::shard::Supervisor`]'s incremental merge deltas
//! into crash-consistent oracle generations.
//!
//! One cycle: the scan side [`Pipeline::offer`]s deltas drained with
//! [`ting::shard::Supervisor::take_delta`] (never blocking — a bounded
//! queue coalesces on overflow, because delta application is
//! idempotent assignment); [`Pipeline::tick`] then folds the queue
//! into the accumulated matrix, renders the same CRC-sealed merged
//! document an offline [`ting::shard::Supervisor::merge`] would
//! produce, stages it through the publish [`Journal`] (append → seal →
//! swap → truncate), and publishes the generation through the oracle's
//! swap cell under the *journal's* generation number — so a kill at
//! any byte and a [`Pipeline::recover`] always serve exactly the last
//! sealed generation, bit-identical to an uninterrupted run.
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
use obs::slo::{SLO_COVERAGE, SLO_PUBLISH_LATENCY, SLO_SHARD_PROGRESS, SLO_STALENESS};
use obs::{names, Counter, Hist, Obs, SloEngine, SloSpec, Value, WindowSpec};
use std::collections::VecDeque;
use ting::shard::{parse_merged_document, MergeDelta, MergeOutcome};

/// Tuning knobs for the publish loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Shared burn-rate threshold in milli-multiples of each budget.
    pub burn_threshold_milli: u32,
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
            burn_threshold_milli: self.burn_threshold_milli,
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
    journal: Option<Journal>,
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
    /// tests and in-process consumers that don't need crash safety).
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
            journal,
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
    /// directory, republishes exactly the last sealed generation (the
    /// pending record when the kill landed between seal and swap, else
    /// the published file), rebuilds the accumulated dataset from it,
    /// and re-judges serving at `now`. Returns what recovery found so
    /// harnesses can assert on the crash window they injected.
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
            if let (Some(_), Some(journal)) = (&recovered.pending, &p.journal) {
                journal
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
            let _ = self.dataset.fold(delta);
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
        // The seal's CRC is the one pass over the document: the frame
        // and the published file's outer seal are computed from it.
        let (doc, crc) = self.dataset.to_document_with_crc();
        if let Some(j) = &self.journal {
            j.append_with_crc(next, &doc, crc)
                .map_err(|e| format!("journal append (gen {next}): {e}"))?;
        }
        self.unsealed = None;
        self.serve(next, now);
        if let Some(j) = &self.journal {
            j.mark_published_with_crc(next, &doc, crc)
                .map_err(|e| format!("journal publish (gen {next}): {e}"))?;
        }
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
    fn serve(&mut self, gen: u64, now: SimTime) {
        let now_ns = now.as_nanos();
        let snapshot = Snapshot::from_merged(&self.dataset);
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

    /// Windowed totals for one live SLO as of the last `tick`; `None`
    /// without an [`SloConfig`] or for an unknown name.
    pub fn slo_totals(&self, name: &str) -> Option<obs::SloTotals> {
        self.slo.as_ref()?.engine.totals(name)
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
            burn_threshold_milli: 1000,
        }
    }

    fn nodes() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
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

        let h = obs.histogram("oracle.pipeline.batch_pairs").unwrap();
        assert_eq!(h.count(), obs.counter_value("oracle.pipeline.published"));
        assert_eq!((h.count(), h.min(), h.max()), (3, Some(1), Some(6)));
        assert_eq!(h.quantile(0.5), Some(2), "the batches were 1, 6, 2");
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

    #[test]
    fn a_refused_journal_append_is_published_by_the_next_tick() {
        let dir = std::env::temp_dir().join(format!("ting-pipeline-append-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).unwrap();
        let mut p = Pipeline::with_obs(nodes(), 1, config(), Obs::off(), Some(journal.clone()));
        let served = |p: &Pipeline| {
            p.reader()
                .point(NodeId(0), NodeId(2))
                .unwrap()
                .answer
                .rtt_ms
        };
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(5))], 10));
        assert_eq!(p.tick(SimTime(10)).unwrap(), Some(2));

        // A directory where the log belongs: the append is refused.
        let log = journal.journal_path();
        std::fs::remove_file(&log).unwrap();
        std::fs::create_dir(&log).unwrap();
        p.offer(delta(2, vec![(NodeId(0), NodeId(2), 3.0, SimTime(11))], 12));
        let err = p.tick(SimTime(12)).unwrap_err();
        assert!(err.starts_with("journal append (gen 3): "), "{err}");
        assert_eq!((p.generation(), p.queue_depth(), served(&p)), (2, 0, None));
        assert!(p.serving_document().contains("m\t0\t2\t3\t11\t0\t2\n"));

        // The disk is back: the next tick seals and serves the fold,
        // though nothing new was offered.
        std::fs::remove_dir(&log).unwrap();
        assert_eq!(p.tick(SimTime(13)).unwrap(), Some(3));
        assert_eq!(served(&p), Some(3.0));
        let recovered = journal.recover().unwrap();
        assert_eq!(recovered.serve(), Some(&(3, p.serving_document())));
        assert_eq!(p.tick(SimTime(14)).unwrap(), None, "nothing left unsealed");
        let _ = std::fs::remove_dir_all(&dir);
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
        let mut p = Pipeline::new(nodes(), 1, cfg);
        assert_eq!(p.slo_totals("nonsense"), None);
        // One delta drained the instant it was offered: within budget.
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(5))], 10));
        p.tick(SimTime(10)).unwrap();
        let lat = p.slo_totals(SLO_PUBLISH_LATENCY).unwrap();
        assert_eq!((lat.good, lat.bad), (1, 0));
        assert!(!lat.breaching);
        let prog = p.slo_totals(SLO_SHARD_PROGRESS).unwrap();
        assert_eq!((prog.good, prog.bad), (1, 0));
        // 1 of 3 owned pairs measured: a 50% coverage objective with a
        // 2/3 bad fraction is burning beyond its budget.
        let cov = p.slo_totals(SLO_COVERAGE).unwrap();
        assert_eq!((cov.good, cov.bad), (1, 2));
        assert!(cov.breaching);
        // The single TTL judgment landed Fresh.
        let st = p.slo_totals(SLO_STALENESS).unwrap();
        assert_eq!((st.good, st.bad), (1, 0));
        assert!(!st.breaching);
    }

    #[test]
    fn staleness_slo_burns_while_serving_degraded() {
        let mut cfg = config();
        cfg.slo = Some(slo_config());
        let mut p = Pipeline::new(nodes(), 1, cfg);
        p.offer(delta(1, vec![(NodeId(0), NodeId(1), 7.0, SimTime(0))], 0));
        p.tick(SimTime(0)).unwrap();
        assert!(!p.slo_totals(SLO_STALENESS).unwrap().breaching);
        // By the hard TTL the window has slid past the healthy epoch:
        // the judgment at `hard` lands Degraded and burns the budget.
        let hard = SimDuration::from_secs(600).as_nanos();
        p.tick(SimTime(hard)).unwrap();
        assert_eq!(p.state(), ServingState::Degraded);
        let st = p.slo_totals(SLO_STALENESS).unwrap();
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

    /// What each step of a journaled publish, and a whole 64-pair
    /// tick, costs at 300 relays with every pair measured, best of 30:
    /// `cargo test --release -p oracle --lib publish_steps -- --ignored --nocapture`.
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
        let mut dataset = MergeOutcome::new(nodes.clone(), 1);
        dataset.fold(delta(1, pairs.clone(), 0)).unwrap();
        let dir = std::env::temp_dir().join(format!("ting-publish-steps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&dir).unwrap();
        let best = |step: &str, f: &mut dyn FnMut() -> Duration| {
            let ms = (0..30).map(|_| f()).min().unwrap().as_secs_f64() * 1e3;
            println!("{step:<9} {ms:6.2} ms");
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
        let (doc, crc) = dataset.to_document_with_crc();
        best("render", &mut || {
            timed(&mut || drop(std::hint::black_box(dataset.to_document_with_crc())))
        });
        best("append", &mut || {
            let took = timed(&mut || journal.append_with_crc(2, &doc, crc).unwrap());
            std::fs::File::create(journal.journal_path()).unwrap();
            took
        });
        best("snapshot", &mut || {
            timed(&mut || drop(std::hint::black_box(Snapshot::from_merged(&dataset))))
        });
        best("mark", &mut || {
            timed(&mut || journal.mark_published_with_crc(2, &doc, crc).unwrap())
        });
        // The whole turn: a 64-pair delta folded, published and served.
        let mut p = Pipeline::with_obs(nodes, 1, config(), Obs::off(), Some(journal));
        p.offer(delta(1, pairs.clone(), 0));
        p.tick(SimTime(0)).unwrap();
        let mut seq = 1;
        best("tick", &mut || {
            seq += 1;
            let at = SimTime(seq * 1_000);
            let changed = pairs.iter().cycle().skip(seq as usize * 64).take(64);
            let changed = changed
                .map(|&(a, b, rtt, _)| (a, b, rtt + 1.0, at))
                .collect();
            p.offer(delta(seq, changed, seq * 1_000));
            timed(&mut || assert_eq!(p.tick(at).unwrap(), Some(seq + 1)))
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
