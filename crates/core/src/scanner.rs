//! Incremental all-pairs scanning with caching (§4.6's workflow).
//!
//! "Taking measurements with Ting infrequently and caching them is
//! sufficient, and thus permits obtaining a large dataset of RTTs
//! between Tor nodes." A realistic deployment does not re-measure 1225
//! pairs every hour: it keeps a cache, spends a bounded measurement
//! budget per round, and prioritizes pairs that were never measured or
//! whose estimates have gone stale. [`Scanner`] implements that loop on
//! top of [`crate::matrix::RttMatrix`].

use crate::checkpoint::{Doc, Row};
use crate::estimator::TingMeasurement;
use crate::health::{self, HealthEvent, RelayHealth};
use crate::matrix::{ordered, RttMatrix};
use crate::orchestrator::{Ting, TingError};
use crate::parallel::measure_lanes;
use crate::queue::{tri_index, WorkQueue};
use crate::validate::{
    self, implausibly_low, validate, ValidationContext, ValidationError, Verdict,
};
use geo::GeoPoint;
use netsim::{NodeId, SimDuration, SimTime};
use obs::{Obs, Value};
use std::collections::VecDeque;
use std::fmt::Write as _;
use tor_sim::TorNetwork;

/// Scanner policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScannerConfig {
    /// Estimates older than this are stale and get re-measured.
    pub staleness: netsim::SimDuration,
    /// Maximum pairs measured per round (rate limiting; the paper is
    /// explicit that Ting "imposes little communication or
    /// computational overhead on the Tor network" — a deployment keeps
    /// it that way).
    pub pairs_per_round: usize,
    /// Base pause before a failed pair is eligible again; failure `k`
    /// waits `base · 2^(k-1)`, capped below.
    pub retry_backoff: netsim::SimDuration,
    /// Ceiling on the per-pair retry pause.
    pub retry_backoff_cap: netsim::SimDuration,
    /// Relay health scoring + quarantine (see [`crate::health`]).
    /// `false` disables the model entirely — dead relays keep burning
    /// per-pair backoffs, exactly the pre-health behaviour.
    pub health: bool,
    /// Estimate validation before caching (see [`crate::validate`]).
    /// `false` keeps only the original implausibly-low gate.
    pub validation: bool,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            // §4.6 measured stability over a week; a day is comfortably
            // inside the window where estimates stay representative.
            staleness: netsim::SimDuration::from_hours(24),
            pairs_per_round: 50,
            retry_backoff: netsim::SimDuration::from_secs(300),
            retry_backoff_cap: netsim::SimDuration::from_hours(2),
            health: false,
            validation: false,
        }
    }
}

/// Outcome of one scan round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    pub measured: usize,
    pub failed: usize,
    pub still_pending: usize,
}

/// One cached estimate with its provenance, as [`Scanner::measurements`]
/// reads it out of the matrix and the pair table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Measurement {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    pub(crate) rtt_ms: f64,
    pub(crate) at: SimTime,
    /// The scan round that accepted it; 0 means "unknown".
    pub(crate) round: u64,
}

/// A caching, prioritizing all-pairs scanner.
pub struct Scanner {
    config: ScannerConfig,
    /// The cached RTTs, and the one `NodeId → index` map.
    matrix: RttMatrix,
    /// Scan rounds completed-or-started over this scanner's lifetime
    /// (checkpointed, so round numbers stay stable across restarts).
    /// 1-based: the first round is round 1; 0 means "no round yet".
    rounds_run: u64,
    /// Every other per-pair fact — measurement instant, round of
    /// record, retry state, scope — in the queue's pair table, laid out
    /// like the matrix, plus the priority order over it.
    queue: WorkQueue,
    /// Per-relay health model, present iff `config.health` is on: the one
    /// quarantine roster, read by [`Scanner::parked`].
    health: Option<RelayHealth>,
}

impl Scanner {
    /// Creates a scanner over a fixed relay set.
    ///
    /// # Panics
    /// Panics on duplicate nodes.
    pub fn new(nodes: Vec<NodeId>, config: ScannerConfig) -> Scanner {
        Scanner::over(RttMatrix::new(nodes), config)
    }

    /// A scanner with nothing measured yet over `matrix`'s node list.
    fn over(matrix: RttMatrix, config: ScannerConfig) -> Scanner {
        Scanner {
            config,
            queue: WorkQueue::new(matrix.len(), config.staleness),
            matrix,
            rounds_run: 0,
            health: config.health.then(RelayHealth::default),
        }
    }

    /// The pair's indices into the node list, lower first; `None` when
    /// either node is not scanned.
    fn pair(&self, a: NodeId, b: NodeId) -> Option<(u32, u32)> {
        Some(ordered(self.matrix.index_of(a)?, self.matrix.index_of(b)?))
    }

    /// [`Scanner::pair`] for the pairs the scanner itself planned.
    #[expect(
        clippy::panic,
        reason = "the scanner plans only pairs of its own node list"
    )]
    fn planned_pair(&self, a: NodeId, b: NodeId) -> (u32, u32) {
        self.pair(a, b)
            .unwrap_or_else(|| panic!("pair ({}, {}) is not scanned", a.0, b.0))
    }

    /// Restricts the scanner to `owned` pairs, permanently retiring
    /// every other pair from its work queue. This is the shard-scoping
    /// primitive behind [`crate::shard::Supervisor`]: each shard runs a
    /// full scanner over the whole node list (so checkpoints and
    /// matrices stay globally indexed) but schedules only the pairs the
    /// partitioner assigned to it. Restricting to every pair is a
    /// no-op, which keeps a one-shard supervised scan bit-identical to
    /// an unsharded one.
    ///
    /// Scope is derived state, not checkpointed — re-apply it after
    /// [`Scanner::from_checkpoint`], as [`crate::shard::Supervisor`]
    /// does on every shard restart.
    pub fn restrict_to(&mut self, owned: &[(NodeId, NodeId)]) {
        let n = self.matrix.len();
        let mut keep = vec![false; n * (n + 1) / 2];
        for &(a, b) in owned {
            if let Some((i, j)) = self.pair(a, b) {
                keep[tri_index(n, i as usize, j as usize)] = true;
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                if !keep[tri_index(n, i, j)] {
                    self.queue.retire(i as u32, j as u32);
                }
            }
        }
    }

    /// The current cached dataset.
    pub fn matrix(&self) -> &RttMatrix {
        &self.matrix
    }

    /// The scanner's policy knobs.
    pub fn config(&self) -> &ScannerConfig {
        &self.config
    }

    /// The relay health model, if enabled.
    pub fn health(&self) -> Option<&RelayHealth> {
        self.health.as_ref()
    }

    /// Every scanned node's location, in node-list order, read from the
    /// network's underlay — the one place a relay's location is kept.
    fn locations(&self, net: &TorNetwork) -> Vec<GeoPoint> {
        let at = |n: &NodeId| net.sim.underlay().node(n.index()).location;
        self.matrix.nodes().iter().map(at).collect()
    }

    /// One flag per node index: whether the health model holds that
    /// relay in quarantine, so the queue parks its pairs.
    fn parked(&self) -> Vec<bool> {
        let mut parked = vec![false; self.matrix.len()];
        let roster = self.health.iter().flat_map(RelayHealth::quarantined_nodes);
        for i in roster.filter_map(|node| self.matrix.index_of(node)) {
            parked[i as usize] = true;
        }
        parked
    }

    /// When `pair` was last measured, if ever.
    pub fn measured_at(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        let (i, j) = self.pair(a, b)?;
        self.queue.record(i, j).measured_at
    }

    /// The scan round in which `pair`'s cached estimate was accepted,
    /// if the pair has one. Round 0 means "unknown".
    pub fn measured_round(&self, a: NodeId, b: NodeId) -> Option<u64> {
        let (i, j) = self.pair(a, b)?;
        let rec = self.queue.record(i, j);
        rec.measured_at.map(|_| rec.round)
    }

    /// Failure-backoff state for a pair: `(consecutive failures,
    /// eligible-again instant)`, if the pair is being backed off.
    pub fn retry_state(&self, a: NodeId, b: NodeId) -> Option<(u32, SimTime)> {
        let (i, j) = self.pair(a, b)?;
        let rec = self.queue.record(i, j);
        (rec.attempts > 0).then_some((rec.attempts, rec.retry_at))
    }

    /// Every cached estimate in pair-index order, each numbered by its
    /// pair's position in that order — the number
    /// [`crate::shard::partition_pairs`] deals pairs to shards by.
    pub(crate) fn measurements(&self) -> impl Iterator<Item = (usize, Measurement)> + '_ {
        let nodes = self.matrix.nodes();
        self.queue
            .records()
            .enumerate()
            .filter_map(move |(ordinal, ((i, j), rec))| {
                let at = rec.measured_at?;
                let m = Measurement {
                    a: nodes[i as usize],
                    b: nodes[j as usize],
                    rtt_ms: self.matrix.get_idx(i, j)?,
                    at,
                    round: rec.round,
                };
                Some((ordinal, m))
            })
    }

    /// The backoff pause after the `attempts`-th consecutive failure.
    fn backoff(&self, attempts: u32) -> SimDuration {
        crate::backoff::exponential(
            self.config.retry_backoff,
            attempts,
            self.config.retry_backoff_cap,
        )
    }

    /// Records a successful measurement, subject to the
    /// [`implausibly_low`] sanity gate: Eq. (4) subtracts two half-legs
    /// from the full circuit and can come out negative or implausibly
    /// close to zero under pathological sampling. Such an estimate
    /// never reaches the cache — the pair is re-queued under the
    /// failure backoff instead. Returns `true` when it was accepted.
    fn record_success(
        &mut self,
        a: NodeId,
        b: NodeId,
        m: &TingMeasurement,
        now: SimTime,
        ting: &Ting,
        locations: &[GeoPoint],
    ) -> bool {
        let est = m.estimate_ms();
        if implausibly_low(est) {
            ting.obs().inc("ting.estimate.implausible");
            ting.obs()
                .event(obs::names::VALIDATE_IMPLAUSIBLE, now.as_nanos(), || {
                    vec![
                        ("a", Value::U64(a.0 as u64)),
                        ("b", Value::U64(b.0 as u64)),
                        ("est_ms", Value::F64(est)),
                    ]
                });
            self.record_failure(a, b, now, ting);
            return false;
        }
        if self.config.validation {
            match validate(est, &self.validation_context(a, b, now, locations)) {
                Verdict::Accept => {}
                Verdict::Flag(e) => {
                    self.observe_verdict(
                        obs::names::VALIDATE_FLAG,
                        "ting.validate.flag",
                        a,
                        b,
                        &e,
                        now,
                        ting,
                    );
                }
                Verdict::Reject(e) => {
                    self.observe_verdict(
                        obs::names::VALIDATE_REJECT,
                        "ting.validate.reject",
                        a,
                        b,
                        &e,
                        now,
                        ting,
                    );
                    self.record_failure(a, b, now, ting);
                    return false;
                }
            }
        }
        self.matrix.set(a, b, est);
        let (i, j) = self.planned_pair(a, b);
        self.queue.on_measured(i, j, now, self.rounds_run);
        true
    }

    /// Records one validation verdict into the obs registry: a
    /// per-reason counter (`<counter_base>.<code>`) and, when tracing,
    /// a typed event naming the pair and reason code.
    #[allow(clippy::too_many_arguments)]
    fn observe_verdict(
        &self,
        event_name: &'static str,
        counter_base: &str,
        a: NodeId,
        b: NodeId,
        e: &ValidationError,
        now: SimTime,
        ting: &Ting,
    ) {
        let obs = ting.obs();
        if !obs.is_enabled() {
            return;
        }
        obs.inc(&format!("{counter_base}.{}", e.code()));
        obs.event(event_name, now.as_nanos(), || {
            vec![
                ("a", Value::U64(a.0 as u64)),
                ("b", Value::U64(b.0 as u64)),
                ("code", Value::Str(e.code().to_owned())),
            ]
        });
    }

    /// Assembles what [`crate::validate::validate`] needs to know about
    /// a pair: the distance between its [`Scanner::locations`], the
    /// cached estimate when still fresh, whether this measurement is
    /// already a retry, and the best cached two-hop detour.
    fn validation_context(
        &self,
        a: NodeId,
        b: NodeId,
        now: SimTime,
        locations: &[GeoPoint],
    ) -> ValidationContext {
        let location = |n| self.matrix.index_of(n).map(|i| locations[i as usize]);
        let (pa, pb) = (location(a), location(b));
        let distance_km = pa.zip(pb).map(|(pa, pb)| geo::great_circle_km(pa, pb));
        let fresh_cached_ms = self
            .measured_at(a, b)
            .filter(|&t| now.since(t) < self.config.staleness)
            .and_then(|_| self.matrix.get(a, b));
        let best_detour_ms = self
            .pair(a, b)
            .and_then(|(i, j)| self.matrix.best_detour(i, j))
            .map(|best| best.rtt_ms);
        ValidationContext {
            distance_km,
            fresh_cached_ms,
            confirming_retry: self.retry_state(a, b).is_some(),
            best_detour_ms,
        }
    }

    /// Feeds one relay observation into the health model and records
    /// any quarantine transition it made.
    fn note_health(&mut self, node: NodeId, success: bool, now: SimTime, ting: &Ting) {
        let Some(h) = self.health.as_mut() else {
            return;
        };
        match h.record(node, success, now) {
            Some(HealthEvent::Quarantined(n)) => {
                ting.obs().inc("ting.health.quarantined");
                ting.obs()
                    .event(obs::names::HEALTH_QUARANTINE, now.as_nanos(), || {
                        vec![("node", Value::U64(n.0 as u64))]
                    });
            }
            Some(HealthEvent::Released(n)) => {
                ting.obs().inc("ting.health.released.probation");
                ting.obs()
                    .event(obs::names::HEALTH_RELEASE, now.as_nanos(), || {
                        vec![
                            ("node", Value::U64(n.0 as u64)),
                            ("reason", Value::Str("probation".to_owned())),
                        ]
                    });
            }
            None => {}
        }
    }

    /// Attributes a pair failure to its endpoints: leg-circuit build
    /// failures name the culpable relay in their path; everything else
    /// (full circuit, stream, probes) blames both.
    fn blame(err: &TingError, x: NodeId, y: NodeId) -> (bool, bool) {
        match err {
            TingError::CircuitBuildFailed { path, .. } => (path.contains(&x), path.contains(&y)),
            TingError::StreamFailed | TingError::ProbeLost => (true, true),
        }
    }

    /// Health bookkeeping for one pair outcome.
    fn note_pair_outcome(
        &mut self,
        x: NodeId,
        y: NodeId,
        result: Result<(), &TingError>,
        now: SimTime,
        ting: &Ting,
    ) {
        if self.health.is_none() {
            return;
        }
        match result {
            Ok(()) => {
                self.note_health(x, true, now, ting);
                self.note_health(y, true, now, ting);
            }
            Err(e) => {
                // Only blamed endpoints take the hit; an unblamed
                // endpoint gets no observation at all (its circuits
                // were never proven either way).
                let (blame_x, blame_y) = Self::blame(e, x, y);
                if blame_x {
                    self.note_health(x, false, now, ting);
                }
                if blame_y {
                    self.note_health(y, false, now, ting);
                }
            }
        }
    }

    /// Plans one round through the health model: decay releases first,
    /// then due probation probes (within the round budget), then the
    /// ordinary queue plan.
    fn plan_round_healthy(&mut self, now: SimTime, ting: &Ting) -> Vec<(NodeId, NodeId)> {
        let released = self.health.as_mut().map(|h| h.release_by_decay(now));
        for n in released.into_iter().flatten() {
            ting.obs().inc("ting.health.released.decay");
            ting.obs()
                .event(obs::names::HEALTH_RELEASE, now.as_nanos(), || {
                    vec![
                        ("node", Value::U64(n.0 as u64)),
                        ("reason", Value::Str("decay".to_owned())),
                    ]
                });
        }
        let parked = self.parked();
        let cap = self.config.pairs_per_round;
        let nodes = self.matrix.nodes();
        let mut plan = Vec::new();
        if let Some(h) = self.health.as_mut() {
            for n in h.due_probes(now) {
                if plan.len() >= cap {
                    break;
                }
                // Even with no probe partner available, the attempt
                // counts: the next probe waits a full interval.
                h.probe_scheduled(n, now);
                let probe = self
                    .matrix
                    .index_of(n)
                    .and_then(|i| self.queue.probe_pair(i, &parked));
                if let Some((a, b)) = probe.map(|(i, j)| (nodes[i as usize], nodes[j as usize])) {
                    ting.obs().inc("ting.health.probation_probe");
                    ting.obs()
                        .event(obs::names::HEALTH_PROBE, now.as_nanos(), || {
                            vec![
                                ("node", Value::U64(n.0 as u64)),
                                ("a", Value::U64(a.0 as u64)),
                                ("b", Value::U64(b.0 as u64)),
                            ]
                        });
                    plan.push((a, b));
                }
            }
        }
        let remaining = cap.saturating_sub(plan.len());
        let planned = self.queue.plan(now, remaining, &parked);
        plan.extend(
            planned
                .into_iter()
                .map(|(i, j)| (nodes[i as usize], nodes[j as usize])),
        );
        plan
    }

    /// Re-queues a failed pair under exponential backoff.
    fn record_failure(&mut self, a: NodeId, b: NodeId, now: SimTime, ting: &Ting) {
        let (i, j) = self.planned_pair(a, b);
        let attempts = self.queue.record(i, j).attempts.saturating_add(1);
        self.queue.on_failed(i, j, now + self.backoff(attempts));
        ting.obs().inc("ting.pair_requeued");
    }

    /// Executes one round against the network, measuring the round's
    /// pairs one after another from the primary vantage. Failed
    /// measurements (circuit build failures on churned relays, lost
    /// probes) are re-queued under exponential backoff rather than
    /// poisoning the cache or hot-looping on a dead relay.
    ///
    /// Planning and reporting both come from the work queue — one sweep
    /// over the pair table each — and
    /// [`RoundReport::still_pending`] is the *true* backlog, not capped
    /// at [`ScannerConfig::pairs_per_round`].
    pub fn run_round(&mut self, net: &mut TorNetwork, ting: &Ting) -> RoundReport {
        self.round(net, ting, 1)
    }

    /// [`Scanner::run_round`] with the round's pairs dealt round-robin
    /// over every provisioned vantage (see
    /// [`tor_sim::TorNetworkBuilder::vantages`]) and measured
    /// concurrently in virtual time. With a single vantage the lane
    /// assignment — and so every output bit — is that of
    /// [`Scanner::run_round`].
    pub fn run_round_parallel(&mut self, net: &mut TorNetwork, ting: &Ting) -> RoundReport {
        self.round(net, ting, net.vantage_count())
    }

    /// One round over `lanes` vantages (see [`crate::parallel`]).
    /// Outcomes are recorded *at each measurement's own completion
    /// instant* — the engine hands them over before the simulation
    /// moves on, so cache, health, and trace bookkeeping all land
    /// time-ordered.
    fn round(&mut self, net: &mut TorNetwork, ting: &Ting, lanes: usize) -> RoundReport {
        self.rounds_run += 1;
        let plan = self.plan_round_healthy(net.sim.now(), ting);
        let locations = self.locations(net);
        let round = ting.obs().span_begin(
            obs::names::SCAN_ROUND_BEGIN,
            net.sim.now().as_nanos(),
            || {
                let mut fields = vec![("planned", Value::U64(plan.len() as u64))];
                if lanes > 1 {
                    fields.push(("vantages", Value::U64(lanes as u64)));
                }
                fields
            },
        );
        let mut queues = vec![VecDeque::new(); lanes];
        for (j, pair) in plan.into_iter().enumerate() {
            queues[j % lanes].push_back(pair);
        }
        let mut measured = 0;
        let mut failed = 0;
        measure_lanes(net, ting, queues, |outcome| {
            let (x, y, at) = (outcome.x, outcome.y, outcome.completed_at);
            // The pair span closes with the scanner's verdict, or the
            // pipeline error's stable reason code.
            let verdict = match &outcome.result {
                Ok(m) => {
                    self.note_pair_outcome(x, y, Ok(()), at, ting);
                    if self.record_success(x, y, m, at, ting, &locations) {
                        measured += 1;
                        "accepted"
                    } else {
                        failed += 1;
                        "rejected"
                    }
                }
                Err(e) => {
                    failed += 1;
                    self.note_pair_outcome(x, y, Err(e), at, ting);
                    self.record_failure(x, y, at, ting);
                    e.code()
                }
            };
            ting.observe_pair_end(outcome.span, verdict, at);
        });
        let report = RoundReport {
            measured,
            failed,
            still_pending: self.queue.backlog(net.sim.now(), &self.parked()),
        };
        ting.obs().span_end(
            obs::names::SCAN_ROUND_END,
            round,
            net.sim.now().as_nanos(),
            || {
                vec![
                    ("measured", Value::U64(report.measured as u64)),
                    ("failed", Value::U64(report.failed as u64)),
                    ("still_pending", Value::U64(report.still_pending as u64)),
                ]
            },
        );
        report
    }

    /// Fraction of pairs currently covered by a (possibly stale) cache
    /// entry.
    pub fn coverage(&self) -> f64 {
        let n = self.matrix.len();
        let total = n * n.saturating_sub(1) / 2;
        if total == 0 {
            return 1.0;
        }
        self.matrix.measured_pairs() as f64 / total as f64
    }

    /// Serializes the scanner's full state — config, cache, measurement
    /// timestamps and lineage rounds, per-pair retry backoff, and (when
    /// enabled) relay health — to a plain-text v3 checkpoint sealed
    /// with a CRC-32 trailer ([`crate::checkpoint::seal`]). A scan
    /// killed mid-run and resumed via [`Scanner::from_checkpoint`]
    /// continues exactly where it stopped: completed pairs stay done,
    /// failed pairs stay under backoff, quarantined relays stay
    /// quarantined, and round numbers keep counting from where they
    /// were, so lineage stays stable across restarts.
    pub fn to_checkpoint(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        crate::checkpoint::write_nodes_header(&mut out, self.matrix.nodes());
        let _ = write!(
            out,
            "# config: staleness_ns={} pairs_per_round={} retry_backoff_ns={} retry_backoff_cap_ns={}",
            self.config.staleness.as_nanos(),
            self.config.pairs_per_round,
            self.config.retry_backoff.as_nanos(),
            self.config.retry_backoff_cap.as_nanos(),
        );
        // `{}` on f64 prints the shortest exactly-roundtripping form.
        // The sub-config values are constants, written so a reader sees
        // what the scan ran with; `parse_config` holds them to it.
        if self.config.health {
            let _ = write!(
                out,
                " health=1 health_alpha={} health_qbelow={} health_rabove={} \
                 health_probation_ns={} health_halflife_ns={}",
                health::EWMA_ALPHA,
                health::QUARANTINE_BELOW,
                health::RELEASE_ABOVE,
                health::PROBATION_INTERVAL.as_nanos(),
                health::DECAY_HALF_LIFE.as_nanos(),
            );
        } else {
            out.push_str(" health=0");
        }
        if self.config.validation {
            let _ = write!(
                out,
                " val=1 val_divfactor={} val_divslack_ms={} val_lightspeed=1 \
                 val_tivfactor={} val_tivmin_ms={}",
                validate::DIVERGENCE_FACTOR,
                validate::DIVERGENCE_SLACK_MS,
                validate::TIV_FACTOR,
                validate::TIV_MIN_DETOUR_MS,
            );
        } else {
            out.push_str(" val=0");
        }
        out.push('\n');
        let _ = writeln!(out, "# rounds: {}", self.rounds_run);
        for (_, m) in self.measurements() {
            let _ = writeln!(
                out,
                "m\t{}\t{}\t{}\t{}\t{}",
                m.a.0,
                m.b.0,
                m.rtt_ms,
                m.at.as_nanos(),
                m.round
            );
        }
        let nodes = self.matrix.nodes();
        for ((i, j), rec) in self.queue.records() {
            if rec.attempts > 0 {
                let _ = writeln!(
                    out,
                    "f\t{}\t{}\t{}\t{}",
                    nodes[i as usize].0,
                    nodes[j as usize].0,
                    rec.attempts,
                    rec.retry_at.as_nanos()
                );
            }
        }
        if let Some(h) = &self.health {
            out.push_str(&h.checkpoint_lines());
        }
        crate::checkpoint::seal(out)
    }

    /// Parses a checkpoint document: the current (v3) magic, a valid
    /// CRC-32 trailer — any flipped or truncated byte is refused rather
    /// than resumed from — and exactly what [`Scanner::to_checkpoint`]
    /// writes (DESIGN.md §19). A malformed document is an error naming
    /// the line, never a panic.
    pub fn from_checkpoint(text: &str) -> Result<Scanner, String> {
        let mut doc = Doc::open_sealed(text, CHECKPOINT_MAGIC, "scan-checkpoint")?;
        let matrix = doc.nodes()?;
        let mut scanner = Scanner::over(matrix, parse_config(doc.header("config")?)?);
        let mut rounds = doc.header("rounds")?;
        scanner.rounds_run = rounds.field("round counter")?;
        rounds.end()?;
        for mut row in doc.rows() {
            let kind = row.text("row kind")?;
            match (kind, scanner.health.as_mut()) {
                ("m", _) => {
                    let (i, j) = scanner.matrix.read_cell(&mut row)?;
                    let rec = scanner.queue.record_mut(i, j);
                    rec.measured_at = Some(SimTime(row.field("timestamp")?));
                    rec.round = row.field("round")?;
                }
                ("f", _) => {
                    let (i, j) = scanner.matrix.read_pair(&mut row)?;
                    let rec = scanner.queue.record_mut(i, j);
                    if rec.attempts > 0 {
                        return Err(row.err("a second f row for the pair"));
                    }
                    // A pair under backoff has failed at least once.
                    rec.attempts = row.field_in("attempts", 1..=u32::MAX)?;
                    rec.retry_at = SimTime(row.field("next-attempt time")?);
                }
                ("h" | "q", Some(health)) => {
                    let node = scanner.matrix.node(scanner.matrix.read_node(&mut row)?);
                    health.read_row(kind, node, &mut row)?;
                }
                _ => return Err(row.err(&format!("tag {kind:?} is unknown or needs health=1"))),
            }
            row.end()?;
        }
        Ok(scanner)
    }

    /// Writes the checkpoint to a file atomically: the document goes to
    /// `<path>.tmp` first and is renamed into place, so a crash mid-write
    /// can never leave a torn checkpoint where
    /// [`Scanner::from_checkpoint`] would misparse it. When a previous
    /// checkpoint exists and still verifies, it is promoted to
    /// `<path>.bak` first, so [`Scanner::recover_observed`] always has a
    /// last good generation to fall back to.
    pub(crate) fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Ok(old) = std::fs::read_to_string(path) {
            // Never promote a corrupt primary over a good backup.
            if Scanner::from_checkpoint(&old).is_ok() {
                std::fs::rename(path, crate::checkpoint::bak_path(path))?;
            }
        }
        crate::checkpoint::write_atomic(path, &self.to_checkpoint())
    }

    /// Loads the checkpoint at `path`, falling back to the `.bak`
    /// generation [`Scanner::save`] maintains when the primary is
    /// missing, truncated, or corrupt. The primary's error is preserved
    /// when both fail. The fallback is made visible: when the `.bak`
    /// generation loads instead, the `ting.checkpoint.recovered_bak`
    /// counter is incremented and (at trace level) a
    /// [`obs::names::SCAN_RECOVER_BAK`] event records the path and the
    /// primary's error — silent recovery from a corrupt checkpoint is
    /// itself a signal worth alerting on.
    pub(crate) fn recover_observed(
        path: impl AsRef<std::path::Path>,
        obs: &Obs,
        now: SimTime,
    ) -> std::io::Result<Scanner> {
        let load = |path: &std::path::Path| {
            let text = std::fs::read_to_string(path)?;
            Scanner::from_checkpoint(&text)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        };
        let path = path.as_ref();
        match load(path) {
            Ok(s) => Ok(s),
            Err(primary_err) => {
                let s = load(&crate::checkpoint::bak_path(path)).map_err(|_| {
                    std::io::Error::new(primary_err.kind(), primary_err.to_string())
                })?;
                obs.inc("ting.checkpoint.recovered_bak");
                obs.event(obs::names::SCAN_RECOVER_BAK, now.as_nanos(), || {
                    vec![
                        ("path", Value::Str(path.display().to_string())),
                        ("primary_error", Value::Str(primary_err.to_string())),
                    ]
                });
                Ok(s)
            }
        }
    }
}

/// The first line of a scan checkpoint: the one format version read
/// and written.
const CHECKPOINT_MAGIC: &str = "# ting scan checkpoint v3";

/// Reads the `# config:` header: `key=value` tokens over the defaults,
/// a sub-config's keys after its `health=1` / `val=1`. Flags steer
/// control flow, so they are held to `0..=1`; a sub-config key is
/// held to the one value the scanner runs with.
fn parse_config(mut line: Row) -> Result<ScannerConfig, String> {
    let mut c = ScannerConfig::default();
    while let Some(token) = line.token() {
        let mut kv = line.part(token, '=');
        let k = kv.text("config key")?;
        match k {
            "staleness_ns" => c.staleness = SimDuration(kv.field(k)?),
            "pairs_per_round" => c.pairs_per_round = kv.field(k)?,
            "retry_backoff_ns" => c.retry_backoff = SimDuration(kv.field(k)?),
            "retry_backoff_cap_ns" => c.retry_backoff_cap = SimDuration(kv.field(k)?),
            "health" => c.health = kv.field_in(k, 0..=1)? == 1,
            "health_alpha" if c.health => fixed(&mut kv, k, health::EWMA_ALPHA)?,
            "health_qbelow" if c.health => fixed(&mut kv, k, health::QUARANTINE_BELOW)?,
            "health_rabove" if c.health => fixed(&mut kv, k, health::RELEASE_ABOVE)?,
            "health_probation_ns" if c.health => {
                fixed(&mut kv, k, health::PROBATION_INTERVAL.as_nanos())?
            }
            "health_halflife_ns" if c.health => {
                fixed(&mut kv, k, health::DECAY_HALF_LIFE.as_nanos())?
            }
            "val" => c.validation = kv.field_in(k, 0..=1)? == 1,
            "val_divfactor" if c.validation => fixed(&mut kv, k, validate::DIVERGENCE_FACTOR)?,
            "val_divslack_ms" if c.validation => fixed(&mut kv, k, validate::DIVERGENCE_SLACK_MS)?,
            "val_lightspeed" if c.validation => fixed(&mut kv, k, 1u8)?,
            "val_tivfactor" if c.validation => fixed(&mut kv, k, validate::TIV_FACTOR)?,
            "val_tivmin_ms" if c.validation => fixed(&mut kv, k, validate::TIV_MIN_DETOUR_MS)?,
            _ => return Err(kv.err(&format!("config key {k:?} is unknown or precedes its flag"))),
        }
        kv.end()?;
    }
    Ok(c)
}

/// Reads a sub-config value, refusing any but `value`.
fn fixed<T>(kv: &mut Row, k: &str, value: T) -> Result<(), String>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Debug + Copy,
{
    kv.field_in(k, value..=value).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::TingConfig;
    use tor_sim::TorNetworkBuilder;

    fn setup(pairs_per_round: usize) -> (tor_sim::TorNetwork, Scanner, Ting) {
        let net = TorNetworkBuilder::testbed(61).build();
        let nodes: Vec<NodeId> = net.relays.iter().copied().take(8).collect();
        let scanner = Scanner::new(
            nodes,
            ScannerConfig {
                staleness: netsim::SimDuration::from_hours(24),
                pairs_per_round,
                ..ScannerConfig::default()
            },
        );
        (net, scanner, Ting::new(TingConfig::fast()))
    }

    #[test]
    fn rounds_converge_to_full_coverage() {
        let (mut net, mut scanner, ting) = setup(10);
        // 8 nodes → 28 pairs → 3 rounds of 10.
        let r1 = scanner.run_round(&mut net, &ting);
        assert_eq!(r1.measured, 10);
        assert!(scanner.coverage() < 1.0);
        scanner.run_round(&mut net, &ting);
        let r3 = scanner.run_round(&mut net, &ting);
        assert_eq!(r3.measured, 8);
        assert_eq!(scanner.coverage(), 1.0);
        assert!(scanner.matrix().is_complete());
        assert_eq!(r3.still_pending, 0);
    }

    #[test]
    fn fresh_estimates_are_not_remeasured() {
        let (mut net, mut scanner, ting) = setup(30);
        scanner.run_round(&mut net, &ting);
        assert!(scanner.matrix().is_complete());
        // Immediately afterwards nothing is stale: the next round has
        // nothing to do.
        let idle = scanner.run_round(&mut net, &ting);
        assert_eq!((idle.measured, idle.failed, idle.still_pending), (0, 0, 0));
    }

    #[test]
    fn stale_estimates_get_refreshed_oldest_first() {
        let (mut net, mut scanner, ting) = setup(30);
        scanner.run_round(&mut net, &ting);
        let first_pair = {
            let nodes = scanner.matrix().nodes();
            (nodes[0], nodes[1])
        };
        let t0 = scanner.measured_at(first_pair.0, first_pair.1).unwrap();
        // Two days later everything is stale; the plan is non-empty and
        // ordered oldest-first.
        let later = netsim::SimTime::ZERO + netsim::SimDuration::from_hours(48);
        net.sim.advance_to(later);
        let plan = scanner.queue.plan(net.sim.now(), 30, &scanner.parked());
        assert_eq!(plan.len(), 28);
        assert_eq!(plan[0], (0, 1), "the first pair measured is the oldest");
        scanner.run_round(&mut net, &ting);
        let t1 = scanner.measured_at(first_pair.0, first_pair.1).unwrap();
        assert!(t1 > t0, "stale pair not refreshed");
    }

    #[test]
    fn unmeasured_pairs_outrank_stale_ones() {
        let (mut net, mut scanner, ting) = setup(27);
        // Measure 27 of 28 pairs; age them; the unmeasured pair must
        // come first in the next plan.
        scanner.run_round(&mut net, &ting);
        let plan_before = scanner.queue.plan(net.sim.now(), 27, &scanner.parked());
        assert_eq!(plan_before.len(), 1, "one pair left unmeasured");
        let missing = plan_before[0];
        net.sim
            .advance_to(netsim::SimTime::ZERO + netsim::SimDuration::from_hours(48));
        let plan = scanner.queue.plan(net.sim.now(), 27, &scanner.parked());
        assert_eq!(plan.len(), 27);
        assert_eq!(plan[0], missing);
    }

    #[test]
    fn still_pending_reports_true_backlog_beyond_round_cap() {
        let (mut net, mut scanner, ting) = setup(5);
        // 8 nodes → 28 pairs, 5 measured per round: `still_pending`
        // is the true backlog, not capped at `pairs_per_round`.
        let r = scanner.run_round(&mut net, &ting);
        assert_eq!(r.measured, 5);
        assert_eq!(r.still_pending, 23);
    }

    #[test]
    fn implausible_estimates_never_reach_the_cache() {
        use crate::estimator::CircuitSamples;

        let mut scanner = Scanner::new(vec![NodeId(1), NodeId(2)], ScannerConfig::default());
        let ting = Ting::new(TingConfig::fast());
        let now = SimTime::ZERO + SimDuration::from_secs(10);
        let sampled = |full: f64, leg: f64| TingMeasurement {
            full: CircuitSamples::new(vec![full; 5]),
            x_leg: CircuitSamples::new(vec![leg; 5]),
            y_leg: CircuitSamples::new(vec![leg; 5]),
            elapsed_s: 1.0,
        };
        // Eq. (4): 10 − 6 − 6 = −2 ms, a measurement artifact.
        let bad = sampled(10.0, 12.0);
        assert!(bad.estimate_ms() < 0.0);
        assert!(!scanner.record_success(NodeId(1), NodeId(2), &bad, now, &ting, &[]));
        assert_eq!(
            scanner.matrix().measured_pairs(),
            0,
            "negative estimate must never be cached"
        );
        assert_eq!(scanner.measured_at(NodeId(1), NodeId(2)), None);
        // The pair re-queued under the ordinary failure backoff.
        let (attempts, next_at) = scanner.retry_state(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(attempts, 1);
        assert!(next_at > now);
        assert!(scanner.queue.plan(now, 50, &scanner.parked()).is_empty());
        assert_eq!(
            scanner.queue.plan(next_at, 50, &scanner.parked()),
            vec![(0, 1)]
        );
        // A plausible re-measurement is accepted and clears the backoff.
        assert!(scanner.record_success(
            NodeId(1),
            NodeId(2),
            &sampled(50.0, 20.0),
            next_at,
            &ting,
            &[]
        ));
        assert_eq!(scanner.matrix().get(NodeId(1), NodeId(2)), Some(30.0));
        assert_eq!(scanner.retry_state(NodeId(1), NodeId(2)), None);
    }

    #[test]
    fn validation_detour_is_the_brute_force_minimum_over_cached_legs() {
        let (mut net, mut scanner, ting) = setup(10);
        // One round caches 10 of 28 pairs: a sparse matrix, where some
        // pairs have several candidate relays and some have none.
        scanner.run_round(&mut net, &ting);
        let locations = scanner.locations(&net);
        let (cached, ids) = (scanner.matrix(), scanner.matrix().nodes());
        let mut with_detour = 0;
        for &a in ids {
            for &b in ids.iter().filter(|&&b| b != a) {
                let want = ids
                    .iter()
                    .filter(|&&z| z != a && z != b)
                    .filter_map(|&z| Some(cached.get(a, z)? + cached.get(z, b)?))
                    .min_by(f64::total_cmp);
                let got = scanner
                    .validation_context(a, b, net.sim.now(), &locations)
                    .best_detour_ms;
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "({a:?}, {b:?})"
                );
                with_detour += usize::from(want.is_some());
            }
        }
        assert!(0 < with_detour && with_detour < 56, "{with_detour} of 56");
    }

    #[test]
    fn the_lightspeed_bound_needs_no_setup() {
        use crate::estimator::CircuitSamples;
        use obs::ObsConfig;

        // Validation on, and the scanner never told where anything is.
        let net = TorNetworkBuilder::testbed(61).build();
        let nodes: Vec<NodeId> = net.relays.iter().copied().take(8).collect();
        let config = ScannerConfig {
            validation: true,
            ..ScannerConfig::default()
        };
        let mut scanner = Scanner::new(nodes.clone(), config);
        let ting = Ting::with_obs(TingConfig::fast(), Obs::new(ObsConfig::Metrics));
        let now = SimTime::ZERO + SimDuration::from_secs(10);
        let locations = scanner.locations(&net);
        let at = |n: NodeId| net.sim.underlay().node(n.index()).location;
        let mut farthest = (0.0, nodes[0], nodes[1]);
        for (k, &a) in nodes.iter().enumerate() {
            for &b in &nodes[k + 1..] {
                let km = geo::great_circle_km(at(a), at(b));
                let ctx = scanner.validation_context(a, b, now, &locations);
                assert_eq!(ctx.distance_km.map(f64::to_bits), Some(km.to_bits()));
                if km > farthest.0 {
                    farthest = (km, a, b);
                }
            }
        }

        // An estimate 1 ms under the farthest pair's light-in-fiber floor.
        let (km, a, b) = farthest;
        let est = geo::lightspeed::min_rtt_ms(km) - 1.0;
        assert!(est > 1.0, "the testbed's farthest pair is {km} km apart");
        let leg = CircuitSamples::new(vec![10.0]);
        let m = TingMeasurement {
            full: CircuitSamples::new(vec![est + 10.0]),
            x_leg: leg.clone(),
            y_leg: leg,
            elapsed_s: 1.0,
        };
        assert!(!scanner.record_success(a, b, &m, now, &ting, &locations));
        let refused = ting
            .obs()
            .counter_value("ting.validate.reject.below_lightspeed");
        assert_eq!(refused, 1);
        assert_eq!(scanner.matrix().measured_pairs(), 0);
        let (attempts, retry_at) = scanner.retry_state(a, b).unwrap();
        assert_eq!((attempts, retry_at), (1, now + config.retry_backoff));
        let (i, j) = scanner.planned_pair(a, b);
        let plan = scanner.queue.plan(now, usize::MAX, &scanner.parked());
        assert!(!plan.contains(&(i, j)), "re-queued under backoff");
    }

    #[test]
    fn checkpoint_node_list_is_parsed_as_strictly_as_the_other_documents() {
        // Regression: this parser trimmed the prefix instead of
        // requiring it, so a bare id list loaded, and a bad id was
        // reported as `invalid digit found in string` with no line.
        let good =
            Scanner::new(vec![NodeId(0), NodeId(1)], ScannerConfig::default()).to_checkpoint();
        let body = crate::checkpoint::verify_sealed(&good).unwrap();
        let refused = |nodes_line: &str| {
            let doc = crate::checkpoint::seal(body.replacen("# nodes: 0 1", nodes_line, 1));
            Scanner::from_checkpoint(&doc)
                .err()
                .unwrap_or_else(|| panic!("{nodes_line:?} must be refused"))
        };
        let err = refused("0 1");
        assert!(err.contains("line 2 is not a '# nodes:' list"), "{err}");
        let err = refused("# nodes: 0 x1");
        assert!(err.contains("line 2: invalid node id \"x1\""), "{err}");
    }

    #[test]
    fn coverage_of_empty_scanner() {
        let scanner = Scanner::new(vec![NodeId(1), NodeId(2)], ScannerConfig::default());
        assert_eq!(scanner.coverage(), 0.0);
        assert_eq!(scanner.measured_at(NodeId(1), NodeId(2)), None);
    }

    /// A checkpointed scanner over `n` relays: scanners of different
    /// sizes checkpoint differently.
    fn generation(n: u32) -> Scanner {
        Scanner::new((0..n).map(NodeId).collect(), ScannerConfig::default())
    }

    /// The checkpoint file at `path`, read and parsed with no fallback.
    fn load(path: &std::path::Path) -> Result<Scanner, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Scanner::from_checkpoint(&text)
    }

    /// The checkpoint at `path` or its `.bak` generation, unobserved.
    fn recover(path: &std::path::Path) -> std::io::Result<Scanner> {
        Scanner::recover_observed(path, &Obs::off(), SimTime::ZERO)
    }

    #[test]
    fn save_promotes_backup_and_recover_falls_back() {
        let dir = std::env::temp_dir().join(format!("ting-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.ckpt");

        let gen1 = generation(4);
        gen1.save(&path).unwrap();
        let gen1_text = std::fs::read_to_string(&path).unwrap();

        // A second save promotes the first generation to `.bak`.
        let gen2 = generation(3);
        assert_ne!(gen2.to_checkpoint(), gen1_text, "the generations differ");
        gen2.save(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(crate::checkpoint::bak_path(&path)).unwrap(),
            gen1_text
        );

        // A healthy primary wins.
        assert_eq!(
            recover(&path).unwrap().to_checkpoint(),
            gen2.to_checkpoint()
        );

        // Corrupt the primary: recover falls back to the `.bak` generation.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&path).is_err(), "corrupt primary must not load");
        assert_eq!(recover(&path).unwrap().to_checkpoint(), gen1_text);

        // Both gone: the primary's error surfaces.
        std::fs::remove_file(crate::checkpoint::bak_path(&path)).unwrap();
        assert!(recover(&path).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_save_leaves_a_loadable_checkpoint() {
        let dir = std::env::temp_dir().join(format!("ting-ckpt-interrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.ckpt");

        let gen1 = generation(4);
        gen1.save(&path).unwrap();
        // A save killed right after the rename leaves exactly this state:
        // the (fsynced) document under the final name, nothing else. It
        // must be complete and loadable, byte for byte.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            gen1.to_checkpoint()
        );
        assert_eq!(load(&path).unwrap().to_checkpoint(), gen1.to_checkpoint());
        assert!(
            !crate::checkpoint::tmp_path(&path).exists(),
            "no temp file survives a save"
        );

        // A save killed *before* the rename instead leaves a torn `.tmp`
        // sibling. The primary is untouched by it, and the next save
        // replaces the garbage temp wholesale.
        std::fs::write(
            crate::checkpoint::tmp_path(&path),
            "# torn half-written garb",
        )
        .unwrap();
        assert_eq!(
            recover(&path).unwrap().to_checkpoint(),
            gen1.to_checkpoint()
        );
        let gen2 = generation(3);
        assert_ne!(
            gen2.to_checkpoint(),
            gen1.to_checkpoint(),
            "the generations differ"
        );
        gen2.save(&path).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            gen2.to_checkpoint()
        );
        assert!(!crate::checkpoint::tmp_path(&path).exists());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bak_fallback_increments_counter_and_emits_event() {
        use obs::{names, ObsConfig};

        let dir = std::env::temp_dir().join(format!("ting-ckpt-observed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.ckpt");

        let gen1 = generation(4);
        gen1.save(&path).unwrap();
        let gen1_text = std::fs::read_to_string(&path).unwrap();
        Scanner::from_checkpoint(&gen1_text)
            .unwrap()
            .save(&path)
            .unwrap();

        let now = SimTime::ZERO + SimDuration::from_secs(5);

        // A healthy primary recovers silently: no counter, no event.
        let obs = Obs::new(ObsConfig::Trace);
        Scanner::recover_observed(&path, &obs, now).unwrap();
        assert_eq!(obs.counter_value("ting.checkpoint.recovered_bak"), 0);
        assert!(obs.events().is_empty());

        // Corrupt the primary: the `.bak` fallback is counted and traced.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = Scanner::recover_observed(&path, &obs, now).unwrap();
        assert_eq!(recovered.to_checkpoint(), gen1_text);
        assert_eq!(obs.counter_value("ting.checkpoint.recovered_bak"), 1);
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, names::SCAN_RECOVER_BAK);
        assert_eq!(events[0].t_ns, now.as_nanos());
        assert!(
            events[0].fields.iter().any(|(k, _)| *k == "primary_error"),
            "event must carry the primary's error: {:?}",
            events[0].fields
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
