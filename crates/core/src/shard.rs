//! Sharded scan supervision: crash-isolated shards under a restart
//! budget, with a deterministic merge.
//!
//! A consensus-scale campaign (~6,600 relays, ~22M pairs) cannot afford
//! a monolithic scanner: one poisoned vantage or one corrupt checkpoint
//! stalls or restarts the whole scan. [`partition_pairs`] splits the
//! pair matrix into disjoint shards; each shard runs a full
//! [`Scanner`] restricted to its pairs ([`Scanner::restrict_to`]), so
//! it owns a shard-local work queue, relay-health state, adaptive
//! timeout estimators, and its own CRC-sealed checkpoint. The
//! [`Supervisor`] drives the shards round-robin and supervises them the
//! way an init system supervises processes:
//!
//! * **Heartbeats** — a shard that stops making progress for longer
//!   than [`SupervisorConfig::heartbeat_timeout`] (virtual time) is
//!   declared stuck, killed, and restarted from its last checkpoint.
//! * **Restart budget** — each restart waits a
//!   `crate::backoff::exponential` pause; a shard that exhausts
//!   [`SupervisorConfig::restart_budget`] restarts is quarantined and
//!   the scan continues **degraded**: the remaining shards keep making
//!   progress, and the merged matrix reports the dead shard's pairs as
//!   uncovered with staleness metadata instead of blocking.
//! * **Kept state** — a crash drops only the shard's driver; its
//!   scanner stays in the supervisor, holding the last completed round.
//!   A file-backed restart reads the checkpoint file (primary, then
//!   `.bak`) and resumes the kept scanner when both are refused, so a
//!   restart never wedges and never starts a shard over.
//!
//! The merge ([`Supervisor::merge`]) is a fixed shard-ordering
//! reduction over the shards' scanners. Shard ownership is disjoint, so
//! each pair has one source, and at shard count 1 the supervised scan
//! is bit-identical to the unsharded [`Scanner`] — tested in
//! `crates/core/tests/shard_scan.rs`.

use crate::checkpoint::{push_u64, seal_with_crc, Doc};
use crate::matrix::{ordered, PairMap};
use crate::orchestrator::{Ting, TingConfig};
use crate::scanner::{Scanner, ScannerConfig};
use crate::timeout::TimeoutEstimators;
use netsim::{NodeId, SimDuration, SimTime};
use obs::{names, Lineage, Obs, Value};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tor_sim::TorNetwork;

/// Assigns every unordered pair of `nodes` to one of `shards` shards,
/// round-robin by the pair's position in `(i, j)` index order. The
/// assignment is deterministic, covers every pair exactly once, and
/// balances shard sizes within one pair; when `shards` exceeds the
/// pair count the surplus shards own nothing (legal — they complete
/// immediately).
///
/// # Panics
/// Panics when `shards` is zero.
pub fn partition_pairs(nodes: &[NodeId], shards: usize) -> Vec<Vec<(NodeId, NodeId)>> {
    assert!(shards > 0, "shard count must be positive");
    let mut owned = vec![Vec::new(); shards];
    let mut ordinal = 0usize;
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            owned[owner(ordinal, shards)].push((a, b));
            ordinal += 1;
        }
    }
    owned
}

/// The shard [`partition_pairs`] deals the `ordinal`-th pair in
/// `(i, j)` index order to — what lets a walk over a scanner's pair
/// table or a node list (same order) tell ownership without a lookup.
fn owner(ordinal: usize, shards: usize) -> usize {
    ordinal % shards
}

/// Supervision policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Number of shards the pair matrix is partitioned into.
    pub shards: usize,
    /// Per-shard scanner policy (staleness, round budget, health,
    /// validation). `pairs_per_round` applies per shard.
    pub scanner: ScannerConfig,
    /// A shard that has made no progress for this long (virtual time)
    /// is declared stuck and restarted. Progress means a round that
    /// measured or failed at least one pair, or had no eligible work.
    pub heartbeat_timeout: SimDuration,
    /// Restarts allowed per shard before it is quarantined.
    pub restart_budget: u32,
    /// Base pause before restart `k`; escalates as
    /// `min(base · 2^(k−1), cap)` via `crate::backoff::exponential`.
    pub restart_backoff: SimDuration,
    /// Ceiling on a single restart pause.
    pub restart_backoff_cap: SimDuration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            shards: 4,
            scanner: ScannerConfig::default(),
            heartbeat_timeout: SimDuration::from_hours(2),
            restart_budget: 3,
            restart_backoff: SimDuration::from_secs(300),
            restart_backoff_cap: SimDuration::from_hours(1),
        }
    }
}

/// A shard's supervision state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Scanning normally.
    Running,
    /// Crashed or stalled; resumes from its checkpoint at `at`.
    Restarting { at: SimTime },
    /// Restart budget exhausted; permanently excluded. Its pairs stay
    /// at whatever coverage its last checkpoint reached.
    Quarantined,
}

impl ShardStatus {
    /// The status tag used in merged-document coverage rows.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            ShardStatus::Running => "live",
            ShardStatus::Restarting { .. } => "restarting",
            ShardStatus::Quarantined => "dead",
        }
    }
}

/// A shard is live — its driver running — or down, and its
/// [`ShardStatus`] is read off which.
enum SlotState {
    Live {
        ting: Box<Ting>,
        /// When the shard last made progress; `None` until its first
        /// supervised round.
        last_progress: Option<SimTime>,
        /// Chaos hook: the shard is wedged (alive but doing nothing)
        /// until this instant; only the supervisor's heartbeat can free
        /// it.
        wedged_until: Option<SimTime>,
    },
    Down {
        /// When the restart pause ends; `None` once the restart budget
        /// is exhausted (quarantined).
        restart_at: Option<SimTime>,
        /// Whether the kept scanner was already emitted as a delta — a
        /// downed shard's scanner is frozen, so one emission per outage
        /// suffices.
        emitted: bool,
    },
}

impl SlotState {
    fn status(&self) -> ShardStatus {
        match *self {
            SlotState::Live { .. } => ShardStatus::Running,
            SlotState::Down { restart_at, .. } => match restart_at {
                Some(at) => ShardStatus::Restarting { at },
                None => ShardStatus::Quarantined,
            },
        }
    }
}

/// One supervised shard: its scanner, state, and supervision
/// bookkeeping.
struct ShardSlot {
    id: u32,
    /// The shard's scanner, live or down. A shard dies only between
    /// rounds, so across a crash it holds the last completed round.
    scanner: Scanner,
    state: SlotState,
    /// The shard's adaptive-timeout estimators, shared with its live
    /// driver and kept across a crash. A shard dies only between rounds,
    /// so they hold what its last completed round taught.
    timeouts: TimeoutEstimators,
    restarts: u32,
    /// Incremental-publish watermark: measurements at or after this
    /// instant have not yet been drained by [`Supervisor::take_delta`].
    /// `None` means nothing was ever drained (everything is new).
    delta_mark: Option<SimTime>,
}

/// Aggregate outcome of one supervised round across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisorReport {
    pub measured: usize,
    pub failed: usize,
    /// Total eligible backlog across shards that ran this round.
    pub still_pending: usize,
    /// Shards that executed a scan round.
    pub shards_run: usize,
    /// Shards waiting out a restart pause (or wedged).
    pub shards_waiting: usize,
    /// Shards permanently quarantined.
    pub shards_quarantined: usize,
}

/// Per-shard coverage and staleness in a merged matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCoverage {
    pub shard: u32,
    /// `"live"`, `"restarting"`, or `"dead"`.
    pub status: &'static str,
    /// Pairs the partitioner assigned to this shard.
    pub owned: usize,
    /// Owned pairs with a cached estimate.
    pub covered: usize,
    /// Covered pairs older than the staleness horizon at merge time.
    pub stale: usize,
    /// Owned pairs with no estimate at all.
    pub uncovered: usize,
    /// Oldest / newest measurement timestamp among covered pairs.
    pub oldest_ns: Option<u64>,
    pub newest_ns: Option<u64>,
}

impl ShardCoverage {
    /// The row of a shard that owns `owned` pairs, none covered yet.
    pub(crate) fn new(shard: u32, status: &'static str, owned: usize) -> ShardCoverage {
        ShardCoverage {
            shard,
            status,
            owned,
            covered: 0,
            stale: 0,
            uncovered: owned,
            oldest_ns: None,
            newest_ns: None,
        }
    }

    /// Counts one owned pair as covered by an estimate measured at `t`,
    /// judged against the `staleness` horizon at `now`. The offline
    /// merge and the live pipeline both tally through here — their
    /// coverage rows must agree byte for byte.
    pub(crate) fn cover(&mut self, t: SimTime, now: SimTime, staleness: SimDuration) {
        self.covered += 1;
        self.uncovered -= 1;
        if now.since(t) >= staleness {
            self.stale += 1;
        }
        let t_ns = t.as_nanos();
        self.oldest_ns = Some(self.oldest_ns.map_or(t_ns, |o| o.min(t_ns)));
        self.newest_ns = Some(self.newest_ns.map_or(t_ns, |n| n.max(t_ns)));
    }
}

/// The deterministic reduction over shard checkpoints.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    pub matrix: crate::matrix::RttMatrix,
    pub measured_at: PairMap<SimTime>,
    /// Per-pair provenance: the shard and scan round that produced
    /// each covered cell. Pairs without an entry (data merged from
    /// pre-lineage state) render as unknown.
    pub lineage: PairMap<Lineage>,
    /// One row per shard, in shard-id order.
    pub shards: Vec<ShardCoverage>,
    /// The merge instant staleness was judged against.
    pub now: SimTime,
}

impl MergeOutcome {
    /// The empty dataset over `nodes`, dealt to `shards` live shards.
    ///
    /// # Panics
    /// Panics when `shards` is zero or `nodes` repeats a node.
    pub fn new(nodes: Vec<NodeId>, shards: usize) -> MergeOutcome {
        assert!(shards > 0, "shard count must be positive");
        let mut empty = MergeOutcome {
            matrix: crate::matrix::RttMatrix::new(nodes),
            measured_at: PairMap::default(),
            lineage: PairMap::default(),
            // Judging numbers the rows and counts what each owns.
            shards: vec![ShardCoverage::new(0, "live", 0); shards],
            now: SimTime::ZERO,
        };
        empty.judge_coverage(SimTime::ZERO, SimDuration::ZERO);
        empty
    }

    /// Whether [`MergeOutcome::fold`] takes `delta`, asked before
    /// anything is written: one status tag per shard, and every pair one
    /// `crate::RttMatrix::try_set` accepts (known, distinct, finite).
    pub fn admits(&self, delta: &MergeDelta) -> Result<(), String> {
        let (tags, shards) = (delta.statuses.len(), self.shards.len());
        if tags != shards {
            return Err(format!(
                "carries {tags} shard statuses, pipeline has {shards} shards"
            ));
        }
        for p in &delta.pairs {
            let cell = self.matrix.admits(p.a, p.b, p.rtt_ms);
            cell.map_err(|e| format!("carries pair ({}, {}): {e}", p.a.0, p.b.0))?;
        }
        Ok(())
    }

    /// Folds `delta` in: each pair assigns its cell, instant and
    /// lineage (later pairs win), each shard row takes its status tag.
    /// A delta [`MergeOutcome::admits`] refuses is an `Err`, unfolded.
    pub fn fold(&mut self, delta: MergeDelta) -> Result<(), String> {
        self.admits(&delta)?;
        for p in delta.pairs {
            self.matrix.try_set(p.a, p.b, p.rtt_ms)?;
            self.measured_at.insert(ordered(p.a, p.b), p.measured_at);
            self.lineage.insert(ordered(p.a, p.b), p.lineage);
        }
        for (row, status) in self.shards.iter_mut().zip(delta.statuses) {
            row.status = status;
        }
        Ok(())
    }

    /// Re-tallies the coverage rows exactly as [`Supervisor::merge`]
    /// does: every pair dealt to its owner in `(i, j)` index order,
    /// staleness judged at `now` against the same horizon, each row
    /// keeping its status tag.
    pub fn judge_coverage(&mut self, now: SimTime, staleness: SimDuration) {
        let shards = self.shards.len();
        for (k, row) in self.shards.iter_mut().enumerate() {
            *row = ShardCoverage::new(k as u32, row.status, 0);
        }
        let nodes = self.matrix.nodes();
        let mut ordinal = 0;
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                let row = &mut self.shards[owner(ordinal, shards)];
                row.owned += 1;
                row.uncovered += 1;
                if let Some(&t) = self.measured_at.get(&ordered(a, b)) {
                    row.cover(t, now, staleness);
                }
                ordinal += 1;
            }
        }
        self.now = now;
    }

    /// Every measured pair as `(i, j, rtt, measured_at, lineage)` in
    /// index space, `i < j`, in `(i, j)` order — the one row source
    /// under the rendered document and the served snapshot. A measured
    /// cell with no instant (only a hand-built outcome holds one) is not
    /// a row.
    pub fn rows(&self) -> impl Iterator<Item = (u32, u32, f64, SimTime, Option<Lineage>)> + '_ {
        let nodes = self.matrix.nodes();
        self.matrix.cells().filter_map(move |(i, j, rtt)| {
            let pair = ordered(nodes[i as usize], nodes[j as usize]);
            let lineage = self.lineage.get(&pair).copied();
            Some((i, j, rtt, *self.measured_at.get(&pair)?, lineage))
        })
    }

    /// Renders the merged matrix as a deterministic, CRC-sealed text
    /// document: coverage rows in shard order, then matrix rows in
    /// `(i, j)` index order with their measurement timestamps. Two
    /// merges of equal shard state render bit-identically regardless
    /// of shard completion order — this document is what the soak
    /// harness compares across kill/resume boundaries.
    pub fn to_document(&self) -> String {
        self.to_document_with_crc().0
    }

    /// [`MergeOutcome::to_document`] and the document's CRC-32: the
    /// seal's pass over the body, continued over its trailer — the one
    /// pass over the document's bytes a publish makes.
    pub fn to_document_with_crc(&self) -> (String, u32) {
        let nodes = self.matrix.nodes();
        // Generous line sizes: capacity never written costs address
        // space, not memory, and a short guess would copy the document.
        let rows = 56 * self.measured_at.len() + 96 * self.shards.len();
        let mut out = String::with_capacity(128 + 11 * nodes.len() + rows);
        out.push_str(MERGED_MAGIC);
        out.push('\n');
        crate::checkpoint::write_nodes_header(&mut out, self.matrix.nodes());
        let _ = writeln!(out, "# now_ns: {}", self.now.as_nanos());
        for c in &self.shards {
            let _ = writeln!(
                out,
                "s\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                c.shard,
                c.status,
                c.owned,
                c.covered,
                c.stale,
                c.uncovered,
                c.oldest_ns.map_or("-".into(), |t| t.to_string()),
                c.newest_ns.map_or("-".into(), |t| t.to_string()),
            );
        }
        for (i, j, rtt, t, lineage) in self.rows() {
            out.push_str("m\t");
            push_u64(&mut out, nodes[i as usize].0.into());
            out.push('\t');
            push_u64(&mut out, nodes[j as usize].0.into());
            // Shortest round-trip digits: `f64`'s own `Display`.
            let _ = write!(out, "\t{rtt}\t");
            push_u64(&mut out, t.as_nanos());
            match lineage {
                Some(l) => {
                    out.push('\t');
                    push_u64(&mut out, l.shard.into());
                    out.push('\t');
                    push_u64(&mut out, l.round);
                }
                None => out.push_str("\t-\t-"),
            }
            out.push('\n');
        }
        seal_with_crc(out)
    }

    /// Owned-pair coverage across every shard, `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        let owned: usize = self.shards.iter().map(|c| c.owned).sum();
        if owned == 0 {
            return 1.0;
        }
        let covered: usize = self.shards.iter().map(|c| c.covered).sum();
        covered as f64 / owned as f64
    }
}

/// The first line of the [`MergeOutcome::to_document`] format.
pub const MERGED_MAGIC: &str = "# ting merged matrix v2";

/// One incremental publish unit drained from a running [`Supervisor`]
/// by [`Supervisor::take_delta`]: every owned pair measured (or
/// re-measured) since the previous drain, plus the current per-shard
/// statuses. Applying a delta is idempotent assignment — re-applying a
/// pair sets the same value — so consumers may see a boundary pair
/// twice across drains (the watermark is inclusive) without harm.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeDelta {
    /// Strictly increasing per supervisor, starting at 1.
    pub seq: u64,
    /// Measured pairs in shard, then partition order — deterministic
    /// for a given supervisor state.
    pub pairs: Vec<DeltaPair>,
    /// Status tag per shard (`ShardStatus::tag`), indexed by shard id.
    pub statuses: Vec<&'static str>,
    /// The instant the delta was drained.
    pub now: SimTime,
}

/// One measured pair inside a [`MergeDelta`], carrying its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaPair {
    pub a: NodeId,
    pub b: NodeId,
    pub rtt_ms: f64,
    /// The measurement instant (the scanner's acceptance time).
    pub measured_at: SimTime,
    /// Which shard measured the pair, in which scan round.
    pub lineage: Lineage,
}

/// A merged-matrix document parsed back into data — the read-side
/// inverse of [`MergeOutcome::to_document`], and the load path the
/// latency oracle uses to serve a supervised scan's output. Timestamps
/// come back as raw nanoseconds (the document's own unit) rather than
/// [`SimTime`], since readers live outside the simulation.
#[derive(Debug, Clone)]
pub struct MergedDocument {
    pub matrix: crate::matrix::RttMatrix,
    /// Measurement instants, keyed by the pair in ascending-id order.
    pub measured_at_ns: PairMap<u64>,
    /// Per-pair provenance, keyed like `measured_at_ns`. Pairs whose
    /// row carried `-` markers are absent.
    pub lineage: PairMap<Lineage>,
    /// Coverage rows, in document (= shard id) order.
    pub shards: Vec<ShardCoverage>,
    /// The merge instant staleness was judged against.
    pub now_ns: u64,
}

/// A parsed document is the outcome it was rendered from: rendering it
/// again reproduces the document byte for byte.
impl From<MergedDocument> for MergeOutcome {
    fn from(doc: MergedDocument) -> MergeOutcome {
        MergeOutcome {
            matrix: doc.matrix,
            measured_at: doc
                .measured_at_ns
                .into_iter()
                .map(|(pair, t_ns)| (pair, SimTime(t_ns)))
                .collect(),
            lineage: doc.lineage,
            shards: doc.shards,
            now: SimTime(doc.now_ns),
        }
    }
}

/// Parses a CRC-sealed merged-matrix document: exactly what
/// [`MergeOutcome::to_document`] writes (DESIGN.md §19), or an error
/// naming the offending line.
pub fn parse_merged_document(text: &str) -> Result<MergedDocument, String> {
    let mut doc = Doc::open_sealed(text, MERGED_MAGIC, "merged-matrix")?;
    let mut matrix = doc.nodes()?;
    let mut now = doc.header("now_ns")?;
    let now_ns = now.field("now_ns")?;
    now.end()?;

    let mut measured_at_ns = PairMap::default();
    let mut lineage = PairMap::default();
    let mut shards = Vec::new();
    for mut row in doc.rows() {
        match row.text("row kind")? {
            "s" => {
                // Coverage rows come in shard order, `0..k`.
                let next = shards.len() as u32;
                let shard = row.field_in("shard id", next..=next)?;
                let status = match row.text("shard status")? {
                    "live" => "live",
                    "restarting" => "restarting",
                    "dead" => "dead",
                    other => return Err(row.err(&format!("unknown shard status {other:?}"))),
                };
                shards.push(ShardCoverage {
                    shard,
                    status,
                    owned: row.field("owned count")?,
                    covered: row.field("covered count")?,
                    stale: row.field("stale count")?,
                    uncovered: row.field("uncovered count")?,
                    oldest_ns: row.opt("oldest_ns")?,
                    newest_ns: row.opt("newest_ns")?,
                });
            }
            "m" => {
                let (i, j) = matrix.read_cell(&mut row)?;
                let pair = ordered(matrix.node(i), matrix.node(j));
                measured_at_ns.insert(pair, row.field("timestamp")?);
                match (row.opt("lineage shard")?, row.opt("lineage round")?) {
                    (Some(shard), Some(round)) => {
                        lineage.insert(pair, Lineage { shard, round });
                    }
                    (None, None) => {}
                    _ => return Err(row.err("invalid lineage shard / round: one is '-' alone")),
                }
            }
            kind => return Err(row.err(&format!("unknown row kind {kind:?}"))),
        }
        row.end()?;
    }
    Ok(MergedDocument {
        matrix,
        measured_at_ns,
        lineage,
        shards,
        now_ns,
    })
}

/// The shard supervisor: drives every shard's scan rounds, detects
/// stalls, restarts crashed shards under the restart budget,
/// quarantines repeat offenders, and merges shard state into one
/// matrix. See the module docs for the supervision policy.
pub struct Supervisor {
    config: SupervisorConfig,
    ting_config: TingConfig,
    obs: Obs,
    nodes: Vec<NodeId>,
    slots: Vec<ShardSlot>,
    /// Sequence number of the last [`Supervisor::take_delta`] drain.
    delta_seq: u64,
    /// When set, each shard persists `shard-<id>.ckpt` here after every
    /// round and restarts recover through [`Scanner::recover_observed`]
    /// (primary, then `.bak`, then the kept scanner).
    checkpoint_dir: Option<PathBuf>,
}

impl Supervisor {
    /// A supervisor with observability off.
    pub fn new(
        nodes: Vec<NodeId>,
        config: SupervisorConfig,
        ting_config: TingConfig,
    ) -> Supervisor {
        Supervisor::with_obs(nodes, config, ting_config, Obs::off())
    }

    /// A supervisor recording shard lifecycle events (and everything
    /// the shards' scanners emit) into `obs`.
    pub fn with_obs(
        nodes: Vec<NodeId>,
        config: SupervisorConfig,
        ting_config: TingConfig,
        obs: Obs,
    ) -> Supervisor {
        let slots = partition_pairs(&nodes, config.shards)
            .into_iter()
            .enumerate()
            .map(|(id, owned)| {
                let mut scanner = Scanner::new(nodes.clone(), config.scanner);
                scanner.restrict_to(&owned);
                let ting = Ting::with_obs(ting_config, obs.clone());
                ShardSlot {
                    id: id as u32,
                    scanner,
                    timeouts: ting.timeouts.clone(),
                    state: SlotState::Live {
                        ting: Box::new(ting),
                        last_progress: None,
                        wedged_until: None,
                    },
                    restarts: 0,
                    delta_mark: None,
                }
            })
            .collect();
        Supervisor {
            config,
            ting_config,
            obs,
            nodes,
            slots,
            delta_seq: 0,
            checkpoint_dir: None,
        }
    }

    /// Enables file-backed shard checkpoints under `dir`.
    pub fn set_checkpoint_dir(&mut self, dir: impl Into<PathBuf>) {
        self.checkpoint_dir = Some(dir.into());
    }

    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The supervision state of shard `k`.
    pub fn status(&self, k: usize) -> ShardStatus {
        self.slots[k].state.status()
    }

    /// Shard `k`'s live scanner, absent while it is down.
    pub fn scanner(&self, k: usize) -> Option<&Scanner> {
        let slot = &self.slots[k];
        matches!(slot.state, SlotState::Live { .. }).then_some(&slot.scanner)
    }

    /// Chaos hook: kills shard `k` right now, as a crash would — its
    /// driver is dropped, its scanner kept, and it restarts as any
    /// crashed shard does (budget and backoff apply, exactly like an
    /// organic failure).
    pub fn inject_crash(&mut self, k: usize, now: SimTime) {
        if self.status(k) == ShardStatus::Quarantined {
            return;
        }
        self.crash(k, now, "injected");
    }

    /// Chaos hook: wedges live shard `k` until `until` — it stays
    /// alive but executes no rounds, the failure mode only the
    /// heartbeat deadline can detect. A downed shard already runs
    /// nothing and is left alone.
    pub fn inject_hang(&mut self, k: usize, until: SimTime) {
        if let SlotState::Live { wedged_until, .. } = &mut self.slots[k].state {
            *wedged_until = Some(until);
        }
    }

    /// Runs one supervised round: restores shards whose restart pause
    /// has elapsed, kills shards past their heartbeat deadline, runs a
    /// scan round on every healthy shard in fixed shard order, and
    /// saves each shard's checkpoint file afterwards when file-backed.
    pub fn run_round(&mut self, net: &mut TorNetwork) -> SupervisorReport {
        let mut report = SupervisorReport::default();
        for k in 0..self.slots.len() {
            let now = net.sim.now();
            if matches!(self.status(k), ShardStatus::Restarting { at } if now >= at) {
                self.restore(k, now);
            }
            let slot = &mut self.slots[k];
            let SlotState::Live {
                ting,
                last_progress,
                wedged_until,
            } = &mut slot.state
            else {
                match slot.state.status() {
                    ShardStatus::Quarantined => report.shards_quarantined += 1,
                    _ => report.shards_waiting += 1,
                }
                continue;
            };
            let idle = now.since(*last_progress.get_or_insert(now));
            if idle > self.config.heartbeat_timeout {
                // The heartbeat deadline passed with no progress: the
                // shard is stuck (wedged process, poisoned vantage).
                // Kill it; the restart path takes over.
                self.obs.inc("ting.shard.stalled");
                self.obs.event(names::SHARD_STALL, now.as_nanos(), || {
                    vec![
                        ("shard", Value::U64(k as u64)),
                        ("idle_ns", Value::U64(idle.as_nanos())),
                    ]
                });
                self.crash(k, now, "stall");
                report.shards_waiting += 1;
                continue;
            }
            *wedged_until = wedged_until.filter(|&u| now < u);
            if wedged_until.is_some() {
                // Simulated hang: alive, no round, no progress.
                report.shards_waiting += 1;
                continue;
            }
            let span = self
                .obs
                .span_begin(names::SHARD_ROUND_BEGIN, now.as_nanos(), || {
                    vec![("shard", Value::U64(k as u64))]
                });
            let r = slot.scanner.run_round_parallel(net, ting);
            let now = net.sim.now();
            self.obs
                .span_end(names::SHARD_ROUND_END, span, now.as_nanos(), || {
                    vec![
                        ("shard", Value::U64(k as u64)),
                        ("measured", Value::U64(r.measured as u64)),
                        ("failed", Value::U64(r.failed as u64)),
                        ("still_pending", Value::U64(r.still_pending as u64)),
                    ]
                });
            // Progress = the round did work, or had none eligible to do.
            if r.measured + r.failed > 0 || r.still_pending == 0 {
                *last_progress = Some(now);
            }
            let saved = self
                .checkpoint_dir
                .as_ref()
                .is_none_or(|dir| slot.scanner.save(shard_path(dir, slot.id)).is_ok());
            report.measured += r.measured;
            report.failed += r.failed;
            report.still_pending += r.still_pending;
            report.shards_run += 1;
            if !saved {
                // Treat a failing checkpoint disk like a crashed shard:
                // scanning on without durable state would silently void
                // the crash-safety contract. The shard is counted as
                // run *and* now waiting.
                self.crash(k, now, "io");
                report.shards_waiting += 1;
            }
        }
        report
    }

    /// Kills shard `k`: its driver is dropped (the scanner is kept) and
    /// a restart is scheduled under the budget, or the shard is
    /// quarantined beyond it.
    fn crash(&mut self, k: usize, now: SimTime, reason: &str) {
        self.slots[k].restarts += 1;
        let restarts = self.slots[k].restarts;
        self.obs.inc("ting.shard.crashed");
        self.obs.event(names::SHARD_CRASH, now.as_nanos(), || {
            vec![
                ("shard", Value::U64(k as u64)),
                ("reason", Value::Str(reason.to_owned())),
                ("restarts", Value::U64(restarts as u64)),
            ]
        });
        let restart_at = if restarts > self.config.restart_budget {
            self.obs.inc("ting.shard.quarantined");
            self.obs.event(names::SHARD_QUARANTINE, now.as_nanos(), || {
                vec![
                    ("shard", Value::U64(k as u64)),
                    ("restarts", Value::U64(restarts as u64)),
                ]
            });
            None
        } else {
            let pause = crate::backoff::exponential(
                self.config.restart_backoff,
                restarts,
                self.config.restart_backoff_cap,
            );
            Some(now + pause)
        };
        // A fresh outage: its kept scanner is new to the delta stream
        // again.
        self.slots[k].state = SlotState::Down {
            restart_at,
            emitted: false,
        };
    }

    /// Brings a crashed shard back at `now` with its timeout estimators.
    /// A file-backed shard resumes its checkpoint file (primary, then
    /// `.bak`), its scope re-dealt by [`partition_pairs`], the rule
    /// construction used. With no file, both generations refused, or a
    /// file over another node list (no checkpoint of this shard), it
    /// resumes the scanner it kept across the crash.
    fn restore(&mut self, k: usize, now: SimTime) {
        let slot = &mut self.slots[k];
        let from_file = self.checkpoint_dir.as_ref().and_then(|dir| {
            Scanner::recover_observed(shard_path(dir, slot.id), &self.obs, now).ok()
        });
        if let Some(mut scanner) = from_file.filter(|s| s.matrix().nodes() == self.nodes) {
            scanner.restrict_to(&partition_pairs(&self.nodes, self.config.shards)[k]);
            slot.scanner = scanner;
        }
        let mut ting = Ting::with_obs(self.ting_config, self.obs.clone());
        ting.timeouts = slot.timeouts.clone();
        slot.state = SlotState::Live {
            ting: Box::new(ting),
            last_progress: Some(now),
            wedged_until: None,
        };
        self.obs.inc("ting.shard.restarted");
        self.obs.event(names::SHARD_RESTART, now.as_nanos(), || {
            vec![
                ("shard", Value::U64(k as u64)),
                ("attempt", Value::U64(self.slots[k].restarts as u64)),
            ]
        });
    }

    /// Merges every shard's scanner — live, or kept across an outage —
    /// into one matrix with per-shard coverage rows: a fixed
    /// shard-ordering reduction in which each shard contributes only
    /// the pairs [`partition_pairs`] deals it, each tallied as
    /// `ShardCoverage::cover` judges it at `now`. Never returns `Err`.
    pub fn merge(&self, now: SimTime) -> Result<MergeOutcome, String> {
        let count = self.slots.len();
        let n = self.nodes.len();
        let total = n * n.saturating_sub(1) / 2;
        let staleness = self.config.scanner.staleness;
        let mut matrix = crate::matrix::RttMatrix::new(self.nodes.clone());
        let mut measured_at = PairMap::default();
        let mut lineage = PairMap::default();
        let mut shards = Vec::with_capacity(count);
        for (k, slot) in self.slots.iter().enumerate() {
            let (shard, s) = (slot.id, &slot.scanner);
            let owned = (0..total).filter(|&p| owner(p, count) == k).count();
            let mut coverage = ShardCoverage::new(shard, slot.state.status().tag(), owned);
            for (_, m) in s.measurements().filter(|&(p, _)| owner(p, count) == k) {
                let (pair, round) = (ordered(m.a, m.b), m.round);
                matrix.set(m.a, m.b, m.rtt_ms);
                measured_at.insert(pair, m.at);
                lineage.insert(pair, Lineage { shard, round });
                coverage.cover(m.at, now, staleness);
            }
            shards.push(coverage);
        }
        Ok(MergeOutcome {
            matrix,
            measured_at,
            lineage,
            shards,
            now,
        })
    }

    /// Drains the incremental merge delta: every owned pair measured at
    /// or after the slot's watermark since the previous drain. Live
    /// shards advance their watermark to `now`; a downed shard emits
    /// its frozen kept scanner once per outage and keeps its watermark,
    /// so a later restore re-emits anything the outage hid. The inclusive `>=` filter may re-emit a boundary
    /// measurement — application is assignment, so duplicates are
    /// idempotent and nothing is ever lost.
    pub fn take_delta(&mut self, now: SimTime) -> MergeDelta {
        self.delta_seq += 1;
        let mut pairs = Vec::new();
        let count = self.slots.len();
        let mut statuses = Vec::with_capacity(count);
        for slot in &mut self.slots {
            statuses.push(slot.state.status().tag());
            match &mut slot.state {
                SlotState::Live { .. } => {
                    emit_since(&slot.scanner, slot.id, count, slot.delta_mark, &mut pairs);
                    slot.delta_mark = Some(now);
                }
                SlotState::Down { emitted, .. } => {
                    if *emitted {
                        continue;
                    }
                    *emitted = true;
                    emit_since(&slot.scanner, slot.id, count, slot.delta_mark, &mut pairs);
                }
            }
        }
        if self.obs.is_tracing() {
            // One provenance record per drained pair, stamped at the
            // drain instant (the measurement's own time may predate
            // earlier events; the event log must stay monotone).
            for p in &pairs {
                self.obs.event(names::LINEAGE_PAIR, now.as_nanos(), || {
                    vec![
                        ("a", Value::U64(p.a.0 as u64)),
                        ("b", Value::U64(p.b.0 as u64)),
                        ("shard", Value::U64(u64::from(p.lineage.shard))),
                        ("round", Value::U64(p.lineage.round)),
                        ("seq", Value::U64(self.delta_seq)),
                        ("t_meas", Value::U64(p.measured_at.as_nanos())),
                    ]
                });
            }
        }
        MergeDelta {
            seq: self.delta_seq,
            pairs,
            statuses,
            now,
        }
    }
}

/// Pushes every pair shard `shard` of `shards` owns with a measurement
/// at or after `mark` (all of them when `mark` is `None`) onto `out`,
/// in partition order, each stamped with the owning shard and the
/// scanner's round of record.
fn emit_since(
    s: &Scanner,
    shard: u32,
    shards: usize,
    mark: Option<SimTime>,
    out: &mut Vec<DeltaPair>,
) {
    out.extend(
        s.measurements()
            .filter(|&(p, m)| owner(p, shards) == shard as usize && mark.is_none_or(|k| m.at >= k))
            .map(|(_, m)| DeltaPair {
                a: m.a,
                b: m.b,
                rtt_ms: m.rtt_ms,
                measured_at: m.at,
                lineage: Lineage {
                    shard,
                    round: m.round,
                },
            }),
    );
}

/// Shard `id`'s checkpoint file under `dir`.
pub(crate) fn shard_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("shard-{id}.ckpt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn merged_document_parse_inverts_render() {
        let mut matrix = crate::matrix::RttMatrix::new(nodes(3));
        matrix.set(NodeId(0), NodeId(1), 12.5);
        matrix.set(NodeId(1), NodeId(2), 80.25);
        let mut measured_at = PairMap::default();
        measured_at.insert((NodeId(0), NodeId(1)), SimTime(1_000));
        measured_at.insert((NodeId(1), NodeId(2)), SimTime(2_000));
        // One pair with provenance, one without: both column forms
        // must round-trip.
        let mut lineage = PairMap::default();
        lineage.insert((NodeId(0), NodeId(1)), Lineage { shard: 0, round: 4 });
        let outcome = MergeOutcome {
            matrix,
            measured_at,
            lineage,
            shards: vec![
                ShardCoverage {
                    shard: 0,
                    status: "live",
                    owned: 2,
                    covered: 2,
                    stale: 0,
                    uncovered: 0,
                    oldest_ns: Some(1_000),
                    newest_ns: Some(2_000),
                },
                ShardCoverage {
                    shard: 1,
                    status: "dead",
                    owned: 1,
                    covered: 0,
                    stale: 0,
                    uncovered: 1,
                    oldest_ns: None,
                    newest_ns: None,
                },
            ],
            now: SimTime(5_000),
        };
        let doc = outcome.to_document();
        let parsed = parse_merged_document(&doc).expect("rendered document must parse");
        assert_eq!(parsed.matrix, outcome.matrix);
        assert_eq!(parsed.now_ns, 5_000);
        assert_eq!(parsed.shards, outcome.shards);
        assert_eq!(parsed.measured_at_ns[&(NodeId(0), NodeId(1))], 1_000);
        assert_eq!(parsed.measured_at_ns[&(NodeId(1), NodeId(2))], 2_000);
        assert_eq!(
            parsed.lineage.get(&(NodeId(0), NodeId(1))),
            Some(&Lineage { shard: 0, round: 4 })
        );
        assert_eq!(parsed.lineage.get(&(NodeId(1), NodeId(2))), None);
        // Re-rendering the parsed state is a byte-identical fixed point,
        // and the row without provenance comes back out without it.
        let back = MergeOutcome::from(parsed);
        assert_eq!(back.to_document(), doc);
        let lineages: Vec<_> = back.rows().map(|row| row.4).collect();
        assert_eq!(lineages, [Some(Lineage { shard: 0, round: 4 }), None]);
    }

    fn pair(a: u32, b: u32, rtt_ms: f64, at: u64, lineage: (u32, u64)) -> DeltaPair {
        let (shard, round) = lineage;
        DeltaPair {
            a: NodeId(a),
            b: NodeId(b),
            rtt_ms,
            measured_at: SimTime(at),
            lineage: Lineage { shard, round },
        }
    }

    fn delta(pairs: Vec<DeltaPair>, statuses: Vec<&'static str>) -> MergeDelta {
        MergeDelta {
            seq: 1,
            pairs,
            statuses,
            now: SimTime(100),
        }
    }

    #[test]
    fn admits_names_each_refusal_and_a_refused_delta_folds_nothing() {
        let mut merged = MergeOutcome::new(nodes(3), 2);
        let empty = merged.to_document();
        let good = pair(0, 1, 5.0, 10, (0, 1));
        let two = vec!["live"; 2];
        let refusals = [
            (
                vec![],
                good,
                "carries 0 shard statuses, pipeline has 2 shards",
            ),
            (
                vec!["live"; 3],
                good,
                "carries 3 shard statuses, pipeline has 2 shards",
            ),
            (
                two.clone(),
                pair(0, 9, 5.0, 10, (0, 1)),
                "carries pair (0, 9): unknown node 9",
            ),
            (
                two.clone(),
                pair(9, 0, 5.0, 10, (0, 1)),
                "carries pair (9, 0): unknown node 9",
            ),
            (
                two.clone(),
                pair(2, 2, 5.0, 10, (0, 1)),
                "carries pair (2, 2): pair of a node with itself",
            ),
            (
                two.clone(),
                pair(0, 1, f64::NAN, 10, (0, 1)),
                "carries pair (0, 1): non-finite RTT NaN",
            ),
            (
                two.clone(),
                pair(0, 1, f64::INFINITY, 10, (0, 1)),
                "carries pair (0, 1): non-finite RTT inf",
            ),
        ];
        for (statuses, bad, reason) in refusals {
            // The offender comes last: a fold that wrote as it went
            // would have written `good` before it met it.
            let refused = delta(vec![good, bad], statuses);
            assert_eq!(merged.admits(&refused).unwrap_err(), reason);
            assert_eq!(merged.fold(refused).unwrap_err(), reason);
            assert_eq!(merged.to_document(), empty, "{reason}");
        }
        let admitted = delta(vec![good], two);
        assert_eq!(merged.admits(&admitted), Ok(()));
        assert_eq!(merged.fold(admitted), Ok(()));
        assert_eq!(merged.rows().count(), 1);
    }

    #[test]
    fn folded_pairs_come_back_as_rows_in_index_order_later_pairs_winning() {
        // Ids out of order in the node list: rows follow the list.
        let mut merged = MergeOutcome::new(vec![NodeId(7), NodeId(3), NodeId(5)], 2);
        let first = vec![
            pair(5, 7, 1.0, 10, (0, 1)),
            pair(3, 7, 2.0, 11, (1, 1)),
            // The same pair again, named the other way round.
            pair(7, 5, 3.0, 12, (0, 2)),
        ];
        merged
            .fold(delta(first, vec!["live", "restarting"]))
            .unwrap();
        // Measured earlier than anything the dataset holds, folded later.
        let second = vec![pair(3, 5, 4.0, 5, (1, 3))];
        merged.fold(delta(second, vec!["dead", "live"])).unwrap();

        let row = |i, j, rtt, at, (shard, round)| {
            let lineage = Some(Lineage { shard, round });
            (i, j, rtt, SimTime(at), lineage)
        };
        let rows: Vec<_> = merged.rows().collect();
        // Indices: 7 is 0, 3 is 1, 5 is 2.
        assert_eq!(
            rows,
            [
                row(0, 1, 2.0, 11, (1, 1)),
                row(0, 2, 3.0, 12, (0, 2)),
                row(1, 2, 4.0, 5, (1, 3)),
            ]
        );
        let tags: Vec<_> = merged.shards.iter().map(|row| row.status).collect();
        assert_eq!(tags, ["dead", "live"], "the latest delta's tags");
        // Folding tallies nothing; judging does.
        assert_eq!(merged.coverage(), 0.0);
        merged.judge_coverage(SimTime(20), SimDuration(9));
        assert_eq!(merged.coverage(), 1.0);
        // Shard 0 owns (7, 3) @ 11 and (3, 5) @ 5, shard 1 (7, 5) @ 12.
        let stale: Vec<_> = merged.shards.iter().map(|row| row.stale).collect();
        assert_eq!(stale, [2, 0]);
    }

    #[test]
    fn a_measured_cell_without_an_instant_is_not_a_row() {
        let mut merged = MergeOutcome::new(nodes(3), 1);
        merged.matrix.set(NodeId(2), NodeId(0), 5.0);
        assert_eq!(merged.rows().count(), 0);
        merged
            .measured_at
            .insert((NodeId(0), NodeId(2)), SimTime(9));
        let rows: Vec<_> = merged.rows().collect();
        assert_eq!(rows, [(0, 2, 5.0, SimTime(9), None)]);
        assert!(merged.to_document().contains("\nm\t0\t2\t5\t9\t-\t-\n"));
    }

    #[test]
    fn judged_coverage_rows_are_the_offline_merges() {
        let mut net = tor_sim::TorNetworkBuilder::testbed(41).vantages(2).build();
        let nodes: Vec<NodeId> = net.relays.iter().copied().take(6).collect();
        let config = SupervisorConfig {
            shards: 3,
            scanner: ScannerConfig {
                pairs_per_round: 2,
                ..ScannerConfig::default()
            },
            ..SupervisorConfig::default()
        };
        let mut sup = Supervisor::new(nodes.clone(), config, TingConfig::fast());
        let mut live = MergeOutcome::new(nodes, 3);
        for round in 0..2 {
            sup.run_round(&mut net);
            if round == 0 {
                sup.inject_crash(1, net.sim.now());
            }
            live.fold(sup.take_delta(net.sim.now())).unwrap();
        }
        // At the drain instant nothing is stale; a horizon later all is.
        for now in [net.sim.now(), net.sim.now() + config.scanner.staleness] {
            let offline = sup.merge(now).unwrap();
            live.judge_coverage(now, config.scanner.staleness);
            assert_eq!(live.shards, offline.shards);
            assert_eq!(live.to_document(), offline.to_document());
        }
        let rows = &live.shards;
        assert_eq!(rows[1].status, "restarting");
        assert!(rows
            .iter()
            .all(|row| row.covered > 0 && row.uncovered > 0 && row.stale == row.covered));
    }

    #[test]
    fn merged_document_parser_refuses_corruption() {
        let doc = {
            let mut matrix = crate::matrix::RttMatrix::new(nodes(2));
            matrix.set(NodeId(0), NodeId(1), 3.5);
            let mut measured_at = PairMap::default();
            measured_at.insert((NodeId(0), NodeId(1)), SimTime(7));
            MergeOutcome {
                matrix,
                measured_at,
                lineage: PairMap::default(),
                shards: vec![],
                now: SimTime(9),
            }
            .to_document()
        };
        // A flipped body byte breaks the CRC seal.
        let mut corrupt = doc.clone().into_bytes();
        corrupt[5] ^= 0x01;
        assert!(parse_merged_document(&String::from_utf8(corrupt).unwrap()).is_err());
        // Any other version inside a valid seal is still refused.
        for version in ["v1", "v3"] {
            let other = crate::checkpoint::seal(format!(
                "# ting merged matrix {version}\n# nodes: 0 1\n# now_ns: 9\n"
            ));
            let err = parse_merged_document(&other).unwrap_err();
            assert!(err.contains("unsupported merged-matrix header"), "{err}");
        }
        // Matrix rows naming unknown nodes error with the line number.
        let bad = crate::checkpoint::seal(
            "# ting merged matrix v2\n# nodes: 0 1\n# now_ns: 9\nm\t0\t7\t3.5\t1\t-\t-\n"
                .to_owned(),
        );
        let err = parse_merged_document(&bad).unwrap_err();
        assert!(
            err.contains("line 4") && err.contains("unknown node 7"),
            "{err}"
        );
        // So do rows pairing a node with itself. Regression: this one
        // parsed, its timestamp became the snapshot's freshness, and
        // re-rendering the parsed document no longer reproduced it.
        let bad = crate::checkpoint::seal(
            "# ting merged matrix v2\n# nodes: 0 1 2\n# now_ns: 1000\n\
             m\t0\t1\t3.5\t5\t0\t1\nm\t2\t2\t7\t999\t0\t9\n"
                .to_owned(),
        );
        let err = parse_merged_document(&bad).unwrap_err();
        assert!(
            err.contains("line 5") && err.contains("pair of a node with itself"),
            "{err}"
        );
        // Unknown row kinds and truncated coverage rows are refused.
        let bad = crate::checkpoint::seal(
            "# ting merged matrix v2\n# nodes: 0 1\n# now_ns: 9\nx\t1\n".to_owned(),
        );
        assert!(parse_merged_document(&bad).is_err());
        let bad = crate::checkpoint::seal(
            "# ting merged matrix v2\n# nodes: 0 1\n# now_ns: 9\ns\t0\tlive\t1\n".to_owned(),
        );
        assert!(parse_merged_document(&bad).is_err());
        // A matrix row must carry both lineage columns, well-formed.
        let bad = crate::checkpoint::seal(
            "# ting merged matrix v2\n# nodes: 0 1\n# now_ns: 9\nm\t0\t1\t3.5\t1\n".to_owned(),
        );
        assert!(parse_merged_document(&bad).is_err());
        let bad = crate::checkpoint::seal(
            "# ting merged matrix v2\n# nodes: 0 1\n# now_ns: 9\nm\t0\t1\t3.5\t1\t-\t7\n"
                .to_owned(),
        );
        let err = parse_merged_document(&bad).unwrap_err();
        assert!(err.contains("invalid lineage shard"), "{err}");
    }

    #[test]
    fn partition_round_robins_pairs_in_index_order() {
        let owned = partition_pairs(&nodes(4), 2); // 6 pairs
        assert_eq!(
            owned[0],
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(3)),
                (NodeId(1), NodeId(3)),
            ]
        );
        assert_eq!(
            owned[1],
            vec![
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2)),
                (NodeId(2), NodeId(3)),
            ]
        );
    }

    #[test]
    fn more_shards_than_pairs_leaves_surplus_empty() {
        let owned = partition_pairs(&nodes(2), 5);
        assert_eq!(owned[0], vec![(NodeId(0), NodeId(1))]);
        assert!(owned[1..].iter().all(|o| o.is_empty()));
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_panics() {
        partition_pairs(&nodes(3), 0);
    }

    #[test]
    fn a_restarted_shard_keeps_its_learned_deadlines() {
        use crate::timeout::TimeoutPhase;
        const PHASES: [TimeoutPhase; 3] = [
            TimeoutPhase::Build,
            TimeoutPhase::Stream,
            TimeoutPhase::Probe,
        ];
        let ting_config = TingConfig {
            adaptive_timeouts: true,
            ..TingConfig::with_samples(2)
        };
        let config = SupervisorConfig {
            shards: 1,
            restart_backoff: SimDuration::ZERO,
            restart_backoff_cap: SimDuration::ZERO,
            ..SupervisorConfig::default()
        };
        let mut net = tor_sim::TorNetworkBuilder::testbed(31).build();
        let mut sup = Supervisor::new(net.relays[..8].to_vec(), config, ting_config);
        let deadlines = |sup: &Supervisor| match &sup.slots[0].state {
            SlotState::Live { ting, .. } => PHASES.map(|p| ting.phase_timeout_ms(p).to_bits()),
            SlotState::Down { .. } => panic!("shard 0 is down"),
        };
        let warm = |sup: &Supervisor| {
            let timeouts = &sup.slots[0].timeouts;
            PHASES
                .iter()
                .all(|&p| !timeouts.timeout_ms(p, f64::NAN).is_nan())
        };
        for _ in 0..20 {
            if warm(&sup) {
                break;
            }
            sup.run_round(&mut net);
        }
        assert!(warm(&sup), "the estimators never warmed up");
        let learned = deadlines(&sup);
        let now = net.sim.now();
        sup.inject_crash(0, now);
        assert_eq!(sup.status(0), ShardStatus::Restarting { at: now });
        sup.restore(0, now);
        assert_eq!(deadlines(&sup), learned);
        let fresh = Ting::new(ting_config);
        assert_ne!(learned, PHASES.map(|p| fresh.phase_timeout_ms(p).to_bits()));
    }
}
