//! The long-running query service: publish/swap on one side, wait-free
//! reads on the other.
//!
//! The swap cell holds one thing — the served generation **and the
//! judgment it is served under** — behind one `RwLock`, replaced as a
//! unit. The lock is held only long enough to clone or replace that
//! pair (nanoseconds), never while answering a query, so ingest-side
//! swaps never block readers and a reader holding an old
//! `Arc<Snapshot>` keeps a perfectly consistent generation for as long
//! as it likes — snapshot isolation by immutability.
//!
//! The [`Oracle`] owns the mutable end: it stamps each published
//! [`Snapshot`] with a strictly increasing version and swaps it in, and
//! [`crate::Pipeline`] seats the judgment through it; a bare `Oracle`
//! that nobody judges serves everything. [`OracleReader`] is the one
//! served front (`Send + Sync`), and what may be served in which state
//! is decided in its methods: points always answer, rankings refuse
//! while `Degraded` — a stale *ordering* is the one silent wrong answer
//! this layer exists to prevent. Readers hold no metrics handles (the
//! `obs` registry is single-threaded) and count nothing while `Fresh`:
//! one shared atomic bump per point lookup cost 17 % of the lookup rate.

use crate::snapshot::{DetourAnswer, KNearestAnswer, PointAnswer, QueryError, Snapshot};
use crate::ttl::{Judgment, ServingState};
use netsim::NodeId;
use obs::{names, Obs, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// What a bare [`Oracle`] serves under: nothing flagged, nothing refused.
const UNJUDGED: Judgment = Judgment {
    state: ServingState::Fresh,
    age_ns: None,
    hard_ttl_ns: u64::MAX,
};

#[derive(Debug, Clone)]
struct Served {
    snapshot: Arc<Snapshot>,
    judgment: Judgment,
}

/// The swap cell, plus the `oracle.stale.*` tallies readers bump where
/// they refuse and flag until [`Oracle::take_stale_counts`] drains them
/// (`Relaxed`: statistics that publish no other data).
#[derive(Debug)]
struct Cell {
    served: RwLock<Served>,
    refused: AtomicU64,
    served_stale: AtomicU64,
}

/// The service-side handle: owns publishing and the judgment.
/// Single-threaded by design (the `obs` registry is `Rc`-based); hand
/// [`OracleReader`]s to concurrent consumers.
#[derive(Debug)]
pub struct Oracle {
    /// The one handle on the swap cell: reads go through its methods,
    /// writes through its lock.
    reader: OracleReader,
    version: u64,
    obs: Obs,
}

impl Oracle {
    /// Creates a service serving `initial` as generation 1, without
    /// observability.
    pub fn new(initial: Snapshot) -> Oracle {
        Oracle::with_obs(initial, Obs::off())
    }

    /// Creates a service with metrics/trace wired to `obs`.
    pub fn with_obs(mut initial: Snapshot, obs: Obs) -> Oracle {
        initial.stamp_version(1);
        let at = initial.meta().now_ns;
        let cell = Cell {
            served: RwLock::new(Served {
                snapshot: Arc::new(initial),
                judgment: UNJUDGED,
            }),
            refused: AtomicU64::new(0),
            served_stale: AtomicU64::new(0),
        };
        let oracle = Oracle {
            reader: OracleReader {
                shared: Arc::new(cell),
            },
            version: 1,
            obs,
        };
        oracle.note_swap(at);
        oracle
    }

    /// Publishes a fresher generation: stamps the next version and
    /// swaps it in. Readers already holding the previous `Arc` are
    /// untouched; new reads see the new generation. Returns the
    /// published version.
    pub fn publish(&mut self, snapshot: Snapshot) -> u64 {
        self.publish_versioned(snapshot, self.version + 1)
    }

    /// Publishes under an explicit version number, under the judgment
    /// already in the cell. Versions stay strictly increasing; a
    /// regression panics (it would silently break every client's
    /// dataset-change detection).
    pub fn publish_versioned(&mut self, snapshot: Snapshot, version: u64) -> u64 {
        let at = snapshot.meta().now_ns;
        self.publish_judged(snapshot, version, at, self.judgment())
    }

    /// The one swap: generation and judgment land together. The
    /// pipeline passes the version its publish journal carries — a
    /// crash-recovery republish must bear the *same* number an
    /// uninterrupted run would have — and the swap instant for the
    /// trace: a recovery republishes an *old* dataset at a *later*
    /// instant, and the dataset's own time would run the clock back.
    pub(crate) fn publish_judged(
        &mut self,
        mut snapshot: Snapshot,
        version: u64,
        swap_t_ns: Option<u64>,
        judgment: Judgment,
    ) -> u64 {
        assert!(
            version > self.version,
            "oracle versions are strictly increasing: {} -> {version}",
            self.version
        );
        self.version = version;
        snapshot.stamp_version(version);
        *self.reader.shared.write() = Served {
            snapshot: Arc::new(snapshot),
            judgment,
        };
        self.note_swap(swap_t_ns);
        version
    }

    /// Re-seats the judgment on the generation already served.
    pub(crate) fn judge(&self, judgment: Judgment) {
        self.reader.shared.write().judgment = judgment;
    }

    /// The judgment readers are served under right now.
    pub(crate) fn judgment(&self) -> Judgment {
        self.reader.shared.read().judgment
    }

    /// Drains the readers' `(refused, served_stale)` tallies.
    pub(crate) fn take_stale_counts(&self) -> (u64, u64) {
        let cell = &self.reader.shared;
        (
            cell.refused.swap(0, Ordering::Relaxed),
            cell.served_stale.swap(0, Ordering::Relaxed),
        )
    }

    fn note_swap(&self, t_ns: Option<u64>) {
        let snap = self.snapshot();
        let meta = snap.meta();
        self.obs
            .set_gauge("oracle.snapshot.version", meta.version as i64);
        self.obs
            .set_gauge("oracle.snapshot.measured_pairs", meta.measured_pairs as i64);
        // A swap with no instant (a matrix-source bootstrap — no
        // clock) has no place on the virtual-time event log; the
        // gauges above still record it.
        if let Some(t_ns) = t_ns {
            self.obs.event(names::ORACLE_SNAPSHOT_SWAP, t_ns, || {
                vec![
                    ("version", Value::U64(meta.version)),
                    ("nodes", Value::U64(meta.nodes as u64)),
                    ("measured_pairs", Value::U64(meta.measured_pairs as u64)),
                ]
            });
        }
    }

    /// The currently served generation.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.reader.snapshot()
    }

    /// The latest published version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// A `Send + Sync` handle for concurrent reader threads.
    pub fn reader(&self) -> OracleReader {
        self.reader.clone()
    }
}

impl Cell {
    // Every write assigns a whole `Served`, or the whole judgment in
    // it, so a thread that panicked with the lock held cannot have left
    // the cell half written: poisoning carries no information here.
    fn read(&self) -> RwLockReadGuard<'_, Served> {
        self.served.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Served> {
        self.served.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A point answer qualified by the serving state it was produced in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardedPoint {
    pub answer: PointAnswer,
    /// `Stale`/`Degraded` is the serve-with-warning flag: the value is
    /// real, but the dataset behind it has outlived an SLO.
    pub state: ServingState,
}

/// The served front: a thread-safe handle on the oracle's swap cell. It
/// never blocks on (or observes a half-applied) publish, and answers
/// under the judgment the cell holds *now*, however long ago it was
/// cloned. Clone freely.
#[derive(Debug, Clone)]
pub struct OracleReader {
    shared: Arc<Cell>,
}

impl OracleReader {
    /// The currently served generation. Hold the `Arc` to pin a
    /// consistent dataset across many queries — and to opt out of the
    /// guard: a pinned [`Snapshot`] has left the clock behind and
    /// answers every family, whatever the serving state becomes.
    #[inline]
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.read().snapshot.clone()
    }

    /// Point lookup against the current generation. Points answer in
    /// every state: a stale `R(x, y)` beats none.
    #[inline]
    pub fn rtt(&self, x: NodeId, y: NodeId) -> Result<PointAnswer, QueryError> {
        self.snapshot().rtt(x, y)
    }

    /// [`OracleReader::rtt`] with the serving state it was answered in,
    /// both from one read of the cell.
    pub fn point(&self, x: NodeId, y: NodeId) -> Result<GuardedPoint, QueryError> {
        let Served { snapshot, judgment } = self.shared.read().clone();
        let answer = snapshot.rtt(x, y)?;
        if judgment.state != ServingState::Fresh {
            self.shared.served_stale.fetch_add(1, Ordering::Relaxed);
        }
        Ok(GuardedPoint {
            answer,
            state: judgment.state,
        })
    }

    /// k-nearest against the current generation; refuses while
    /// `Degraded`.
    pub fn k_nearest(&self, x: NodeId, k: usize) -> Result<KNearestAnswer, QueryError> {
        self.ranked()?.k_nearest(x, k)
    }

    /// Detour search against the current generation; refuses while
    /// `Degraded`.
    pub fn best_via(&self, x: NodeId, y: NodeId) -> Result<DetourAnswer, QueryError> {
        self.ranked()?.best_via(x, y)
    }

    /// The current generation, if its judgment lets it be ranked over.
    fn ranked(&self) -> Result<Arc<Snapshot>, QueryError> {
        let Served { snapshot, judgment } = self.shared.read().clone();
        if judgment.state == ServingState::Degraded {
            self.shared.refused.fetch_add(1, Ordering::Relaxed);
            return Err(QueryError::Degraded {
                age_ns: judgment.age_ns,
                hard_ttl_ns: judgment.hard_ttl_ns,
            });
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{names, Obs, ObsConfig};
    use ting::RttMatrix;

    fn snap(value: f64) -> Snapshot {
        let mut m = RttMatrix::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        m.set(NodeId(0), NodeId(1), value);
        m.set(NodeId(0), NodeId(2), value);
        m.set(NodeId(1), NodeId(2), value);
        Snapshot::from_matrix(&m)
    }

    #[test]
    fn publish_bumps_versions_and_answers_cite_them() {
        let mut oracle = Oracle::new(snap(5.0));
        assert_eq!(oracle.version(), 1);
        let a = oracle.reader().rtt(NodeId(0), NodeId(1)).unwrap();
        assert_eq!((a.rtt_ms, a.snapshot_version), (Some(5.0), 1));
        assert_eq!(oracle.publish(snap(6.0)), 2);
        let a = oracle.reader().rtt(NodeId(0), NodeId(1)).unwrap();
        assert_eq!((a.rtt_ms, a.snapshot_version), (Some(6.0), 2));
    }

    #[test]
    fn held_snapshot_survives_a_publish() {
        let mut oracle = Oracle::new(snap(5.0));
        let held = oracle.snapshot();
        oracle.publish(snap(6.0));
        assert_eq!(held.rtt(NodeId(0), NodeId(1)).unwrap().rtt_ms, Some(5.0));
        assert_eq!(
            oracle.snapshot().rtt(NodeId(0), NodeId(1)).unwrap().rtt_ms,
            Some(6.0)
        );
    }

    #[test]
    fn swap_emits_the_registered_trace_event() {
        use ting::shard::MergeOutcome;
        let obs = Obs::new(ObsConfig::Trace);
        // Matrix-source snapshots carry no dataset instant: swapping
        // them moves gauges but must not enter the virtual-time event
        // log (a t=0 record would run a live trace's clock backwards).
        let mut oracle = Oracle::with_obs(snap(5.0), obs.clone());
        oracle.publish(snap(6.0));
        let swaps = |obs: &Obs| {
            obs.events()
                .into_iter()
                .filter(|e| e.name == names::ORACLE_SNAPSHOT_SWAP)
                .count()
        };
        assert_eq!(swaps(&obs), 0, "clockless snapshots stay off the log");

        let mut merged = MergeOutcome::new(vec![NodeId(0), NodeId(1)], 1);
        merged.judge_coverage(netsim::SimTime(10_000), netsim::SimDuration::ZERO);
        oracle.publish(Snapshot::from_merged(&merged));
        assert_eq!(swaps(&obs), 1, "a timestamped publish is traced");
    }
}
