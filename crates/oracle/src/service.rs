//! The long-running query service: publish/swap on one side, wait-free
//! reads on the other.
//!
//! The [`Oracle`] owns the mutable end — it stamps each published
//! [`Snapshot`] with a strictly increasing version and swaps it behind
//! an `RwLock<Arc<Snapshot>>`. The lock is held only long enough to
//! clone or replace the `Arc` (nanoseconds), never while answering a
//! query, so ingest-side swaps never block readers and a reader
//! holding an old `Arc` keeps a perfectly consistent generation for as
//! long as it likes — snapshot isolation by immutability.
//!
//! [`OracleReader`] is the `Send + Sync` handle for reader threads; it
//! holds the swap cell but carries no metrics (the `obs` registry is
//! deliberately single-threaded). The `Oracle` reads through a reader
//! of its own, so the cell is read in one place; its queries
//! additionally tick per-family counters and record answered-RTT
//! histograms under the `oracle.*` names registered in `obs::names`.

use crate::snapshot::{DetourAnswer, KNearestAnswer, PointAnswer, QueryError, Snapshot};
use netsim::NodeId;
use obs::{names, Counter, Hist, Obs, Value};
use std::sync::{Arc, PoisonError, RwLock};

/// Pre-resolved metric handles for the query hot path.
#[derive(Debug, Clone, Default)]
struct Metrics {
    point: Counter,
    nearest: Counter,
    detour: Counter,
    unknown: Counter,
    unmeasured: Counter,
    h_point: Hist,
    h_nearest: Hist,
    h_detour: Hist,
}

impl Metrics {
    fn new(obs: &Obs) -> Metrics {
        Metrics {
            point: obs.counter_handle(names::ORACLE_QUERY_POINT),
            nearest: obs.counter_handle(names::ORACLE_QUERY_NEAREST),
            detour: obs.counter_handle(names::ORACLE_QUERY_DETOUR),
            unknown: obs.counter_handle(names::ORACLE_QUERY_UNKNOWN_NODE),
            unmeasured: obs.counter_handle(names::ORACLE_QUERY_UNMEASURED),
            h_point: obs.hist_handle(names::ORACLE_ANSWER_POINT_US),
            h_nearest: obs.hist_handle(names::ORACLE_ANSWER_NEAREST_US),
            h_detour: obs.hist_handle(names::ORACLE_ANSWER_DETOUR_US),
        }
    }
}

/// The service-side handle: owns publishing and the instrumented query
/// front. Single-threaded by design (the `obs` registry is `Rc`-based);
/// hand [`OracleReader`]s to concurrent consumers.
#[derive(Debug)]
pub struct Oracle {
    /// The one handle on the swap cell; every read goes through it.
    reader: OracleReader,
    version: u64,
    obs: Obs,
    metrics: Metrics,
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
        let metrics = Metrics::new(&obs);
        let oracle = Oracle {
            reader: OracleReader {
                shared: Arc::new(RwLock::new(Arc::new(initial))),
            },
            version: 1,
            obs,
            metrics,
        };
        let at = oracle.snapshot().meta().now_ns;
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

    /// Publishes under an explicit version number. The journaled
    /// pipeline keeps its generation counter in lockstep with its
    /// publish journal, so a crash-recovery republish must carry the
    /// *same* number an uninterrupted run would have — not whatever
    /// `publish` would hand out next. Versions stay strictly
    /// increasing; a regression panics (it would silently break every
    /// client's dataset-change detection).
    pub fn publish_versioned(&mut self, snapshot: Snapshot, version: u64) -> u64 {
        let at = snapshot.meta().now_ns;
        self.publish_versioned_at(snapshot, version, at)
    }

    /// [`Oracle::publish_versioned`] with an explicit swap instant for
    /// the trace. A live publish happens at the dataset's own `now`,
    /// but a crash recovery republishes an *old* dataset at a *later*
    /// instant — stamping the dataset's time would run the trace clock
    /// backwards.
    pub fn publish_versioned_at(
        &mut self,
        mut snapshot: Snapshot,
        version: u64,
        swap_t_ns: Option<u64>,
    ) -> u64 {
        assert!(
            version > self.version,
            "oracle versions are strictly increasing: {} -> {version}",
            self.version
        );
        self.version = version;
        snapshot.stamp_version(version);
        // The cell only ever holds a whole `Arc<Snapshot>`, so a thread
        // that panicked with the lock held cannot have left it half
        // written: poisoning carries no information here.
        let cell = &self.reader.shared;
        *cell.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(snapshot);
        self.note_swap(swap_t_ns);
        version
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
        if self.obs.is_tracing() {
            if let Some(t_ns) = t_ns {
                self.obs.event(
                    names::ORACLE_SNAPSHOT_SWAP,
                    t_ns,
                    vec![
                        ("version", Value::U64(meta.version)),
                        ("nodes", Value::U64(meta.nodes as u64)),
                        ("measured_pairs", Value::U64(meta.measured_pairs as u64)),
                    ],
                );
            }
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

    /// Instrumented point lookup `R(x, y)`.
    #[inline]
    pub fn rtt(&self, x: NodeId, y: NodeId) -> Result<PointAnswer, QueryError> {
        self.metrics.point.inc();
        let answer = self.snapshot().rtt(x, y);
        match &answer {
            Ok(a) => match a.rtt_ms {
                Some(ms) => self.metrics.h_point.record_ms(ms),
                None => self.metrics.unmeasured.inc(),
            },
            Err(_) => self.metrics.unknown.inc(),
        }
        answer
    }

    /// Instrumented k-nearest-relay query.
    pub fn k_nearest(&self, x: NodeId, k: usize) -> Result<KNearestAnswer, QueryError> {
        self.metrics.nearest.inc();
        let answer = self.snapshot().k_nearest(x, k);
        match &answer {
            Ok(a) => {
                for n in &a.neighbors {
                    self.metrics.h_nearest.record_ms(n.rtt_ms);
                }
            }
            Err(_) => self.metrics.unknown.inc(),
        }
        answer
    }

    /// Instrumented ShorTor-style via-relay detour search.
    pub fn best_via(&self, x: NodeId, y: NodeId) -> Result<DetourAnswer, QueryError> {
        self.metrics.detour.inc();
        let answer = self.snapshot().best_via(x, y);
        match &answer {
            Ok(d) => {
                if let Some(v) = &d.via {
                    self.metrics.h_detour.record_ms(v.rtt_ms);
                }
            }
            Err(_) => self.metrics.unknown.inc(),
        }
        answer
    }
}

/// A thread-safe read handle: shares the oracle's swap cell, never
/// blocks on (or observes a half-applied) publish. Clone freely.
#[derive(Debug, Clone)]
pub struct OracleReader {
    shared: Arc<RwLock<Arc<Snapshot>>>,
}

impl OracleReader {
    /// The currently served generation. Hold the `Arc` to pin a
    /// consistent dataset across many queries.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Convenience point lookup against the current generation.
    pub fn rtt(&self, x: NodeId, y: NodeId) -> Result<PointAnswer, QueryError> {
        self.snapshot().rtt(x, y)
    }

    /// Convenience k-nearest against the current generation.
    pub fn k_nearest(&self, x: NodeId, k: usize) -> Result<KNearestAnswer, QueryError> {
        self.snapshot().k_nearest(x, k)
    }

    /// Convenience detour search against the current generation.
    pub fn best_via(&self, x: NodeId, y: NodeId) -> Result<DetourAnswer, QueryError> {
        self.snapshot().best_via(x, y)
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
        let a = oracle.rtt(NodeId(0), NodeId(1)).unwrap();
        assert_eq!((a.rtt_ms, a.snapshot_version), (Some(5.0), 1));
        assert_eq!(oracle.publish(snap(6.0)), 2);
        let a = oracle.rtt(NodeId(0), NodeId(1)).unwrap();
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
    fn query_families_tick_their_counters() {
        let obs = Obs::new(ObsConfig::Metrics);
        let oracle = Oracle::with_obs(snap(5.0), obs.clone());
        let _ = oracle.rtt(NodeId(0), NodeId(1));
        let _ = oracle.rtt(NodeId(0), NodeId(9)); // unknown node
        let _ = oracle.k_nearest(NodeId(0), 2);
        let _ = oracle.best_via(NodeId(0), NodeId(1));
        assert_eq!(obs.counter_value(names::ORACLE_QUERY_POINT), 2);
        assert_eq!(obs.counter_value(names::ORACLE_QUERY_NEAREST), 1);
        assert_eq!(obs.counter_value(names::ORACLE_QUERY_DETOUR), 1);
        assert_eq!(obs.counter_value(names::ORACLE_QUERY_UNKNOWN_NODE), 1);
        let h = obs.histogram(names::ORACLE_ANSWER_POINT_US).unwrap();
        assert_eq!(h.count(), 1);
        let h = obs.histogram(names::ORACLE_ANSWER_NEAREST_US).unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn unmeasured_pairs_count_separately_from_unknown_nodes() {
        let obs = Obs::new(ObsConfig::Metrics);
        let mut m = RttMatrix::new(vec![NodeId(0), NodeId(1)]);
        m.set(NodeId(0), NodeId(1), 1.0);
        let mut sparse = RttMatrix::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        sparse.set(NodeId(0), NodeId(1), 1.0);
        let oracle = Oracle::with_obs(Snapshot::from_matrix(&sparse), obs.clone());
        let _ = oracle.rtt(NodeId(0), NodeId(2)); // in set, unmeasured
        assert_eq!(obs.counter_value(names::ORACLE_QUERY_UNMEASURED), 1);
        assert_eq!(obs.counter_value(names::ORACLE_QUERY_UNKNOWN_NODE), 0);
    }

    #[test]
    fn swap_emits_the_registered_trace_event() {
        use std::collections::HashMap;
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

        let mut m = RttMatrix::new(vec![NodeId(0), NodeId(1)]);
        m.set(NodeId(0), NodeId(1), 7.0);
        let mut measured_at = HashMap::new();
        measured_at.insert((NodeId(0), NodeId(1)), netsim::SimTime(5_000));
        let doc = MergeOutcome {
            matrix: m,
            measured_at,
            lineage: HashMap::new(),
            shards: vec![],
            now: netsim::SimTime(10_000),
        }
        .to_document();
        oracle.publish(Snapshot::from_merged_document(&doc).unwrap());
        assert_eq!(swaps(&obs), 1, "a timestamped publish is traced");
    }
}
