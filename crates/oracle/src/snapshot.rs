//! Immutable matrix snapshots: what the oracle actually serves.
//!
//! A [`Snapshot`] is a fully materialized, read-only copy of one
//! generation of the RTT dataset — the dense [`RttMatrix`] for lookups,
//! per-pair measurement timestamps when the source carries them (the
//! merged shard checkpoint does; a bare TSV does not), and the
//! [`SnapshotMeta`] generation/freshness summary every answer cites.
//! Snapshots are plain data (`Send + Sync`), so the service can hand
//! `Arc<Snapshot>`s to any number of reader threads and swap in a
//! fresher generation without blocking or mutating anything a reader
//! already holds.

use netsim::NodeId;
use obs::{Lineage, Origin};
use ting::shard::{parse_merged_document, MergeOutcome};
use ting::RttMatrix;

/// Generation and freshness metadata for one snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotMeta {
    /// Publish generation, stamped by the service on swap-in (0 until
    /// then). Strictly increasing per oracle, so clients can detect a
    /// dataset change between two answers.
    pub version: u64,
    pub(crate) nodes: usize,
    /// Off-diagonal pairs with a measurement.
    pub measured_pairs: usize,
    /// The instant the dataset was judged against (the merge's
    /// `now_ns`); `None` for sources without a clock.
    pub(crate) now_ns: Option<u64>,
    /// Newest measurement timestamp in the dataset.
    pub newest_ns: Option<u64>,
}

/// A query that cannot be answered against the snapshot's node set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The named node is not in the snapshot's relay set.
    UnknownNode(NodeId),
    /// The serving layer refused a ranking query: the dataset aged
    /// past its hard TTL (or its age is unknowable), and a stale
    /// *ordering* is exactly the silent wrong answer the SLO exists to
    /// prevent. Point lookups still serve-with-warning in this state.
    Degraded {
        /// The dataset's age when judged, when known.
        age_ns: Option<u64>,
        /// The hard TTL it violated.
        hard_ttl_ns: u64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownNode(n) => write!(f, "unknown node {}", n.0),
            QueryError::Degraded {
                age_ns: Some(age),
                hard_ttl_ns,
            } => write!(
                f,
                "serving degraded: dataset age {age} ns exceeds hard TTL {hard_ttl_ns} ns"
            ),
            QueryError::Degraded {
                age_ns: None,
                hard_ttl_ns,
            } => write!(
                f,
                "serving degraded: dataset age unknown (hard TTL {hard_ttl_ns} ns)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// A point-lookup answer: the RTT (if measured) plus the freshness
/// metadata a cache-consuming client needs to decide whether to trust
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointAnswer {
    /// `R(x, y)` in milliseconds; `None` when the pair is in the relay
    /// set but unmeasured. The diagonal is 0.
    pub rtt_ms: Option<f64>,
    /// When the pair was measured (merged-checkpoint snapshots only).
    pub measured_at_ns: Option<u64>,
    /// Full provenance of the served cell — the shard and scan round
    /// that measured it plus this snapshot's generation. `None` when
    /// the source carries no lineage (bare matrices, `-` marker rows) or
    /// the pair is unmeasured.
    pub origin: Option<Origin>,
    /// The generation that produced this answer.
    pub snapshot_version: u64,
}

/// One relay in a k-nearest answer, or the via relay of a detour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub node: NodeId,
    pub rtt_ms: f64,
}

/// A k-nearest ranking with the provenance a consumer needs to audit
/// it: a ranking is only as trustworthy as its *stalest* input, so
/// `origin` cites the oldest contributing pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KNearestAnswer {
    /// Nearest relays, ascending by RTT, index order breaking ties.
    pub neighbors: Vec<Neighbor>,
    /// Provenance of the oldest pair contributing to the ranking
    /// (first-in-ranking-order on timestamp ties). `None` when the
    /// source carries no timestamps/lineage or the ranking is empty.
    pub origin: Option<Origin>,
    pub snapshot_version: u64,
}

/// A ShorTor-style via-relay answer for `x → y`. Its freshness is the
/// served snapshot's: the pipeline judges the snapshot, never an answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetourAnswer {
    /// Direct `R(x, y)`; `None` when unmeasured.
    pub direct_ms: Option<f64>,
    /// Best via relay with its combined `R(x, v) + R(v, y)`;
    /// `None` when no third relay has both legs measured.
    pub via: Option<Neighbor>,
    pub snapshot_version: u64,
}

/// Cells `k_nearest` turns into one mask of measured cells at once.
const LANES: usize = 8;

/// Sentinel for "no timestamp" in the timestamp table, chosen so a
/// legitimate `t = 0` (the virtual epoch) stays representable.
const NO_TIMESTAMP: u64 = u64::MAX;

/// Sentinel for "no lineage" in the lineage table — no real
/// measurement ever carries `shard = u32::MAX`.
const NO_LINEAGE: Lineage = Lineage {
    shard: u32::MAX,
    round: u64::MAX,
};

/// A [`Lineage`] as the lineage table holds it: the shard, then the
/// round's low and high halves — 12 B a pair, where `Lineage`'s
/// alignment pads it to 16.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PackedLineage([u32; 3]);

impl From<Lineage> for PackedLineage {
    fn from(l: Lineage) -> PackedLineage {
        PackedLineage([l.shard, l.round as u32, (l.round >> 32) as u32])
    }
}

impl From<PackedLineage> for Lineage {
    fn from(PackedLineage([shard, lo, hi]): PackedLineage) -> Lineage {
        Lineage {
            shard,
            round: u64::from(hi) << 32 | u64::from(lo),
        }
    }
}

/// One immutable generation of the served dataset. Its three query
/// methods are the only implementation of the families, and they know
/// nothing of the clock: whoever holds an `Arc<Snapshot>` has pinned
/// immutable data and left the serving judgment behind — the guarded
/// front is [`crate::OracleReader`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    matrix: RttMatrix,
    /// Measurement instants, one per pair at its
    /// [`RttMatrix::pair_slot`] (a table mirroring the matrix would hold
    /// each twice); `None` for sources without timestamps.
    measured_at_ns: Option<Vec<u64>>,
    /// Per-pair provenance at the same slots; `None` for sources without
    /// lineage (bare matrices, TSVs, v1 documents).
    lineage: Option<Vec<PackedLineage>>,
    meta: SnapshotMeta,
}

impl Snapshot {
    /// Builds a snapshot straight from an in-memory matrix (no
    /// timestamps — e.g. a freshly measured dataset).
    pub fn from_matrix(matrix: &RttMatrix) -> Snapshot {
        Snapshot {
            matrix: matrix.clone(),
            measured_at_ns: None,
            lineage: None,
            meta: SnapshotMeta {
                version: 0,
                nodes: matrix.len(),
                measured_pairs: matrix.measured_pairs(),
                now_ns: None,
                newest_ns: None,
            },
        }
    }

    /// Loads a CRC-sealed merged shard checkpoint document — the
    /// richest source: per-pair timestamps, lineage and the merge
    /// instant all survive into the snapshot.
    pub fn from_merged_document(text: &str) -> Result<Snapshot, String> {
        Ok(Snapshot::from_merged(&parse_merged_document(text)?.into()))
    }

    /// The snapshot of a merged dataset in hand: one pass over its
    /// index-space rows fills the instant and lineage tables and counts
    /// the measured pairs.
    pub(crate) fn from_merged(merged: &MergeOutcome) -> Snapshot {
        let (n, slots) = (merged.matrix.len(), merged.matrix.pair_slots());
        let mut instants = vec![NO_TIMESTAMP; slots];
        let mut lineage = None;
        let (mut measured_pairs, mut newest_ns) = (0, None);
        for (i, j, _, t, provenance) in merged.rows() {
            let (slot, t) = (merged.matrix.pair_slot(i, j), t.as_nanos());
            instants[slot] = t;
            if let Some(l) = provenance {
                let table = lineage.get_or_insert_with(|| vec![NO_LINEAGE.into(); slots]);
                table[slot] = l.into();
            }
            measured_pairs += 1;
            newest_ns = newest_ns.max(Some(t));
        }
        Snapshot {
            matrix: merged.matrix.clone(),
            measured_at_ns: Some(instants),
            lineage,
            meta: SnapshotMeta {
                version: 0,
                nodes: n,
                measured_pairs,
                now_ns: Some(merged.now.as_nanos()),
                newest_ns,
            },
        }
    }

    /// The snapshot of `merged` made from this one, the previous
    /// generation of the same dataset, by rewriting only the slots of
    /// `folded` — the cell, in index space, of every pair folded into
    /// `merged` since this snapshot was built. The matrix is `merged`'s;
    /// the instant and lineage tables are this snapshot's with those
    /// slots rewritten, and the count of measured pairs and the newest
    /// instant are carried forward. A fold never unmeasures a pair, so
    /// the result is [`Snapshot::from_merged`]'s, slot for slot. `None`
    /// when this snapshot has no instant table to patch (a matrix-source
    /// bootstrap).
    pub(crate) fn patched(&self, merged: &MergeOutcome, folded: &[(u32, u32)]) -> Option<Snapshot> {
        let mut instants = self.measured_at_ns.clone()?;
        let mut lineage = self.lineage.clone();
        let (n, slots) = (merged.matrix.len(), merged.matrix.pair_slots());
        let (mut measured_pairs, mut newest_ns) = (self.meta.measured_pairs, self.meta.newest_ns);
        let mut rescan = false;
        for &(i, j) in folded {
            let Some((_, t, provenance)) = merged.row(i, j) else {
                continue;
            };
            let slot = merged.matrix.pair_slot(i, j);
            let (t, was) = (t.as_nanos(), instants[slot]);
            if was == NO_TIMESTAMP {
                measured_pairs += 1;
            } else if t < was && Some(was) == newest_ns {
                // The newest instant may have been the one replaced.
                rescan = true;
            }
            instants[slot] = t;
            if let Some(l) = provenance {
                let table = lineage.get_or_insert_with(|| vec![NO_LINEAGE.into(); slots]);
                table[slot] = l.into();
            }
            newest_ns = newest_ns.max(Some(t));
        }
        if rescan {
            newest_ns = instants
                .iter()
                .copied()
                .filter(|&t| t != NO_TIMESTAMP)
                .max();
        }
        Some(Snapshot {
            matrix: merged.matrix.clone(),
            measured_at_ns: Some(instants),
            lineage,
            meta: SnapshotMeta {
                version: 0,
                nodes: n,
                measured_pairs,
                now_ns: Some(merged.now.as_nanos()),
                newest_ns,
            },
        })
    }

    /// Whether `other` holds the same matrix, tables and metadata, bit
    /// for bit.
    #[cfg(test)]
    pub(crate) fn same_bits(&self, other: &Snapshot) -> bool {
        let meta = |s: &Snapshot| {
            let m = s.meta;
            (m.version, m.nodes, m.measured_pairs, m.now_ns, m.newest_ns)
        };
        self.matrix == other.matrix
            && self.measured_at_ns == other.measured_at_ns
            && self.lineage == other.lineage
            && meta(self) == meta(other)
    }

    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// The underlying matrix (for bulk consumers that want to work in
    /// index space themselves).
    pub fn view(&self) -> &RttMatrix {
        &self.matrix
    }

    pub(crate) fn stamp_version(&mut self, version: u64) {
        self.meta.version = version;
    }

    fn resolve(&self, n: NodeId) -> Result<u32, QueryError> {
        self.matrix.index_of(n).ok_or(QueryError::UnknownNode(n))
    }

    /// The newest measurement instant in the dataset — what snapshot-
    /// level TTL policy judges. Tied to the *data*, not the publish:
    /// republishing unchanged pairs (a status-only generation) does
    /// not move it. `None` for sources without timestamps.
    pub(crate) fn freshness_ns(&self) -> Option<u64> {
        self.meta.newest_ns
    }

    /// The pair's measurement instant, in index space.
    fn timestamp_idx(&self, i: u32, j: u32) -> Option<u64> {
        let t = self.measured_at_ns.as_deref()?;
        let v = t[self.matrix.pair_slot(i, j)];
        if v == NO_TIMESTAMP {
            None
        } else {
            Some(v)
        }
    }

    /// The pair's provenance, in index space.
    fn lineage_idx(&self, i: u32, j: u32) -> Option<Lineage> {
        let t = self.lineage.as_deref()?;
        let l = Lineage::from(t[self.matrix.pair_slot(i, j)]);
        if l == NO_LINEAGE {
            None
        } else {
            Some(l)
        }
    }

    /// The pair's full origin triple: lineage plus the generation this
    /// snapshot serves it under.
    fn origin_idx(&self, i: u32, j: u32) -> Option<Origin> {
        self.lineage_idx(i, j)
            .map(|l| Origin::of(l, self.meta.version))
    }

    /// Point lookup `R(x, y)` with freshness metadata.
    #[inline]
    pub fn rtt(&self, x: NodeId, y: NodeId) -> Result<PointAnswer, QueryError> {
        let (i, j) = (self.resolve(x)?, self.resolve(y)?);
        let rtt_ms = self.matrix.get_idx(i, j);
        Ok(PointAnswer {
            rtt_ms,
            measured_at_ns: self.timestamp_idx(i, j),
            snapshot_version: self.meta.version,
            origin: self.origin_idx(i, j),
        })
    }

    /// The `k` relays nearest to `x` (measured pairs only, `x` itself
    /// excluded), ascending by RTT with index order breaking ties —
    /// fully deterministic for a given snapshot.
    ///
    /// The row is read in chunks of `LANES` cells, each turned into a
    /// mask of its measured cells so only those are visited; when more
    /// than `k` candidates remain, selection keeps the `k` first under
    /// the ranking order and only those are sorted. That order
    /// (`total_cmp`, then index) is strict, so the selected set is the
    /// full sort's prefix and the answer is the full sort's.
    pub fn k_nearest(&self, x: NodeId, k: usize) -> Result<KNearestAnswer, QueryError> {
        let i = self.resolve(x)?;
        let row = self.matrix.row(i);
        let mut candidates: Vec<(f64, u32)> = Vec::with_capacity(row.len());
        // A chunk's measured cells as one bit each: only set bits are
        // visited, so no branch is taken per cell.
        let measured = |cells: &[f64]| {
            let bits = cells.iter().enumerate();
            bits.fold(0u32, |m, (b, ms)| m | u32::from(!ms.is_nan()) << b)
        };
        let mut take = |start: usize, cells: &[f64], mut bits: u32| {
            while bits != 0 {
                let o = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = (start + o) as u32;
                if v != i {
                    candidates.push((cells[o], v));
                }
            }
        };
        let chunks = row.chunks_exact(LANES);
        let tail = chunks.remainder();
        for (c, cells) in chunks.enumerate() {
            take(c * LANES, cells, measured(cells));
        }
        take(row.len() - tail.len(), tail, measured(tail));
        let order = |a: &(f64, u32), b: &(f64, u32)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if candidates.len() > k {
            candidates.select_nth_unstable_by(k, order);
            candidates.truncate(k);
        }
        candidates.sort_unstable_by(order);
        // The answer's origin is its weakest link: the *stalest*
        // contributing pair, first-in-order breaking timestamp ties.
        let mut stalest: Option<(u64, u32)> = None;
        for &(_, v) in &candidates {
            if let Some(t) = self.timestamp_idx(i, v) {
                if stalest.is_none_or(|(best, _)| t < best) {
                    stalest = Some((t, v));
                }
            }
        }
        let origin = stalest.and_then(|(_, v)| self.origin_idx(i, v));
        Ok(KNearestAnswer {
            neighbors: candidates
                .into_iter()
                .map(|(rtt_ms, v)| Neighbor {
                    node: self.matrix.node(v),
                    rtt_ms,
                })
                .collect(),
            origin,
            snapshot_version: self.meta.version,
        })
    }

    /// ShorTor-style detour search: the via relay minimizing
    /// `R(x, v) + R(v, y)`, via the same kernel `analysis::tiv` uses.
    pub fn best_via(&self, x: NodeId, y: NodeId) -> Result<DetourAnswer, QueryError> {
        let (i, j) = (self.resolve(x)?, self.resolve(y)?);
        let via = self.matrix.best_detour(i, j).map(|best| Neighbor {
            node: self.matrix.node(best.via),
            rtt_ms: best.rtt_ms,
        });
        Ok(DetourAnswer {
            direct_ms: self.matrix.get_idx(i, j),
            via,
            snapshot_version: self.meta.version,
        })
    }
}

/// `k_nearest` as it was before selection: every candidate collected
/// and sorted — what the selecting kernel must equal.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn k_nearest(s: &Snapshot, x: NodeId, k: usize) -> Result<KNearestAnswer, QueryError> {
        let i = s.resolve(x)?;
        let row = s.matrix.row(i);
        let mut candidates: Vec<(f64, u32)> = row
            .iter()
            .enumerate()
            .filter(|&(v, &ms)| v as u32 != i && !ms.is_nan())
            .map(|(v, &ms)| (ms, v as u32))
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        candidates.truncate(k);
        let mut stalest: Option<(u64, u32)> = None;
        for &(_, v) in &candidates {
            if let Some(t) = s.timestamp_idx(i, v) {
                if stalest.is_none_or(|(best, _)| t < best) {
                    stalest = Some((t, v));
                }
            }
        }
        let origin = stalest.and_then(|(_, v)| s.origin_idx(i, v));
        Ok(KNearestAnswer {
            neighbors: candidates
                .into_iter()
                .map(|(rtt_ms, v)| Neighbor {
                    node: s.matrix.node(v),
                    rtt_ms,
                })
                .collect(),
            origin,
            snapshot_version: s.meta.version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, SimTime};
    use ting::shard::{DeltaPair, MergeDelta};

    /// Bit-level view of an answer: `Neighbor`'s derived `==` equates
    /// ±0, which the ranking does not.
    fn knn_bits(a: &KNearestAnswer) -> (Vec<(NodeId, u64)>, Option<Origin>) {
        let ranked = a.neighbors.iter().map(|n| (n.node, n.rtt_ms.to_bits()));
        (ranked.collect(), a.origin)
    }

    #[test]
    fn selection_equals_the_full_sort_on_every_row_and_k() {
        // 37 relays: four full 8-cell chunks and a ragged tail. Rows
        // range from empty to full; values repeat, and include ±0 and
        // negatives, so ties and the sign of zero both decide order.
        const VALUES: [f64; 7] = [-0.0, 0.0, -1.5, 3.0, 3.0, 12.25, 0.5];
        let n = 37u32;
        let mut pairs = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                let (h, stamp) = (a * 31 + b * 17, u64::from((a + b) % 5));
                if h % (a % 4 + 1) == 0 && a % 9 != 4 && b % 9 != 4 {
                    let v = VALUES[(h % 7) as usize];
                    pairs.push(pair(a, b, v, 1_000 + stamp, a % 3, stamp));
                }
            }
        }
        let delta = MergeDelta {
            seq: 1,
            pairs,
            statuses: vec!["live"],
            now: SimTime(10_000),
        };
        let mut merged = MergeOutcome::new((0..n).map(NodeId).collect(), 1);
        merged.fold(delta, |_, _| {}).unwrap();
        let timed = Snapshot::from_merged(&merged);
        for s in [&timed, &Snapshot::from_matrix(&merged.matrix)] {
            for x in 0..n {
                for k in [0, 1, 2, 7, 8, 9, 16, 35, 36, 37, usize::MAX] {
                    let got = s.k_nearest(NodeId(x), k).unwrap();
                    let want = reference::k_nearest(s, NodeId(x), k).unwrap();
                    assert_eq!(knn_bits(&got), knn_bits(&want), "x {x}, k {k}");
                }
            }
        }
        // Relays 4, 13, 22 and 31 have nothing measured.
        assert!(timed.k_nearest(NodeId(13), 5).unwrap().neighbors.is_empty());
    }

    fn matrix() -> RttMatrix {
        let mut m = RttMatrix::new(vec![NodeId(1), NodeId(2), NodeId(3), NodeId(4)]);
        m.set(NodeId(1), NodeId(2), 10.0);
        m.set(NodeId(1), NodeId(3), 30.0);
        m.set(NodeId(2), NodeId(3), 5.0);
        // (1, 4), (2, 4), (3, 4) unmeasured.
        m
    }

    #[test]
    fn point_lookup_and_coverage() {
        let s = Snapshot::from_matrix(&matrix());
        assert_eq!((s.meta().nodes, s.meta().measured_pairs), (4, 3));
        let a = s.rtt(NodeId(2), NodeId(1)).unwrap();
        assert_eq!(a.rtt_ms, Some(10.0));
        assert_eq!(a.measured_at_ns, None, "matrix sources carry no timestamps");
        assert_eq!(s.rtt(NodeId(1), NodeId(4)).unwrap().rtt_ms, None);
        assert_eq!(s.rtt(NodeId(3), NodeId(3)).unwrap().rtt_ms, Some(0.0));
        assert_eq!(
            s.rtt(NodeId(9), NodeId(1)),
            Err(QueryError::UnknownNode(NodeId(9)))
        );
    }

    #[test]
    fn k_nearest_orders_and_excludes() {
        let s = Snapshot::from_matrix(&matrix());
        let near = s.k_nearest(NodeId(1), 10).unwrap();
        // Node 4 is unmeasured from 1; node 1 itself excluded.
        assert_eq!(
            near.neighbors,
            vec![
                Neighbor {
                    node: NodeId(2),
                    rtt_ms: 10.0
                },
                Neighbor {
                    node: NodeId(3),
                    rtt_ms: 30.0
                },
            ]
        );
        assert_eq!(near.origin, None, "matrix sources carry no lineage");
        assert_eq!(s.k_nearest(NodeId(1), 1).unwrap().neighbors.len(), 1);
        assert_eq!(s.k_nearest(NodeId(4), 5).unwrap().neighbors, vec![]);
        assert!(s.k_nearest(NodeId(9), 1).is_err());
    }

    #[test]
    fn k_nearest_breaks_ties_by_index() {
        let mut m = RttMatrix::new(vec![NodeId(5), NodeId(6), NodeId(7)]);
        m.set(NodeId(5), NodeId(6), 4.0);
        m.set(NodeId(5), NodeId(7), 4.0);
        let s = Snapshot::from_matrix(&m);
        let near = s.k_nearest(NodeId(5), 2).unwrap().neighbors;
        assert_eq!(near[0].node, NodeId(6));
        assert_eq!(near[1].node, NodeId(7));
        // The two zeros tie only under `partial_cmp`: −0 ranks first,
        // whatever its index.
        m.set(NodeId(5), NodeId(6), 0.0);
        m.set(NodeId(5), NodeId(7), -0.0);
        let s = Snapshot::from_matrix(&m);
        let near = s.k_nearest(NodeId(5), 2).unwrap().neighbors;
        assert_eq!(near[0].node, NodeId(7));
        // Forty ties for ten places: the selection and the sort are
        // unstable, so only the tie-break keeps index order.
        let nodes: Vec<NodeId> = (0..41).map(NodeId).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for &n in &nodes[1..] {
            m.set(nodes[0], n, 4.0);
        }
        let near = Snapshot::from_matrix(&m).k_nearest(nodes[0], 10).unwrap();
        let got: Vec<NodeId> = near.neighbors.iter().map(|n| n.node).collect();
        assert_eq!(got, nodes[1..11]);
    }

    #[test]
    fn detour_answers_and_improvement() {
        let mut m = RttMatrix::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        m.set(NodeId(0), NodeId(1), 100.0);
        m.set(NodeId(0), NodeId(2), 20.0);
        m.set(NodeId(1), NodeId(2), 20.0);
        let s = Snapshot::from_matrix(&m);
        let d = s.best_via(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(d.direct_ms, Some(100.0));
        assert_eq!(
            d.via,
            Some(Neighbor {
                node: NodeId(2),
                rtt_ms: 40.0
            })
        );
        // The cheap legs have no improving detour.
        let d = s.best_via(NodeId(0), NodeId(2)).unwrap();
        assert!(d.via.is_none_or(|v| Some(v.rtt_ms) >= d.direct_ms));
    }

    fn pair(a: u32, b: u32, rtt_ms: f64, at: u64, shard: u32, round: u64) -> DeltaPair {
        DeltaPair {
            a: NodeId(a),
            b: NodeId(b),
            rtt_ms,
            measured_at: SimTime(at),
            lineage: Lineage { shard, round },
        }
    }

    /// The sealed document of `pairs` folded over nodes `0..3` and
    /// judged at 10 µs.
    fn merged_document(pairs: Vec<DeltaPair>) -> String {
        let delta = MergeDelta {
            seq: 1,
            pairs,
            statuses: vec!["live"],
            now: SimTime(10_000),
        };
        let mut merged = MergeOutcome::new(vec![NodeId(0), NodeId(1), NodeId(2)], 1);
        merged.fold(delta, |_, _| {}).unwrap();
        merged.judge_coverage(SimTime(10_000), SimDuration::from_hours(24));
        merged.to_document()
    }

    #[test]
    fn point_and_k_nearest_answers_cite_their_pairs() {
        let doc = merged_document(vec![
            pair(0, 1, 100.0, 5_000, 0, (7 << 32) + 5),
            pair(0, 2, 20.0, 1_000, 1, 2),
            pair(1, 2, 20.0, 4_000, 2, 4),
        ]);
        let s = Snapshot::from_merged_document(&doc).unwrap();
        assert_eq!(s.freshness_ns(), Some(5_000));
        // A point answer cites its own pair's probe, asked either way
        // round, a round past 32 bits included.
        let p = s.rtt(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p.measured_at_ns, Some(5_000));
        assert_eq!(
            p.origin,
            Some(Origin {
                shard: 0,
                round: (7 << 32) + 5,
                generation: s.meta().version,
            })
        );
        assert_eq!(s.rtt(NodeId(1), NodeId(0)), Ok(p));
        // k-nearest cites the stalest contributing pair: from 0 the
        // neighbors are 2 (@1000) and 1 (@5000) — (0,2) is older.
        let near = s.k_nearest(NodeId(0), 2).unwrap();
        assert_eq!(near.origin.unwrap().shard, 1);
        assert_eq!(near.origin.unwrap().round, 2);
        // Timestamp-free sources stay `None` all the way through.
        let p = Snapshot::from_matrix(&matrix())
            .rtt(NodeId(1), NodeId(2))
            .unwrap();
        assert_eq!((p.measured_at_ns, p.origin), (None, None));
    }
}
