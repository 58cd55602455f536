//! The scanner's pair table and the priority order over it.
//!
//! Per-pair scan state is the one thing in this crate that grows as
//! n², so it is stored exactly once: [`WorkQueue`] holds one
//! `PairRecord` per slot of the node list's triangular pair index
//! (`tri_index`), and [`crate::scanner::Scanner`] reads measurement
//! instants, lineage rounds and retry state out of the same records the
//! queue schedules by. Pairs are addressed by their indices into the
//! scanner's node list; the matrix owns the one `NodeId → index` map.
//!
//! The priority order is a function of the records, not a structure
//! kept beside them: never-measured pairs first in index order, then
//! stale pairs oldest first, with retired pairs, pairs touching a
//! parked relay and pairs inside a failure backoff withheld. The caller
//! passes the `parked` mask, one flag per node index, read off the one
//! quarantine roster ([`crate::health::RelayHealth`]).
//! [`WorkQueue::plan`] and [`WorkQueue::backlog`] each derive the order
//! with one sweep over the table — about 2 ns a pair slot, so ≈ 90 µs at
//! 300 relays, against ≥ 18 ms for any round that measures a pair. A
//! property test (`tests/parallel_scan.rs`) replays randomized histories
//! against the reference sweep stated there over its own shadow state,
//! and holds plan, backlog and probation probe to bit-equality with it.

use crate::matrix::ordered;
use netsim::{SimDuration, SimTime};

/// The slot of pair `(a, b)` in the row-major upper triangle (diagonal
/// included) over `n` nodes: the pair table's storage order.
pub(crate) fn tri_index(n: usize, a: usize, b: usize) -> usize {
    let (lo, hi) = ordered(a, b);
    lo * n - lo * (lo + 1) / 2 + hi
}

/// Everything the scanner knows about one pair besides its RTT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PairRecord {
    /// When the cached estimate was accepted, if there is one.
    pub(crate) measured_at: Option<SimTime>,
    /// The scan round that accepted it — the scanner half of its
    /// lineage; 0 means "unknown". Meaningful with `measured_at`.
    pub(crate) round: u64,
    /// Consecutive failures since the last success; 0 = no retry
    /// pending.
    pub(crate) attempts: u32,
    /// With `attempts > 0`: not eligible again before this instant.
    pub(crate) retry_at: SimTime,
    /// Out of scope for good (another shard's pair — see
    /// [`crate::shard`]): never planned, never picked as a probation
    /// probe, though outcomes still keep the record current.
    retired: bool,
}

/// The `n − 1` pairs touching node `i`, in index order, each with its
/// other endpoint.
fn touching(n: u32, i: u32) -> impl Iterator<Item = ((u32, u32), u32)> {
    (0..i)
        .map(move |k| ((k, i), k))
        .chain((i + 1..n).map(move |k| ((i, k), k)))
}

/// The pair table and the priority order derived from it on demand.
#[derive(Debug, Clone)]
pub struct WorkQueue {
    n: u32,
    staleness: SimDuration,
    /// One record per slot of [`tri_index`] (diagonal slots unused).
    table: Vec<PairRecord>,
}

impl WorkQueue {
    /// Creates a queue over `n` nodes with every pair unmeasured.
    pub fn new(n: usize, staleness: SimDuration) -> WorkQueue {
        WorkQueue {
            n: n as u32,
            staleness,
            table: vec![
                PairRecord {
                    measured_at: None,
                    round: 0,
                    attempts: 0,
                    retry_at: SimTime::ZERO,
                    retired: false,
                };
                n * (n + 1) / 2
            ],
        }
    }

    fn slot(&self, (i, j): (u32, u32)) -> usize {
        tri_index(self.n as usize, i as usize, j as usize)
    }

    /// The record of pair `(i, j)`, in either order.
    pub(crate) fn record(&self, i: u32, j: u32) -> &PairRecord {
        &self.table[self.slot((i, j))]
    }

    /// Write access for the checkpoint loader and the outcome hooks.
    pub(crate) fn record_mut(&mut self, i: u32, j: u32) -> &mut PairRecord {
        let slot = self.slot((i, j));
        &mut self.table[slot]
    }

    /// Every pair with its record, in `(i, j)` index order: the table
    /// in storage order, less the diagonal.
    pub(crate) fn records(&self) -> impl Iterator<Item = ((u32, u32), &PairRecord)> {
        let n = self.n;
        let slots = (0..n).flat_map(move |i| (i..n).map(move |j| (i, j)));
        slots.zip(&self.table).filter(|&((i, j), _)| i != j)
    }

    /// Records a successful measurement at `at`, accepted in scan round
    /// `round`. Clears any backoff.
    pub fn on_measured(&mut self, i: u32, j: u32, at: SimTime, round: u64) {
        let rec = self.record_mut(i, j);
        rec.measured_at = Some(at);
        rec.round = round;
        rec.attempts = 0;
    }

    /// Records a failed measurement: one more consecutive failure, and
    /// the pair is withheld until `until`, then queues again by its
    /// measurement history (unmeasured, or stale/fresh by its last
    /// success).
    pub fn on_failed(&mut self, i: u32, j: u32, until: SimTime) {
        let rec = self.record_mut(i, j);
        rec.attempts = rec.attempts.saturating_add(1);
        rec.retry_at = until;
    }

    /// Permanently removes a pair from scheduling, though measurement
    /// outcomes still keep its record current. This is how a
    /// shard-scoped scanner disowns the pairs other shards measure (see
    /// [`crate::shard::partition_pairs`]). Irreversible.
    pub fn retire(&mut self, i: u32, j: u32) {
        self.record_mut(i, j).retired = true;
    }

    /// Picks a probation-probe pair for parked node `i`: the first pair
    /// (in index order) in scope joining it to a peer `parked` does not
    /// flag. The pair stays out of the plan — its outcome feeds the
    /// health model without scheduling it.
    pub fn probe_pair(&self, i: u32, parked: &[bool]) -> Option<(u32, u32)> {
        touching(self.n, i)
            .find(|&((a, b), other)| !self.record(a, b).retired && !parked[other as usize])
            .map(|(pair, _)| pair)
    }

    /// Every pair eligible at `now` — in scope, not backing off, never
    /// measured or stale, and touching no parked relay — in index order,
    /// with its last measurement (`None` when it never had one).
    fn due<'a>(
        &'a self,
        now: SimTime,
        parked: &'a [bool],
    ) -> impl Iterator<Item = ((u32, u32), Option<SimTime>)> + 'a {
        self.records().filter_map(move |((i, j), rec)| {
            let withheld = rec.retired
                || (rec.attempts > 0 && now < rec.retry_at)
                || matches!(rec.measured_at, Some(t) if now.since(t) < self.staleness)
                || parked[i as usize]
                || parked[j as usize];
            (!withheld).then_some(((i, j), rec.measured_at))
        })
    }

    /// The pairs the scanner should measure next, most urgent first.
    pub fn plan(&self, now: SimTime, limit: usize, parked: &[bool]) -> Vec<(u32, u32)> {
        let mut unmeasured = Vec::new();
        let mut stale = Vec::new();
        for (pair, at) in self.due(now, parked) {
            match at {
                None => unmeasured.push(pair),
                Some(t) => stale.push((t, pair)),
            }
        }
        // Pairs are distinct, so ties in time fall back to index order.
        stale.sort_unstable();
        let stale = stale.into_iter().map(|(_, pair)| pair);
        unmeasured.into_iter().chain(stale).take(limit).collect()
    }

    /// The true backlog: every pair eligible for measurement at `now`,
    /// with no round-size cap.
    pub fn backlog(&self, now: SimTime, parked: &[bool]) -> usize {
        self.due(now, parked).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn queue(n: usize) -> WorkQueue {
        WorkQueue::new(n, SimDuration::from_secs(100))
    }

    /// A mask over `n` nodes flagging `parked`.
    fn mask(n: usize, parked: &[usize]) -> Vec<bool> {
        (0..n).map(|i| parked.contains(&i)).collect()
    }

    #[test]
    fn starts_with_all_pairs_unmeasured_in_index_order() {
        let (q, none) = (queue(3), mask(3, &[]));
        assert_eq!(q.plan(t(0), 10, &none), vec![(0, 1), (0, 2), (1, 2),]);
        assert_eq!(q.backlog(t(0), &none), 3);
    }

    #[test]
    fn measured_pairs_leave_until_stale() {
        let (mut q, none) = (queue(3), mask(3, &[]));
        q.on_measured(0, 1, t(0), 1);
        q.on_measured(0, 2, t(10), 1);
        assert_eq!(q.plan(t(10), 10, &none), vec![(1, 2)]);
        // At t=100 the first measurement crosses the 100 s horizon.
        assert_eq!(q.plan(t(100), 10, &none), vec![(1, 2), (0, 1)]);
        // At t=110 both are stale, oldest first, after the unmeasured.
        assert_eq!(q.plan(t(110), 10, &none), vec![(1, 2), (0, 1), (0, 2),]);
    }

    #[test]
    fn failed_pairs_withheld_until_backoff_expires() {
        let (mut q, none) = (queue(2), mask(2, &[]));
        q.on_failed(0, 1, t(50));
        assert!(q.plan(t(0), 10, &none).is_empty());
        assert_eq!(q.backlog(t(49), &none), 0);
        // Eligible again exactly at the deadline, still unmeasured.
        assert_eq!(q.plan(t(50), 10, &none), vec![(0, 1)]);
    }

    #[test]
    fn failed_measured_pair_reenters_by_its_history() {
        let (mut q, none) = (queue(2), mask(2, &[]));
        q.on_measured(0, 1, t(0), 1);
        q.on_failed(0, 1, t(20));
        // Backoff expired but the old estimate is still fresh.
        assert!(q.plan(t(20), 10, &none).is_empty());
        // Once the old estimate crosses the horizon it queues as stale.
        assert_eq!(q.plan(t(100), 10, &none), vec![(0, 1)]);
    }

    #[test]
    fn symmetric_keys() {
        let mut q = queue(2);
        q.on_measured(1, 0, t(0), 1);
        assert!(q.plan(t(0), 10, &mask(2, &[])).is_empty());
    }

    #[test]
    fn quarantine_parks_and_release_restores() {
        let q = queue(4); // 6 pairs
        let parked = mask(4, &[0]);
        // Planning skips every pair touching node 0.
        assert_eq!(q.plan(t(0), 10, &parked), vec![(1, 2), (1, 3), (2, 3),]);
        assert_eq!(q.backlog(t(0), &parked), 3);
        let none = mask(4, &[]);
        assert_eq!(q.backlog(t(0), &none), 6);
        assert_eq!(q.plan(t(0), 10, &none)[0], (0, 1));
    }

    #[test]
    fn parked_outcomes_keep_state_without_scheduling() {
        let mut q = queue(3);
        // A probation measurement of a parked pair succeeds …
        q.on_measured(0, 1, t(5), 1);
        // … but the pair stays out of the plan while node 0 is parked.
        assert_eq!(q.plan(t(5), 10, &mask(3, &[0])), vec![(1, 2)]);
        // Unparked, the fresh measurement is honored: only the
        // never-measured pairs queue up.
        assert_eq!(q.plan(t(5), 10, &mask(3, &[])), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn retired_pairs_never_schedule_again() {
        let (mut q, none) = (queue(3), mask(3, &[]));
        q.retire(0, 2);
        q.retire(2, 0); // symmetric + repeated: no-op
        assert_eq!(q.plan(t(0), 10, &none), vec![(0, 1), (1, 2)]);
        assert_eq!(q.backlog(t(0), &none), 2);
        // Outcomes keep state current without scheduling the pair.
        q.on_measured(0, 2, t(1), 1);
        q.on_failed(0, 2, t(2));
        assert_eq!(q.backlog(t(500), &none), 2);
        // Parking an endpoint and unparking it must not resurrect it.
        assert_eq!(q.backlog(t(500), &mask(3, &[0])), 1);
        assert_eq!(q.backlog(t(500), &none), 2);
        assert_eq!(q.plan(t(500), 10, &none), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn retiring_a_parked_pair_unparks_it_for_good() {
        let mut q = queue(3);
        q.retire(0, 1);
        assert_eq!(q.plan(t(0), 10, &mask(3, &[0])), vec![(1, 2)]);
        // Unparked: (0,1) is retired, (0,2) returns.
        assert_eq!(q.plan(t(0), 10, &mask(3, &[])), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn probe_pair_skips_doubly_quarantined() {
        let q = queue(3);
        let both = mask(3, &[0, 1]);
        // (0,1) joins two parked relays; the probe for node 0 must pick
        // (0,2) instead.
        assert_eq!(q.probe_pair(0, &both), Some((0, 2)));
        assert_eq!(q.probe_pair(1, &both), Some((1, 2)));
        // Unparking node 1 keeps (0,1) parked — node 0 is still out.
        let zero = mask(3, &[0]);
        assert_eq!(q.plan(t(0), 10, &zero), vec![(1, 2)]);
        assert_eq!(q.probe_pair(0, &zero), Some((0, 1)));
        assert_eq!(q.backlog(t(0), &mask(3, &[])), 3);
    }
}
