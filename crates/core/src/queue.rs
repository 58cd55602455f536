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
//! Over the table the queue keeps the priority order — never-measured
//! pairs first in index order, then stale pairs oldest first, with
//! failure-backoff pairs withheld until eligible — in four ordered tier
//! sets updated in O(log n) per measurement outcome, so planning a
//! round costs O(round size · log n). A property test
//! (`tests/parallel_scan.rs`) replays randomized histories against a
//! reference O(n²) sweep to hold that order to bit-equality.

use crate::matrix::ordered;
use netsim::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// The slot of pair `(a, b)` in the row-major upper triangle (diagonal
/// included) over `n` nodes: the pair table's storage order.
pub(crate) fn tri_index(n: usize, a: usize, b: usize) -> usize {
    let (lo, hi) = ordered(a, b);
    lo * n - lo * (lo + 1) / 2 + hi
}

/// Which of the queue's structures currently holds a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Never successfully measured; eligible immediately.
    Unmeasured,
    /// Measured, and not yet seen past the staleness horizon.
    Fresh,
    /// Measured and past the staleness horizon; eligible.
    Stale,
    /// Under failure backoff until the record's `retry_at`.
    Backoff,
    /// An endpoint is quarantined (see [`crate::health`]): in no tier
    /// set until the relay is released.
    Parked,
    /// Out of scope for good (another shard's pair — see
    /// [`crate::shard`]): in no tier set, never released, never picked
    /// as a probation probe.
    Retired,
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
    tier: Tier,
}

impl PairRecord {
    /// The tier a pair enters the schedule in, from its history alone:
    /// withheld while a retry is pending, else fresh if ever measured.
    /// [`WorkQueue::normalize`] moves it on against the clock (an
    /// expired backoff to its measurement tier, a fresh pair past the
    /// horizon to stale) before anything reads the order, so a record
    /// restored from a checkpoint or released from quarantine plans
    /// exactly like one that never left.
    fn entry_tier(&self) -> Tier {
        if self.attempts > 0 {
            Tier::Backoff
        } else if self.measured_at.is_some() {
            Tier::Fresh
        } else {
            Tier::Unmeasured
        }
    }

    fn is_scheduled(&self) -> bool {
        !matches!(self.tier, Tier::Parked | Tier::Retired)
    }
}

/// Every pair over `n` nodes, in `(i, j)` index order.
fn pairs(n: u32) -> impl Iterator<Item = (u32, u32)> {
    (0..n).flat_map(move |i| (i + 1..n).map(move |j| (i, j)))
}

/// The `n − 1` pairs touching node `i`, in index order, each with its
/// other endpoint.
fn touching(n: u32, i: u32) -> impl Iterator<Item = ((u32, u32), u32)> {
    (0..i)
        .map(move |k| ((k, i), k))
        .chain((i + 1..n).map(move |k| ((i, k), k)))
}

/// The pair table plus an incrementally maintained priority structure
/// over it.
///
/// The tier sets are keyed by the pairs' `(i, j)` indices (`i < j`), so
/// their orderings are the reference sweep's: it pushes unmeasured
/// pairs in `(i, j)` iteration order and stably sorts stale pairs by
/// measurement time (ties keeping iteration order).
#[derive(Debug, Clone)]
pub struct WorkQueue {
    n: u32,
    staleness: SimDuration,
    /// One record per slot of [`tri_index`] (diagonal slots unused).
    table: Vec<PairRecord>,
    /// Never-measured pairs, in `(i, j)` index order.
    unmeasured: BTreeSet<(u32, u32)>,
    /// Measured, not yet stale; ordered by measurement time so the
    /// stale horizon advances over a prefix.
    fresh: BTreeSet<(SimTime, u32, u32)>,
    /// Measured and stale; oldest measurement first.
    stale: BTreeSet<(SimTime, u32, u32)>,
    /// Under failure backoff; ordered by eligibility instant.
    backoff: BTreeSet<(SimTime, u32, u32)>,
    /// Relays under health quarantine (see [`crate::health`]).
    quarantined: BTreeSet<u32>,
}

impl WorkQueue {
    /// Creates a queue over `n` nodes with every pair unmeasured.
    pub fn new(n: usize, staleness: SimDuration) -> WorkQueue {
        let mut queue = WorkQueue {
            n: n as u32,
            staleness,
            table: vec![
                PairRecord {
                    measured_at: None,
                    round: 0,
                    attempts: 0,
                    retry_at: SimTime::ZERO,
                    tier: Tier::Unmeasured,
                };
                n * (n + 1) / 2
            ],
            unmeasured: BTreeSet::new(),
            fresh: BTreeSet::new(),
            stale: BTreeSet::new(),
            backoff: BTreeSet::new(),
            quarantined: BTreeSet::new(),
        };
        queue.rebuild();
        queue
    }

    fn slot(&self, (i, j): (u32, u32)) -> usize {
        tri_index(self.n as usize, i as usize, j as usize)
    }

    /// The record of pair `(i, j)`, in either order.
    pub(crate) fn record(&self, i: u32, j: u32) -> &PairRecord {
        &self.table[self.slot((i, j))]
    }

    /// Write access for the checkpoint loader, which fills records in
    /// and then calls [`WorkQueue::rebuild`].
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

    /// Re-derives the tier sets from the table: every scheduled pair
    /// enters at its [`PairRecord::entry_tier`].
    pub(crate) fn rebuild(&mut self) {
        let (mut unmeasured, mut fresh, mut backoff) = (Vec::new(), Vec::new(), Vec::new());
        for (i, j) in pairs(self.n) {
            let slot = self.slot((i, j));
            let rec = &mut self.table[slot];
            if !rec.is_scheduled() {
                continue;
            }
            rec.tier = rec.entry_tier();
            match (rec.tier, rec.measured_at) {
                (Tier::Fresh, Some(t)) => fresh.push((t, i, j)),
                (Tier::Backoff, _) => backoff.push((rec.retry_at, i, j)),
                _ => unmeasured.push((i, j)),
            }
        }
        // Collecting sorts once and bulk-builds, where n² single
        // inserts would rebalance n² times.
        self.unmeasured = unmeasured.into_iter().collect();
        self.fresh = fresh.into_iter().collect();
        self.stale = BTreeSet::new();
        self.backoff = backoff.into_iter().collect();
    }

    /// Removes `key` from whichever tier set holds it. The sets are
    /// keyed by the record's own fields, so this runs *before* they
    /// change.
    fn detach(&mut self, key: (u32, u32)) {
        let rec = self.table[self.slot(key)];
        let (i, j) = key;
        match (rec.tier, rec.measured_at) {
            (Tier::Unmeasured, _) => self.unmeasured.remove(&key),
            (Tier::Fresh, Some(t)) => self.fresh.remove(&(t, i, j)),
            (Tier::Stale, Some(t)) => self.stale.remove(&(t, i, j)),
            (Tier::Backoff, _) => self.backoff.remove(&(rec.retry_at, i, j)),
            // Parked and retired pairs are in no set.
            _ => false,
        };
    }

    /// Tags `key` with `tier` and files it in that tier's set.
    fn attach(&mut self, key: (u32, u32), tier: Tier) {
        let slot = self.slot(key);
        let rec = &mut self.table[slot];
        rec.tier = tier;
        let (i, j) = key;
        match (tier, rec.measured_at) {
            (Tier::Unmeasured, _) => self.unmeasured.insert(key),
            (Tier::Fresh, Some(t)) => self.fresh.insert((t, i, j)),
            (Tier::Stale, Some(t)) => self.stale.insert((t, i, j)),
            (Tier::Backoff, _) => self.backoff.insert((rec.retry_at, i, j)),
            _ => false,
        };
    }

    /// Applies one measurement outcome to the pair's record and, when
    /// the pair is scheduled, moves it to `tier`. A parked pair (a
    /// probation probe's outcome) or a retired one keeps its record
    /// current without entering any tier.
    fn record_outcome(&mut self, i: u32, j: u32, tier: Tier, write: impl FnOnce(&mut PairRecord)) {
        let key = ordered(i, j);
        let slot = self.slot(key);
        let scheduled = self.table[slot].is_scheduled();
        if scheduled {
            self.detach(key);
        }
        write(&mut self.table[slot]);
        if scheduled {
            self.attach(key, tier);
        }
    }

    /// Records a successful measurement at `at`, accepted in scan round
    /// `round`. Clears any backoff. A success always re-enters as
    /// fresh; staleness migration happens lazily against the clock in
    /// `normalize`.
    pub fn on_measured(&mut self, i: u32, j: u32, at: SimTime, round: u64) {
        self.record_outcome(i, j, Tier::Fresh, |rec| {
            rec.measured_at = Some(at);
            rec.round = round;
            rec.attempts = 0;
        });
    }

    /// Records a failed measurement: one more consecutive failure, and
    /// the pair is withheld until `until`, then re-enters the tier its
    /// measurement history puts it in (unmeasured, or stale/fresh by
    /// its last success).
    pub fn on_failed(&mut self, i: u32, j: u32, until: SimTime) {
        self.record_outcome(i, j, Tier::Backoff, |rec| {
            rec.attempts = rec.attempts.saturating_add(1);
            rec.retry_at = until;
        });
    }

    /// Parks every pair touching node `i`: quarantined relays' pairs
    /// are deprioritized out of planning entirely instead of burning
    /// timeouts on schedule. Retired pairs stay retired — they must not
    /// leak back in through a later release.
    pub fn quarantine(&mut self, i: u32) {
        if !self.quarantined.insert(i) {
            return;
        }
        for (key, _) in touching(self.n, i) {
            let slot = self.slot(key);
            if self.table[slot].is_scheduled() {
                self.detach(key);
                self.table[slot].tier = Tier::Parked;
            }
        }
    }

    /// Permanently removes a pair from scheduling: it leaves whatever
    /// tier holds it (or its parking place) and never re-enters one,
    /// though measurement outcomes still keep its record current. This
    /// is how a shard-scoped scanner disowns the pairs other shards
    /// measure (see [`crate::shard::partition_pairs`]). Irreversible.
    pub fn retire(&mut self, i: u32, j: u32) {
        let key = ordered(i, j);
        self.detach(key);
        let slot = self.slot(key);
        self.table[slot].tier = Tier::Retired;
    }

    /// Releases node `i` from quarantine: its parked pairs re-enter the
    /// schedule, except those whose other endpoint is still
    /// quarantined.
    pub fn release(&mut self, i: u32) {
        if !self.quarantined.remove(&i) {
            return;
        }
        for (key, other) in touching(self.n, i) {
            let rec = self.table[self.slot(key)];
            if rec.tier == Tier::Parked && !self.quarantined.contains(&other) {
                self.attach(key, rec.entry_tier());
            }
        }
    }

    /// Picks a probation-probe pair for quarantined node `i`: the first
    /// parked pair (in index order) joining it to a non-quarantined
    /// peer. The pair stays parked — its outcome feeds the health model
    /// without re-entering the schedule.
    pub fn probe_pair(&self, i: u32) -> Option<(u32, u32)> {
        touching(self.n, i)
            .find(|&(key, other)| {
                self.table[self.slot(key)].tier == Tier::Parked
                    && !self.quarantined.contains(&other)
            })
            .map(|(key, _)| key)
    }

    /// Advances the time-dependent tiers to `now`: expired backoffs
    /// re-enter their measurement tier, and fresh entries past the
    /// staleness horizon move to the stale tier. Amortized O(log n)
    /// per transition — each pair moves at most twice per cycle.
    fn normalize(&mut self, now: SimTime) {
        // Expired backoffs first: a released pair may be stale already.
        while let Some(&(until, i, j)) = self.backoff.first() {
            if until > now {
                break;
            }
            self.backoff.pop_first();
            let tier = match self.record(i, j).measured_at {
                None => Tier::Unmeasured,
                Some(t) if now.since(t) >= self.staleness => Tier::Stale,
                Some(_) => Tier::Fresh,
            };
            self.attach((i, j), tier);
        }
        // Fresh → stale over the ordered prefix.
        while let Some(&(t, i, j)) = self.fresh.first() {
            if now.since(t) < self.staleness {
                break;
            }
            self.fresh.pop_first();
            self.attach((i, j), Tier::Stale);
        }
    }

    /// The pairs the scanner should measure next, most urgent first.
    pub fn plan(&mut self, now: SimTime, limit: usize) -> Vec<(u32, u32)> {
        self.normalize(now);
        self.unmeasured
            .iter()
            .copied()
            .chain(self.stale.iter().map(|&(_, i, j)| (i, j)))
            .take(limit)
            .collect()
    }

    /// The true backlog: every pair eligible for measurement at `now`,
    /// with no round-size cap.
    pub fn backlog(&mut self, now: SimTime) -> usize {
        self.normalize(now);
        self.unmeasured.len() + self.stale.len()
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

    #[test]
    fn starts_with_all_pairs_unmeasured_in_index_order() {
        let mut q = queue(3);
        assert_eq!(q.plan(t(0), 10), vec![(0, 1), (0, 2), (1, 2),]);
        assert_eq!(q.backlog(t(0)), 3);
    }

    #[test]
    fn measured_pairs_leave_until_stale() {
        let mut q = queue(3);
        q.on_measured(0, 1, t(0), 1);
        q.on_measured(0, 2, t(10), 1);
        assert_eq!(q.plan(t(10), 10), vec![(1, 2)]);
        // At t=100 the first measurement crosses the 100 s horizon.
        assert_eq!(q.plan(t(100), 10), vec![(1, 2), (0, 1)]);
        // At t=110 both are stale, oldest first, after the unmeasured.
        assert_eq!(q.plan(t(110), 10), vec![(1, 2), (0, 1), (0, 2),]);
    }

    #[test]
    fn failed_pairs_withheld_until_backoff_expires() {
        let mut q = queue(2);
        q.on_failed(0, 1, t(50));
        assert!(q.plan(t(0), 10).is_empty());
        assert_eq!(q.backlog(t(49)), 0);
        // Eligible again exactly at the deadline, still unmeasured.
        assert_eq!(q.plan(t(50), 10), vec![(0, 1)]);
    }

    #[test]
    fn failed_measured_pair_reenters_by_its_history() {
        let mut q = queue(2);
        q.on_measured(0, 1, t(0), 1);
        q.on_failed(0, 1, t(20));
        // Backoff expired but the old estimate is still fresh.
        assert!(q.plan(t(20), 10).is_empty());
        // Once the old estimate crosses the horizon it queues as stale.
        assert_eq!(q.plan(t(100), 10), vec![(0, 1)]);
    }

    #[test]
    fn symmetric_keys() {
        let mut q = queue(2);
        q.on_measured(1, 0, t(0), 1);
        assert!(q.plan(t(0), 10).is_empty());
    }

    #[test]
    fn quarantine_parks_and_release_restores() {
        let mut q = queue(4); // 6 pairs
        q.quarantine(0);
        // Planning skips every pair touching node 0.
        assert_eq!(q.plan(t(0), 10), vec![(1, 2), (1, 3), (2, 3),]);
        assert_eq!(q.backlog(t(0)), 3);
        q.release(0);
        assert_eq!(q.backlog(t(0)), 6);
        assert_eq!(q.plan(t(0), 10)[0], (0, 1));
    }

    #[test]
    fn parked_outcomes_keep_state_without_scheduling() {
        let mut q = queue(3);
        q.quarantine(0);
        // A probation measurement of a parked pair succeeds …
        q.on_measured(0, 1, t(5), 1);
        // … but the pair stays out of the plan until release.
        assert_eq!(q.plan(t(5), 10), vec![(1, 2)]);
        q.release(0);
        // After release the fresh measurement is honored: only the
        // never-measured pairs queue up.
        assert_eq!(q.plan(t(5), 10), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn retired_pairs_never_schedule_again() {
        let mut q = queue(3);
        q.retire(0, 2);
        q.retire(2, 0); // symmetric + repeated: no-op
        assert_eq!(q.plan(t(0), 10), vec![(0, 1), (1, 2)]);
        assert_eq!(q.backlog(t(0)), 2);
        // Outcomes keep state current without re-entering a tier.
        q.on_measured(0, 2, t(1), 1);
        q.on_failed(0, 2, t(2));
        assert_eq!(q.backlog(t(500)), 2);
        // Quarantine + release of an endpoint must not resurrect it.
        q.quarantine(0);
        q.release(0);
        assert_eq!(q.backlog(t(500)), 2);
        assert_eq!(q.plan(t(500), 10), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn retiring_a_parked_pair_unparks_it_for_good() {
        let mut q = queue(3);
        q.quarantine(0);
        q.retire(0, 1);
        q.release(0);
        // (0,1) is retired, (0,2) returns.
        assert_eq!(q.plan(t(0), 10), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn probe_pair_skips_doubly_quarantined() {
        let mut q = queue(3);
        q.quarantine(0);
        q.quarantine(1);
        // (0,1) joins two quarantined relays; the probe for node 0 must
        // pick (0,2) instead.
        assert_eq!(q.probe_pair(0), Some((0, 2)));
        assert_eq!(q.probe_pair(1), Some((1, 2)));
        // Releasing node 1 keeps (0,1) parked — node 0 is still out.
        q.release(1);
        assert_eq!(q.plan(t(0), 10), vec![(1, 2)]);
        q.release(0);
        assert_eq!(q.backlog(t(0)), 3);
    }
}
