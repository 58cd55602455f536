//! Per-relay health scoring and quarantine.
//!
//! §6's all-pairs campaign only converges on the live network because
//! sick relays don't get to stall it: the paper discards circuits that
//! fail to build and moves on. The scanner's per-pair backoff achieves
//! that locally, but a *dead* relay touches `n − 1` pairs, and each of
//! them independently burns build timeouts round after round. This
//! module adds the cross-pair view: every circuit/stream/probe outcome
//! feeds an EWMA success score for the relays involved, and a relay
//! whose score collapses enters **quarantine** — its pairs are parked
//! instead of scheduled, and the relay re-earns its place via cheap
//! probation probes (or pure decay, for the case where the scanner
//! simply stops hearing about it). The roster kept here is the only
//! one: the scanner reads it into the `parked` mask it hands
//! [`crate::queue::WorkQueue`] each time it plans.
//!
//! State machine per relay:
//!
//! ```text
//!            score < QUARANTINE_BELOW
//!   Healthy ──────────────────────────▶ Quarantined
//!      ▲                                    │
//!      │   probation probes succeed         │ every PROBATION_INTERVAL:
//!      │   (score ≥ RELEASE_ABOVE), or      │ one parked pair is
//!      │   the score decays back above      │ scheduled as a probe
//!      └────────────────────────────────────┘
//! ```
//!
//! Scores decay toward healthy with a six-hour half-life, so a
//! quarantine is never a life sentence — matching how a relay that
//! rebooted looks fine again once the consensus catches up. All state
//! is plain `(f64, SimTime)` pairs serialized into the scan checkpoint,
//! so kill/resume keeps bit-identical health decisions.

use crate::checkpoint::Row;
use netsim::{NodeId, SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// EWMA weight of the newest observation. From 1.0, four consecutive
/// failures cross [`QUARANTINE_BELOW`]: 0.70 → 0.49 → 0.34 → 0.24.
pub(crate) const EWMA_ALPHA: f64 = 0.3;
/// Scores (always in `[0, 1]`) below this enter quarantine.
pub(crate) const QUARANTINE_BELOW: f64 = 0.25;
/// Quarantined relays scoring at or above this are released.
pub(crate) const RELEASE_ABOVE: f64 = 0.6;
/// Pause between probation probes of a quarantined relay.
pub(crate) const PROBATION_INTERVAL: SimDuration = SimDuration::from_secs(1800);
/// Half-life of the decay pulling scores back toward 1.0.
pub(crate) const DECAY_HALF_LIFE: SimDuration = SimDuration::from_hours(6);

/// A quarantine/release transition produced by an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    Quarantined(NodeId),
    Released(NodeId),
}

/// Per-relay quarantine record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Quarantine {
    since: SimTime,
    next_probe_at: SimTime,
}

/// The relay health model: EWMA scores plus the quarantine roster.
#[derive(Debug, Clone, Default)]
pub struct RelayHealth {
    /// `(score, last update)` per relay; absent means never observed
    /// (implicitly healthy at 1.0). Ordered like `quarantined`.
    scores: BTreeMap<NodeId, (f64, SimTime)>,
    /// Quarantined relays, ordered for deterministic iteration.
    quarantined: BTreeMap<NodeId, Quarantine>,
}

impl RelayHealth {
    /// The relay's current score with decay applied up to `now`
    /// (without mutating state). Unobserved relays score 1.0.
    pub(crate) fn score(&self, node: NodeId, now: SimTime) -> f64 {
        match self.scores.get(&node) {
            None => 1.0,
            Some(&(s, at)) => self.decayed(s, at, now),
        }
    }

    /// Currently quarantined relays, ascending by id.
    pub fn quarantined_nodes(&self) -> Vec<NodeId> {
        self.quarantined.keys().copied().collect()
    }

    /// `s` decayed from `at` to `now`: the deficit below 1.0 halves
    /// every [`DECAY_HALF_LIFE`].
    fn decayed(&self, s: f64, at: SimTime, now: SimTime) -> f64 {
        let dt = now.since(at).as_nanos() as f64 / DECAY_HALF_LIFE.as_nanos() as f64;
        1.0 - (1.0 - s) * 0.5f64.powf(dt)
    }

    /// Feeds one success/failure observation for `node` and returns the
    /// quarantine transition it caused, if any.
    pub(crate) fn record(
        &mut self,
        node: NodeId,
        success: bool,
        now: SimTime,
    ) -> Option<HealthEvent> {
        let prior = self.score(node, now);
        let obs = if success { 1.0 } else { 0.0 };
        let score = EWMA_ALPHA * obs + (1.0 - EWMA_ALPHA) * prior;
        self.scores.insert(node, (score, now));
        match self.quarantined.entry(node) {
            Entry::Occupied(q) if score >= RELEASE_ABOVE => {
                q.remove();
                Some(HealthEvent::Released(node))
            }
            Entry::Vacant(slot) if score < QUARANTINE_BELOW => {
                slot.insert(Quarantine {
                    since: now,
                    next_probe_at: now + PROBATION_INTERVAL,
                });
                Some(HealthEvent::Quarantined(node))
            }
            _ => None,
        }
    }

    /// Quarantined relays whose probation probe is due, ascending by id.
    pub(crate) fn due_probes(&self, now: SimTime) -> Vec<NodeId> {
        self.quarantined
            .iter()
            .filter(|(_, q)| q.next_probe_at <= now)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Marks a probation probe as scheduled: the next one is not due
    /// before `now +` [`PROBATION_INTERVAL`].
    pub(crate) fn probe_scheduled(&mut self, node: NodeId, now: SimTime) {
        if let Some(q) = self.quarantined.get_mut(&node) {
            q.next_probe_at = now + PROBATION_INTERVAL;
        }
    }

    /// Releases every quarantined relay whose decayed score has drifted
    /// back above the release threshold — the path out for a relay the
    /// scanner has stopped hearing about entirely. Returns the released
    /// relays, ascending by id.
    pub(crate) fn release_by_decay(&mut self, now: SimTime) -> Vec<NodeId> {
        let release: Vec<NodeId> = self
            .quarantined
            .keys()
            .copied()
            .filter(|&n| self.score(n, now) >= RELEASE_ABOVE)
            .collect();
        for &n in &release {
            let s = self.score(n, now);
            self.scores.insert(n, (s, now));
            self.quarantined.remove(&n);
        }
        release
    }

    /// Serializes scores (`h` lines) and the quarantine roster (`q`
    /// lines) for the scan checkpoint. Deterministic order; f64s printed
    /// in their shortest exactly-roundtripping form.
    pub(crate) fn checkpoint_lines(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (n, (s, at)) in &self.scores {
            let _ = writeln!(out, "h\t{}\t{}\t{}", n.0, s, at.as_nanos());
        }
        for (n, q) in &self.quarantined {
            let _ = writeln!(
                out,
                "q\t{}\t{}\t{}",
                n.0,
                q.since.as_nanos(),
                q.next_probe_at.as_nanos()
            );
        }
        out
    }

    /// Reads back one row [`RelayHealth::checkpoint_lines`] wrote, `h`
    /// or `q`, for `node`, whose id field the caller has resolved. A
    /// node has at most one row of each kind.
    pub(crate) fn read_row(
        &mut self,
        tag: &str,
        node: NodeId,
        row: &mut Row,
    ) -> Result<(), String> {
        let second = if tag == "h" {
            let score = row.field_in("health score", 0.0..=1.0)?;
            let at = SimTime(row.field("health timestamp")?);
            self.scores.insert(node, (score, at)).is_some()
        } else {
            let q = Quarantine {
                since: SimTime(row.field("quarantine since")?),
                next_probe_at: SimTime(row.field("next-probe time")?),
            };
            self.quarantined.insert(node, q).is_some()
        };
        if second {
            return Err(row.err(&format!("a second {tag} row for the node")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn health() -> RelayHealth {
        RelayHealth::default()
    }

    #[test]
    fn repeated_failures_quarantine() {
        let mut h = health();
        let n = NodeId(7);
        let mut event = None;
        for i in 0..10 {
            event = h.record(n, false, t(i));
            if event.is_some() {
                break;
            }
        }
        assert_eq!(event, Some(HealthEvent::Quarantined(n)));
        assert!(h.quarantined_nodes().contains(&n));
        // Further failures while quarantined emit no duplicate event.
        assert_eq!(h.record(n, false, t(20)), None);
    }

    #[test]
    fn occasional_failures_do_not_quarantine() {
        let mut h = health();
        let n = NodeId(3);
        for i in 0..50 {
            let ev = h.record(n, i % 5 != 0, t(i)); // 20% failure rate
            assert_eq!(ev, None, "at observation {i}");
        }
        assert!(!h.quarantined_nodes().contains(&n));
    }

    #[test]
    fn probation_successes_release() {
        let mut h = health();
        let n = NodeId(9);
        for i in 0..6 {
            h.record(n, false, t(i));
        }
        assert!(h.quarantined_nodes().contains(&n));
        let mut released = false;
        for i in 0..20 {
            if let Some(HealthEvent::Released(m)) = h.record(n, true, t(100 + i)) {
                assert_eq!(m, n);
                released = true;
                break;
            }
        }
        assert!(released, "successes never released the relay");
        assert!(!h.quarantined_nodes().contains(&n));
    }

    #[test]
    fn decay_releases_without_traffic() {
        let mut h = health();
        let n = NodeId(1);
        for i in 0..6 {
            h.record(n, false, t(i));
        }
        assert!(h.quarantined_nodes().contains(&n));
        assert!(h.release_by_decay(t(3600)).is_empty(), "released too soon");
        // Many half-lives later the deficit has decayed away.
        let released = h.release_by_decay(t(3600 * 24 * 7));
        assert_eq!(released, vec![n]);
        assert!(!h.quarantined_nodes().contains(&n));
        assert!(h.score(n, t(3600 * 24 * 7)) >= 0.6);
    }

    #[test]
    fn probation_probes_respect_the_interval() {
        let mut h = health();
        let n = NodeId(2);
        for i in 0..6 {
            h.record(n, false, t(i));
        }
        assert!(h.due_probes(t(10)).is_empty());
        let due_at = t(5 + 1800);
        assert_eq!(h.due_probes(due_at), vec![n]);
        h.probe_scheduled(n, due_at);
        assert!(h.due_probes(due_at).is_empty());
        assert_eq!(h.due_probes(due_at + SimDuration::from_secs(1800)), vec![n]);
    }

    #[test]
    fn checkpoint_lines_roundtrip() {
        let mut h = health();
        for i in 0..6 {
            h.record(NodeId(4), false, t(i));
        }
        h.record(NodeId(5), true, t(9));
        let lines = h.checkpoint_lines();
        let mut restored = health();
        let doc = format!("magic\n{lines}");
        for mut row in crate::checkpoint::Doc::open(&doc, "magic", "test")
            .unwrap()
            .rows()
        {
            let kind = row.text("row kind").unwrap();
            let node = NodeId(row.field("node id").unwrap());
            restored.read_row(kind, node, &mut row).unwrap();
        }
        assert_eq!(restored.checkpoint_lines(), lines);
        assert_eq!(restored.quarantined_nodes(), h.quarantined_nodes());
    }
}
