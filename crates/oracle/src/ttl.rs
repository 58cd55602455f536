//! Staleness SLOs for the serving layer: how old is too old.
//!
//! The paper's §5 applications assume a *fresh* all-pairs matrix, and
//! ShorTor after it showed detour quality degrades with matrix age —
//! so the oracle must know, and enforce, how stale its dataset is. A
//! [`TtlPolicy`] maps the age of the served snapshot's data onto a
//! three-state ladder, mirroring the supervisor's quarantine
//! philosophy (degrade loudly, never silently serve garbage):
//! [`ServingState::Fresh`] below the soft TTL, [`ServingState::Stale`]
//! past it, [`ServingState::Degraded`] past the hard TTL or when the
//! dataset carries no timestamps at all. What a reader may be served in
//! each state is [`crate::service`]'s business.
//!
//! Age is judged against the **newest measurement** in the snapshot,
//! not the publish instant: republishing unchanged data (a status-only
//! generation) must not reset the clock.

use netsim::SimDuration;

/// Where the serving layer sits on the freshness ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingState {
    /// Data age below the soft TTL.
    Fresh,
    /// Past the soft TTL: served, but flagged.
    Stale,
    /// Past the hard TTL (or unknowable age): ranking queries refuse.
    Degraded,
}

impl ServingState {
    /// Stable tag for gauges and trace fields.
    pub fn tag(&self) -> &'static str {
        match self {
            ServingState::Fresh => "fresh",
            ServingState::Stale => "stale",
            ServingState::Degraded => "degraded",
        }
    }

    /// Numeric encoding for the `oracle.stale.state` gauge.
    pub(crate) fn gauge(&self) -> i64 {
        match self {
            ServingState::Fresh => 0,
            ServingState::Stale => 1,
            ServingState::Degraded => 2,
        }
    }
}

/// The verdict a generation is served under: its place on the ladder,
/// and the two numbers a refusal cites.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Judgment {
    pub(crate) state: ServingState,
    /// The dataset's age when judged, when known.
    pub(crate) age_ns: Option<u64>,
    pub(crate) hard_ttl_ns: u64,
}

/// Snapshot-level freshness SLOs, in virtual time.
#[derive(Debug, Clone, Copy)]
pub struct TtlPolicy {
    /// Age at which answers start carrying a staleness flag.
    pub(crate) soft_ttl: SimDuration,
    /// Age at which ranking queries refuse outright.
    pub hard_ttl: SimDuration,
}

impl TtlPolicy {
    /// A policy with `soft ≤ hard` enforced at construction — an
    /// inverted ladder would make `Stale` unreachable and mask the
    /// misconfiguration forever.
    pub fn new(soft_ttl: SimDuration, hard_ttl: SimDuration) -> Result<TtlPolicy, String> {
        if soft_ttl > hard_ttl {
            return Err(format!(
                "soft TTL ({} ns) must not exceed hard TTL ({} ns)",
                soft_ttl.as_nanos(),
                hard_ttl.as_nanos()
            ));
        }
        Ok(TtlPolicy { soft_ttl, hard_ttl })
    }

    /// The serving state of data last measured at `data_ns`, judged at
    /// `now_ns` (unknown data age is `Degraded`), with the age it judged
    /// and the TTL a refusal will cite.
    pub(crate) fn judgment(&self, data_ns: Option<u64>, now_ns: u64) -> Judgment {
        let age_ns = data_ns.map(|at| now_ns.saturating_sub(at));
        let state = match age_ns {
            Some(age) if age < self.soft_ttl.as_nanos() => ServingState::Fresh,
            Some(age) if age < self.hard_ttl.as_nanos() => ServingState::Stale,
            _ => ServingState::Degraded,
        };
        Judgment {
            state,
            age_ns,
            hard_ttl_ns: self.hard_ttl.as_nanos(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(soft_s: u64, hard_s: u64) -> TtlPolicy {
        TtlPolicy::new(
            SimDuration::from_secs(soft_s),
            SimDuration::from_secs(hard_s),
        )
        .unwrap()
    }

    #[test]
    fn ladder_boundaries_are_inclusive() {
        let p = policy(10, 100);
        let ns = |s: u64| SimDuration::from_secs(s).as_nanos();
        assert_eq!(p.judgment(Some(0), ns(9)).state, ServingState::Fresh);
        assert_eq!(p.judgment(Some(0), ns(10)).state, ServingState::Stale);
        assert_eq!(p.judgment(Some(0), ns(99)).state, ServingState::Stale);
        assert_eq!(p.judgment(Some(0), ns(100)).state, ServingState::Degraded);
        // Age is relative to the data, not the epoch.
        assert_eq!(p.judgment(Some(ns(95)), ns(100)).state, ServingState::Fresh);
    }

    #[test]
    fn unknown_age_is_degraded_and_clock_skew_is_fresh() {
        let p = policy(10, 100);
        assert_eq!(p.judgment(None, 0).state, ServingState::Degraded);
        // Data "from the future" (drained mid-round) saturates to age 0.
        assert_eq!(p.judgment(Some(50), 10).state, ServingState::Fresh);
    }

    #[test]
    fn inverted_ladder_is_refused() {
        let err = TtlPolicy::new(SimDuration::from_secs(2), SimDuration::from_secs(1)).unwrap_err();
        assert!(err.contains("must not exceed"), "{err}");
    }

    #[test]
    fn zero_soft_ttl_is_immediately_stale() {
        let p = policy(0, 100);
        assert_eq!(p.judgment(Some(5), 5).state, ServingState::Stale);
    }
}
