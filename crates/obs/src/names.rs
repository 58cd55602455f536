//! The event-name registry: one authoritative list of every event and
//! span the stack emits.
//!
//! Emitters (`netsim`, `tor-sim`, `core`) name events through these
//! constants, the `obs-analyze` trace linter validates traces against
//! [`REGISTRY`], and DESIGN.md §12 documents the same taxonomy — a
//! test in this crate checks the three agree, so a new event cannot be
//! added in one place and forgotten in the others.

/// How an event participates in the span structure of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A standalone instant event.
    Point,
    /// Opens a span; carries a `span` id field. `end` names the event
    /// that closes it.
    SpanBegin { end: &'static str },
    /// Closes a span; carries the `span` id of its begin. `begin`
    /// names the event that opened it.
    SpanEnd { begin: &'static str },
}

/// One registered event name with its structural role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpec {
    pub name: &'static str,
    pub kind: EventKind,
}

// ── Scanner spans ──
pub const SCAN_ROUND_BEGIN: &str = "scan.round.begin";
pub const SCAN_ROUND_END: &str = "scan.round.end";
pub const SCAN_PAIR_BEGIN: &str = "scan.pair.begin";
pub const SCAN_PAIR_END: &str = "scan.pair.end";

// ── Measurement-pipeline spans and events ──
pub const TING_CIRCUIT_BEGIN: &str = "ting.circuit.begin";
pub const TING_CIRCUIT_END: &str = "ting.circuit.end";
pub const TING_PHASE: &str = "ting.phase";
pub const TING_ERROR: &str = "ting.error";
pub const TING_RETRY: &str = "ting.retry";

// ── Validation events ──
pub const VALIDATE_IMPLAUSIBLE: &str = "validate.implausible";
pub const VALIDATE_FLAG: &str = "validate.flag";
pub const VALIDATE_REJECT: &str = "validate.reject";

// ── Relay-health events ──
pub const HEALTH_QUARANTINE: &str = "health.quarantine";
pub const HEALTH_RELEASE: &str = "health.release";
pub const HEALTH_PROBE: &str = "health.probe";

// ── Network-simulator events ──
pub const NET_DELIVER: &str = "net.deliver";
pub const NET_CONN_OPENED: &str = "net.conn_opened";
pub const NET_CONN_CLOSED: &str = "net.conn_closed";
pub const NET_FAULT_EVENT_DROPPED: &str = "net.fault.event_dropped";
pub const NET_FAULT_CONNECT_BLACKHOLED: &str = "net.fault.connect_blackholed";
pub const NET_FAULT_MESSAGE_DROPPED: &str = "net.fault.message_dropped";
pub const NET_FAULT_DELAY: &str = "net.fault.delay";

// ── Tor-layer events ──
pub const TOR_RELAY_CRASH: &str = "tor.relay.crash";
pub const TOR_RELAY_REVIVE: &str = "tor.relay.revive";
pub const TOR_CHURN_DEPARTED: &str = "tor.churn.departed";
pub const TOR_CONSENSUS_REFRESH: &str = "tor.consensus.refresh";

// ── Shard-supervision spans and events ──
pub const SHARD_ROUND_BEGIN: &str = "shard.round.begin";
pub const SHARD_ROUND_END: &str = "shard.round.end";
pub const SHARD_CRASH: &str = "shard.crash";
pub const SHARD_RESTART: &str = "shard.restart";
pub const SHARD_STALL: &str = "shard.stall";
pub const SHARD_QUARANTINE: &str = "shard.quarantine";

// ── Checkpoint-recovery events ──
pub const SCAN_RECOVER_BAK: &str = "scan.recover.bak";

// ── Oracle query-service names ──
// The snapshot swap is the service's one trace event. Queries are not
// counted per family: readers hold no registry handle, and a shared
// counter on the point path costs more than the lookup can afford.
pub const ORACLE_SNAPSHOT_SWAP: &str = "oracle.snapshot.swap";

// ── Live-pipeline spans and events ──
// The publish pair brackets one drain→journal→swap→truncate cycle;
// delta/coalesce/recover are the queue's lifecycle; the staleness
// transition fires whenever the TTL ladder moves. The counter,
// histogram, and gauge names beside them
// (`oracle.pipeline.{deltas,coalesced,published,batch_pairs,queue_depth,generation}`,
// `oracle.stale.{served_stale,refused,state}`) never enter the event
// log.
pub const ORACLE_PIPELINE_PUBLISH_BEGIN: &str = "oracle.pipeline.publish.begin";
pub const ORACLE_PIPELINE_PUBLISH_END: &str = "oracle.pipeline.publish.end";
pub const ORACLE_PIPELINE_DELTA: &str = "oracle.pipeline.delta";
pub const ORACLE_PIPELINE_COALESCE: &str = "oracle.pipeline.coalesce";
pub const ORACLE_PIPELINE_RECOVER: &str = "oracle.pipeline.recover";
pub const ORACLE_STALE_TRANSITION: &str = "oracle.stale.transition";

// ── Lineage and SLO events ──
// `lineage.pair` is the per-measurement provenance record: one point
// event per pair drained into a merge delta, carrying the shard and
// scan round that produced the estimate plus the delta seq it rode.
// The breach pair brackets one continuous SLO violation; the SLO's
// name travels in a `slo` string field so one registered event family
// covers every declared objective. The gauge family beside them
// (`slo.{name}.{good,bad,burn_milli}`) never enters the event log.
pub const LINEAGE_PAIR: &str = "lineage.pair";
pub const SLO_BREACH_BEGIN: &str = "slo.breach.begin";
pub const SLO_BREACH_END: &str = "slo.breach.end";

/// Shorthand for registry rows.
const fn point(name: &'static str) -> EventSpec {
    EventSpec {
        name,
        kind: EventKind::Point,
    }
}

const fn begin(name: &'static str, end: &'static str) -> EventSpec {
    EventSpec {
        name,
        kind: EventKind::SpanBegin { end },
    }
}

const fn end(name: &'static str, begin: &'static str) -> EventSpec {
    EventSpec {
        name,
        kind: EventKind::SpanEnd { begin },
    }
}

/// Every event name the stack may emit. The `obs-analyze` linter
/// rejects traces containing names outside this list.
pub const REGISTRY: &[EventSpec] = &[
    begin(SCAN_ROUND_BEGIN, SCAN_ROUND_END),
    end(SCAN_ROUND_END, SCAN_ROUND_BEGIN),
    begin(SCAN_PAIR_BEGIN, SCAN_PAIR_END),
    end(SCAN_PAIR_END, SCAN_PAIR_BEGIN),
    begin(TING_CIRCUIT_BEGIN, TING_CIRCUIT_END),
    end(TING_CIRCUIT_END, TING_CIRCUIT_BEGIN),
    point(TING_PHASE),
    point(TING_ERROR),
    point(TING_RETRY),
    point(VALIDATE_IMPLAUSIBLE),
    point(VALIDATE_FLAG),
    point(VALIDATE_REJECT),
    point(HEALTH_QUARANTINE),
    point(HEALTH_RELEASE),
    point(HEALTH_PROBE),
    point(NET_DELIVER),
    point(NET_CONN_OPENED),
    point(NET_CONN_CLOSED),
    point(NET_FAULT_EVENT_DROPPED),
    point(NET_FAULT_CONNECT_BLACKHOLED),
    point(NET_FAULT_MESSAGE_DROPPED),
    point(NET_FAULT_DELAY),
    point(TOR_RELAY_CRASH),
    point(TOR_RELAY_REVIVE),
    point(TOR_CHURN_DEPARTED),
    point(TOR_CONSENSUS_REFRESH),
    begin(SHARD_ROUND_BEGIN, SHARD_ROUND_END),
    end(SHARD_ROUND_END, SHARD_ROUND_BEGIN),
    point(SHARD_CRASH),
    point(SHARD_RESTART),
    point(SHARD_STALL),
    point(SHARD_QUARANTINE),
    point(SCAN_RECOVER_BAK),
    point(ORACLE_SNAPSHOT_SWAP),
    begin(ORACLE_PIPELINE_PUBLISH_BEGIN, ORACLE_PIPELINE_PUBLISH_END),
    end(ORACLE_PIPELINE_PUBLISH_END, ORACLE_PIPELINE_PUBLISH_BEGIN),
    point(ORACLE_PIPELINE_DELTA),
    point(ORACLE_PIPELINE_COALESCE),
    point(ORACLE_PIPELINE_RECOVER),
    point(ORACLE_STALE_TRANSITION),
    point(LINEAGE_PAIR),
    begin(SLO_BREACH_BEGIN, SLO_BREACH_END),
    end(SLO_BREACH_END, SLO_BREACH_BEGIN),
];

/// Looks a name up in the registry.
pub fn spec(name: &str) -> Option<&'static EventSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate registry entry");
            }
        }
    }

    #[test]
    fn span_pairs_are_mutual() {
        for s in REGISTRY {
            match s.kind {
                EventKind::SpanBegin { end } => {
                    let e = spec(end).expect("end event registered");
                    assert_eq!(e.kind, EventKind::SpanEnd { begin: s.name });
                }
                EventKind::SpanEnd { begin } => {
                    let b = spec(begin).expect("begin event registered");
                    assert_eq!(b.kind, EventKind::SpanBegin { end: s.name });
                }
                EventKind::Point => {}
            }
        }
    }

    #[test]
    fn lookup_finds_registered_names_only() {
        assert!(spec(TING_PHASE).is_some());
        assert!(spec("ting.bogus").is_none());
    }
}
