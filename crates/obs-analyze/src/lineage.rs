//! Measurement lineage: walk a served pair's causal chain back to the
//! probe that produced it.
//!
//! The write path stamps every drained pair with a `lineage.pair`
//! event (shard, scan round, delta sequence, measurement instant);
//! the pipeline's `oracle.pipeline.coalesce` events record how delta
//! sequences fold under backpressure, and each
//! `oracle.pipeline.publish.end` carries the highest sequence its
//! generation absorbed. Those three event families, plus the shard
//! supervision log, are enough to answer the question this module
//! exists for: *why is this cell as old as it is* — which probe
//! measured it, which shard outage delayed its successor, which
//! coalesce folded it, and which generation first served it.

use obs::{names, Document};
use std::fmt::Write as _;

/// One hop of queue-overflow coalescing the pair's delta went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceHop {
    pub(crate) t_ns: u64,
    pub from_seq: u64,
    pub into_seq: u64,
}

/// The publish that first served the pair's delta.
#[derive(Debug, Clone, Copy)]
pub struct PublishPoint {
    pub(crate) t_ns: u64,
    pub generation: u64,
    pub last_seq: u64,
}

/// A supervision event on the pair's owning shard.
#[derive(Debug, Clone)]
pub struct ShardIncident {
    pub(crate) t_ns: u64,
    pub name: String,
    /// The `reason` field, when the event carries one.
    pub(crate) reason: Option<String>,
}

/// The full causal chain for one pair, reconstructed from a trace.
#[derive(Debug, Clone)]
pub struct LineageChain {
    /// Shard that ran the probe and the scanner round it ran in
    /// (round 0 = no recorded lineage).
    pub shard: u64,
    pub round: u64,
    /// Virtual instant the probe measured the pair.
    pub(crate) measured_ns: u64,
    /// Virtual instant the supervisor drained it into a delta.
    pub(crate) drained_ns: u64,
    /// Delta sequence it was drained under.
    pub seq: u64,
    /// Queue-overflow folds the delta went through before publish.
    pub coalesces: Vec<CoalesceHop>,
    /// The generation that first served it, if the trace reaches one.
    pub published: Option<PublishPoint>,
    /// Supervision events on the owning shard since the measurement —
    /// the outages that explain a stale successor.
    pub incidents: Vec<ShardIncident>,
    /// The last TTL-ladder transition in the trace: `(t_ns, from, to)`.
    pub serving: Option<(u64, String, String)>,
}

/// Reconstructs the causal chain for pair `(x, y)` (order-insensitive)
/// from the trace's event log. `None` when the trace never drained a
/// measurement for the pair.
pub fn trace_pair(doc: &Document, x: u64, y: u64) -> Option<LineageChain> {
    // The *latest* drain is the one the served cell came from: delta
    // application is last-write-wins.
    let (idx, pair_ev) = doc.events.iter().enumerate().rfind(|(_, ev)| {
        if ev.name != names::LINEAGE_PAIR {
            return false;
        }
        let (a, b) = (ev.field_u64("a"), ev.field_u64("b"));
        (a == Some(x) && b == Some(y)) || (a == Some(y) && b == Some(x))
    })?;

    let shard = pair_ev.field_u64("shard").unwrap_or(0);
    let round = pair_ev.field_u64("round").unwrap_or(0);
    let measured_ns = pair_ev.field_u64("t_meas").unwrap_or(pair_ev.t_ns);
    let mut seq = pair_ev.field_u64("seq").unwrap_or(0);

    // Follow the delta sequence through coalesce folds: when the
    // oldest queued delta (ours) folds into a newer one, the surviving
    // sequence is `into_seq` and the publish log only ever sees that.
    let mut coalesces = Vec::new();
    let mut published = None;
    for ev in &doc.events[idx + 1..] {
        if ev.name == names::ORACLE_PIPELINE_COALESCE {
            if ev.field_u64("from_seq") == Some(seq) {
                let into_seq = ev.field_u64("into_seq").unwrap_or(seq);
                coalesces.push(CoalesceHop {
                    t_ns: ev.t_ns,
                    from_seq: seq,
                    into_seq,
                });
                seq = into_seq;
            }
        } else if ev.name == names::ORACLE_PIPELINE_PUBLISH_END
            && ev.field_u64("last_seq").unwrap_or(0) >= seq
        {
            published = Some(PublishPoint {
                t_ns: ev.t_ns,
                generation: ev.field_u64("generation").unwrap_or(0),
                last_seq: ev.field_u64("last_seq").unwrap_or(0),
            });
            break;
        }
    }

    // Outages on the owning shard since the measurement: why no fresher
    // probe has replaced this cell.
    let incidents = doc
        .events
        .iter()
        .filter(|ev| {
            matches!(
                ev.name.as_str(),
                n if n == names::SHARD_CRASH
                    || n == names::SHARD_RESTART
                    || n == names::SHARD_STALL
                    || n == names::SHARD_QUARANTINE
            )
        })
        .filter(|ev| ev.t_ns >= measured_ns && ev.field_u64("shard") == Some(shard))
        .map(|ev| ShardIncident {
            t_ns: ev.t_ns,
            name: ev.name.clone(),
            reason: ev.field_str("reason").map(str::to_owned),
        })
        .collect();

    let serving = doc
        .events
        .iter()
        .rfind(|ev| ev.name == names::ORACLE_STALE_TRANSITION)
        .map(|ev| {
            (
                ev.t_ns,
                ev.field_str("from").unwrap_or("?").to_owned(),
                ev.field_str("to").unwrap_or("?").to_owned(),
            )
        });

    Some(LineageChain {
        shard,
        round,
        measured_ns,
        drained_ns: pair_ev.t_ns,
        seq: pair_ev.field_u64("seq").unwrap_or(0),
        coalesces,
        published,
        incidents,
        serving,
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The deterministic text report for `ting-prof lineage`.
pub fn render_lineage(doc: &Document, x: u64, y: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ting-prof lineage  pair=({x},{y})  seed={} config_hash={:016x}",
        doc.seed, doc.config_hash
    );
    let Some(chain) = trace_pair(doc, x, y) else {
        let _ = writeln!(
            out,
            "no lineage recorded for pair ({x},{y}): the trace never drained a measurement for it"
        );
        return out;
    };
    let _ = writeln!(
        out,
        "measured  shard={} round={} at t={}ns",
        chain.shard, chain.round, chain.measured_ns
    );
    let _ = writeln!(
        out,
        "drained   seq={} at t={}ns (+{:.3}ms after measurement)",
        chain.seq,
        chain.drained_ns,
        ms(chain.drained_ns - chain.measured_ns)
    );
    if chain.coalesces.is_empty() {
        let _ = writeln!(out, "coalesced never (delta published as drained)");
    } else {
        for hop in &chain.coalesces {
            let _ = writeln!(
                out,
                "coalesced seq {} -> {} at t={}ns (queue overflow folded its delta)",
                hop.from_seq, hop.into_seq, hop.t_ns
            );
        }
    }
    match &chain.published {
        Some(p) => {
            let _ = writeln!(
                out,
                "published generation={} at t={}ns (last_seq={}, drain->serve {:.3}ms)",
                p.generation,
                p.t_ns,
                p.last_seq,
                ms(p.t_ns.saturating_sub(chain.drained_ns))
            );
        }
        None => {
            let _ = writeln!(out, "published never (trace ends before its publish)");
        }
    }
    let _ = writeln!(
        out,
        "shard {} incidents since measurement ({}):",
        chain.shard,
        chain.incidents.len()
    );
    for i in &chain.incidents {
        match &i.reason {
            Some(r) => {
                let _ = writeln!(out, "  t={}ns  {} reason={:?}", i.t_ns, i.name, r);
            }
            None => {
                let _ = writeln!(out, "  t={}ns  {}", i.t_ns, i.name);
            }
        }
    }
    match &chain.serving {
        Some((t, from, to)) => {
            let _ = writeln!(out, "serving   {from} -> {to} at t={t}ns (last transition)");
        }
        None => {
            let _ = writeln!(out, "serving   no TTL transitions in trace");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{EventRecord, ObsConfig, Value};

    fn ev(name: &str, t_ns: u64, fields: Vec<(&str, Value)>) -> EventRecord {
        EventRecord {
            name: name.to_owned(),
            t_ns,
            fields: fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        }
    }

    fn doc(events: Vec<EventRecord>) -> Document {
        Document {
            config: ObsConfig::Trace,
            seed: 7,
            config_hash: 0,
            counters: vec![],
            gauges: vec![],
            hists: vec![],
            events,
        }
    }

    #[test]
    fn walks_drain_coalesce_publish_and_incidents() {
        let d = doc(vec![
            ev(
                names::LINEAGE_PAIR,
                100,
                vec![
                    ("a", Value::U64(1)),
                    ("b", Value::U64(2)),
                    ("shard", Value::U64(3)),
                    ("round", Value::U64(4)),
                    ("seq", Value::U64(5)),
                    ("t_meas", Value::U64(90)),
                ],
            ),
            ev(
                names::ORACLE_PIPELINE_COALESCE,
                110,
                vec![
                    ("from_seq", Value::U64(5)),
                    ("into_seq", Value::U64(6)),
                    ("pairs", Value::U64(2)),
                ],
            ),
            ev(
                names::SHARD_CRASH,
                115,
                vec![
                    ("shard", Value::U64(3)),
                    ("reason", Value::Str("heartbeat".into())),
                    ("restarts", Value::U64(1)),
                ],
            ),
            // A different shard's crash must not be attributed.
            ev(
                names::SHARD_CRASH,
                116,
                vec![
                    ("shard", Value::U64(0)),
                    ("reason", Value::Str("heartbeat".into())),
                    ("restarts", Value::U64(1)),
                ],
            ),
            // A publish that predates our folded sequence is skipped.
            ev(
                names::ORACLE_PIPELINE_PUBLISH_END,
                118,
                vec![
                    ("span", Value::U64(1)),
                    ("generation", Value::U64(2)),
                    ("batch_pairs", Value::U64(1)),
                    ("last_seq", Value::U64(4)),
                ],
            ),
            ev(
                names::ORACLE_PIPELINE_PUBLISH_END,
                120,
                vec![
                    ("span", Value::U64(2)),
                    ("generation", Value::U64(3)),
                    ("batch_pairs", Value::U64(2)),
                    ("last_seq", Value::U64(6)),
                ],
            ),
        ]);
        let chain = trace_pair(&d, 2, 1).expect("pair is order-insensitive");
        assert_eq!((chain.shard, chain.round, chain.seq), (3, 4, 5));
        assert_eq!((chain.measured_ns, chain.drained_ns), (90, 100));
        assert_eq!(
            chain.coalesces,
            vec![CoalesceHop {
                t_ns: 110,
                from_seq: 5,
                into_seq: 6
            }]
        );
        let p = chain.published.expect("publish reached");
        assert_eq!((p.generation, p.last_seq, p.t_ns), (3, 6, 120));
        assert_eq!(chain.incidents.len(), 1, "only the owning shard's crash");
        assert_eq!(chain.incidents[0].reason.as_deref(), Some("heartbeat"));
        assert!(trace_pair(&d, 1, 9).is_none());
        let text = render_lineage(&d, 1, 2);
        assert!(text.contains("published generation=3"), "{text}");
    }
}
