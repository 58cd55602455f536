//! SLO timeline analysis: breach windows and the `slo.*` gauge family.
//!
//! The live engine (`obs::SloEngine`) emits `slo.breach.begin` /
//! `slo.breach.end` span pairs carrying an `slo` name field, and
//! leaves its windowed totals behind as `slo.{name}.*` gauges. This
//! module folds a trace back into per-SLO breach windows — the read
//! side of the staleness-budget story, and what the CI no-fault gate
//! (`ting-prof slo --fail-on staleness`) runs on.

use obs::{names, Document};
use std::fmt::Write as _;

/// One breach window for one SLO. `end_ns` is `None` when the trace
/// ends with the breach still open (the run died burning).
#[derive(Debug, Clone)]
pub struct Breach {
    pub slo: String,
    pub begin_ns: u64,
    pub end_ns: Option<u64>,
    /// Burn rate (milli-multiples of the error budget) at begin.
    pub(crate) burn_milli: u64,
}

/// Extracts every breach window from the trace, in begin order.
/// Begin/end events pair by their `slo` name — one engine never nests
/// windows for the same SLO.
pub fn breaches(doc: &Document) -> Vec<Breach> {
    let mut out: Vec<Breach> = Vec::new();
    for ev in &doc.events {
        if ev.name == names::SLO_BREACH_BEGIN {
            out.push(Breach {
                slo: ev.field_str("slo").unwrap_or("?").to_owned(),
                begin_ns: ev.t_ns,
                end_ns: None,
                burn_milli: ev.field_u64("burn_milli").unwrap_or(0),
            });
        } else if ev.name == names::SLO_BREACH_END {
            let slo = ev.field_str("slo").unwrap_or("?");
            if let Some(open) = out
                .iter_mut()
                .rev()
                .find(|b| b.slo == slo && b.end_ns.is_none())
            {
                open.end_ns = Some(ev.t_ns);
            }
        }
    }
    out
}

/// True when any breach window (open or closed) exists for `name`.
pub fn breached(doc: &Document, name: &str) -> bool {
    breaches(doc).iter().any(|b| b.slo == name)
}

/// The deterministic text report for `ting-prof slo`.
pub fn render_slo(doc: &Document) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# ting-prof slo  seed={} config_hash={:016x}",
        doc.seed, doc.config_hash
    );
    let gauges: Vec<_> = doc
        .gauges
        .iter()
        .filter(|(n, _)| n.starts_with("slo."))
        .collect();
    let _ = writeln!(out, "slo gauges at export ({}):", gauges.len());
    for (name, value) in gauges {
        let _ = writeln!(out, "  {name} = {value}");
    }
    let windows = breaches(doc);
    let _ = writeln!(out, "breach windows ({}):", windows.len());
    for b in &windows {
        match b.end_ns {
            Some(end) => {
                let _ = writeln!(
                    out,
                    "  {}  [{} .. {}]ns  held {:.3}ms  burn_milli@begin={}",
                    b.slo,
                    b.begin_ns,
                    end,
                    (end - b.begin_ns) as f64 / 1e6,
                    b.burn_milli
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {}  [{} .. open]ns  still breaching at export  burn_milli@begin={}",
                    b.slo, b.begin_ns, b.burn_milli
                );
            }
        }
    }
    if windows.is_empty() {
        let _ = writeln!(out, "clean: no SLO breached anywhere in the trace");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{EventRecord, ObsConfig, Value};

    fn ev(name: &str, t_ns: u64, slo: &str, span: u64) -> EventRecord {
        EventRecord {
            name: name.to_owned(),
            t_ns,
            fields: vec![
                ("span".to_owned(), Value::U64(span)),
                ("slo".to_owned(), Value::Str(slo.to_owned())),
                ("burn_milli".to_owned(), Value::U64(1500)),
            ],
        }
    }

    fn doc(events: Vec<EventRecord>) -> Document {
        Document {
            config: ObsConfig::Trace,
            seed: 1,
            config_hash: 2,
            counters: vec![],
            gauges: vec![
                ("slo.staleness.bad".to_owned(), 3),
                ("other.gauge".to_owned(), 9),
            ],
            hists: vec![],
            events,
        }
    }

    #[test]
    fn pairs_windows_by_slo_name_and_leaves_open_tails() {
        let d = doc(vec![
            ev(names::SLO_BREACH_BEGIN, 10, "staleness", 1),
            ev(names::SLO_BREACH_BEGIN, 20, "coverage", 2),
            ev(names::SLO_BREACH_END, 30, "staleness", 1),
            ev(names::SLO_BREACH_BEGIN, 40, "staleness", 3),
        ]);
        let w = breaches(&d);
        assert_eq!(w.len(), 3);
        assert_eq!(
            (w[0].slo.as_str(), w[0].begin_ns, w[0].end_ns),
            ("staleness", 10, Some(30))
        );
        assert_eq!((w[1].slo.as_str(), w[1].end_ns), ("coverage", None));
        assert_eq!((w[2].slo.as_str(), w[2].end_ns), ("staleness", None));
        assert!(breached(&d, "coverage"));
        assert!(!breached(&d, "publish_latency"));
        let text = render_slo(&d);
        assert!(text.contains("slo.staleness.bad = 3"), "{text}");
        assert!(!text.contains("other.gauge"), "non-slo gauges excluded");
        assert!(text.contains("[40 .. open]ns"), "{text}");
    }

    #[test]
    fn clean_trace_renders_the_clean_line() {
        let d = doc(vec![]);
        assert!(render_slo(&d).contains("clean: no SLO breached"));
    }
}
