//! Trace linter: structural validation of a parsed `ting-obs-v1`
//! document against the `obs::names` registry.
//!
//! Three families of defects, each of which has bitten a tracing system
//! in the wild:
//!
//! * **unknown names** — an emitter typo'd an event or invented one
//!   without registering it, so downstream tooling silently ignores it;
//! * **non-monotonic clocks** — an emitter logged bookkeeping at a
//!   timestamp the trace had already moved past, so span reconstruction
//!   sees time run backwards;
//! * **span leaks** — a `*.begin` whose `*.end` never arrives (an
//!   early-return error path skipped the close), an end without a
//!   begin, or an end closing a span some *other* event opened.

use obs::names::{self, EventKind};
use obs::Document;
use std::collections::HashMap;

/// One linter finding. `event` is the index into `Document::events`
/// (`None` for whole-document findings like leaked spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintIssue {
    pub event: Option<usize>,
    pub msg: String,
}

impl std::fmt::Display for LintIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.event {
            Some(i) => write!(f, "event #{i}: {}", self.msg),
            None => write!(f, "document: {}", self.msg),
        }
    }
}

/// Lints the document's event log. An empty result means the trace is
/// structurally sound.
pub fn lint(doc: &Document) -> Vec<LintIssue> {
    let mut issues = Vec::new();
    let mut last_t: Option<(usize, u64)> = None;
    // Open spans: id → (begin-event index, begin name).
    let mut open: HashMap<u64, (usize, &str)> = HashMap::new();

    for (i, ev) in doc.events.iter().enumerate() {
        let Some(spec) = names::spec(&ev.name) else {
            issues.push(LintIssue {
                event: Some(i),
                msg: format!(
                    "unknown event name {:?} (not in obs::names::REGISTRY)",
                    ev.name
                ),
            });
            continue;
        };
        if let Some((j, t)) = last_t {
            if ev.t_ns < t {
                issues.push(LintIssue {
                    event: Some(i),
                    msg: format!(
                        "clock went backwards: t_ns {} after event #{j} at {}",
                        ev.t_ns, t
                    ),
                });
            }
        }
        last_t = Some((i, ev.t_ns));

        match spec.kind {
            EventKind::Point => {}
            EventKind::SpanBegin { .. } => match ev.field_u64("span") {
                None => issues.push(LintIssue {
                    event: Some(i),
                    msg: format!("span begin {:?} lacks a span id field", ev.name),
                }),
                Some(id) => {
                    if let Some((j, prior)) = open.insert(id, (i, &ev.name)) {
                        issues.push(LintIssue {
                            event: Some(i),
                            msg: format!(
                                "span id {id} reopened while {prior:?} (event #{j}) still open"
                            ),
                        });
                    }
                }
            },
            EventKind::SpanEnd { begin } => match ev.field_u64("span") {
                None => issues.push(LintIssue {
                    event: Some(i),
                    msg: format!("span end {:?} lacks a span id field", ev.name),
                }),
                Some(id) => match open.remove(&id) {
                    None => issues.push(LintIssue {
                        event: Some(i),
                        msg: format!("{:?} closes span id {id} that is not open", ev.name),
                    }),
                    Some((j, opened_as)) if opened_as != begin => issues.push(LintIssue {
                        event: Some(i),
                        msg: format!(
                            "{:?} closes span id {id}, but event #{j} opened it as {opened_as:?}",
                            ev.name
                        ),
                    }),
                    Some(_) => {}
                },
            },
        }
    }

    // Whatever is still open leaked on some exit path.
    let mut leaked: Vec<(u64, usize, &str)> =
        open.into_iter().map(|(id, (j, n))| (id, j, n)).collect();
    leaked.sort_unstable();
    for (id, j, name) in leaked {
        issues.push(LintIssue {
            event: None,
            msg: format!("span id {id} ({name:?}, opened at event #{j}) never closed"),
        });
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{EventRecord, ObsConfig, Value};

    fn doc(events: Vec<EventRecord>) -> Document {
        Document {
            config: ObsConfig::Trace,
            seed: 0,
            config_hash: 0,
            counters: vec![],
            gauges: vec![],
            hists: vec![],
            events,
        }
    }

    fn ev(name: &str, t_ns: u64, span: Option<u64>) -> EventRecord {
        EventRecord {
            name: name.to_owned(),
            t_ns,
            fields: span
                .map(|id| ("span".to_owned(), Value::U64(id)))
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn clean_trace_has_no_issues() {
        let d = doc(vec![
            ev(names::SCAN_PAIR_BEGIN, 1, Some(1)),
            ev(names::TING_CIRCUIT_BEGIN, 2, Some(2)),
            ev(names::TING_PHASE, 3, None),
            ev(names::TING_CIRCUIT_END, 4, Some(2)),
            ev(names::SCAN_PAIR_END, 5, Some(1)),
        ]);
        assert_eq!(lint(&d), vec![]);
    }

    #[test]
    fn flags_unknown_names_backwards_clock_and_leaks() {
        let d = doc(vec![
            ev(names::TING_RETRY, 5, None),
            ev("ting.bogus", 1, None),
            ev(names::TING_PHASE, 3, None),
            ev(names::TING_CIRCUIT_BEGIN, 6, Some(9)),
        ]);
        let issues = lint(&d);
        assert!(issues.iter().any(|i| i.msg.contains("unknown event name")));
        assert!(issues
            .iter()
            .any(|i| i.msg.contains("clock went backwards")));
        assert!(issues.iter().any(|i| i.msg.contains("never closed")));
    }

    #[test]
    fn flags_mismatched_and_dangling_ends() {
        let d = doc(vec![
            ev(names::SCAN_PAIR_BEGIN, 1, Some(1)),
            ev(names::TING_CIRCUIT_END, 2, Some(1)),
            ev(names::SCAN_PAIR_END, 3, Some(7)),
        ]);
        let issues = lint(&d);
        assert!(issues.iter().any(|i| i.msg.contains("opened it as")));
        assert!(issues.iter().any(|i| i.msg.contains("not open")));
    }
}
