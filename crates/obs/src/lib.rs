//! Structured observability for the Ting reproduction.
//!
//! One subsystem shared by every layer of the stack — `netsim` link and
//! fault events, `tor-sim` relay/churn/controller events, and the
//! `core` measurement pipeline (orchestrator, parallel engine, scanner,
//! health, validation) — replacing the ad-hoc counters that grew up
//! alongside each crate. Three ideas:
//!
//! - **A registry** of named monotone counters, gauges, and
//!   log-bucketed latency histograms (`hist::LogHistogram`) behind a
//!   cheap clonable [`Obs`] handle. Hot paths pre-resolve [`Counter`]
//!   and [`Hist`] handles once so the per-event cost is a null check
//!   and a `Cell` bump, not a map lookup.
//! - **Virtual-time events and spans** keyed to the simulator clock:
//!   scan round → pair measurement → circuit phase → cell hop. Only
//!   recorded under [`ObsConfig::Trace`]; a call site passes its fields
//!   as a closure, which runs only then.
//! - **A deterministic JSONL exporter** ([`Obs::export_jsonl`]) keyed
//!   by seed + config hash, producing byte-identical documents for
//!   identical seeded runs — the golden-trace contract the determinism
//!   tests pin.
//!
//! [`ObsConfig::Off`] is the default and compiles down to a `None`
//! check on every path; an `Off` run is enforced (by test) to be
//! bit-identical to a run of the pre-observability code.

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

mod export;
mod hist;
mod lineage;
pub mod names;
mod slo;

pub use export::{
    config_hash, mode_name, Document, EventRecord, ExportMeta, HistRecord, HistSummary, FORMAT,
};
use hist::LogHistogram;
pub use lineage::{Lineage, Origin};
pub use slo::{
    SloEngine, SloSpec, WindowSpec, SLO_COVERAGE, SLO_PUBLISH_LATENCY, SLO_SHARD_PROGRESS,
    SLO_STALENESS,
};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// How much the observability layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsConfig {
    /// Record nothing; every instrumentation site is a null check.
    #[default]
    Off,
    /// Counters, gauges, and histograms — the ≤5% overhead budget.
    Metrics,
    /// Metrics plus the full event/span log (unbounded memory; for
    /// tests and trace capture, not long soaks).
    Trace,
}

/// A dynamically-typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

/// An event's key/value fields, in the order they are exported.
type Fields = Vec<(&'static str, Value)>;

/// One recorded event: a name, the virtual-time instant in
/// nanoseconds, and a small set of key/value fields.
#[derive(Debug, Clone)]
pub(crate) struct Event {
    pub(crate) t_ns: u64,
    pub(crate) name: &'static str,
    pub(crate) fields: Fields,
}

/// Identifies one span across its `begin`/`end` event pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) config: ObsConfig,
    pub(crate) counters: RefCell<BTreeMap<String, Rc<Cell<u64>>>>,
    pub(crate) gauges: RefCell<BTreeMap<String, i64>>,
    pub(crate) hists: RefCell<BTreeMap<String, Rc<RefCell<LogHistogram>>>>,
    pub(crate) events: RefCell<Vec<Event>>,
    next_span: Cell<u64>,
}

/// The observability handle. Cloning shares the registry; the `Off`
/// handle holds no registry at all, so the disabled path costs one
/// branch per site.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Rc<Inner>>,
}

/// A pre-resolved counter handle for hot paths: resolve once by name,
/// then each [`Counter::inc`] is a null check plus a `Cell` bump.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Rc<Cell<u64>>>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.set(cell.get() + n);
        }
    }
}

/// A pre-resolved histogram handle for hot paths.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    hist: Option<Rc<RefCell<LogHistogram>>>,
}

impl Hist {
    /// Records a duration given in integer microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        if let Some(h) = &self.hist {
            h.borrow_mut().record(us);
        }
    }

    /// Records a duration given in (possibly fractional) milliseconds.
    #[inline]
    pub fn record_ms(&self, ms: f64) {
        if self.hist.is_some() {
            self.record_us(ms_to_us(ms));
        }
    }
}

/// Converts a millisecond duration to the integer microseconds the
/// histograms record, saturating deterministically at both ends: NaN
/// and negative inputs clamp to 0, while +∞ and any finite value
/// whose microsecond count exceeds `u64::MAX` clamp to `u64::MAX` —
/// a histogram must never panic or wrap on a weird measurement.
#[inline]
pub fn ms_to_us(ms: f64) -> u64 {
    if ms.is_nan() || ms <= 0.0 {
        return 0;
    }
    let us = (ms * 1000.0).round();
    if us >= u64::MAX as f64 {
        u64::MAX
    } else {
        us as u64
    }
}

impl Obs {
    /// The disabled handle — records nothing, allocates nothing.
    pub fn off() -> Obs {
        Obs { inner: None }
    }

    /// A handle with a fresh registry at the given recording level.
    /// `ObsConfig::Off` yields the same no-op handle as [`Obs::off`].
    pub fn new(config: ObsConfig) -> Obs {
        match config {
            ObsConfig::Off => Obs::off(),
            _ => Obs {
                inner: Some(Rc::new(Inner {
                    config,
                    ..Inner::default()
                })),
            },
        }
    }

    /// True when metrics (counters/gauges/histograms) are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when the event/span log is recorded. [`Obs::event`] and the
    /// span calls already test this; a caller needs it only to skip a
    /// loop that emits one event per item.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        matches!(
            self.inner.as_deref(),
            Some(Inner {
                config: ObsConfig::Trace,
                ..
            })
        )
    }

    /// Resolves (creating on first use) a counter by name.
    pub fn counter_handle(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|inner| {
                Rc::clone(
                    inner
                        .counters
                        .borrow_mut()
                        .entry(name.to_owned())
                        .or_default(),
                )
            }),
        }
    }

    /// One-shot counter bump by name — fine off the hot path.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// One-shot counter add by name — fine off the hot path.
    pub fn add(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter_handle(name).add(n);
        }
    }

    /// Sets a gauge to an absolute value.
    pub fn set_gauge(&self, name: &str, value: i64) {
        if let Some(inner) = &self.inner {
            inner.gauges.borrow_mut().insert(name.to_owned(), value);
        }
    }

    /// Resolves (creating on first use) a histogram by name.
    pub fn hist_handle(&self, name: &str) -> Hist {
        Hist {
            hist: self.inner.as_ref().map(|inner| {
                Rc::clone(inner.hists.borrow_mut().entry(name.to_owned()).or_default())
            }),
        }
    }

    /// Appends an event to the trace log. `fields` runs only under
    /// [`ObsConfig::Trace`], so with tracing off a call site costs one
    /// branch and builds nothing.
    #[inline]
    pub fn event(&self, name: &'static str, t_ns: u64, fields: impl FnOnce() -> Fields) {
        if let Some(inner) = &self.inner {
            if inner.config == ObsConfig::Trace {
                let fields = fields();
                inner.events.borrow_mut().push(Event { t_ns, name, fields });
            }
        }
    }

    /// Opens a span: emits the given `*.begin` event carrying a fresh
    /// span id ahead of `fields`, and returns the id to pass to
    /// [`Obs::span_end`]. Span ids are allocated at every enabled level
    /// so begin/end pairing stays consistent across modes; `fields`
    /// runs only under [`ObsConfig::Trace`].
    pub fn span_begin(
        &self,
        begin_name: &'static str,
        t_ns: u64,
        fields: impl FnOnce() -> Fields,
    ) -> SpanId {
        let id = match &self.inner {
            Some(inner) => {
                let id = inner.next_span.get();
                inner.next_span.set(id + 1);
                id
            }
            None => 0,
        };
        // A begin event is laid out like an end event: the id, then `fields`.
        let span = SpanId(id);
        self.span_end(begin_name, span, t_ns, fields);
        span
    }

    /// Closes a span: emits the given `*.end` event carrying the span
    /// id ahead of `fields`, which runs only under [`ObsConfig::Trace`].
    pub fn span_end(
        &self,
        end_name: &'static str,
        span: SpanId,
        t_ns: u64,
        fields: impl FnOnce() -> Fields,
    ) {
        self.event(end_name, t_ns, || {
            let mut fields = fields();
            fields.insert(0, ("span", Value::U64(span.0)));
            fields
        });
    }

    /// The current value of a counter (0 when absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|inner| inner.counters.borrow().get(name).map(|c| c.get()))
            .unwrap_or(0)
    }

    /// All counters with their current values.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner
            .as_ref()
            .map(|inner| {
                inner
                    .counters
                    .borrow()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.get()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Snapshots the registry into the parser-facing export model
    /// (see [`Document`]). The disabled handle yields an empty
    /// document.
    pub fn document(&self, meta: &ExportMeta) -> Document {
        match &self.inner {
            Some(inner) => Document::from_registry(inner, meta),
            None => {
                let off = Inner::default();
                Document::from_registry(&off, meta)
            }
        }
    }

    /// Renders the registry as deterministic JSONL (see [`Document::render_jsonl`]).
    /// The disabled handle exports just the meta header.
    pub fn export_jsonl(&self, meta: &ExportMeta) -> String {
        self.document(meta).render_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event log so far, as the export reads it.
    pub(crate) fn events(obs: &Obs) -> Vec<EventRecord> {
        obs.document(&ExportMeta {
            seed: 0,
            config_hash: 0,
        })
        .events
    }

    #[test]
    fn off_handle_is_inert() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        assert!(!obs.is_tracing());
        let c = obs.counter_handle("x");
        c.inc();
        assert_eq!(obs.counter_value("x"), 0);
        obs.hist_handle("h").record_ms(3.5);
        assert!(obs
            .document(&ExportMeta {
                seed: 0,
                config_hash: 0
            })
            .hists
            .is_empty());
        obs.event("e", 1, Vec::new);
        assert!(events(&obs).is_empty());
        assert!(!Obs::new(ObsConfig::Off).is_enabled());
    }

    #[test]
    fn metrics_mode_counts_but_does_not_trace() {
        let obs = Obs::new(ObsConfig::Metrics);
        assert!(obs.is_enabled());
        assert!(!obs.is_tracing());
        let c = obs.counter_handle("ting.retry");
        c.inc();
        c.add(2);
        obs.inc("ting.retry");
        assert_eq!(obs.counter_value("ting.retry"), 4);
        obs.hist_handle("phase.build").record_ms(2.0);
        assert_eq!(
            obs.document(&ExportMeta {
                seed: 0,
                config_hash: 0
            })
            .hists[0]
                .count,
            1
        );
        obs.event("ignored", 5, Vec::new);
        assert!(events(&obs).is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::new(ObsConfig::Metrics);
        let other = obs.clone();
        other.inc("shared");
        assert_eq!(obs.counter_value("shared"), 1);
    }

    #[test]
    fn spans_pair_up_in_the_event_log() {
        let obs = Obs::new(ObsConfig::Trace);
        let s = obs.span_begin("scan.round.begin", 10, || vec![("planned", Value::U64(3))]);
        obs.span_end("scan.round.end", s, 99, || {
            vec![("measured", Value::U64(2))]
        });
        let events = events(&obs);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "scan.round.begin");
        assert_eq!(events[0].fields[0], ("span".to_owned(), Value::U64(s.0)));
        assert_eq!(events[1].name, "scan.round.end");
        assert_eq!(events[1].t_ns, 99);
    }

    #[test]
    fn export_is_ordered_and_reproducible() {
        let build = |_| {
            let obs = Obs::new(ObsConfig::Trace);
            obs.inc("b.counter");
            obs.inc("a.counter");
            obs.set_gauge("g", -4);
            obs.hist_handle("lat").record_ms(1.25);
            obs.event("e", 7, || vec![("k", Value::Str("v\"x".into()))]);
            obs.export_jsonl(&ExportMeta {
                seed: 2015,
                config_hash: config_hash("cfg"),
            })
        };
        let a = build(0);
        assert_eq!(a, build(1), "same registry must export identically");
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("\"format\":\"ting-obs-v1\""));
        assert!(lines[0].contains("\"mode\":\"trace\""));
        assert!(lines[1].contains("\"counter\":\"a.counter\""));
        assert!(lines[2].contains("\"counter\":\"b.counter\""));
        assert!(lines[3].contains("\"gauge\":\"g\",\"value\":-4"));
        assert!(lines[4].contains("\"hist\":\"lat\""));
        assert!(lines[4].contains("\"count\":1,\"min\":1250"));
        assert!(lines[5].contains("\"event\":\"e\",\"t_ns\":7,\"k\":\"v\\\"x\""));
    }

    #[test]
    fn ms_to_us_clamps_garbage() {
        assert_eq!(ms_to_us(1.5), 1500);
        assert_eq!(ms_to_us(0.0004), 0);
        assert_eq!(ms_to_us(-3.0), 0);
        assert_eq!(ms_to_us(f64::NAN), 0);
        assert_eq!(ms_to_us(f64::NEG_INFINITY), 0);
        // Too big for u64 microseconds: saturate high, don't wrap.
        assert_eq!(ms_to_us(f64::INFINITY), u64::MAX);
        assert_eq!(ms_to_us(f64::MAX), u64::MAX);
        assert_eq!(ms_to_us(2e16), u64::MAX); // 2e19 µs > u64::MAX
        assert_eq!(ms_to_us(1e15), 1_000_000_000_000_000_000); // still exact
    }
}
