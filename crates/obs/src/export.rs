//! Deterministic JSONL export of an observability registry.
//!
//! One line per record, in a fixed order: the `meta` header (format
//! tag, seed, FNV-1a hash of the run configuration), then counters,
//! gauges, and histograms in lexicographic name order, then the event
//! log in emission order. Every map is a `BTreeMap` and every float is
//! printed with `{}` (Rust's shortest exactly-roundtripping form), so
//! two runs of the same seeded simulation export **byte-identical**
//! documents — the golden-trace determinism contract.
//!
//! The export is factored through [`Document`], the parser-facing
//! model of one exported run: the live registry is first snapshotted
//! into a `Document`, then rendered by [`Document::render_jsonl`].
//! A consumer that parses a trace back into a `Document` (see
//! `obs-analyze`) re-renders it through the *same* code path, which is
//! what makes `parse ∘ render` the identity on bytes.

use crate::{Inner, ObsConfig, Value};
use std::fmt::Write as _;

/// The format tag every export carries in its meta header.
pub const FORMAT: &str = "ting-obs-v1";

/// 64-bit FNV-1a over raw bytes — the export's config fingerprint.
/// Stable, dependency-free, and cheap; collision resistance is not a
/// goal (the hash keys trace files to configs, it does not secure them).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprints a run-configuration description (any stable textual
/// rendering of the config, e.g. a `Debug` format) for the meta header.
pub fn config_hash(config_text: &str) -> u64 {
    fnv1a64(config_text.as_bytes())
}

/// The identity of one exported run: everything needed to tie a trace
/// file back to the simulation that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportMeta {
    /// The run's scenario seed.
    pub seed: u64,
    /// [`config_hash`] of the run configuration.
    pub config_hash: u64,
}

/// The printed summary of a non-empty histogram. The exporter derives
/// these from the exact tracked extremes and the bucket quantiles; a
/// parsed document keeps them verbatim (they are *not* reconstructible
/// from the buckets alone — min/max are exact, buckets are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSummary {
    pub min: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// One exported histogram line.
#[derive(Debug, Clone, PartialEq)]
pub struct HistRecord {
    pub name: String,
    pub count: u64,
    /// Present exactly when `count > 0`.
    pub summary: Option<HistSummary>,
    /// `(lo, hi, n)` occupancy of each non-empty log bucket.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// One exported event line: like [`crate::Event`] but with owned names,
/// so parsed documents need no `'static` interning.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    pub name: String,
    pub t_ns: u64,
    pub fields: Vec<(String, Value)>,
}

impl EventRecord {
    /// The `u64` field called `key`, when present and well-typed.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// The string field called `key`, when present and well-typed.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            Value::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }
}

/// The parser-facing model of one exported run: everything a
/// `ting-obs-v1` JSONL document carries, in document order.
/// [`Document::render_jsonl`] is the one and only renderer — the live
/// exporter goes through it too.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Recording level of the run (`mode` in the meta header).
    pub config: ObsConfig,
    pub seed: u64,
    pub config_hash: u64,
    /// Counters in lexicographic name order.
    pub counters: Vec<(String, u64)>,
    /// Gauges in lexicographic name order.
    pub gauges: Vec<(String, i64)>,
    /// Histograms in lexicographic name order.
    pub hists: Vec<HistRecord>,
    /// Events in emission order.
    pub events: Vec<EventRecord>,
}

/// The `mode` string of a recording level, as printed in the meta
/// header.
pub fn mode_name(config: ObsConfig) -> &'static str {
    match config {
        ObsConfig::Off => "off",
        ObsConfig::Metrics => "metrics",
        ObsConfig::Trace => "trace",
    }
}

impl Document {
    /// Snapshots a live registry into the export model.
    pub(crate) fn from_registry(inner: &Inner, meta: &ExportMeta) -> Document {
        let counters = inner
            .counters
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = inner
            .gauges
            .borrow()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        let hists = inner
            .hists
            .borrow()
            .iter()
            .map(|(name, hist)| {
                let h = hist.borrow();
                HistRecord {
                    name: name.clone(),
                    count: h.count(),
                    summary: (h.count() > 0).then(|| HistSummary {
                        min: h.min().unwrap(),
                        p50: h.quantile(0.5).unwrap(),
                        p90: h.quantile(0.9).unwrap(),
                        p99: h.quantile(0.99).unwrap(),
                        max: h.max().unwrap(),
                    }),
                    buckets: h.buckets().collect(),
                }
            })
            .collect();
        let events = inner
            .events
            .borrow()
            .iter()
            .map(|ev| EventRecord {
                name: ev.name.to_owned(),
                t_ns: ev.t_ns,
                fields: ev
                    .fields
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            })
            .collect();
        Document {
            config: inner.config,
            seed: meta.seed,
            config_hash: meta.config_hash,
            counters,
            gauges,
            hists,
            events,
        }
    }

    /// Renders the document as `ting-obs-v1` JSONL (see module docs for
    /// the order). Byte-deterministic: equal documents render equal.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"meta\":{{\"format\":\"{FORMAT}\",\"mode\":\"{}\",\
             \"seed\":{},\"config_hash\":\"{:016x}\"}}}}",
            mode_name(self.config),
            self.seed,
            self.config_hash
        );
        for (name, value) in &self.counters {
            let _ = write!(out, "{{\"counter\":\"");
            push_json_escaped(&mut out, name);
            let _ = writeln!(out, "\",\"value\":{value}}}");
        }
        for (name, value) in &self.gauges {
            let _ = write!(out, "{{\"gauge\":\"");
            push_json_escaped(&mut out, name);
            let _ = writeln!(out, "\",\"value\":{value}}}");
        }
        for h in &self.hists {
            let _ = write!(out, "{{\"hist\":\"");
            push_json_escaped(&mut out, &h.name);
            let _ = write!(out, "\",\"count\":{}", h.count);
            if let Some(s) = &h.summary {
                let _ = write!(
                    out,
                    ",\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}",
                    s.min, s.p50, s.p90, s.p99, s.max
                );
            }
            out.push_str(",\"buckets\":[");
            for (i, (lo, hi, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{hi},{n}]");
            }
            out.push_str("]}\n");
        }
        for ev in &self.events {
            let _ = write!(out, "{{\"event\":\"");
            push_json_escaped(&mut out, &ev.name);
            let _ = write!(out, "\",\"t_ns\":{}", ev.t_ns);
            for (key, value) in &ev.fields {
                let _ = write!(out, ",\"");
                push_json_escaped(&mut out, key);
                out.push_str("\":");
                push_value(&mut out, value);
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Escapes `s` into `out` as JSON string contents (without the quotes).
fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        // `{}` prints the shortest exactly-roundtripping decimal; a
        // non-finite value has no JSON spelling and becomes null.
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(_) => out.push_str("null"),
        Value::Str(s) => {
            out.push('"');
            push_json_escaped(out, s);
            out.push('"');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn escaping_covers_specials() {
        let mut out = String::new();
        push_json_escaped(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn floats_render_shortest_and_nonfinite_as_null() {
        let mut out = String::new();
        push_value(&mut out, &Value::F64(0.5));
        out.push(' ');
        push_value(&mut out, &Value::F64(f64::NAN));
        assert_eq!(out, "0.5 null");
    }

    #[test]
    fn document_renders_summary_only_when_nonempty() {
        let doc = Document {
            config: ObsConfig::Trace,
            seed: 1,
            config_hash: 2,
            counters: vec![],
            gauges: vec![],
            hists: vec![
                HistRecord {
                    name: "empty".into(),
                    count: 0,
                    summary: None,
                    buckets: vec![],
                },
                HistRecord {
                    name: "one".into(),
                    count: 1,
                    summary: Some(HistSummary {
                        min: 5,
                        p50: 5,
                        p90: 5,
                        p99: 5,
                        max: 5,
                    }),
                    buckets: vec![(5, 5, 1)],
                },
            ],
            events: vec![],
        };
        let out = doc.render_jsonl();
        assert!(out.contains("{\"hist\":\"empty\",\"count\":0,\"buckets\":[]}"));
        assert!(out.contains(
            "{\"hist\":\"one\",\"count\":1,\"min\":5,\"p50\":5,\"p90\":5,\
             \"p99\":5,\"max\":5,\"buckets\":[[5,5,1]]}"
        ));
    }
}
