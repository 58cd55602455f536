//! Strict parser for `ting-obs-v1` JSONL exports.
//!
//! The exporter (`obs::Document::render_jsonl`) writes a rigid
//! document: meta header, counters, gauges, histograms (each block in
//! strictly increasing name order), then events in emission order, with
//! a fixed key order on every line. This parser accepts exactly that
//! shape and nothing looser — wrong section order, out-of-order names,
//! missing or extra keys are all errors, so a trace that parses is
//! guaranteed to re-render byte-identically through the same
//! `render_jsonl` the exporter used.

use crate::json::{self, Json};
use obs::{Document, EventRecord, HistRecord, ObsConfig, Value};
use obs::{HistSummary, FORMAT};

/// A parse failure, tagged with its 1-based document line.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub(crate) line: usize,
    pub(crate) msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// Parses a full `ting-obs-v1` JSONL document.
pub fn parse_document(text: &str) -> Result<Document, ParseError> {
    let mut lines = text.lines().enumerate();
    let err = |line: usize, msg: String| ParseError {
        line: line + 1,
        msg,
    };

    let (meta_no, meta_line) = lines
        .next()
        .ok_or_else(|| err(0, "empty document".into()))?;
    let meta = json::parse(meta_line).map_err(|e| err(meta_no, e))?;
    let (config, seed, config_hash) = parse_meta(&meta).map_err(|e| err(meta_no, e))?;

    let mut doc = Document {
        config,
        seed,
        config_hash,
        counters: Vec::new(),
        gauges: Vec::new(),
        hists: Vec::new(),
        events: Vec::new(),
    };

    // Section order: counters, gauges, hists, events — never backwards.
    let mut section = 0usize;
    for (no, line) in lines {
        if line.is_empty() {
            return Err(err(no, "blank line inside document".into()));
        }
        let v = json::parse(line).map_err(|e| err(no, e))?;
        let fields = v.as_obj("line").map_err(|e| err(no, e))?;
        let head = fields
            .first()
            .map(|(k, _)| k.as_str())
            .ok_or_else(|| err(no, "empty object".into()))?;
        let this = match head {
            "counter" => 1,
            "gauge" => 2,
            "hist" => 3,
            "event" => 4,
            other => return Err(err(no, format!("unknown record type {other:?}"))),
        };
        if this < section {
            return Err(err(no, format!("{head} record after a later section")));
        }
        section = this;
        match this {
            1 => {
                let (name, value) = parse_named_value(fields, "counter")
                    .and_then(|(n, v)| Ok((n, v.as_u64("counter value")?)))
                    .map_err(|e| err(no, e))?;
                check_order(doc.counters.last().map(|(n, _)| n.as_str()), &name)
                    .map_err(|e| err(no, e))?;
                doc.counters.push((name, value));
            }
            2 => {
                let (name, value) = parse_named_value(fields, "gauge")
                    .and_then(|(n, v)| Ok((n, parse_i64(v)?)))
                    .map_err(|e| err(no, e))?;
                check_order(doc.gauges.last().map(|(n, _)| n.as_str()), &name)
                    .map_err(|e| err(no, e))?;
                doc.gauges.push((name, value));
            }
            3 => {
                let h = parse_hist(fields).map_err(|e| err(no, e))?;
                check_order(doc.hists.last().map(|h| h.name.as_str()), &h.name)
                    .map_err(|e| err(no, e))?;
                doc.hists.push(h);
            }
            _ => {
                let ev = parse_event(fields).map_err(|e| err(no, e))?;
                doc.events.push(ev);
            }
        }
    }
    Ok(doc)
}

fn parse_meta(v: &Json) -> Result<(ObsConfig, u64, u64), String> {
    let outer = v.as_obj("meta line")?;
    let [(key, meta)] = outer else {
        return Err("meta line must hold exactly one \"meta\" object".into());
    };
    if key != "meta" {
        return Err(format!("first line must be the meta header, got {key:?}"));
    }
    let fields = meta.as_obj("meta")?;
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["format", "mode", "seed", "config_hash"] {
        return Err(format!(
            "meta keys must be format/mode/seed/config_hash, got {keys:?}"
        ));
    }
    let format = fields[0].1.as_str("format")?;
    if format != FORMAT {
        return Err(format!("unsupported format {format:?} (want {FORMAT:?})"));
    }
    let config = match fields[1].1.as_str("mode")? {
        "off" => ObsConfig::Off,
        "metrics" => ObsConfig::Metrics,
        "trace" => ObsConfig::Trace,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let seed = fields[2].1.as_u64("seed")?;
    let hash_text = fields[3].1.as_str("config_hash")?;
    if hash_text.len() != 16 || !hash_text.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("config_hash {hash_text:?} is not 16 hex digits"));
    }
    let config_hash =
        u64::from_str_radix(hash_text, 16).map_err(|e| format!("config_hash: {e}"))?;
    Ok((config, seed, config_hash))
}

/// Parses a `{"<kind>":name,"value":v}` line.
fn parse_named_value<'a>(
    fields: &'a [(String, Json)],
    kind: &str,
) -> Result<(String, &'a Json), String> {
    let [(k0, name), (k1, value)] = fields else {
        return Err(format!("{kind} line must have exactly name and value"));
    };
    if k0 != kind || k1 != "value" {
        return Err(format!("{kind} line keys must be [{kind:?}, \"value\"]"));
    }
    Ok((name.as_str(kind)?.to_owned(), value))
}

fn parse_i64(v: &Json) -> Result<i64, String> {
    match v {
        Json::Num(raw) => raw
            .parse::<i64>()
            .map_err(|_| format!("gauge value {raw:?} is not an i64")),
        other => Err(format!("gauge value must be a number, got {other:?}")),
    }
}

fn check_order(prev: Option<&str>, name: &str) -> Result<(), String> {
    if let Some(p) = prev {
        if p >= name {
            return Err(format!(
                "name {name:?} not in strictly increasing order after {p:?}"
            ));
        }
    }
    Ok(())
}

fn parse_hist(fields: &[(String, Json)]) -> Result<HistRecord, String> {
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let summarized = keys
        == [
            "hist", "count", "min", "p50", "p90", "p99", "max", "buckets",
        ];
    if !summarized && keys != ["hist", "count", "buckets"] {
        return Err(format!("unexpected hist keys {keys:?}"));
    }
    let name = fields[0].1.as_str("hist name")?.to_owned();
    let count = fields[1].1.as_u64("hist count")?;
    if summarized != (count > 0) {
        return Err(format!(
            "hist {name:?}: summary present iff count > 0 (count = {count})"
        ));
    }
    let summary = if summarized {
        Some(HistSummary {
            min: fields[2].1.as_u64("min")?,
            p50: fields[3].1.as_u64("p50")?,
            p90: fields[4].1.as_u64("p90")?,
            p99: fields[5].1.as_u64("p99")?,
            max: fields[6].1.as_u64("max")?,
        })
    } else {
        None
    };
    let buckets_json = &fields.last().unwrap().1;
    let Json::Arr(items) = buckets_json else {
        return Err(format!("hist {name:?}: buckets must be an array"));
    };
    let mut buckets = Vec::with_capacity(items.len());
    for item in items {
        let Json::Arr(triple) = item else {
            return Err(format!("hist {name:?}: bucket must be [lo,hi,n]"));
        };
        let [lo, hi, n] = &triple[..] else {
            return Err(format!("hist {name:?}: bucket must have 3 entries"));
        };
        buckets.push((
            lo.as_u64("bucket lo")?,
            hi.as_u64("bucket hi")?,
            n.as_u64("bucket n")?,
        ));
    }
    Ok(HistRecord {
        name,
        count,
        summary,
        buckets,
    })
}

fn parse_event(fields: &[(String, Json)]) -> Result<EventRecord, String> {
    if fields.len() < 2 || fields[0].0 != "event" || fields[1].0 != "t_ns" {
        return Err("event line must start with event name and t_ns".into());
    }
    let name = fields[0].1.as_str("event name")?.to_owned();
    let t_ns = fields[1].1.as_u64("t_ns")?;
    let mut out = Vec::with_capacity(fields.len() - 2);
    for (key, v) in &fields[2..] {
        out.push((key.clone(), field_value(v)?));
    }
    Ok(EventRecord {
        name,
        t_ns,
        fields: out,
    })
}

/// Maps a JSON field value back to the `obs::Value` that renders to the
/// same bytes. A number token is classified by shape: `u64` first, then
/// `i64`, then `f64` — an integral float like `1.0` rendered as `"1"`
/// comes back as `U64(1)`, which re-renders to the same `"1"`, keeping
/// the byte contract. `null` is the rendering of every non-finite
/// float.
fn field_value(v: &Json) -> Result<Value, String> {
    Ok(match v {
        Json::Null => Value::F64(f64::NAN),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Num(raw) => number_value(raw)?,
        other => return Err(format!("unsupported event field value {other:?}")),
    })
}

fn number_value(raw: &str) -> Result<Value, String> {
    if raw == "-0" {
        // `-0` only arises from `Display` of the float negative zero;
        // classifying it as I64(0) would re-render as "0".
        return Ok(Value::F64(-0.0));
    }
    if raw.contains(['.', 'e', 'E']) {
        return raw
            .parse::<f64>()
            .map(Value::F64)
            .map_err(|_| format!("bad float {raw:?}"));
    }
    if let Ok(n) = raw.parse::<u64>() {
        return Ok(Value::U64(n));
    }
    if let Ok(n) = raw.parse::<i64>() {
        return Ok(Value::I64(n));
    }
    // A digit string wider than 64 bits: only `Display` of a large
    // float prints one, and shortest-roundtrip parsing recovers it.
    raw.parse::<f64>()
        .map(Value::F64)
        .map_err(|_| format!("bad number {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"meta\":{\"format\":\"ting-obs-v1\",\"mode\":\"trace\",\
                          \"seed\":7,\"config_hash\":\"00000000000000aa\"}}";

    #[test]
    fn parses_and_rerenders_a_minimal_document() {
        let text = format!(
            "{HEADER}\n\
             {{\"counter\":\"a.b\",\"value\":3}}\n\
             {{\"gauge\":\"g\",\"value\":-4}}\n\
             {{\"hist\":\"h\",\"count\":1,\"min\":5,\"p50\":5,\"p90\":5,\"p99\":5,\"max\":5,\
             \"buckets\":[[5,5,1]]}}\n\
             {{\"event\":\"ting.phase\",\"t_ns\":10,\"phase\":\"build\",\"dur_us\":12,\
             \"x\":0.5,\"bad\":null}}\n"
        );
        let doc = parse_document(&text).unwrap();
        assert_eq!(doc.seed, 7);
        assert_eq!(doc.config_hash, 0xaa);
        assert_eq!(doc.counters, vec![("a.b".to_owned(), 3)]);
        assert_eq!(doc.render_jsonl(), text);
    }

    #[test]
    fn rejects_section_disorder() {
        let text = format!(
            "{HEADER}\n\
             {{\"event\":\"ting.phase\",\"t_ns\":10}}\n\
             {{\"counter\":\"a\",\"value\":1}}\n"
        );
        let e = parse_document(&text).unwrap_err();
        assert!(e.msg.contains("later section"), "{e}");
    }

    #[test]
    fn rejects_unsorted_counters() {
        let text = format!(
            "{HEADER}\n\
             {{\"counter\":\"b\",\"value\":1}}\n\
             {{\"counter\":\"a\",\"value\":1}}\n"
        );
        assert!(parse_document(&text).is_err());
    }

    #[test]
    fn rejects_summary_count_mismatch() {
        let text = format!("{HEADER}\n{{\"hist\":\"h\",\"count\":2,\"buckets\":[]}}\n");
        let e = parse_document(&text).unwrap_err();
        assert!(e.msg.contains("summary present iff"), "{e}");
    }

    #[test]
    fn rejects_wrong_format_tag() {
        let text = "{\"meta\":{\"format\":\"ting-obs-v2\",\"mode\":\"off\",\
                    \"seed\":0,\"config_hash\":\"0000000000000000\"}}\n";
        assert!(parse_document(text).is_err());
    }
}
