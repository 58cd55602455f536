//! Span-tree reconstruction and exact self-time attribution.
//!
//! A trace's span events rebuild into rounds → pair measurements →
//! circuit attempts. Circuit-to-pair attachment needs no explicit
//! parent pointer: each vantage has at most one pair in flight, so an
//! open circuit belongs to the open pair on its vantage. Phase and
//! error points attach to their circuit by the explicit `circuit`
//! field the emitters stamp.
//!
//! Self-time attribution partitions every pair span **exactly** — all
//! arithmetic is on the integer `t_ns` stamps, and each pair's labeled
//! self-times telescope to `t1 − t0` with no remainder. That exactness
//! is a tested acceptance criterion, not an aspiration.

use obs::names;
use obs::Document;
use std::collections::HashMap;

/// One `ting.phase` point inside a circuit attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePoint {
    /// `build`, `stream`, or `probe`.
    pub phase: String,
    pub t_ns: u64,
    pub dur_us: u64,
}

/// One circuit attempt (`ting.circuit` span).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitNode {
    pub id: u64,
    /// `full`, `x`, `y`, or `leg`.
    pub kind: String,
    /// Node ids along the path, first hop first.
    pub path: Vec<u32>,
    pub attempt: u64,
    pub vantage: u64,
    pub t0: u64,
    pub t1: u64,
    /// `ok` or a `TingError` code.
    pub outcome: String,
    pub phases: Vec<PhasePoint>,
    /// `ting.error` codes attributed to this attempt.
    pub errors: Vec<String>,
}

/// One pair measurement (`scan.pair` span).
#[derive(Debug, Clone, PartialEq)]
pub struct PairNode {
    pub id: u64,
    pub a: u32,
    pub b: u32,
    pub vantage: u64,
    pub t0: u64,
    pub t1: u64,
    /// `accepted`, `rejected`, `ok`, or an error code.
    pub outcome: String,
    pub circuits: Vec<CircuitNode>,
}

/// One scan round (`scan.round` span).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundNode {
    pub id: u64,
    pub t0: u64,
    pub t1: u64,
    pub planned: u64,
    pub measured: u64,
    pub failed: u64,
    pub pairs: Vec<PairNode>,
}

/// The reconstructed trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub rounds: Vec<RoundNode>,
    /// Pairs measured outside any round span (raw engine runs).
    pub orphan_pairs: Vec<PairNode>,
    /// Circuits sampled outside any pair span (direct
    /// `Ting::measure_pair` / `Ting::sample_circuit` calls, which open
    /// no `scan.pair` span).
    pub orphan_circuits: Vec<CircuitNode>,
}

/// The labels a pair span's time is partitioned into.
pub const SELF_TIME_LABELS: [&str; 6] = ["setup", "build", "stream", "sample", "wait", "finalize"];

/// Rebuilds the span forest from a document's event log. The document
/// should lint clean first ([`crate::lint::lint`]); structural defects
/// surface here as errors.
pub fn build(doc: &Document) -> Result<Trace, String> {
    let mut trace = Trace::default();
    let mut open_round: Option<RoundNode> = None;
    let mut open_pairs: HashMap<u64, PairNode> = HashMap::new();
    let mut open_circuits: HashMap<u64, CircuitNode> = HashMap::new();

    for (i, ev) in doc.events.iter().enumerate() {
        match ev.name.as_str() {
            names::SCAN_ROUND_BEGIN => {
                if open_round.is_some() {
                    return Err(format!("event #{i}: nested scan rounds"));
                }
                open_round = Some(RoundNode {
                    id: ev
                        .field_u64("span")
                        .ok_or_else(|| format!("event #{i}: round without span id"))?,
                    t0: ev.t_ns,
                    t1: ev.t_ns,
                    planned: ev.field_u64("planned").unwrap_or(0),
                    measured: 0,
                    failed: 0,
                    pairs: Vec::new(),
                });
            }
            names::SCAN_ROUND_END => {
                let mut round = open_round
                    .take()
                    .ok_or_else(|| format!("event #{i}: round end without begin"))?;
                round.t1 = ev.t_ns;
                round.measured = ev.field_u64("measured").unwrap_or(0);
                round.failed = ev.field_u64("failed").unwrap_or(0);
                trace.rounds.push(round);
            }
            names::SCAN_PAIR_BEGIN => {
                let id = ev
                    .field_u64("span")
                    .ok_or_else(|| format!("event #{i}: pair without span id"))?;
                open_pairs.insert(
                    id,
                    PairNode {
                        id,
                        a: ev.field_u64("a").unwrap_or(0) as u32,
                        b: ev.field_u64("b").unwrap_or(0) as u32,
                        vantage: ev.field_u64("vantage").unwrap_or(0),
                        t0: ev.t_ns,
                        t1: ev.t_ns,
                        outcome: String::new(),
                        circuits: Vec::new(),
                    },
                );
            }
            names::SCAN_PAIR_END => {
                let id = ev
                    .field_u64("span")
                    .ok_or_else(|| format!("event #{i}: pair end without id"))?;
                let mut pair = open_pairs
                    .remove(&id)
                    .ok_or_else(|| format!("event #{i}: pair end for unopened span {id}"))?;
                pair.t1 = ev.t_ns;
                pair.outcome = ev.field_str("outcome").unwrap_or("").to_owned();
                match &mut open_round {
                    Some(round) => round.pairs.push(pair),
                    None => trace.orphan_pairs.push(pair),
                }
            }
            names::TING_CIRCUIT_BEGIN => {
                let id = ev
                    .field_u64("span")
                    .ok_or_else(|| format!("event #{i}: circuit without span id"))?;
                let path = ev
                    .field_str("path")
                    .unwrap_or("")
                    .split('-')
                    .filter_map(|t| t.parse().ok())
                    .collect();
                open_circuits.insert(
                    id,
                    CircuitNode {
                        id,
                        kind: ev.field_str("kind").unwrap_or("").to_owned(),
                        path,
                        attempt: ev.field_u64("attempt").unwrap_or(0),
                        vantage: ev.field_u64("vantage").unwrap_or(0),
                        t0: ev.t_ns,
                        t1: ev.t_ns,
                        outcome: String::new(),
                        phases: Vec::new(),
                        errors: Vec::new(),
                    },
                );
            }
            names::TING_CIRCUIT_END => {
                let id = ev
                    .field_u64("span")
                    .ok_or_else(|| format!("event #{i}: circuit end without id"))?;
                let mut c = open_circuits
                    .remove(&id)
                    .ok_or_else(|| format!("event #{i}: circuit end for unopened span {id}"))?;
                c.t1 = ev.t_ns;
                c.outcome = ev.field_str("outcome").unwrap_or("").to_owned();
                // The owning pair is the open pair on this vantage.
                let owner = open_pairs.values_mut().find(|p| p.vantage == c.vantage);
                match owner {
                    Some(pair) => pair.circuits.push(c),
                    None => trace.orphan_circuits.push(c),
                }
            }
            names::TING_PHASE => {
                if let (Some(circuit), Some(phase)) =
                    (ev.field_u64("circuit"), ev.field_str("phase"))
                {
                    if let Some(c) = open_circuits.get_mut(&circuit) {
                        c.phases.push(PhasePoint {
                            phase: phase.to_owned(),
                            t_ns: ev.t_ns,
                            dur_us: ev.field_u64("dur_us").unwrap_or(0),
                        });
                    }
                }
            }
            names::TING_ERROR => {
                if let (Some(circuit), Some(code)) = (ev.field_u64("circuit"), ev.field_str("code"))
                {
                    if let Some(c) = open_circuits.get_mut(&circuit) {
                        c.errors.push(code.to_owned());
                    }
                }
            }
            _ => {}
        }
    }
    if open_round.is_some() || !open_pairs.is_empty() || !open_circuits.is_empty() {
        return Err(format!(
            "unclosed spans at end of trace: round={} pairs={} circuits={}",
            open_round.is_some(),
            open_pairs.len(),
            open_circuits.len()
        ));
    }
    Ok(trace)
}

/// Partitions one circuit attempt's `[t0, t1]` into build/stream/sample
/// nanoseconds. Phase *completion* events mark the boundaries: build
/// covers `[t0, t_build]`, stream `(t_build, t_stream]`, sampling the
/// rest. A phase that never completed (the attempt failed inside it)
/// absorbs the remainder, so the three parts always sum to `t1 − t0`.
pub fn circuit_self_times(c: &CircuitNode) -> [u64; 3] {
    let t_build = c
        .phases
        .iter()
        .find(|p| p.phase == "build")
        .map(|p| p.t_ns.clamp(c.t0, c.t1));
    let t_stream = c
        .phases
        .iter()
        .find(|p| p.phase == "stream")
        .map(|p| p.t_ns.clamp(c.t0, c.t1));
    match (t_build, t_stream) {
        (None, _) => [c.t1 - c.t0, 0, 0],
        (Some(tb), None) => [tb - c.t0, c.t1 - tb, 0],
        (Some(tb), Some(ts)) => [tb - c.t0, ts - tb, c.t1 - ts],
    }
}

/// Partitions one pair span into the six [`SELF_TIME_LABELS`] buckets
/// (ns). Time before the first circuit is `setup`, gaps between circuit
/// attempts are `wait` (retry backoff, teardown), time after the last
/// circuit is `finalize` (validation, cache bookkeeping). The six
/// buckets sum to exactly `t1 − t0`.
pub fn pair_self_times(p: &PairNode) -> [u64; 6] {
    let mut out = [0u64; 6];
    let mut cursor = p.t0;
    for (i, c) in p.circuits.iter().enumerate() {
        let gap = c.t0.saturating_sub(cursor);
        if i == 0 {
            out[0] += gap; // setup
        } else {
            out[4] += gap; // wait
        }
        let [b, s, smp] = circuit_self_times(c);
        out[1] += b;
        out[2] += s;
        out[3] += smp;
        cursor = c.t1;
    }
    out[5] = p.t1.saturating_sub(cursor); // finalize
    if p.circuits.is_empty() {
        out[0] = p.t1 - p.t0;
        out[5] = 0;
    }
    out
}

/// One segment of a round's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritSegment {
    /// `pair:a-b@v` or `idle`.
    pub label: String,
    pub t0: u64,
    pub t1: u64,
}

/// The round's critical path: walking backward from the round's end,
/// each step picks the latest-finishing pair measurement that ends at
/// or before the current frontier, then jumps to its start. Stretches
/// no pair covers are `idle` (planning, inter-pair scheduling). The
/// segments tile `[round.t0, round.t1]` exactly, latest first reversed
/// to chronological order.
pub fn critical_path(round: &RoundNode) -> Vec<CritSegment> {
    let mut segments = Vec::new();
    let mut frontier = round.t1;
    while let Some(p) = round
        .pairs
        .iter()
        .filter(|p| p.t1 <= frontier && p.t1 > round.t0)
        .max_by_key(|p| (p.t1, p.t0, p.id))
    {
        if p.t1 < frontier {
            segments.push(CritSegment {
                label: "idle".to_owned(),
                t0: p.t1,
                t1: frontier,
            });
        }
        let t0 = p.t0.max(round.t0);
        segments.push(CritSegment {
            label: format!("pair:{}-{}@{}", p.a, p.b, p.vantage),
            t0,
            t1: p.t1,
        });
        frontier = t0;
        if frontier == round.t0 {
            break;
        }
    }
    if frontier > round.t0 {
        segments.push(CritSegment {
            label: "idle".to_owned(),
            t0: round.t0,
            t1: frontier,
        });
    }
    segments.reverse();
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit(t0: u64, t1: u64, phases: &[(&str, u64)]) -> CircuitNode {
        CircuitNode {
            id: 1,
            kind: "full".into(),
            path: vec![1, 2, 3, 4],
            attempt: 1,
            vantage: 0,
            t0,
            t1,
            outcome: "ok".into(),
            phases: phases
                .iter()
                .map(|&(phase, t_ns)| PhasePoint {
                    phase: phase.into(),
                    t_ns,
                    dur_us: 0,
                })
                .collect(),
            errors: vec![],
        }
    }

    #[test]
    fn circuit_partition_is_exact_in_every_failure_mode() {
        // Completed: build ends at 30, stream at 45.
        assert_eq!(
            circuit_self_times(&circuit(10, 100, &[("build", 30), ("stream", 45)])),
            [20, 15, 55]
        );
        // Build never completed.
        assert_eq!(circuit_self_times(&circuit(10, 100, &[])), [90, 0, 0]);
        // Stream never completed.
        assert_eq!(
            circuit_self_times(&circuit(10, 100, &[("build", 30)])),
            [20, 70, 0]
        );
    }

    #[test]
    fn pair_partition_sums_to_span_duration() {
        let p = PairNode {
            id: 9,
            a: 1,
            b: 2,
            vantage: 0,
            t0: 100,
            t1: 1000,
            outcome: "accepted".into(),
            circuits: vec![
                circuit(120, 300, &[("build", 200), ("stream", 240)]),
                circuit(350, 900, &[("build", 400)]),
            ],
        };
        let st = pair_self_times(&p);
        // setup 20, wait 50, finalize 100; circuits cover the rest.
        assert_eq!(st[0], 20);
        assert_eq!(st[4], 50);
        assert_eq!(st[5], 100);
        assert_eq!(st.iter().sum::<u64>(), 900);
    }

    #[test]
    fn critical_path_tiles_the_round() {
        let pair = |a: u32, v: u64, t0: u64, t1: u64| PairNode {
            id: u64::from(a),
            a,
            b: a + 1,
            vantage: v,
            t0,
            t1,
            outcome: "accepted".into(),
            circuits: vec![],
        };
        let round = RoundNode {
            id: 1,
            t0: 0,
            t1: 100,
            planned: 3,
            measured: 3,
            failed: 0,
            pairs: vec![pair(1, 0, 5, 40), pair(3, 1, 10, 90), pair(5, 0, 45, 70)],
        };
        let path = critical_path(&round);
        let labels: Vec<&str> = path.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["idle", "pair:3-4@1", "idle"]);
        // Exact tiling: contiguous, spanning [t0, t1].
        assert_eq!(path.first().unwrap().t0, 0);
        assert_eq!(path.last().unwrap().t1, 100);
        for w in path.windows(2) {
            assert_eq!(w[0].t1, w[1].t0);
        }
    }
}
