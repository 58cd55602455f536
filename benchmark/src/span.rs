//! Host-clock spans recorded by the harness around each call into a
//! layer. Kept in memory, written as JSON lines when the repetition
//! ends. A disabled recorder costs one branch per call, so untraced
//! repetitions run the same code.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    /// Operation id shared by every span of one timed operation
    /// (one scan round, one publish, one recover, one query batch).
    pub op: u64,
    /// `<layer>.<call>`; the layer is the crate name.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = now;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per span, with its self time.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let own = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{parent},\"op\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover. Children never overlap (the recorder is a stack),
/// so a span's self time plus its children's durations equals its own
/// duration exactly.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.enter("a.b", 1);
        r.exit();
        assert!(r.spans().is_empty());
    }

    #[test]
    fn self_time_tiles_the_parent_exactly() {
        let mut r = Recorder::new(true);
        r.enter("benchmark.op", 7);
        for name in ["core.x", "oracle.y", "oracle.z"] {
            r.enter(name, 7);
            r.enter("netsim.inner", 7);
            std::hint::black_box((0..2_000).sum::<u64>());
            r.exit();
            r.exit();
        }
        r.exit();
        let spans = r.spans();
        let own = self_times(spans);
        assert_eq!(spans.len(), 7);
        for (i, s) in spans.iter().enumerate() {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::duration_ns)
                .sum();
            assert_eq!(own[i] + children, s.duration_ns(), "span {}", s.name);
        }
        // The whole tree's self times sum to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        assert!(spans.iter().all(|s| s.op == 7));
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut r = Recorder::new(true);
        r.enter("core.a", 1);
        r.exit();
        r.enter("core.a", 2);
        r.exit();
        let text = r.to_jsonl("w");
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"workload\":\"w\",") && l.ends_with('}')));
        assert_eq!(r.durations("core.a").len(), 2);
    }
}
