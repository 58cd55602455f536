//! Trace analysis and profiling for `ting-obs-v1` exports.
//!
//! The `obs` layer makes every seeded run export a byte-deterministic
//! JSONL trace; this crate is the consumer side — the `ting-prof` CLI
//! and the library underneath it:
//!
//! * `parse` — a strict parser whose output re-renders byte-identical
//!   through `obs::Document::render_jsonl` (property-tested);
//! * `lint` — structural validation against `obs::names::REGISTRY`:
//!   unknown events, non-monotonic clocks, leaked/mismatched spans;
//! * `tree` — span-tree reconstruction, exact self-time attribution
//!   (per-pair partitions telescope to the span duration), round
//!   critical paths;
//! * `flame` — inferno-compatible folded-stack flamegraph output;
//! * `attrib` — per-relay forwarding-delay estimates (`F̂_i`) and
//!   failure/quarantine involvement;
//! * [`report`] — the deterministic human-readable profile;
//! * `lineage` — a served pair's causal chain: probe → drain →
//!   coalesce folds → first serving generation, plus owning-shard
//!   outages (the `ting-prof lineage` walk);
//! * `slo` — SLO breach windows and the `slo.*` gauge family (the
//!   `ting-prof slo` report and CI's no-fault staleness gate).

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

mod attrib;
mod flame;
mod json;
mod lineage;
mod lint;
mod parse;
pub mod report;
mod slo;
mod tree;

pub use attrib::{per_relay, RelayAttribution};
pub use flame::folded_stacks;
pub use lineage::{
    render_lineage, trace_pair, CoalesceHop, LineageChain, PublishPoint, ShardIncident,
};
pub use lint::{lint, LintIssue};
pub use parse::{parse_document, ParseError};
pub use slo::{breached, breaches, render_slo, Breach};
pub use tree::{build, critical_path, pair_self_times, CritSegment, PairNode, RoundNode, Trace};
