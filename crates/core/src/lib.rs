//! **Ting**: measuring round-trip times between arbitrary Tor relays
//! from a single vantage point, after Cangialosi, Levin & Spring
//! (IMC 2015).
//!
//! The technique (§3.3 of the paper): run an echo client/server and two
//! local Tor relays `w`, `z` on one host `h`; build three circuits
//! through the pair of interest `(x, y)` —
//!
//! ```text
//! C_xy = (w, x, y, z)      the full circuit
//! C_x  = (w, x)            isolates h ↔ x
//! C_y  = (w, y)            isolates h ↔ y
//! ```
//!
//! sample echo RTTs through each, take per-circuit minima, and compute
//!
//! ```text
//! R(x, y) ≈ min R_Cxy − ½ min R_Cx − ½ min R_Cy
//! ```
//!
//! which cancels every term of Eq. (1)–(3) except `R(x,y) + F_x + F_y`,
//! where the forwarding delays `F` have ~0–3 ms minima (§4.3).
//!
//! Module map:
//!
//! * `estimator` — the Eq. (4) algebra and measurement records;
//! * `sampling` — sample policies (fixed count, early stopping) and
//!   the min filter;
//! * `orchestrator` — drives circuits/streams over a
//!   [`tor_sim::TorNetwork`] and produces [`TingMeasurement`]s;
//! * [`strawman`] — the §3.2 baseline that mixes Tor and ping traffic
//!   (kept so experiments can show *why* it fails);
//! * `forwarding` — the §4.3 forwarding-delay measurement procedure;
//! * `matrix` — the all-pairs RTT matrix: one dense index-addressed
//!   table with strict TSV import/export and the shared detour kernel,
//!   filled by the scanner, read by every §5 application and served as
//!   is by the `oracle` query service;
//! * `queue` — the scanner's pair table (every per-pair fact besides
//!   the RTT, stored once) and the priority order one sweep over it
//!   derives;
//! * `parallel` — the one measurement engine: a poll-driven task per
//!   vantage under one driver, one lane for the sequential tool and K
//!   for the §6 scaling step (K pairs in flight in virtual time);
//! * `health` — per-relay EWMA success scores and quarantine, so a
//!   dead relay stops taxing its n−1 pairs;
//! * `timeout` — CBT-style adaptive per-phase deadlines learned from
//!   successful durations;
//! * `validate` — lightspeed/divergence/TIV cross-checks gating
//!   estimates before they reach the cache;
//! * [`checkpoint`] — CRC-sealed, atomically-written (and fsynced)
//!   checkpoint plumbing behind `scanner::Scanner::save` /
//!   `scanner::Scanner::recover_observed`,
//!   and the one strict reader under the three row documents (scan
//!   checkpoint, merged document, matrix TSV);
//! * [`shard`] — crash-isolated scan shards under a supervising
//!   restart budget, with a deterministic merge over the shards'
//!   scanners and degraded-mode coverage reporting;
//! * `backoff` — the shared exponential/jittered backoff arithmetic;
//! * [`obs`] (re-exported crate) — the unified observability layer:
//!   counters, log-bucketed latency histograms, virtual-time trace
//!   events and the deterministic JSONL exporter. Off by default;
//!   enable via [`Ting::with_obs`] and
//!   `TorNetworkBuilder::observability`.

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]
// No data reaches a panic: a site that can only fail by construction
// carries an `#[expect]` naming the invariant it relies on.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use obs;

mod backoff;
pub mod checkpoint;
mod estimator;
mod forwarding;
mod health;
mod king;
mod matrix;
mod orchestrator;
mod parallel;
mod queue;
mod sampling;
mod scanner;
pub mod shard;
pub mod strawman;
mod timeout;
mod validate;

pub use estimator::{ting_estimate_ms, CircuitSamples, TingMeasurement};
pub use forwarding::{measure_forwarding_delay, ForwardingDelayMeasurement, ProbeProtocol};
pub use health::RelayHealth;
pub use king::{king_measure, KingOutcome};
pub use matrix::{DetourBest, PairHasher, RttMatrix};
pub use orchestrator::{Ting, TingConfig, TingError};
pub use parallel::{measure_interleaved, PairOutcome, UnknownVantage};
pub use sampling::SamplePolicy;
pub use scanner::{RoundReport, Scanner, ScannerConfig};
pub use shard::{
    parse_merged_document, partition_pairs, DeltaPair, MergeDelta, MergeOutcome, MergedDocument,
    ShardCoverage, ShardStatus, Supervisor, SupervisorConfig, SupervisorReport,
};
pub use timeout::TimeoutEstimators;
