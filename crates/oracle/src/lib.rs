//! **The latency oracle**: a long-running, snapshot-isolated query
//! service over the all-pairs Tor RTT matrix.
//!
//! §4.6 of the Ting paper argues measurements are stable enough to
//! cache and serve as a dataset; every §5 application — and ShorTor's
//! multi-hop overlay routing after it — consumes exactly that dataset.
//! This crate is the read-side serving layer: it loads a matrix from
//! the §4.6 TSV cache or a sharded scan's merged checkpoint document,
//! freezes it into an immutable [`Snapshot`] (the dense
//! index-addressed [`ting::RttMatrix`] + freshness metadata), and
//! answers three query families through one front, [`OracleReader`]
//! (the two ranking families refuse while serving is `Degraded`):
//!
//! * **point lookup** — [`OracleReader::rtt`]: `R(x, y)` with the
//!   measurement timestamp, age, and generation it came from;
//! * **k-nearest relays** — [`OracleReader::k_nearest`]: the `k`
//!   lowest-RTT neighbors of a relay, deterministic tie-breaks;
//! * **via-relay detour** — [`OracleReader::best_via`]: ShorTor-style
//!   `argmin_v R(x,v) + R(v,y)`, the same kernel `analysis::tiv` uses
//!   for Figs. 14–15, so research analysis and serving path cannot
//!   drift apart.
//!
//! Concurrency model: publishes swap an `Arc<Snapshot>`, and the TTL
//! judgment it is served under, behind a lock held for nanoseconds;
//! readers (`Send + Sync`) clone the `Arc` and query immutable data,
//! so a scanner/ingest loop can publish fresher generations forever
//! without ever blocking a reader or tearing a dataset mid-query.

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]
// No data reaches a panic: a site that can only fail by construction
// carries an `#[expect]` naming the invariant it relies on.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod journal;
pub mod pipeline;
pub mod service;
pub mod snapshot;
pub mod ttl;

pub use journal::{Journal, Recovered};
pub use pipeline::{Pipeline, PipelineConfig, SloConfig};
pub use service::{GuardedPoint, Oracle, OracleReader};
pub use snapshot::{
    DetourAnswer, KNearestAnswer, Neighbor, PointAnswer, QueryError, Snapshot, SnapshotMeta,
};
pub use ttl::{ServingState, TtlPolicy};
