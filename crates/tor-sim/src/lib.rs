//! A miniature Tor overlay running on the `netsim` substrate.
//!
//! This is the system Ting measures through: onion routers with real
//! layered cryptography, an onion proxy that builds circuits under the
//! same policy constraints as a stock Tor client (no one-hop circuits, no
//! repeated relay), and a Stem-like [`Controller`] that lets
//! measurement code construct *explicit* circuits and attach streams to
//! them — the two capabilities §3.1 of the paper identifies as Ting's
//! building blocks. The relays come from [`TorNetwork::relays`].
//!
//! Module map:
//!
//! * `relay` — the onion-router state machine, including the
//!   per-circuit queue + processing-cost model that produces the
//!   forwarding delays Ting must cancel out (§3.3, §4.3);
//! * `client` — the onion proxy state machine;
//! * `control` — the controller handle measurement drivers use;
//! * `echo` — the TCP echo server (`d` in the paper's setup);
//! * `link` — the Tor link table the relay and the proxy both hold;
//! * `network` — builders that assemble underlay + relays + proxy into
//!   a runnable [`TorNetwork`], including the PlanetLab-like
//!   validation testbed and live-network scenarios of §4;
//! * [`churn`] — the relay-population process behind Fig. 18.

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]
// No data reaches a panic: a site that can only fail by construction
// carries an `#[expect]` naming the invariant it relies on.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// Same seed ⇒ same bytes: hash order is per map instance, so no loop
// here may run in it. (The lint sees `for` loops only, not iterator
// chains: a walk that emits ops sorts its keys or uses an ordered map.)
#![deny(clippy::iter_over_hash_type)]

pub mod churn;
mod client;
mod control;
mod echo;
mod link;
mod metrics;
mod network;
mod relay;

pub use client::{CircuitStatus, PolicyError, StreamStatus};
pub use control::{CircuitHandle, Controller, StreamHandle};
pub use network::{TorNetwork, TorNetworkBuilder};
pub use relay::{RelayConfig, RelayFaultProfile};
