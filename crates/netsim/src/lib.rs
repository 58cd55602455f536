//! A deterministic, discrete-event network simulator.
//!
//! This is the substrate the simulated Tor overlay (`tor-sim`) runs on —
//! the stand-in for the physical Internet that the Ting paper measured
//! through. Its design goals, in order:
//!
//! 1. **Determinism.** Every run is a pure function of the seed. Events
//!    are dispatched in `(time, sequence)` order; all randomness flows
//!    from one seeded RNG. Experiments are replayable bit-for-bit.
//! 2. **The phenomena the paper measures must be real here.**
//!    - *Triangle-inequality violations* (§5.2.1): inter-AS paths carry
//!      per-AS-pair inflation factors, so the lowest-latency route
//!      between two nodes is frequently through a third AS.
//!    - *Protocol discrimination* (§3.2, Fig. 5): each AS has a policy
//!      that can delay ICMP, plain TCP, or Tor-port traffic differently —
//!      the reason the paper's strawman fails and ~35% of its forwarding-
//!      delay measurements look anomalous (even negative).
//!    - *Heavy-tailed sample noise* (Fig. 6): per-packet delay is base +
//!      exponential jitter + occasional queueing spikes, so minima take
//!      many samples to reach, exactly as Jansen et al. observed.
//!    - *Diurnal variation* (Figs. 9–10): jitter scales with a per-AS
//!      time-of-day load curve, so week-long measurements show small but
//!      non-zero variance.
//! 3. **Message-oriented reliable transport.** Tor cells are fixed-size
//!    records over TCP; the simulator delivers each `send` as one framed
//!    message, FIFO per connection, after a connect handshake costing one
//!    RTT. (A full byte-stream TCP state machine would add nothing to the
//!    measurement semantics; this choice is documented in DESIGN.md.)
//!
//! The API follows the event-driven style of `smoltcp`: node behaviours
//! are state machines implementing [`Process`], polled with a [`Context`]
//! that batches the actions they emit.

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

pub mod event;
mod fault;
mod process;
mod sim;
mod time;
mod underlay;

pub use event::{Event, EventKind};
pub use fault::{keyed_u01, FaultPlan};
pub use process::{Context, Process};
pub use sim::{ConnId, NodeId, Simulator};
pub use time::{SimDuration, SimTime};
pub use underlay::{
    AsId, AsProfile, NodeAttrs, ProtocolPolicy, TrafficClass, Underlay, UnderlayConfig,
    LOOPBACK_MS, PATH_FLOOR_MS,
};
