//! Umbrella crate for the Ting reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use
//! a single dependency. See the individual crates for documentation:
//! [`ting`] (the measurement technique), [`tor_sim`] (the simulated Tor
//! overlay), [`netsim`] (the discrete-event underlay), and [`analysis`]
//! (the paper's Section 5 applications).

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

pub use analysis;
pub use geo;
pub use netsim;
pub use onion_crypto;
pub use stats;
pub use ting;
pub use tor_protocol;
pub use tor_sim;
