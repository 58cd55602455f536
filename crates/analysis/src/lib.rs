//! Applications of Ting's all-pairs RTT data (paper §5).
//!
//! Three disparate consumers of an [`ting::RttMatrix`]:
//!
//! * [`deanon`] — §5.1: speeding up active-probing deanonymization of
//!   Tor circuits. Three strategies (brute force, ignore-too-large-RTTs,
//!   and Algorithm 1's informed target selection) plus the
//!   bandwidth-weighted variants, with the probe-count accounting used
//!   in Figs. 12–13.
//! * [`tiv`] — §5.2.1: triangle-inequality violations. Finds detour
//!   relays that beat direct paths (Figs. 14–15).
//! * [`circuits`] — §5.2.2: longer circuits. Samples ℓ-hop circuits for
//!   ℓ = 3..10, bins their RTTs, scales counts to C(n, ℓ), and computes
//!   the node-selection-probability diversity metric (Figs. 16–17).
//! * [`coverage`] — §5.3: Tor as a measurement platform. /24 counting
//!   and residential classification over a relay population (Fig. 18).

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

pub mod circuits;
pub mod coverage;
pub mod deanon;
pub mod defense;
pub mod geobaseline;
pub mod pathsel;
pub mod tiv;

pub use circuits::{CircuitLengthAnalysis, LengthBinSeries};
pub use coverage::CoverageReport;
pub use deanon::{DeanonOutcome, DeanonSimulator, Strategy};
pub use defense::{evaluate_length_randomization, evaluate_padding, DefenseOutcome};
pub use geobaseline::GeoPredictor;
pub use pathsel::{PathSelector, PathSelectorConfig, SelectionProfile};
pub use tiv::{TivFinding, TivReport};
