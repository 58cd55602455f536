//! Geography for the Ting reproduction.
//!
//! The paper's Fig. 8 plots Ting-measured RTTs against great-circle
//! distances obtained from a commercial geolocation database, annotated
//! with the ⅔-speed-of-light lower bound; §5.3 classifies Tor relays as
//! residential or datacenter from their reverse-DNS names. This crate
//! provides all of that machinery:
//!
//! * [`coord`] — GPS coordinates and great-circle (haversine) distance;
//! * [`lightspeed`] — propagation-delay bounds (⅔·c in fiber);
//! * [`world`] — a synthetic world map of cities weighted to match the
//!   Tor network's US/EU concentration (§4.1's testbed design);
//! * [`geolocation`] — a geolocation database with an explicit error
//!   model, because Fig. 8's below-the-line outliers are geolocation
//!   errors and we want to reproduce them, not hide them;
//! * [`hostnames`] — synthetic rDNS names plus the Schulman-style
//!   residential classifier the paper extends in §5.3.

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

pub mod coord;
pub mod geolocation;
pub mod hostnames;
pub mod lightspeed;
pub mod world;

pub use coord::{great_circle_km, GeoPoint};
pub use geolocation::{GeoDb, GeoErrorModel};
pub use hostnames::{classify_hostname, generate_hostname, HostClass};
pub use lightspeed::{min_rtt_ms, FIBER_KM_PER_MS};
pub use world::{City, Region, World};
