//! The underlay: who is where, how ASes route between each other, and
//! what one packet's one-way delay is at a given moment.
//!
//! The model, bottom-up:
//!
//! * Every node lives in an **AS**. An AS has a hub location (a city),
//!   an access-delay range its customers draw from (last-mile latency),
//!   a jitter scale, a diurnal load phase, and a [`ProtocolPolicy`].
//! * The **base path latency** between two nodes in different ASes is
//!   speed-of-light-in-fiber over `node → hubA → hubB → node`, with the
//!   hub-to-hub leg multiplied by a per-AS-pair *inflation factor* drawn
//!   once at build time. Inflation is what creates triangle-inequality
//!   violations: if inflation(A,B) is large while inflation(A,C) and
//!   inflation(C,B) are small, relaying via C beats the direct path —
//!   precisely the structure §5.2.1 of the paper discovers in Tor.
//! * The **per-packet delay** adds exponential jitter plus occasional
//!   queueing spikes, both scaled by the AS's diurnal load curve. Minima
//!   of repeated samples converge slowly (Fig. 6) but surely (Fig. 7).
//! * The **policy** adds protocol-class-specific extra delay: some ASes
//!   deprioritize ICMP, some shape Tor-port traffic, a few carry Tor on
//!   a *better* path than ICMP (which is how the paper ends up measuring
//!   negative forwarding delays in Fig. 5).

use geo::{great_circle_km, GeoPoint, FIBER_KM_PER_MS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::fault::{mix64, unit};
use crate::time::SimTime;

/// Identifies an autonomous system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AsId(pub u16);

/// The traffic classes the policy model can discriminate between.
///
/// `Tor` is TCP to/from an ORPort — distinguishable by port, and in
/// practice by DPI, which is why the paper "expected network operators
/// to, e.g., apply additional firewall or monitoring rules" (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    Icmp,
    Tcp,
    Tor,
}

/// Extra one-way delay (ms) an AS imposes per traffic class.
///
/// All-zero means the AS treats every packet identically; the paper found
/// ~65% of its PlanetLab networks behaved that way (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProtocolPolicy {
    pub icmp_extra_ms: f64,
    pub tcp_extra_ms: f64,
    pub tor_extra_ms: f64,
}

impl ProtocolPolicy {
    /// No discrimination.
    pub(crate) fn neutral() -> ProtocolPolicy {
        ProtocolPolicy::default()
    }

    /// ICMP handled on the slow path (classic router behaviour: echo
    /// processed in the control plane).
    pub fn icmp_deprioritized(extra_ms: f64) -> ProtocolPolicy {
        ProtocolPolicy {
            icmp_extra_ms: extra_ms,
            ..Default::default()
        }
    }

    /// Tor-port traffic shaped/inspected.
    pub fn tor_shaped(extra_ms: f64) -> ProtocolPolicy {
        ProtocolPolicy {
            tor_extra_ms: extra_ms,
            ..Default::default()
        }
    }

    /// All TCP (including Tor) slowed relative to ICMP — produces the
    /// *positive* forwarding-delay anomalies of Fig. 5, while
    /// [`ProtocolPolicy::icmp_deprioritized`] produces the negative ones.
    pub fn tcp_shaped(extra_ms: f64) -> ProtocolPolicy {
        ProtocolPolicy {
            tcp_extra_ms: extra_ms,
            tor_extra_ms: extra_ms,
            ..Default::default()
        }
    }

    /// The extra delay for one class.
    pub fn extra_ms(&self, class: TrafficClass) -> f64 {
        match class {
            TrafficClass::Icmp => self.icmp_extra_ms,
            TrafficClass::Tcp => self.tcp_extra_ms,
            TrafficClass::Tor => self.tor_extra_ms,
        }
    }

    /// Whether this AS treats any class differently from another.
    pub fn discriminates(&self) -> bool {
        self.icmp_extra_ms != self.tcp_extra_ms
            || self.tcp_extra_ms != self.tor_extra_ms
            || self.icmp_extra_ms != self.tor_extra_ms
    }
}

/// Static description of one AS.
#[derive(Debug, Clone)]
pub struct AsProfile {
    pub hub: GeoPoint,
    pub name: String,
    /// Last-mile delay range (ms, one-way) its customer nodes draw from.
    pub access_delay_ms: (f64, f64),
    /// Mean of the exponential per-packet jitter at off-peak (ms).
    pub jitter_mean_ms: f64,
    /// Probability a packet hits a queueing spike.
    pub spike_prob: f64,
    /// Mean spike magnitude (ms, exponential).
    pub spike_mean_ms: f64,
    /// Phase offset of the diurnal load curve (hours).
    pub diurnal_phase_h: f64,
    /// Amplitude of the diurnal multiplier (0 = flat load).
    pub diurnal_amplitude: f64,
    pub policy: ProtocolPolicy,
}

impl AsProfile {
    /// A well-behaved datacenter-ish AS at `hub`.
    pub fn datacenter(name: impl Into<String>, hub: GeoPoint) -> AsProfile {
        AsProfile {
            hub,
            name: name.into(),
            access_delay_ms: (0.05, 0.4),
            jitter_mean_ms: 0.15,
            spike_prob: 0.02,
            spike_mean_ms: 2.0,
            diurnal_phase_h: 0.0,
            diurnal_amplitude: 0.1,
            policy: ProtocolPolicy::neutral(),
        }
    }

    /// A consumer access network at `hub`: larger last-mile delays,
    /// more jitter, pronounced evening peak.
    pub fn residential(name: impl Into<String>, hub: GeoPoint) -> AsProfile {
        AsProfile {
            hub,
            name: name.into(),
            access_delay_ms: (1.0, 8.0),
            jitter_mean_ms: 0.6,
            spike_prob: 0.08,
            spike_mean_ms: 4.0,
            diurnal_phase_h: 0.0,
            diurnal_amplitude: 0.35,
            policy: ProtocolPolicy::neutral(),
        }
    }

    /// The diurnal load multiplier at time `t` (≥ `1 - amplitude`,
    /// peaking at `1 + amplitude`).
    pub fn load_factor(&self, t: SimTime) -> f64 {
        let hours = t.as_hours_f64() + self.diurnal_phase_h;
        1.0 + self.diurnal_amplitude * (2.0 * std::f64::consts::PI * hours / 24.0).sin()
    }
}

/// Static description of one node.
#[derive(Debug, Clone)]
pub struct NodeAttrs {
    pub as_id: AsId,
    pub location: GeoPoint,
    /// One-way last-mile delay (ms), drawn from the AS's range.
    pub access_delay_ms: f64,
    /// IPv4 address (used by the /24 coverage analysis, Fig. 18).
    pub ip: [u8; 4],
}

// The latency model's calibration: set once against the paper's
// targets (Figs. 3, 9–10 and 15) and then frozen (DESIGN §9).

/// Multiplier on geodesic fiber time within a single AS.
const INTRA_AS_INFLATION: f64 = 1.4;
/// Minimum inter-AS inflation factor.
const INTER_AS_INFLATION_MIN: f64 = 1.12;
/// Mean of the exponential part of inter-AS inflation.
const INTER_AS_INFLATION_EXP_MEAN: f64 = 0.5;
/// Hard cap on inter-AS inflation.
const INTER_AS_INFLATION_MAX: f64 = 4.0;
/// Probability an AS pair routes "performance-insensitively" (large
/// fixed inflation — the substantial TIVs of Fig. 15).
const BAD_ROUTE_PROB: f64 = 0.10;
/// Inflation applied to such unlucky pairs.
const BAD_ROUTE_INFLATION: f64 = 2.8;
/// Range of the fixed per-AS-pair peering overhead (ms, one-way):
/// even co-located ASes exchange traffic through IXPs and transit
/// providers, so inter-AS paths never cost zero propagation.
const PEERING_MS: std::ops::Range<f64> = 0.3..2.0;
/// One-way delay between two processes on the same host (ms).
pub const LOOPBACK_MS: f64 = 0.03;
/// Per-packet serialization/forwarding floor (ms) added per path.
pub const PATH_FLOOR_MS: f64 = 0.10;
/// Amplitude of the slowly-drifting congestion floor (ms): every
/// [`DRIFT_EPOCH_HOURS`], each node pair's floor moves to a new value
/// in `[0, DRIFT_MS + DRIFT_REL · base]`. This is why week-long hourly
/// Ting estimates vary slightly (Figs. 9–10) even though each snapshot
/// min-filters its jitter.
const DRIFT_MS: f64 = 1.2;
/// Relative component of the drift amplitude.
const DRIFT_REL: f64 = 0.015;
/// How long one congestion epoch lasts.
const DRIFT_EPOCH_HOURS: f64 = 2.0;

/// What [`Underlay::new`] takes: the latency model has no settable
/// values left (its calibration is the module's constants), so this is
/// empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnderlayConfig;

/// What the underlay keeps per unordered AS pair `(lo, hi)`: the drawn
/// route properties and the hub-to-hub geodesic, both fixed once the
/// pair is first used.
#[derive(Debug, Clone, Copy)]
struct Route {
    inflation: f64,
    peering_ms: f64,
    /// `great_circle_km(hub_lo, hub_hi)` and `great_circle_km(hub_hi,
    /// hub_lo)`: each direction keeps the argument order it always had,
    /// so no sample depends on the formula being bit-symmetric.
    hub_km: [f64; 2],
}

/// The full underlay: AS table, node table, cached pairwise inflation,
/// and the per-packet delay sampler.
///
/// Hubs and node locations never change once added (only an AS's
/// [`ProtocolPolicy`] may, through [`Underlay::set_policy`]), so every
/// distance a sample needs is computed once: node ↔ own hub in
/// [`Underlay::add_node`], hub ↔ hub beside the AS pair's route draw.
#[derive(Debug, Clone)]
pub struct Underlay {
    ases: Vec<AsProfile>,
    nodes: Vec<NodeAttrs>,
    /// Per node: `great_circle_km(location, hub)` and
    /// `great_circle_km(hub, location)` for the node's own AS hub.
    hub_km: Vec<[f64; 2]>,
    /// Per-unordered-AS-pair route properties, lazily drawn but
    /// deterministic: keyed RNG from the build seed and the pair.
    routes: HashMap<(AsId, AsId), Route>,
    seed: u64,
}

impl Underlay {
    /// Creates an empty underlay. `seed` fixes all per-pair routing
    /// draws.
    pub fn new(_: UnderlayConfig, seed: u64) -> Underlay {
        Underlay {
            ases: Vec::new(),
            nodes: Vec::new(),
            hub_km: Vec::new(),
            routes: HashMap::new(),
            seed,
        }
    }

    /// Registers an AS; returns its id.
    pub fn add_as(&mut self, profile: AsProfile) -> AsId {
        #[expect(
            clippy::expect_used,
            reason = "an AS id is a u16, and no builder places 65,536 ASes"
        )]
        let id = AsId(u16::try_from(self.ases.len()).expect("too many ASes"));
        self.ases.push(profile);
        id
    }

    /// Registers a node; returns its dense index (the simulator wraps it
    /// in a `NodeId`).
    pub fn add_node(&mut self, attrs: NodeAttrs) -> usize {
        assert!(
            (attrs.as_id.0 as usize) < self.ases.len(),
            "node references unknown AS"
        );
        let hub = self.ases[attrs.as_id.0 as usize].hub;
        self.hub_km.push([
            great_circle_km(attrs.location, hub),
            great_circle_km(hub, attrs.location),
        ]);
        self.nodes.push(attrs);
        self.nodes.len() - 1
    }

    /// Convenience: adds a node inside `as_id`, drawing its access delay
    /// from the AS profile and placing it at `location`.
    pub fn add_node_in<R: Rng + ?Sized>(
        &mut self,
        as_id: AsId,
        location: GeoPoint,
        ip: [u8; 4],
        rng: &mut R,
    ) -> usize {
        let (lo, hi) = self.ases[as_id.0 as usize].access_delay_ms;
        let access_delay_ms = if hi > lo { rng.gen_range(lo..hi) } else { lo };
        self.add_node(NodeAttrs {
            as_id,
            location,
            access_delay_ms,
            ip,
        })
    }

    pub fn node(&self, idx: usize) -> &NodeAttrs {
        &self.nodes[idx]
    }

    pub fn as_profile(&self, id: AsId) -> &AsProfile {
        &self.ases[id.0 as usize]
    }

    /// Replaces an AS's protocol policy — the one property of an AS that
    /// may change after it is added.
    pub fn set_policy(&mut self, id: AsId, policy: ProtocolPolicy) {
        self.ases[id.0 as usize].policy = policy;
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// `(inflation, peering_ms)` for an AS pair, drawn once per pair
    /// from an RNG keyed on (seed, pair) — deterministic and
    /// order-independent.
    pub fn route_properties(&mut self, a: AsId, b: AsId) -> (f64, f64) {
        if a == b {
            return (INTRA_AS_INFLATION, 0.0);
        }
        let route = self.route(a, b);
        (route.inflation, route.peering_ms)
    }

    /// The [`Route`] of two distinct ASes, drawn on first use.
    fn route(&mut self, a: AsId, b: AsId) -> Route {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&route) = self.routes.get(&key) {
            return route;
        }
        let pair_seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((key.0 .0 as u64) << 32 | key.1 .0 as u64);
        let mut rng = SmallRng::seed_from_u64(pair_seed);
        let inflation = if rng.gen_bool(BAD_ROUTE_PROB) {
            BAD_ROUTE_INFLATION
        } else {
            let exp: f64 = -rng.gen_range(1e-9..1.0f64).ln() * INTER_AS_INFLATION_EXP_MEAN;
            (INTER_AS_INFLATION_MIN + exp).min(INTER_AS_INFLATION_MAX)
        };
        let peering_ms = rng.gen_range(PEERING_MS);
        let (hub_lo, hub_hi) = (
            self.ases[key.0 .0 as usize].hub,
            self.ases[key.1 .0 as usize].hub,
        );
        let route = Route {
            inflation,
            peering_ms,
            hub_km: [
                great_circle_km(hub_lo, hub_hi),
                great_circle_km(hub_hi, hub_lo),
            ],
        };
        self.routes.insert(key, route);
        route
    }

    /// The *base* one-way latency (ms) between two nodes for `class`:
    /// propagation + access + policy, with no jitter. This is the floor
    /// that minima of repeated measurements converge to.
    pub(crate) fn base_owd_ms(&mut self, from: usize, to: usize, class: TrafficClass) -> f64 {
        if from == to {
            return LOOPBACK_MS;
        }
        let (a, b) = (&self.nodes[from], &self.nodes[to]);
        let (as_a, as_b) = (a.as_id, b.as_id);
        let (a_access_ms, b_access_ms) = (a.access_delay_ms, b.access_delay_ms);
        let policy_extra = (self.ases[as_a.0 as usize].policy.extra_ms(class)
            + self.ases[as_b.0 as usize].policy.extra_ms(class))
            / 2.0;
        let propagation = if as_a == as_b {
            let d = great_circle_km(a.location, b.location);
            d * INTRA_AS_INFLATION / FIBER_KM_PER_MS
        } else {
            // node → hub_a → hub_b → node, each leg in the argument
            // order the formula has always been evaluated in.
            let route = self.route(as_a, as_b);
            (self.hub_km[from][0]
                + self.hub_km[to][1]
                + route.hub_km[usize::from(as_a > as_b)] * route.inflation)
                / FIBER_KM_PER_MS
                + route.peering_ms
        };
        PATH_FLOOR_MS + a_access_ms + b_access_ms + propagation + policy_extra
    }

    /// Base round-trip latency (ms) — twice the one-way base, since the
    /// model is direction-symmetric.
    pub fn base_rtt_ms(&mut self, a: usize, b: usize, class: TrafficClass) -> f64 {
        2.0 * self.base_owd_ms(a, b, class)
    }

    /// The congestion-floor drift (ms) for a node pair at time `t`: a
    /// deterministic value that steps to a fresh uniform draw each
    /// epoch. Affects every protocol equally (it is path congestion),
    /// so probes taken at the same time still cancel it.
    pub(crate) fn drift_ms(&mut self, from: usize, to: usize, t: SimTime) -> f64 {
        if from == to {
            return 0.0;
        }
        // Keyed by AS pair: congestion lives on inter-AS paths, so two
        // co-located nodes (the paper's w and z) see identical drift to
        // any third host — which is what lets Ting's subtractions
        // cancel it.
        let as_a = self.nodes[from].as_id;
        let as_b = self.nodes[to].as_id;
        if as_a == as_b {
            return 0.0;
        }
        let (lo, hi) = if as_a <= as_b {
            (as_a, as_b)
        } else {
            (as_b, as_a)
        };
        // Amplitude grows with path length (long paths cross more
        // congested links); use the hub-to-hub geodesic.
        let base = self.route(lo, hi).hub_km[0] / FIBER_KM_PER_MS;
        let epoch = (t.as_hours_f64() / DRIFT_EPOCH_HOURS) as u64;
        // SplitMix64-style hash of (seed, pair, epoch) → uniform [0,1).
        let h = mix64(
            self.seed
                .wrapping_add((lo.0 as u64) << 40)
                .wrapping_add((hi.0 as u64) << 20)
                .wrapping_add(epoch),
        );
        let u = unit(h);
        let mut drift = u * (DRIFT_MS + DRIFT_REL * base);
        // Occasionally an epoch lands on a shifted route (a BGP change
        // or sustained congestion) that min-filtering cannot hide — the
        // outliers visible in the paper's Fig. 10 box plots.
        let mut h2 = h.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
        h2 ^= h2 >> 29;
        let u2 = unit(h2);
        if u2 < 0.005 {
            // ~0.5%/epoch ⇒ about a third of pairs see one shift in a
            // week of 2 h epochs, matching Fig. 10's outlier share.
            let u3 = (h2 & 0xffff) as f64 / 65536.0;
            drift += (2.0 + 0.12 * base) * (0.5 + u3);
        }
        drift
    }

    /// Samples one packet's one-way delay (ms) at time `t`.
    pub(crate) fn sample_owd_ms<R: Rng + ?Sized>(
        &mut self,
        from: usize,
        to: usize,
        class: TrafficClass,
        t: SimTime,
        rng: &mut R,
    ) -> f64 {
        let base = self.base_owd_ms(from, to, class);
        if from == to {
            // Loopback has negligible queueing.
            return base + rng.gen_range(0.0..0.01);
        }
        let a = &self.ases[self.nodes[from].as_id.0 as usize];
        let b = &self.ases[self.nodes[to].as_id.0 as usize];
        let load = (a.load_factor(t) + b.load_factor(t)) / 2.0;
        let jitter_mean = (a.jitter_mean_ms + b.jitter_mean_ms) / 2.0 * load;
        let jitter = -rng.gen_range(1e-12..1.0f64).ln() * jitter_mean;
        let spike_prob = ((a.spike_prob + b.spike_prob) / 2.0 * load).min(1.0);
        let spike = if rng.gen_bool(spike_prob) {
            let spike_mean = (a.spike_mean_ms + b.spike_mean_ms) / 2.0;
            -rng.gen_range(1e-12..1.0f64).ln() * spike_mean
        } else {
            0.0
        };
        base + self.drift_ms(from, to, t) + jitter + spike
    }

    /// One synthetic ICMP ping RTT sample (ms) at time `t` — the tool the
    /// paper's ground truth and the strawman both rely on.
    pub(crate) fn ping_rtt_ms<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        t: SimTime,
        rng: &mut R,
    ) -> f64 {
        self.sample_owd_ms(a, b, TrafficClass::Icmp, t, rng)
            + self.sample_owd_ms(b, a, TrafficClass::Icmp, t, rng)
    }

    /// One TCP-probe RTT sample (ms) at `t` (tcptraceroute in §4.3).
    pub(crate) fn tcp_rtt_ms<R: Rng + ?Sized>(
        &mut self,
        a: usize,
        b: usize,
        t: SimTime,
        rng: &mut R,
    ) -> f64 {
        self.sample_owd_ms(a, b, TrafficClass::Tcp, t, rng)
            + self.sample_owd_ms(b, a, TrafficClass::Tcp, t, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::World;
    use proptest::prelude::*;

    fn two_as_underlay() -> (Underlay, usize, usize) {
        let world = World::new();
        let mut u = Underlay::new(UnderlayConfig, 42);
        let nyc = world.city("New York").unwrap().location;
        let lon = world.city("London").unwrap().location;
        let a = u.add_as(AsProfile::datacenter("us-east", nyc));
        let b = u.add_as(AsProfile::datacenter("eu-west", lon));
        let mut rng = SmallRng::seed_from_u64(1);
        let n0 = u.add_node_in(a, nyc, [10, 0, 0, 1], &mut rng);
        let n1 = u.add_node_in(b, lon, [10, 1, 0, 1], &mut rng);
        (u, n0, n1)
    }

    #[test]
    fn base_latency_exceeds_lightspeed_bound() {
        let (mut u, a, b) = two_as_underlay();
        let rtt = u.base_rtt_ms(a, b, TrafficClass::Tcp);
        // NYC–London ≥ 55.7 ms at 2/3 c; inflation makes it more.
        assert!(rtt > 55.0, "rtt {rtt}");
        assert!(rtt < 400.0, "rtt {rtt}");
    }

    #[test]
    fn inflation_is_deterministic_and_symmetric() {
        let (mut u, _, _) = two_as_underlay();
        let f1 = u.route_properties(AsId(0), AsId(1)).0;
        let f2 = u.route_properties(AsId(1), AsId(0)).0;
        assert_eq!(f1, f2);
        assert!((1.15..=3.0).contains(&f1), "inflation {f1}");
        // Rebuilding with the same seed gives the same draw.
        let (mut u2, _, _) = two_as_underlay();
        assert_eq!(u2.route_properties(AsId(0), AsId(1)).0, f1);
    }

    #[test]
    fn loopback_is_fast() {
        let (mut u, a, _) = two_as_underlay();
        let ms = u.base_owd_ms(a, a, TrafficClass::Tcp);
        assert!(ms < 0.1, "loopback {ms}");
    }

    #[test]
    fn samples_never_undershoot_base() {
        let (mut u, a, b) = two_as_underlay();
        let base = u.base_owd_ms(a, b, TrafficClass::Tcp);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..1000 {
            let s = u.sample_owd_ms(a, b, TrafficClass::Tcp, SimTime::ZERO, &mut rng);
            assert!(s >= base, "sample {s} below base {base}");
        }
    }

    #[test]
    fn minimum_of_many_samples_approaches_base_plus_drift() {
        let (mut u, a, b) = two_as_underlay();
        let base = u.base_owd_ms(a, b, TrafficClass::Tcp);
        let drift = u.drift_ms(a, b, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(3);
        let min = (0..2000)
            .map(|_| u.sample_owd_ms(a, b, TrafficClass::Tcp, SimTime::ZERO, &mut rng))
            .fold(f64::INFINITY, f64::min);
        // Within one epoch the floor is base + drift; jitter's minimum
        // over 2000 draws is tiny.
        assert!(
            min - (base + drift) < 0.1,
            "min {min} vs floor {}",
            base + drift
        );
        assert!(min >= base, "min {min} below base {base}");
    }

    #[test]
    fn drift_shared_by_colocated_nodes_and_steps_over_epochs() {
        let world = World::new();
        let mut u = Underlay::new(UnderlayConfig, 11);
        let nyc = world.city("New York").unwrap().location;
        let lon = world.city("London").unwrap().location;
        let host = u.add_as(AsProfile::datacenter("host", nyc));
        let far_as = u.add_as(AsProfile::datacenter("far", lon));
        let mut rng = SmallRng::seed_from_u64(1);
        let w = u.add_node_in(host, nyc, [1, 0, 0, 1], &mut rng);
        let z = u.add_node_in(host, nyc, [1, 0, 0, 2], &mut rng);
        let x = u.add_node_in(far_as, lon, [1, 1, 0, 1], &mut rng);
        let t0 = SimTime::ZERO;
        // Same AS pair → identical drift (w and z are co-located).
        assert_eq!(u.drift_ms(w, x, t0), u.drift_ms(z, x, t0));
        // Same AS → no drift.
        assert_eq!(u.drift_ms(w, z, t0), 0.0);
        // Across many epochs the drift takes multiple values.
        let vals: std::collections::HashSet<u64> = (0..20)
            .map(|e| {
                let t = SimTime::ZERO + crate::time::SimDuration::from_hours(e * 3);
                (u.drift_ms(w, x, t) * 1e6) as u64
            })
            .collect();
        assert!(vals.len() > 5, "drift not stepping: {vals:?}");
    }

    /// The per-sample formulas as they were before the geometry cache:
    /// every great-circle distance recomputed from the AS and node
    /// tables on every call.
    mod reference {
        use super::*;

        pub fn base_owd_ms(u: &mut Underlay, from: usize, to: usize, class: TrafficClass) -> f64 {
            if from == to {
                return LOOPBACK_MS;
            }
            let a = u.nodes[from].clone();
            let b = u.nodes[to].clone();
            let policy_extra = (u.ases[a.as_id.0 as usize].policy.extra_ms(class)
                + u.ases[b.as_id.0 as usize].policy.extra_ms(class))
                / 2.0;
            let propagation = if a.as_id == b.as_id {
                let d = great_circle_km(a.location, b.location);
                d * INTRA_AS_INFLATION / FIBER_KM_PER_MS
            } else {
                let hub_a = u.ases[a.as_id.0 as usize].hub;
                let hub_b = u.ases[b.as_id.0 as usize].hub;
                let (infl, peering) = u.route_properties(a.as_id, b.as_id);
                (great_circle_km(a.location, hub_a)
                    + great_circle_km(hub_b, b.location)
                    + great_circle_km(hub_a, hub_b) * infl)
                    / FIBER_KM_PER_MS
                    + peering
            };
            PATH_FLOOR_MS + a.access_delay_ms + b.access_delay_ms + propagation + policy_extra
        }

        pub fn drift_ms(u: &Underlay, from: usize, to: usize, t: SimTime) -> f64 {
            if from == to {
                return 0.0;
            }
            let as_a = u.nodes[from].as_id.0 as usize;
            let as_b = u.nodes[to].as_id.0 as usize;
            if as_a == as_b {
                return 0.0;
            }
            let (lo, hi) = if as_a <= as_b {
                (as_a, as_b)
            } else {
                (as_b, as_a)
            };
            let epoch = (t.as_hours_f64() / DRIFT_EPOCH_HOURS) as u64;
            let h = mix64(
                u.seed
                    .wrapping_add((lo as u64) << 40)
                    .wrapping_add((hi as u64) << 20)
                    .wrapping_add(epoch),
            );
            let u1 = unit(h);
            let base = great_circle_km(u.ases[lo].hub, u.ases[hi].hub) / FIBER_KM_PER_MS;
            let mut drift = u1 * (DRIFT_MS + DRIFT_REL * base);
            let mut h2 = h.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
            h2 ^= h2 >> 29;
            if unit(h2) < 0.005 {
                let u3 = (h2 & 0xffff) as f64 / 65536.0;
                drift += (2.0 + 0.12 * base) * (0.5 + u3);
            }
            drift
        }

        pub fn sample_owd_ms(
            u: &mut Underlay,
            from: usize,
            to: usize,
            class: TrafficClass,
            t: SimTime,
            rng: &mut SmallRng,
        ) -> f64 {
            let base = base_owd_ms(u, from, to, class);
            if from == to {
                return base + rng.gen_range(0.0..0.01);
            }
            let a = &u.ases[u.nodes[from].as_id.0 as usize];
            let b = &u.ases[u.nodes[to].as_id.0 as usize];
            let load = (a.load_factor(t) + b.load_factor(t)) / 2.0;
            let jitter_mean = (a.jitter_mean_ms + b.jitter_mean_ms) / 2.0 * load;
            let jitter = -rng.gen_range(1e-12..1.0f64).ln() * jitter_mean;
            let spike_prob = ((a.spike_prob + b.spike_prob) / 2.0 * load).min(1.0);
            let spike = if rng.gen_bool(spike_prob) {
                let spike_mean = (a.spike_mean_ms + b.spike_mean_ms) / 2.0;
                -rng.gen_range(1e-12..1.0f64).ln() * spike_mean
            } else {
                0.0
            };
            base + drift_ms(u, from, to, t) + jitter + spike
        }
    }

    /// The geometry cache changes no bit: every ordered node pair of a
    /// 40-AS world (two nodes an AS, so intra-AS and loopback pairs
    /// too) × three classes × three drift epochs, the cached
    /// `drift_ms` / `base_owd_ms` / `sample_owd_ms` against the formulas
    /// above — drift first, so some AS pairs are first drawn by it —
    /// and again after `set_policy` moved three ASes.
    #[test]
    fn cached_geometry_is_bit_identical_to_recomputing_it() {
        let world = World::new();
        let mut u = Underlay::new(UnderlayConfig, 2015);
        let mut rng = SmallRng::seed_from_u64(3);
        for (i, city) in world.cities().iter().cycle().take(40).enumerate() {
            let profile = if i % 3 == 0 {
                AsProfile::residential(city.name, city.location)
            } else {
                AsProfile::datacenter(city.name, city.location)
            };
            let in_as = u.add_as(profile);
            for j in 0..2u8 {
                let off = f64::from(j) * 0.37;
                let at = GeoPoint::new(city.location.lat + off, city.location.lon - off);
                u.add_node_in(in_as, at, [10, i as u8, j, 1], &mut rng);
            }
        }
        let epochs = [0, 5, 73].map(|h| SimTime::ZERO + crate::time::SimDuration::from_hours(h));
        let classes = [TrafficClass::Icmp, TrafficClass::Tcp, TrafficClass::Tor];
        for policies in [false, true] {
            if policies {
                u.set_policy(AsId(3), ProtocolPolicy::icmp_deprioritized(7.5));
                u.set_policy(AsId(8), ProtocolPolicy::tor_shaped(2.25));
                u.set_policy(AsId(21), ProtocolPolicy::tcp_shaped(4.0));
            }
            let mut cached_rng = SmallRng::seed_from_u64(9);
            let mut reference_rng = SmallRng::seed_from_u64(9);
            for from in 0..u.node_count() {
                for to in 0..u.node_count() {
                    for t in epochs {
                        let want = reference::drift_ms(&u, from, to, t);
                        assert_eq!(u.drift_ms(from, to, t).to_bits(), want.to_bits());
                    }
                    for class in classes {
                        let want = reference::base_owd_ms(&mut u, from, to, class);
                        let got = u.base_owd_ms(from, to, class);
                        assert_eq!(got.to_bits(), want.to_bits(), "{from}→{to} {class:?}");
                        for t in epochs {
                            let want = reference::sample_owd_ms(
                                &mut u,
                                from,
                                to,
                                class,
                                t,
                                &mut reference_rng,
                            );
                            let got = u.sample_owd_ms(from, to, class, t, &mut cached_rng);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{from}→{to} {class:?} {t:?}"
                            );
                        }
                    }
                }
            }
            // The same draws, too.
            assert_eq!(cached_rng.gen::<u64>(), reference_rng.gen::<u64>());
        }
    }

    #[test]
    fn policy_extra_applies_per_class() {
        let (mut u, a, b) = two_as_underlay();
        let plain = u.base_rtt_ms(a, b, TrafficClass::Icmp);
        u.set_policy(AsId(0), ProtocolPolicy::icmp_deprioritized(20.0));
        let slowed = u.base_rtt_ms(a, b, TrafficClass::Icmp);
        let tcp = u.base_rtt_ms(a, b, TrafficClass::Tcp);
        // One endpoint AS adds 20 ms / 2 = 10 ms per direction = 20 ms RTT.
        assert!((slowed - plain - 20.0).abs() < 1e-9);
        assert!((tcp - plain).abs() < 1e-9, "TCP unaffected");
    }

    #[test]
    fn tor_shaping_separates_tor_from_tcp() {
        let (mut u, a, b) = two_as_underlay();
        u.set_policy(AsId(1), ProtocolPolicy::tor_shaped(8.0));
        let tor = u.base_rtt_ms(a, b, TrafficClass::Tor);
        let tcp = u.base_rtt_ms(a, b, TrafficClass::Tcp);
        assert!((tor - tcp - 8.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_load_changes_jitter_mean() {
        let world = World::new();
        let mut profile = AsProfile::residential("isp", world.city("Berlin").unwrap().location);
        profile.diurnal_amplitude = 0.5;
        let peak_t = SimTime::ZERO + crate::time::SimDuration::from_hours(6); // sin peaks at 6h
        let trough_t = SimTime::ZERO + crate::time::SimDuration::from_hours(18);
        assert!(profile.load_factor(peak_t) > 1.4);
        assert!(profile.load_factor(trough_t) < 0.6);
    }

    #[test]
    fn tivs_exist_among_many_ases() {
        // With enough ASes, some pair (a, b) has a relay c with
        // base(a,c) + base(c,b) < base(a,b): the routing TIVs of §5.2.1.
        let world = World::new();
        let mut u = Underlay::new(UnderlayConfig, 7);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut nodes = Vec::new();
        for (i, city) in world.cities().iter().take(20).enumerate() {
            let asid = u.add_as(AsProfile::datacenter(city.name, city.location));
            nodes.push(u.add_node_in(asid, city.location, [10, i as u8, 0, 1], &mut rng));
        }
        let mut tiv_found = false;
        'outer: for &a in &nodes {
            for &b in &nodes {
                if a == b {
                    continue;
                }
                let direct = u.base_rtt_ms(a, b, TrafficClass::Tor);
                for &c in &nodes {
                    if c == a || c == b {
                        continue;
                    }
                    let detour = u.base_rtt_ms(a, c, TrafficClass::Tor)
                        + u.base_rtt_ms(c, b, TrafficClass::Tor);
                    if detour < direct {
                        tiv_found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(tiv_found, "expected at least one TIV in a 20-AS world");
    }

    #[test]
    fn ping_uses_icmp_class() {
        let (mut u, a, b) = two_as_underlay();
        u.set_policy(AsId(0), ProtocolPolicy::icmp_deprioritized(50.0));
        let mut rng = SmallRng::seed_from_u64(4);
        let ping = u.ping_rtt_ms(a, b, SimTime::ZERO, &mut rng);
        let tcp_floor = u.base_rtt_ms(a, b, TrafficClass::Tcp);
        assert!(ping > tcp_floor + 45.0, "ping {ping} vs tcp {tcp_floor}");
    }

    #[test]
    #[should_panic]
    fn node_in_unknown_as_rejected() {
        let mut u = Underlay::new(UnderlayConfig, 0);
        u.add_node(NodeAttrs {
            as_id: AsId(3),
            location: GeoPoint::new(0.0, 0.0),
            access_delay_ms: 1.0,
            ip: [1, 2, 3, 4],
        });
    }

    /// Builds an underlay of `n_as` ASes (one node each) with seed `seed`.
    fn build(n_as: usize, seed: u64) -> Underlay {
        let world = World::new();
        let mut u = Underlay::new(UnderlayConfig, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
        for (i, city) in world.cities().iter().cycle().take(n_as).enumerate() {
            let a = u.add_as(AsProfile::datacenter(city.name, city.location));
            u.add_node_in(a, city.location, [10, (i >> 8) as u8, i as u8, 1], &mut rng);
        }
        u
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn base_latency_symmetric(seed in 0u64..1000, n in 2usize..12) {
            let mut u = build(n, seed);
            for a in 0..n {
                for b in 0..n {
                    let ab = u.base_owd_ms(a, b, TrafficClass::Tcp);
                    let ba = u.base_owd_ms(b, a, TrafficClass::Tcp);
                    prop_assert!((ab - ba).abs() < 1e-9, "asymmetric {ab} vs {ba}");
                }
            }
        }

        #[test]
        fn base_latency_deterministic(seed in 0u64..1000) {
            let mut u1 = build(6, seed);
            let mut u2 = build(6, seed);
            for a in 0..6 {
                for b in 0..6 {
                    prop_assert_eq!(
                        u1.base_owd_ms(a, b, TrafficClass::Tor),
                        u2.base_owd_ms(a, b, TrafficClass::Tor)
                    );
                }
            }
        }

        #[test]
        fn base_latency_respects_lightspeed(seed in 0u64..1000, n in 2usize..10) {
            let mut u = build(n, seed);
            for a in 0..n {
                for b in 0..n {
                    if a == b { continue; }
                    let owd = u.base_owd_ms(a, b, TrafficClass::Tcp);
                    let na = u.node(a).location;
                    let nb = u.node(b).location;
                    let floor = geo::min_rtt_ms(geo::great_circle_km(na, nb)) / 2.0;
                    prop_assert!(owd + 1e-9 >= floor, "owd {owd} beats light {floor}");
                }
            }
        }

        #[test]
        fn samples_dominate_base(seed in 0u64..500) {
            let mut u = build(4, seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            for a in 0..4 {
                for b in 0..4 {
                    let base = u.base_owd_ms(a, b, TrafficClass::Tor);
                    for k in 0..20 {
                        let t = SimTime(k * 1_000_000_000);
                        let s = u.sample_owd_ms(a, b, TrafficClass::Tor, t, &mut rng);
                        prop_assert!(s >= base - 1e-9);
                    }
                }
            }
        }

        #[test]
        fn inflation_within_configured_bounds(seed in 0u64..1000, n in 2usize..10) {
            let mut u = build(n, seed);
            for a in 0..n as u16 {
                for b in 0..n as u16 {
                    if a == b { continue; }
                    let f = u.route_properties(AsId(a), AsId(b)).0;
                    prop_assert!(f >= INTER_AS_INFLATION_MIN - 1e-9);
                    prop_assert!(f <= INTER_AS_INFLATION_MAX.max(BAD_ROUTE_INFLATION) + 1e-9);
                }
            }
        }
    }
}
