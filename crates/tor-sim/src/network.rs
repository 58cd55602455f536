//! Assembling runnable Tor networks.
//!
//! [`TorNetworkBuilder`] wires an underlay, a relay population, and the
//! paper's four-process measurement host (echo client/proxy `s`, echo
//! server `d`, local relays `w` and `z`, §3.3) into a [`TorNetwork`].
//! Two scenarios mirror §4:
//!
//! * [`TorNetworkBuilder::testbed`] — the PlanetLab-like validation
//!   network: 31 relays in distinct cities with wide geographic
//!   coverage, one AS each, ~65% protocol-neutral networks and the rest
//!   split between ICMP-deprioritizing and TCP-shaping policies (the
//!   Fig. 5 anomaly mix).
//! * [`TorNetworkBuilder::live`] — a live-Tor-like network: hundreds of
//!   relays with the US/EU geographic skew, residential/datacenter AS
//!   mix, and occasional Tor-specific shaping.

use crate::control::Controller;
use crate::echo::EchoServer;
use crate::metrics::RelayMetrics;
use crate::relay::{Relay, RelayConfig, RelayFaultProfile};
use geo::{generate_hostname, GeoPoint, World};
use netsim::{
    AsId, AsProfile, FaultPlan, NodeId, ProtocolPolicy, SimTime, Simulator, TrafficClass, Underlay,
    UnderlayConfig,
};
use obs::{Obs, Value};
use onion_crypto::{KeyPair, PublicKey};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::rc::Rc;

/// Draws from an exponential distribution with the given mean.
fn sample_exp(rng: &mut SmallRng, mean: f64) -> f64 {
    -rng.gen_range(1e-12..1.0f64).ln() * mean
}

/// One uniform draw in `[0, 1)` from the keyed hash the fault plan
/// uses, so churn decisions never consume the simulation RNG.
fn keyed_u01(seed: u64, n: u64) -> f64 {
    netsim::keyed_u01(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(n))
}

/// Which §4 scenario to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Testbed,
    Live,
}

/// Builder for [`TorNetwork`].
#[derive(Debug, Clone)]
pub struct TorNetworkBuilder {
    seed: u64,
    scenario: Scenario,
    n_relays: usize,
    /// Fraction of ASes that treat protocols identically (§4.3: ~65%).
    neutral_frac: f64,
    /// Of the discriminating remainder, fraction that deprioritizes
    /// ICMP (vs shaping TCP/Tor).
    icmp_anomaly_frac: f64,
    fault_plan: FaultPlan,
    relay_faults: RelayFaultProfile,
    /// Vantage hosts beyond the primary measurement host (0 = the
    /// classic single-vantage paper setup).
    extra_vantages: usize,
    /// Observability handle threaded into the simulator and exposed on
    /// the built network. Defaults to [`Obs::off`].
    observability: Obs,
}

impl TorNetworkBuilder {
    /// The PlanetLab-like ground-truth testbed of §4.1 (default 31
    /// relays).
    pub fn testbed(seed: u64) -> TorNetworkBuilder {
        TorNetworkBuilder {
            seed,
            scenario: Scenario::Testbed,
            n_relays: 31,
            neutral_frac: 0.65,
            icmp_anomaly_frac: 0.6,
            fault_plan: FaultPlan::disabled(),
            relay_faults: RelayFaultProfile::disabled(),
            extra_vantages: 0,
            observability: Obs::off(),
        }
    }

    /// A live-Tor-like network of `n_relays` relays (§4.5).
    pub fn live(seed: u64, n_relays: usize) -> TorNetworkBuilder {
        TorNetworkBuilder {
            seed,
            scenario: Scenario::Live,
            n_relays,
            neutral_frac: 0.70,
            icmp_anomaly_frac: 0.6,
            fault_plan: FaultPlan::disabled(),
            relay_faults: RelayFaultProfile::disabled(),
            extra_vantages: 0,
            observability: Obs::off(),
        }
    }

    /// Provisions `k` vantage pairs in total: the primary measurement
    /// host plus `k − 1` extra hosts, each with its own onion proxy,
    /// local relay pair `(w_i, z_i)`, and echo server (§6: "multiple
    /// instances of Ting can run in parallel"). `k = 1` (the default)
    /// is bit-identical to a builder that never called this: the extra
    /// hosts draw from the seed RNG only after every existing draw.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn vantages(mut self, k: usize) -> TorNetworkBuilder {
        assert!(k >= 1, "at least the primary vantage is required");
        self.extra_vantages = k - 1;
        self
    }

    /// Overrides the relay count.
    pub fn relays(mut self, n: usize) -> TorNetworkBuilder {
        self.n_relays = n;
        self
    }

    /// Overrides the protocol-neutral AS fraction.
    pub fn neutral_fraction(mut self, f: f64) -> TorNetworkBuilder {
        self.neutral_frac = f;
        self
    }

    /// Installs an underlay fault plan (link loss, delay spikes, stalls,
    /// crash windows). Disabled by default.
    pub fn fault_plan(mut self, plan: FaultPlan) -> TorNetworkBuilder {
        self.fault_plan = plan;
        self
    }

    /// Gives every measurable relay a fault profile (EXTEND2 refusal,
    /// overload cell shedding). Each relay derives its own draw seed
    /// from the profile's, so fault streams are independent. The local
    /// relays `w`/`z` stay fault-free — they are the measurement host's
    /// own, as in the paper.
    pub fn relay_faults(mut self, profile: RelayFaultProfile) -> TorNetworkBuilder {
        self.relay_faults = profile;
        self
    }

    /// Attaches an observability handle: the simulator's dispatch loop
    /// and the network-level lifecycle methods (crash, revive, churn,
    /// consensus refresh) record into it. Keep a clone to read the
    /// registry. The default [`Obs::off`]
    /// records nothing and is bit-identical to an uninstrumented build.
    pub fn observability(mut self, obs: Obs) -> TorNetworkBuilder {
        self.observability = obs;
        self
    }

    /// Builds the network.
    pub fn build(self) -> TorNetwork {
        let world = World::new();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut underlay = Underlay::new(UnderlayConfig, self.seed ^ 0x7ea5);

        // ── Measurement host: one well-connected AS, four nodes. ──
        #[expect(
            clippy::expect_used,
            reason = "the measurement host's city is in geo's fixed city table"
        )]
        let host_city = world.city("Washington DC").expect("city exists");
        let mut host_profile = AsProfile::datacenter("measurement-host", host_city.location);
        host_profile.access_delay_ms = (0.02, 0.05);
        host_profile.jitter_mean_ms = 0.05;
        let host_as = underlay.add_as(host_profile);
        let host_node = |u: &mut Underlay, rng: &mut SmallRng, last: u8| {
            let loc = host_city.location;
            u.add_node_in(host_as, loc, [192, 0, 2, last], rng)
        };
        let proxy_idx = host_node(&mut underlay, &mut rng, 1);
        let w_idx = host_node(&mut underlay, &mut rng, 2);
        let z_idx = host_node(&mut underlay, &mut rng, 3);
        let echo_idx = host_node(&mut underlay, &mut rng, 4);

        // ── Relay population. ──
        let mut relay_nodes: Vec<NodeId> = Vec::with_capacity(self.n_relays);
        let mut relay_keys: Vec<KeyPair> = Vec::with_capacity(self.n_relays);
        let mut relay_configs: Vec<RelayConfig> = Vec::with_capacity(self.n_relays);
        let mut relay_ips: Vec<[u8; 4]> = Vec::with_capacity(self.n_relays);

        let placements: Vec<(String, GeoPoint, bool)> = match self.scenario {
            Scenario::Testbed => {
                // Distinct cities, uniform coverage, all institutional
                // (datacenter-like) hosts — PlanetLab sites.
                assert!(
                    self.n_relays <= world.cities().len(),
                    "testbed limited to one relay per city"
                );
                world
                    .sample_distinct_cities(&mut rng, self.n_relays)
                    .into_iter()
                    .map(|c| (c.name.to_string(), c.location, false))
                    .collect()
            }
            Scenario::Live => (0..self.n_relays)
                .map(|_| {
                    let (city, loc) = world.sample_location(&mut rng);
                    // §5.3: ~61% of (named) relays are residential.
                    let residential = rng.gen_bool(0.61);
                    (city.name.to_string(), loc, residential)
                })
                .collect(),
        };

        // Group relays into ASes: testbed = one AS per site; live = up
        // to a few relays share an (city, kind) AS.
        let mut live_as_pool: HashMap<(String, bool), Vec<AsId>> = HashMap::new();
        for (i, (city_name, loc, residential)) in placements.iter().enumerate() {
            let as_id = match self.scenario {
                Scenario::Testbed => {
                    let profile =
                        self.as_profile_for(format!("pl-{city_name}"), *loc, false, &mut rng);
                    underlay.add_as(profile)
                }
                Scenario::Live => {
                    let key = (city_name.clone(), *residential);
                    let pool = live_as_pool.entry(key).or_default();
                    // ~4 relays per AS on average before opening another.
                    if pool.is_empty() || rng.gen_bool(0.25) {
                        let profile = self.as_profile_for(
                            format!(
                                "{}-{}-{}",
                                if *residential { "isp" } else { "dc" },
                                city_name,
                                pool.len()
                            ),
                            *loc,
                            *residential,
                            &mut rng,
                        );
                        let id = underlay.add_as(profile);
                        pool.push(id);
                        id
                    } else {
                        pool[rng.gen_range(0..pool.len())]
                    }
                }
            };
            let as_index = as_id.0 as usize;
            let ip = [
                10u8.wrapping_add((as_index >> 8) as u8),
                (as_index & 0xff) as u8,
                rng.gen(),
                rng.gen_range(1..=254u8),
            ];
            let node_idx = underlay.add_node_in(as_id, *loc, ip, &mut rng);
            // Node indices: 0..=3 are the host; relays follow.
            assert_eq!(node_idx, 4 + i);
            relay_nodes.push(NodeId(node_idx as u32));
            relay_ips.push(ip);

            let mut secret = [0u8; 32];
            rng.fill(&mut secret);
            relay_keys.push(KeyPair::from_secret(secret));
            relay_configs.push(RelayConfig {
                // §4.3: minimum forwarding delays land in 0–3 ms and are
                // dominated by symmetric crypto; the floor per relay is
                // sub-millisecond on anything modern.
                base_proc_ms: rng.gen_range(0.08..0.8),
                busy_prob: rng.gen_range(0.15..0.5),
                busy_mean_ms: rng.gen_range(1.0..6.0),
            });
        }

        // Local relays w and z: same config class as a quiet relay.
        let mut wsec = [0u8; 32];
        rng.fill(&mut wsec);
        let w_key = KeyPair::from_secret(wsec);
        let mut zsec = [0u8; 32];
        rng.fill(&mut zsec);
        let z_key = KeyPair::from_secret(zsec);
        let local_config = RelayConfig {
            base_proc_ms: 0.15,
            busy_prob: 0.05,
            busy_mean_ms: 1.0,
        };

        // Three draws per relay whose values nothing reads. Extra vantages
        // are placed by the draws after them and a 4-vantage scan pins
        // those, so they stay until that pin is re-based.
        for &ip in &relay_ips {
            rng.gen_range(1e-6..1.0f64);
            generate_hostname(ip, &mut rng);
            rng.gen_bool(0.3);
        }

        // ── Extra vantage hosts (multi-vantage parallel scanning). ──
        // Provisioned strictly after every seed-era RNG draw above, so
        // a builder with no extra vantages is bit-identical to one that
        // never heard of vantage pools: the extra draws only happen
        // when extra hosts actually exist.
        struct VantageSeed {
            proxy_idx: usize,
            w_idx: usize,
            z_idx: usize,
            echo_idx: usize,
            w_key: KeyPair,
            z_key: KeyPair,
        }
        let primary = VantageSeed {
            proxy_idx,
            w_idx,
            z_idx,
            echo_idx,
            w_key,
            z_key,
        };
        let mut vantage_seeds: Vec<VantageSeed> = Vec::with_capacity(self.extra_vantages);
        for j in 0..self.extra_vantages {
            let (city, loc) = world.sample_location(&mut rng);
            let mut profile =
                AsProfile::datacenter(format!("vantage-{}-{}", j + 1, city.name), loc);
            profile.access_delay_ms = (0.02, 0.05);
            profile.jitter_mean_ms = 0.05;
            let vantage_as = underlay.add_as(profile);
            let j8 = (j as u8).wrapping_add(1);
            let host = |u: &mut Underlay, rng: &mut SmallRng, last: u8| {
                u.add_node_in(vantage_as, loc, [198, 18, j8, last], rng)
            };
            let proxy_idx = host(&mut underlay, &mut rng, 1);
            let w_idx = host(&mut underlay, &mut rng, 2);
            let z_idx = host(&mut underlay, &mut rng, 3);
            let echo_idx = host(&mut underlay, &mut rng, 4);
            let mut wsec = [0u8; 32];
            rng.fill(&mut wsec);
            let mut zsec = [0u8; 32];
            rng.fill(&mut zsec);
            vantage_seeds.push(VantageSeed {
                proxy_idx,
                w_idx,
                z_idx,
                echo_idx,
                w_key: KeyPair::from_secret(wsec),
                z_key: KeyPair::from_secret(zsec),
            });
        }

        // ── Identity keys by node index: one table every proxy reads. ──
        let mut identities = vec![None; underlay.node_count()];
        for (node, key) in relay_nodes.iter().zip(&relay_keys) {
            identities[node.index()] = Some(key.public);
        }
        for v in std::iter::once(&primary).chain(&vantage_seeds) {
            identities[v.w_idx] = Some(v.w_key.public);
            identities[v.z_idx] = Some(v.z_key.public);
        }
        let identities: Rc<[Option<PublicKey>]> = identities.into();

        // ── Simulator + processes (same order as underlay nodes). ──
        let mut sim = Simulator::new(underlay, self.seed ^ 0xc0de);
        sim.set_fault_plan(self.fault_plan);
        sim.set_obs(self.observability.clone());
        // A vantage's four processes: its proxy, `w`, `z` and echo server.
        let add_vantage = |sim: &mut Simulator, seed: VantageSeed| {
            let proxy_node = NodeId(seed.proxy_idx as u32);
            let (controller, proxy) = Controller::create(proxy_node, identities.clone());
            let proxy = sim.add_process(Box::new(proxy));
            let (w_metrics, z_metrics) = (RelayMetrics::new(), RelayMetrics::new());
            let w = Relay::new(seed.w_key, local_config).with_metrics(w_metrics.clone());
            let w = sim.add_process(Box::new(w));
            let z = Relay::new(seed.z_key, local_config).with_metrics(z_metrics.clone());
            let z = sim.add_process(Box::new(z));
            let echo = sim.add_process(Box::new(EchoServer::new()));
            debug_assert_eq!(
                [proxy, w, z, echo].map(NodeId::index),
                [seed.proxy_idx, seed.w_idx, seed.z_idx, seed.echo_idx]
            );
            Vantage {
                proxy,
                w,
                z,
                echo,
                controller,
                w_metrics,
                z_metrics,
            }
        };
        let primary = add_vantage(&mut sim, primary);
        let mut relay_metrics = Vec::with_capacity(relay_keys.len());
        for (i, (key, config)) in relay_keys.iter().zip(&relay_configs).enumerate() {
            let metrics = RelayMetrics::new();
            relay_metrics.push(metrics.clone());
            sim.add_process(Box::new(
                Relay::new(*key, *config)
                    .with_metrics(metrics)
                    .with_faults(self.relay_faults.for_relay(i as u64)),
            ));
        }
        // Extra vantage processes follow the relays.
        let extra_vantages = vantage_seeds
            .into_iter()
            .map(|seed| add_vantage(&mut sim, seed))
            .collect();

        TorNetwork {
            sim,
            controller: primary.controller,
            relays: relay_nodes,
            relay_configs,
            relay_metrics,
            w_metrics: primary.w_metrics,
            z_metrics: primary.z_metrics,
            proxy: primary.proxy,
            local_w: primary.w,
            local_z: primary.z,
            echo_server: primary.echo,
            extra_vantages,
        }
    }

    /// Draws an AS profile with the configured policy mix.
    fn as_profile_for(
        &self,
        name: String,
        hub: GeoPoint,
        residential: bool,
        rng: &mut SmallRng,
    ) -> AsProfile {
        let mut profile = if residential {
            AsProfile::residential(name, hub)
        } else {
            AsProfile::datacenter(name, hub)
        };
        profile.diurnal_phase_h = rng.gen_range(0.0..24.0);
        if !rng.gen_bool(self.neutral_frac) {
            // Anomaly magnitudes: a one-way skew of δ shifts a pair's
            // ping RTT by ~δ but a §4.3 forwarding-delay estimate by
            // 2δ — Fig. 5 shows F anomalies of tens of ms while Fig. 3
            // stays 91%-within-10%, which bounds δ to roughly ≤ 15 ms
            // with a heavier tail on a few networks.
            let magnitude = (1.0 + sample_exp(rng, 3.0)).min(12.0);
            profile.policy = if rng.gen_bool(self.icmp_anomaly_frac) {
                ProtocolPolicy::icmp_deprioritized(magnitude)
            } else {
                ProtocolPolicy::tcp_shaped(magnitude * 0.7)
            };
        } else if self.scenario == Scenario::Live && rng.gen_bool(0.05) {
            // A few networks shape specifically Tor (§4.5 speculates
            // international Tor traffic is treated differently).
            profile.policy = ProtocolPolicy::tor_shaped(rng.gen_range(2.0..12.0));
        }
        profile
    }
}

/// One measurement vantage beyond the primary host: an onion proxy
/// `s_i`, two local relays `w_i`/`z_i`, an echo server `d_i`, and the
/// controller that drives them. Each vantage owns its circuits, so K
/// vantages can have K measurements in flight concurrently.
pub(crate) struct Vantage {
    /// `s_i`: the vantage's onion proxy + echo client.
    pub(crate) proxy: NodeId,
    /// `w_i`: the vantage's first local relay.
    pub(crate) w: NodeId,
    /// `z_i`: the vantage's second local relay.
    pub(crate) z: NodeId,
    /// `d_i`: the vantage's echo server.
    pub(crate) echo: NodeId,
    /// Stem-like controller for this vantage's proxy.
    pub(crate) controller: Controller,
    pub(crate) w_metrics: RelayMetrics,
    pub(crate) z_metrics: RelayMetrics,
}

/// A fully assembled simulated Tor deployment.
pub struct TorNetwork {
    pub sim: Simulator,
    pub controller: Controller,
    /// The measurable relay population (excludes `w`/`z`).
    pub relays: Vec<NodeId>,
    /// The performance parameters each relay was built with,
    /// index-aligned with `relays`. Ground truth for per-relay
    /// forwarding-delay attribution: a relay's mean per-cell delay is
    /// `base_proc_ms + busy_prob · busy_mean_ms`.
    pub relay_configs: Vec<RelayConfig>,
    /// Per-relay observability handles, index-aligned with `relays`.
    pub(crate) relay_metrics: Vec<RelayMetrics>,
    /// Metrics for the local relays.
    pub(crate) w_metrics: RelayMetrics,
    pub(crate) z_metrics: RelayMetrics,
    /// `s`: the onion proxy + echo client.
    pub proxy: NodeId,
    /// `w`: first local relay.
    pub local_w: NodeId,
    /// `z`: second local relay.
    pub local_z: NodeId,
    /// `d`: the echo server.
    pub echo_server: NodeId,
    /// Vantage hosts beyond the primary (see
    /// [`TorNetworkBuilder::vantages`]); empty in the classic
    /// single-vantage setup.
    pub(crate) extra_vantages: Vec<Vantage>,
}

impl TorNetwork {
    /// Publishes aggregate relay-layer totals (cells processed,
    /// forwarded, dropped, EXTEND2 refusals, circuits created and
    /// destroyed, streams opened) into the observability registry as
    /// gauges, summed over every measurable relay plus the local
    /// `w`/`z` pairs of all vantages. Call before exporting; repeated
    /// calls overwrite. A no-op when observability is off.
    pub fn publish_relay_totals(&self) {
        let obs = self.sim.obs();
        if !obs.is_enabled() {
            return;
        }
        let mut totals = [0u64; 7];
        let mut add = |m: &RelayMetrics| {
            let s = m.snapshot();
            totals[0] += s.cells_processed;
            totals[1] += s.cells_forwarded;
            totals[2] += s.cells_dropped;
            totals[3] += s.extends_refused;
            totals[4] += s.circuits_created;
            totals[5] += s.circuits_destroyed;
            totals[6] += s.streams_opened;
        };
        for m in &self.relay_metrics {
            add(m);
        }
        add(&self.w_metrics);
        add(&self.z_metrics);
        for v in &self.extra_vantages {
            add(&v.w_metrics);
            add(&v.z_metrics);
        }
        let names = [
            "tor.relay.cells_processed",
            "tor.relay.cells_forwarded",
            "tor.relay.cells_dropped",
            "tor.relay.extends_refused",
            "tor.relay.circuits_created",
            "tor.relay.circuits_destroyed",
            "tor.relay.streams_opened",
        ];
        for (name, total) in names.iter().zip(totals) {
            obs.set_gauge(name, total as i64);
        }
    }

    /// Total vantage pairs available: the primary host plus extras.
    pub fn vantage_count(&self) -> usize {
        1 + self.extra_vantages.len()
    }

    /// The `(w_i, z_i, d_i)` endpoints of vantage `i` (0 = primary).
    pub fn vantage_endpoints(&self, i: usize) -> (NodeId, NodeId, NodeId) {
        if i == 0 {
            (self.local_w, self.local_z, self.echo_server)
        } else {
            let v = &self.extra_vantages[i - 1];
            (v.w, v.z, v.echo)
        }
    }

    /// Split-borrows the simulator together with vantage `i`'s
    /// controller and endpoints — the shape an interleaved measurement
    /// driver needs to advance one vantage's state machine.
    pub fn vantage_parts(
        &mut self,
        i: usize,
    ) -> (&mut Simulator, &mut Controller, NodeId, NodeId, NodeId) {
        if i == 0 {
            (
                &mut self.sim,
                &mut self.controller,
                self.local_w,
                self.local_z,
                self.echo_server,
            )
        } else {
            let v = &mut self.extra_vantages[i - 1];
            (&mut self.sim, &mut v.controller, v.w, v.z, v.echo)
        }
    }
    /// Ground truth: the underlay's base Tor-class RTT between two relay
    /// nodes (what Ting is trying to estimate).
    pub fn true_rtt_ms(&mut self, a: NodeId, b: NodeId) -> f64 {
        self.sim
            .underlay_mut()
            .base_rtt_ms(a.index(), b.index(), TrafficClass::Tor)
    }

    /// The paper's ground-truth procedure: the minimum of `samples`
    /// ICMP pings between two nodes.
    pub fn ping_min_rtt_ms(&mut self, a: NodeId, b: NodeId, samples: usize) -> f64 {
        (0..samples)
            .map(|_| self.sim.ping_rtt_ms(a, b))
            .fold(f64::INFINITY, f64::min)
    }

    /// Crashes a relay at the current sim time — until `until`, or
    /// forever when `None`. Circuits through it fail to build until it
    /// is revived.
    pub fn crash_relay(&mut self, relay: NodeId, until: Option<SimTime>) {
        let now = self.sim.now();
        self.sim.fault_plan_mut().add_crash(relay, now, until);
        let obs = self.sim.obs();
        obs.inc("tor.relay.crashes");
        obs.event(obs::names::TOR_RELAY_CRASH, now.as_nanos(), || {
            vec![("node", Value::U64(u64::from(relay.0)))]
        });
    }

    /// Reboots a crashed relay: events reach it again immediately.
    pub fn revive_relay(&mut self, relay: NodeId) {
        self.sim.fault_plan_mut().clear_crashes(relay);
        let obs = self.sim.obs();
        obs.inc("tor.relay.revives");
        obs.event(
            obs::names::TOR_RELAY_REVIVE,
            self.sim.now().as_nanos(),
            || vec![("node", Value::U64(u64::from(relay.0)))],
        );
    }

    /// Applies `interval_hours` of relay churn: each currently-up relay
    /// departs with probability `daily_departure_rate · interval/24h`,
    /// crashing at the current sim time.
    /// Departure draws come from a keyed hash over `(seed, relay
    /// index)`, never the simulation RNG. Returns the departed relays.
    ///
    /// Nothing routes around a departed relay: a scanner keeps building
    /// circuits through it, and they fail, until the scanner's health
    /// model stops picking it.
    pub fn churn_step(
        &mut self,
        daily_departure_rate: f64,
        interval_hours: f64,
        seed: u64,
    ) -> Vec<NodeId> {
        let p = (daily_departure_rate * interval_hours / 24.0).clamp(0.0, 1.0);
        let now = self.sim.now();
        let departed: Vec<NodeId> = self
            .relays
            .iter()
            .enumerate()
            .filter(|(i, &node)| {
                !self.sim.fault_plan().node_down(node, now) && keyed_u01(seed, *i as u64) < p
            })
            .map(|(_, &node)| node)
            .collect();
        for &node in &departed {
            self.sim.fault_plan_mut().add_crash(node, now, None);
        }
        let obs = self.sim.obs();
        obs.add("tor.churn.departures", departed.len() as u64);
        if obs.is_tracing() {
            for &node in &departed {
                obs.event(obs::names::TOR_CHURN_DEPARTED, now.as_nanos(), || {
                    vec![("node", Value::U64(u64::from(node.0)))]
                });
            }
        }
        departed
    }

    /// Publishes the running tally, as the real network's hourly
    /// consensus would: how many relays are up now goes into the
    /// `tor.consensus.running` gauge (and, when tracing, a
    /// `tor.consensus.refresh` event). Nothing routes by it.
    pub fn refresh_consensus(&mut self) {
        let now = self.sim.now();
        let fault_plan = self.sim.fault_plan();
        let running = self
            .relays
            .iter()
            .filter(|&&node| !fault_plan.node_down(node, now))
            .count() as u64;
        let obs = self.sim.obs();
        obs.inc("tor.consensus.refreshes");
        obs.set_gauge("tor.consensus.running", running as i64);
        obs.event(obs::names::TOR_CONSENSUS_REFRESH, now.as_nanos(), || {
            vec![
                ("running", Value::U64(running)),
                ("relays", Value::U64(self.relays.len() as u64)),
            ]
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CircuitStatus, StreamStatus};

    #[test]
    fn testbed_builds_31_relays() {
        let net = TorNetworkBuilder::testbed(7).build();
        assert_eq!(net.relays.len(), 31);
    }

    #[test]
    fn live_network_builds_with_requested_size() {
        let net = TorNetworkBuilder::live(7, 80).build();
        assert_eq!(net.relays.len(), 80);
        // Live relays share ASes: far fewer ASes than relays.
        let ases: std::collections::HashSet<_> = net
            .relays
            .iter()
            .map(|r| net.sim.underlay().node(r.index()).as_id)
            .collect();
        assert!(ases.len() < 80);
    }

    #[test]
    fn explicit_four_hop_circuit_builds_and_echoes() {
        let mut net = TorNetworkBuilder::testbed(42).build();
        let (x, y) = (net.relays[3], net.relays[17]);
        let path = vec![net.local_w, x, y, net.local_z];
        let circuit = net.controller.build_circuit(&mut net.sim, path);
        net.sim.run_until_idle();
        assert_eq!(net.controller.circuit_status(circuit), CircuitStatus::Ready);

        let echo = net.echo_server;
        let stream = net.controller.open_stream(&mut net.sim, circuit, echo);
        net.sim.run_until_idle();
        assert_eq!(net.controller.stream_status(stream), StreamStatus::Open);

        let rtt = net
            .controller
            .echo_roundtrip_ms(&mut net.sim, stream, b"ting".to_vec())
            .expect("echo returns");
        // Sanity: RTT must exceed the sum of the two relay hops' ground
        // truth and stay well below a second.
        let floor = net.true_rtt_ms(x, y);
        assert!(rtt > floor, "rtt {rtt} vs floor {floor}");
        assert!(rtt < 1500.0, "rtt {rtt}");
        net.controller.close_circuit(&mut net.sim, circuit);
        net.sim.run_until_idle();
    }

    #[test]
    fn two_hop_circuit_works() {
        // C_x = (w, x): the isolation circuit of Fig. 2(b).
        let mut net = TorNetworkBuilder::testbed(43).build();
        let x = net.relays[5];
        let circuit = net
            .controller
            .build_and_wait(&mut net.sim, vec![net.local_w, x])
            .expect("2-hop circuit");
        let stream = net
            .controller
            .open_stream_and_wait(&mut net.sim, circuit, net.echo_server)
            .expect("stream");
        let rtt = net
            .controller
            .echo_roundtrip_ms(&mut net.sim, stream, vec![0u8; 8])
            .expect("echo");
        assert!(rtt > 0.0 && rtt < 1000.0, "rtt {rtt}");
    }

    #[test]
    fn one_hop_circuit_rejected() {
        let mut net = TorNetworkBuilder::testbed(44).build();
        let x = net.relays[0];
        let c = net.controller.build_circuit(&mut net.sim, vec![x]);
        net.sim.run_until_idle();
        assert_eq!(net.controller.circuit_status(c), CircuitStatus::Failed);
    }

    #[test]
    fn repeated_relay_rejected() {
        let mut net = TorNetworkBuilder::testbed(45).build();
        let x = net.relays[0];
        let c = net
            .controller
            .build_circuit(&mut net.sim, vec![net.local_w, x, net.local_w]);
        net.sim.run_until_idle();
        assert_eq!(net.controller.circuit_status(c), CircuitStatus::Failed);
    }

    #[test]
    fn metrics_track_circuit_lifecycle() {
        let mut net = TorNetworkBuilder::testbed(47).build();
        let (x, y) = (net.relays[2], net.relays[9]);
        let x_metrics = net.relay_metrics[2].clone();
        let before = x_metrics.snapshot();
        assert_eq!(before.circuits_created, 0);

        let c = net
            .controller
            .build_and_wait(&mut net.sim, vec![net.local_w, x, y, net.local_z])
            .unwrap();
        let mid = x_metrics.snapshot();
        assert_eq!(mid.circuits_created, 1);
        assert_eq!(mid.circuits_destroyed, 0);
        // x forwarded the later handshake cells toward y/z.
        assert!(mid.cells_forwarded >= 1);

        let s = net
            .controller
            .open_stream_and_wait(&mut net.sim, c, net.echo_server)
            .unwrap();
        for _ in 0..5 {
            net.controller
                .echo_roundtrip_ms(&mut net.sim, s, vec![1])
                .unwrap();
        }
        let after_echo = x_metrics.snapshot();
        assert!(after_echo.cells_forwarded >= mid.cells_forwarded + 5);

        net.controller.close_circuit(&mut net.sim, c);
        net.sim.run_until_idle();
        let end = x_metrics.snapshot();
        assert_eq!(end.circuits_destroyed, 1);
        assert_eq!(end.circuits_created, end.circuits_destroyed);
        // The exit z opened exactly one stream.
        let z = net.z_metrics.snapshot();
        assert_eq!(z.streams_opened, 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut net = TorNetworkBuilder::testbed(99).build();
            let (x, y) = (net.relays[1], net.relays[2]);
            let c = net
                .controller
                .build_and_wait(&mut net.sim, vec![net.local_w, x, y, net.local_z])
                .unwrap();
            let s = net
                .controller
                .open_stream_and_wait(&mut net.sim, c, net.echo_server)
                .unwrap();
            net.controller
                .echo_roundtrip_ms(&mut net.sim, s, vec![1])
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disabled_fault_profile_is_bit_identical() {
        let run = |faulty: bool| {
            let mut b = TorNetworkBuilder::testbed(99);
            if faulty {
                b = b
                    .fault_plan(FaultPlan::new(1)) // all rates zero
                    .relay_faults(RelayFaultProfile {
                        seed: 7,
                        ..RelayFaultProfile::disabled()
                    });
            }
            let mut net = b.build();
            let (x, y) = (net.relays[1], net.relays[2]);
            let c = net
                .controller
                .build_and_wait(&mut net.sim, vec![net.local_w, x, y, net.local_z])
                .unwrap();
            let s = net
                .controller
                .open_stream_and_wait(&mut net.sim, c, net.echo_server)
                .unwrap();
            net.controller
                .echo_roundtrip_ms(&mut net.sim, s, vec![1])
                .unwrap()
        };
        assert_eq!(run(false).to_bits(), run(true).to_bits());
    }

    #[test]
    fn extend_refusal_fails_circuit_and_counts() {
        let mut net = TorNetworkBuilder::testbed(50)
            .relay_faults(RelayFaultProfile {
                extend_refuse_prob: 1.0,
                seed: 3,
                ..RelayFaultProfile::disabled()
            })
            .build();
        let (x, y) = (net.relays[4], net.relays[8]);
        // w → x extends fine (w is fault-free), but x refuses to extend
        // to y, so the 4-hop circuit must fail.
        let built = net
            .controller
            .build_and_wait(&mut net.sim, vec![net.local_w, x, y, net.local_z]);
        assert!(built.is_none(), "circuit built through refusing relay");
        assert!(net.relay_metrics[4].snapshot().extends_refused >= 1);
    }

    /// Whether `relay` is reachable right now: the fault plan's ground
    /// truth.
    fn up(net: &TorNetwork, relay: NodeId) -> bool {
        !net.sim.fault_plan().node_down(relay, net.sim.now())
    }

    /// The `tor.consensus.running` gauge, as the last refresh left it.
    fn running_gauge(net: &TorNetwork) -> Option<i64> {
        let meta = obs::ExportMeta {
            seed: 0,
            config_hash: 0,
        };
        let doc = net.sim.obs().document(&meta);
        let gauge = doc
            .gauges
            .iter()
            .find(|(name, _)| name == "tor.consensus.running");
        gauge.map(|&(_, value)| value)
    }

    #[test]
    fn crashed_relay_fails_circuits_until_revived() {
        let mut net = TorNetworkBuilder::testbed(51)
            .observability(Obs::new(obs::ObsConfig::Metrics))
            .build();
        let (x, y) = (net.relays[6], net.relays[12]);
        net.crash_relay(x, None);
        assert!(!up(&net, x));
        assert!(up(&net, y));
        assert!(net
            .controller
            .build_and_wait(&mut net.sim, vec![net.local_w, x, y, net.local_z])
            .is_none());

        assert_eq!(running_gauge(&net), None, "published before a refresh");
        net.refresh_consensus();
        assert_eq!(running_gauge(&net), Some(30));

        net.revive_relay(x);
        assert!(up(&net, x));
        assert_eq!(running_gauge(&net), Some(30), "tally moves on refresh only");
        net.refresh_consensus();
        assert_eq!(running_gauge(&net), Some(31));
        assert!(net
            .controller
            .build_and_wait(&mut net.sim, vec![net.local_w, x, y, net.local_z])
            .is_some());
    }

    #[test]
    fn churn_departures_are_deterministic_and_counted_on_refresh() {
        let run = || {
            let mut net = TorNetworkBuilder::testbed(52).build();
            // A huge interval so some relays certainly depart.
            net.churn_step(0.02, 24.0 * 20.0, 77)
        };
        let departed = run();
        assert_eq!(departed, run());
        assert!(!departed.is_empty(), "no churn in 20 simulated days");

        let mut net = TorNetworkBuilder::testbed(52)
            .observability(Obs::new(obs::ObsConfig::Metrics))
            .build();
        let gone = net.churn_step(0.02, 24.0 * 20.0, 77);
        for &node in &net.relays {
            assert_eq!(up(&net, node), !gone.contains(&node));
        }
        net.refresh_consensus();
        let up = net.relays.len() - gone.len();
        assert_eq!(running_gauge(&net), Some(up as i64));
    }

    #[test]
    fn echo_rtts_bounded_below_by_circuit_ground_truth() {
        let mut net = TorNetworkBuilder::testbed(46).build();
        let (x, y) = (net.relays[10], net.relays[20]);
        let c = net
            .controller
            .build_and_wait(&mut net.sim, vec![net.local_w, x, y, net.local_z])
            .unwrap();
        let s = net
            .controller
            .open_stream_and_wait(&mut net.sim, c, net.echo_server)
            .unwrap();
        // Lower bound: every link's base latency, no forwarding delays.
        let u = net.sim.underlay_mut();
        let floor = u.base_rtt_ms(net.proxy.index(), net.local_w.index(), TrafficClass::Tor)
            + u.base_rtt_ms(net.local_w.index(), x.index(), TrafficClass::Tor)
            + u.base_rtt_ms(x.index(), y.index(), TrafficClass::Tor)
            + u.base_rtt_ms(y.index(), net.local_z.index(), TrafficClass::Tor)
            + u.base_rtt_ms(
                net.local_z.index(),
                net.echo_server.index(),
                TrafficClass::Tcp,
            );
        for _ in 0..5 {
            let rtt = net
                .controller
                .echo_roundtrip_ms(&mut net.sim, s, vec![7; 4])
                .unwrap();
            assert!(rtt >= floor, "rtt {rtt} below floor {floor}");
        }
    }
}
