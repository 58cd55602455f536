//! A King-style estimator — the technique Ting supersedes (§2, §5.3).
//!
//! King (Gummadi et al., IMW 2002) estimated the latency between two
//! arbitrary hosts by measuring between *recursive DNS servers near
//! them*. Its two famous limitations, both reproduced here:
//!
//! 1. **Proxy error.** "Ting has an advantage in accuracy in that the
//!    Tor node representing a prefix is a member of that prefix, rather
//!    than an authoritative name server that may be much better
//!    connected" (§5.3) — King's Fig. 5 shows a distribution "skewed to
//!    the left of x = 1" (§4.2). We model a target's name server as a
//!    well-connected box at the target AS's hub: the last mile (large
//!    for residential relays) vanishes from the estimate, producing
//!    exactly that underestimate skew.
//! 2. **Vanishing applicability.** King needs the name server to accept
//!    recursive queries from strangers; the paper re-measured support
//!    at ~3%, down from 72–79% in 2002. [`king_measure`]'s
//!    `ns_availability` models this: most measurement attempts simply
//!    fail today.

use netsim::{NodeId, TrafficClass, Underlay};
use netsim::{LOOPBACK_MS, PATH_FLOOR_MS};
use rand::Rng;

/// One-way last-mile delay of a name server (ms) — datacenter-ish,
/// regardless of what the measured host's own access looks like.
const NS_ACCESS_MS: f64 = 0.3;
/// Probe samples (King also min-filters).
const SAMPLES: usize = 20;

/// One King measurement attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KingOutcome {
    /// Estimated RTT between the name servers near x and y (ms).
    Estimate(f64),
    /// A required name server refuses recursive queries.
    NsUnavailable,
}

/// Attempts a King measurement of the pair `(x, y)`, where
/// `ns_availability` is the probability that a target's name server
/// still answers recursive queries (2002: ~0.75; 2015 per the paper:
/// ~0.03).
///
/// The estimate is the minimum of 20 probe RTTs between the two
/// hub-located name servers, using ICMP-class treatment (DNS/UDP shares
/// the non-TCP policy path in this model).
pub fn king_measure<R: Rng + ?Sized>(
    underlay: &mut Underlay,
    x: NodeId,
    y: NodeId,
    ns_availability: f64,
    now: netsim::SimTime,
    rng: &mut R,
) -> KingOutcome {
    // King needs at least one cooperative recursive NS; require it on
    // the x side (as the original technique did) and availability on y
    // for the authoritative step.
    if !rng.gen_bool(ns_availability) {
        return KingOutcome::NsUnavailable;
    }
    let ax = underlay.node(x.index()).as_id;
    let ay = underlay.node(y.index()).as_id;
    let mut min = f64::INFINITY;
    for _ in 0..SAMPLES {
        min = min.min(ns_rtt_sample_ms(underlay, ax, ay, now, rng));
    }
    KingOutcome::Estimate(min)
}

/// One probe RTT between the name servers at two AS hubs.
fn ns_rtt_sample_ms<R: Rng + ?Sized>(
    underlay: &mut Underlay,
    ax: netsim::AsId,
    ay: netsim::AsId,
    now: netsim::SimTime,
    rng: &mut R,
) -> f64 {
    if ax == ay {
        // Same provider: both name servers in one rack.
        return LOOPBACK_MS * 2.0 + 2.0 * NS_ACCESS_MS;
    }
    let hub_a = underlay.as_profile(ax).hub;
    let hub_b = underlay.as_profile(ay).hub;
    let (inflation, peering) = underlay.route_properties(ax, ay);
    let policy = underlay.as_profile(ax).policy.extra_ms(TrafficClass::Icmp) / 2.0
        + underlay.as_profile(ay).policy.extra_ms(TrafficClass::Icmp) / 2.0;
    let base_owd = PATH_FLOOR_MS
        + 2.0 * NS_ACCESS_MS
        + geo::great_circle_km(hub_a, hub_b) * inflation / geo::FIBER_KM_PER_MS
        + peering
        + policy;
    // Jitter, same shape as host paths.
    let jitter = |rng: &mut R, underlay: &Underlay| {
        let a = underlay.as_profile(ax);
        let b = underlay.as_profile(ay);
        let mean = (a.jitter_mean_ms + b.jitter_mean_ms) / 2.0
            * (a.load_factor(now) + b.load_factor(now))
            / 2.0;
        -rng.gen_range(1e-12..1.0f64).ln() * mean
    };
    2.0 * base_owd + jitter(rng, underlay) + jitter(rng, underlay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tor_sim::TorNetworkBuilder;

    #[test]
    fn king_underestimates_residential_pairs() {
        // The §4.2/§5.3 skew: for hosts with real last-mile delay, the
        // NS-to-NS estimate misses the access legs → estimate < truth.
        let mut net = TorNetworkBuilder::live(3001, 60).build();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ratios = Vec::new();
        for k in 0..20 {
            let (x, y) = (net.relays[k], net.relays[k + 25]);
            let truth = net.true_rtt_ms(x, y);
            let now = net.sim.now();
            match king_measure(net.sim.underlay_mut(), x, y, 1.0, now, &mut rng) {
                KingOutcome::Estimate(e) => ratios.push(e / truth),
                KingOutcome::NsUnavailable => unreachable!(),
            }
        }
        let median = stats::median(&ratios).unwrap();
        assert!(median < 1.0, "King not skewed left: median ratio {median}");
        assert!(median > 0.5, "King too wrong: median ratio {median}");
    }

    #[test]
    fn king_2015_mostly_fails() {
        let mut net = TorNetworkBuilder::live(3002, 30).build();
        let mut rng = SmallRng::seed_from_u64(2);
        // King as (barely) deployable at the paper's writing: 3% of name
        // servers answer.
        let now = net.sim.now();
        let failures = (0..200)
            .filter(|&i| {
                let (x, y) = (net.relays[i % 30], net.relays[(i + 7) % 30]);
                matches!(
                    king_measure(net.sim.underlay_mut(), x, y, 0.03, now, &mut rng),
                    KingOutcome::NsUnavailable
                )
            })
            .count();
        // ~97% of attempts should fail.
        assert!(failures > 180, "only {failures}/200 failed");
    }

    #[test]
    fn same_as_pairs_estimate_near_zero() {
        let mut net = TorNetworkBuilder::live(3003, 40).build();
        // Find two relays in one AS.
        let mut by_as = std::collections::HashMap::new();
        for &r in &net.relays.clone() {
            let a = net.sim.underlay().node(r.index()).as_id;
            by_as.entry(a).or_insert_with(Vec::new).push(r);
        }
        let Some(pair) = by_as.values().find(|v| v.len() >= 2) else {
            return; // extremely unlikely with 40 relays
        };
        let (x, y) = (pair[0], pair[1]);
        let mut rng = SmallRng::seed_from_u64(3);
        let now = net.sim.now();
        match king_measure(net.sim.underlay_mut(), x, y, 1.0, now, &mut rng) {
            KingOutcome::Estimate(e) => assert!(e < 2.0, "same-AS estimate {e}"),
            KingOutcome::NsUnavailable => unreachable!(),
        }
    }
}
