//! The §3.2 strawman estimator — kept as a baseline *because it fails*.
//!
//! The strawman builds the circuit through `(x, y)`, then subtracts
//! direct `ping` estimates of the client↔x and y↔client legs:
//!
//! ```text
//! R(x, y) ≈ R_C(s, d) − R̃(s, x) − R̃(y, d)
//! ```
//!
//! Two error sources make this untenable (and our underlay reproduces
//! both): ICMP and Tor traffic are treated differently by many networks,
//! and the subtraction ignores per-relay forwarding delays entirely.
//! `fig05_forwarding_delays` and the `headline_scalars` bench compare it
//! against Ting quantitatively.

use crate::orchestrator::{Ting, TingError};
use netsim::NodeId;
use tor_sim::TorNetwork;

/// A strawman measurement of one pair.
#[derive(Debug, Clone)]
pub struct StrawmanMeasurement {
    /// Minimum end-to-end RTT through the (w, x, y, z) circuit (ms).
    pub(crate) circuit_min_ms: f64,
    /// Minimum of the ICMP pings host → x (ms).
    pub(crate) ping_x_min_ms: f64,
    /// Minimum of the ICMP pings host → y (ms).
    pub(crate) ping_y_min_ms: f64,
}

impl StrawmanMeasurement {
    /// The strawman estimate: circuit minus pings.
    pub fn estimate_ms(&self) -> f64 {
        self.circuit_min_ms - self.ping_x_min_ms - self.ping_y_min_ms
    }
}

/// Runs the strawman: one Tor circuit measurement plus `ping_samples`
/// ICMP probes to each relay. Uses the same sampling policy as `ting`
/// for the circuit so the comparison is apples-to-apples.
pub fn strawman_measure(
    ting: &Ting,
    net: &mut TorNetwork,
    x: NodeId,
    y: NodeId,
    ping_samples: usize,
) -> Result<StrawmanMeasurement, TingError> {
    let (w, z) = (net.local_w, net.local_z);
    let circuit = ting.sample_circuit(net, vec![w, x, y, z])?;
    let host = net.proxy;
    let ping_x_min_ms = net.ping_min_rtt_ms(host, x, ping_samples);
    let ping_y_min_ms = net.ping_min_rtt_ms(host, y, ping_samples);
    Ok(StrawmanMeasurement {
        circuit_min_ms: circuit.min_ms(),
        ping_x_min_ms,
        ping_y_min_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::TingConfig;
    use netsim::ProtocolPolicy;
    use tor_sim::TorNetworkBuilder;

    #[test]
    fn strawman_roughly_works_on_neutral_networks() {
        // With every AS protocol-neutral, the strawman's only error is
        // the uncancelled forwarding delays.
        let mut net = TorNetworkBuilder::testbed(21).neutral_fraction(1.0).build();
        let (x, y) = (net.relays[1], net.relays[12]);
        let truth = net.true_rtt_ms(x, y);
        let ting = Ting::new(TingConfig::with_samples(30));
        let m = strawman_measure(&ting, &mut net, x, y, 30).unwrap();
        let err = (m.estimate_ms() - truth).abs();
        assert!(err < truth * 0.35 + 15.0, "err {err} truth {truth}");
    }

    #[test]
    fn strawman_breaks_under_icmp_discrimination() {
        // Give x's AS a large ICMP penalty: the strawman subtracts an
        // inflated ping and lands far below the truth — the §3.2 story.
        let mut net = TorNetworkBuilder::testbed(22).neutral_fraction(1.0).build();
        let (x, y) = (net.relays[3], net.relays[18]);
        let x_as = net.sim.underlay().node(x.index()).as_id;
        net.sim
            .underlay_mut()
            .set_policy(x_as, ProtocolPolicy::icmp_deprioritized(40.0));
        let truth = net.true_rtt_ms(x, y);
        let ting = Ting::new(TingConfig::with_samples(30));

        let strawman = strawman_measure(&ting, &mut net, x, y, 30).unwrap();
        let ting_m = ting.measure_pair(&mut net, x, y).unwrap();

        let strawman_err = (strawman.estimate_ms() - truth).abs();
        let ting_err = (ting_m.estimate_ms() - truth).abs();
        // Ting is unaffected by the ICMP policy; the strawman is off by
        // roughly the 40 ms penalty.
        assert!(
            strawman_err > ting_err + 20.0,
            "strawman {strawman_err} vs ting {ting_err}"
        );
    }
}
