//! The §4.3 forwarding-delay measurement procedure.
//!
//! For a relay `x`:
//!
//! 1. measure `R_C1` through `C1 = (w, z)` (both local) and estimate
//!    `F_w = F_z = (R_C1 − R̃(s,w) − R̃(z,d)) / 2`, exploiting
//!    `R̃(w,z) ≈ 0` on the same host;
//! 2. measure `R_C2` through `C2 = (w, x, z)`;
//! 3. probe `R̃(w,x)` with ping (ICMP) or a TCP probe;
//! 4. `F_x = R_C2 − F_w − F_z − 2R̃(w,x) − 2R̃(s,w)`.
//!
//! On protocol-neutral networks this lands at the relay's 0–3 ms
//! processing floor; on networks that treat ICMP, TCP, and Tor traffic
//! differently the result is wildly wrong — often *negative* — which is
//! exactly the Fig. 5 anomaly Ting's pure-Tor design avoids.

use crate::orchestrator::{Ting, TingError};
use netsim::NodeId;
use tor_sim::TorNetwork;

/// Which probe tool plays the role of `ping`/`tcptraceroute`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeProtocol {
    Icmp,
    Tcp,
}

/// Result of the §4.3 procedure for one relay.
#[derive(Debug, Clone)]
pub struct ForwardingDelayMeasurement {
    /// Estimated local-relay forwarding delay `F_w = F_z` (ms).
    pub f_local_ms: f64,
    /// Estimated forwarding delay `F_x` (ms). Negative values reveal
    /// protocol-differential treatment on the relay's network.
    pub f_x_ms: f64,
}

/// Runs the procedure with `probe_samples` direct probes per leg.
pub fn measure_forwarding_delay(
    ting: &Ting,
    net: &mut TorNetwork,
    x: NodeId,
    protocol: ProbeProtocol,
    probe_samples: usize,
) -> Result<ForwardingDelayMeasurement, TingError> {
    let (w, z) = (net.local_w, net.local_z);
    let host = net.proxy;

    // Step 1–2: the local two-hop circuit.
    let c1 = ting.sample_circuit(net, vec![w, z])?;
    let probe_min = |net: &mut TorNetwork, a: NodeId, b: NodeId| -> f64 {
        (0..probe_samples)
            .map(|_| match protocol {
                ProbeProtocol::Icmp => net.sim.ping_rtt_ms(a, b),
                ProbeProtocol::Tcp => net.sim.tcp_rtt_ms(a, b),
            })
            .fold(f64::INFINITY, f64::min)
    };
    let r_sw = probe_min(net, host, w);
    let r_zd = probe_min(net, z, net.echo_server);
    let f_local_ms = (c1.min_ms() - r_sw - r_zd) / 2.0;

    // Step 5–7: the three-hop circuit through x.
    let c2 = ting.sample_circuit(net, vec![w, x, z])?;
    let r_wx = probe_min(net, w, x);
    let f_x_ms = c2.min_ms() - 2.0 * f_local_ms - 2.0 * r_wx - 2.0 * r_sw;

    Ok(ForwardingDelayMeasurement { f_local_ms, f_x_ms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::TingConfig;
    use netsim::ProtocolPolicy;
    use tor_sim::TorNetworkBuilder;

    fn ting() -> Ting {
        Ting::new(TingConfig::with_samples(40))
    }

    #[test]
    fn neutral_network_forwarding_delay_is_small_positive() {
        let mut net = TorNetworkBuilder::testbed(31).neutral_fraction(1.0).build();
        let x = net.relays[6];
        let m = measure_forwarding_delay(&ting(), &mut net, x, ProbeProtocol::Icmp, 50).unwrap();
        // §4.3: nearly 65% of nodes sit in 0–2 ms; allow a little slack
        // for residual queueing above the minimum.
        assert!(
            m.f_x_ms > -1.0 && m.f_x_ms < 6.0,
            "F_x = {} out of the expected neutral band",
            m.f_x_ms
        );
    }

    #[test]
    fn icmp_deprioritization_turns_forwarding_delay_negative() {
        let mut net = TorNetworkBuilder::testbed(32).neutral_fraction(1.0).build();
        let x = net.relays[9];
        let x_as = net.sim.underlay().node(x.index()).as_id;
        net.sim
            .underlay_mut()
            .set_policy(x_as, ProtocolPolicy::icmp_deprioritized(25.0));
        let m = measure_forwarding_delay(&ting(), &mut net, x, ProbeProtocol::Icmp, 50).unwrap();
        // ping overestimates R(w,x) by ~25 ms; F_x ≈ real F − 2·25.
        assert!(m.f_x_ms < -20.0, "F_x = {} not negative", m.f_x_ms);
    }

    #[test]
    fn tcp_shaping_inflates_forwarding_delay() {
        let mut net = TorNetworkBuilder::testbed(33).neutral_fraction(1.0).build();
        let x = net.relays[11];
        let x_as = net.sim.underlay().node(x.index()).as_id;
        // ICMP unaffected, Tor/TCP slowed: the Tor circuit's leg looks
        // long relative to ping → large positive F_x.
        net.sim
            .underlay_mut()
            .set_policy(x_as, ProtocolPolicy::tcp_shaped(15.0));
        let m = measure_forwarding_delay(&ting(), &mut net, x, ProbeProtocol::Icmp, 50).unwrap();
        assert!(m.f_x_ms > 15.0, "F_x = {} not inflated", m.f_x_ms);
    }

    #[test]
    fn tcp_probe_agrees_with_tor_under_tcp_shaping() {
        // When the network shapes all TCP alike, tcptraceroute-style
        // probes see the same path as Tor and the anomaly disappears.
        let mut net = TorNetworkBuilder::testbed(34).neutral_fraction(1.0).build();
        let x = net.relays[13];
        let x_as = net.sim.underlay().node(x.index()).as_id;
        net.sim
            .underlay_mut()
            .set_policy(x_as, ProtocolPolicy::tcp_shaped(15.0));
        let m = measure_forwarding_delay(&ting(), &mut net, x, ProbeProtocol::Tcp, 50).unwrap();
        assert!(
            m.f_x_ms > -1.0 && m.f_x_ms < 6.0,
            "F_x = {} should be nominal with TCP probes",
            m.f_x_ms
        );
    }

    #[test]
    fn local_forwarding_delay_is_tiny() {
        let mut net = TorNetworkBuilder::testbed(35).build();
        let x = net.relays[0];
        let m = measure_forwarding_delay(&ting(), &mut net, x, ProbeProtocol::Icmp, 50).unwrap();
        assert!(
            m.f_local_ms > 0.0 && m.f_local_ms < 3.0,
            "local F = {}",
            m.f_local_ms
        );
    }
}
