//! Property tests for the Tor overlay: any valid explicit path builds a
//! working circuit whose echoes respect the underlay's physics.

use netsim::TrafficClass;
use proptest::prelude::*;
use tor_sim::{CircuitStatus, StreamStatus, TorNetworkBuilder};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any 2–5 hop path of distinct relays builds, attaches a stream,
    /// and echoes with an RTT bounded below by the sum of link bases.
    #[test]
    fn arbitrary_valid_paths_work(
        seed in 0u64..500,
        picks in prop::collection::vec(0usize..31, 1..4),
    ) {
        let mut net = TorNetworkBuilder::testbed(seed).build();
        // Build w, <distinct interior relays>, z.
        let mut interior: Vec<usize> = picks.clone();
        interior.dedup();
        let mut path = vec![net.local_w];
        let mut seen = std::collections::HashSet::new();
        for p in interior {
            if seen.insert(p) {
                path.push(net.relays[p]);
            }
        }
        path.push(net.local_z);

        let circuit = net.controller.build_circuit(&mut net.sim, path.clone());
        net.sim.run_until_idle();
        prop_assert_eq!(net.controller.circuit_status(circuit), CircuitStatus::Ready);

        let echo = net.echo_server;
        let stream = net.controller.open_stream(&mut net.sim, circuit, echo);
        net.sim.run_until_idle();
        prop_assert_eq!(net.controller.stream_status(stream), StreamStatus::Open);

        let rtt = net
            .controller
            .echo_roundtrip_ms(&mut net.sim, stream, vec![1, 2, 3])
            .expect("echo");
        // Physical floor: sum of base link RTTs along the path.
        let mut floor = 0.0;
        let hops: Vec<netsim::NodeId> =
            std::iter::once(net.proxy).chain(path.iter().copied()).collect();
        let u = net.sim.underlay_mut();
        for w in hops.windows(2) {
            floor += u.base_rtt_ms(w[0].index(), w[1].index(), TrafficClass::Tor);
        }
        floor += u.base_rtt_ms(
            net.local_z.index(),
            net.echo_server.index(),
            TrafficClass::Tcp,
        );
        prop_assert!(rtt >= floor - 1e-6, "rtt {rtt} below floor {floor}");
        prop_assert!(rtt < floor + 500.0, "rtt {rtt} implausibly above floor {floor}");

        net.controller.close_circuit(&mut net.sim, circuit);
        net.sim.run_until_idle();
    }

    /// The client's policy checks are total: no panic for any path, and
    /// invalid paths always fail rather than half-build.
    #[test]
    fn invalid_paths_fail_cleanly(
        seed in 0u64..200,
        raw in prop::collection::vec(0usize..40, 0..6),
    ) {
        let mut net = TorNetworkBuilder::testbed(seed).build();
        let path: Vec<netsim::NodeId> = raw
            .iter()
            .map(|&i| {
                if i < 31 {
                    net.relays[i]
                } else {
                    netsim::NodeId(5000 + i as u32) // unknown relay
                }
            })
            .collect();
        let has_dup = {
            let mut s = std::collections::HashSet::new();
            path.iter().any(|n| !s.insert(*n))
        };
        let invalid = path.len() < 2 || has_dup || raw.iter().any(|&i| i >= 31);
        let c = net.controller.build_circuit(&mut net.sim, path);
        net.sim.run_until_idle();
        let status = net.controller.circuit_status(c);
        if invalid {
            prop_assert_eq!(status, CircuitStatus::Failed);
        } else {
            prop_assert_eq!(status, CircuitStatus::Ready);
        }
    }
}
