//! The controller: a Stem-equivalent programmatic interface.
//!
//! §3.1: "we make use of Stem, a Tor controller that provides a clean
//! programmatic interface for both constructing Tor circuits and
//! attaching TCP connections to them." [`Controller`] is that interface
//! for the simulated proxy: build an explicit circuit, attach a stream,
//! send data, read echoes with their arrival timestamps, tear down.
//!
//! Mechanically it shares one state cell with the [`OnionProxy`]
//! process — the command queue and a record per handle — and pokes the
//! simulator's wake timer so commands are executed at the current
//! virtual instant.
//!
//! A handle lives until its owner closes it: [`Controller::close_stream`]
//! and [`Controller::close_circuit`] (which also closes the streams
//! still attached through the circuit) make the proxy forget the handle,
//! so a campaign of any length holds state for its open circuits only.
//! A forgotten handle answers like one never minted: a circuit is
//! [`CircuitStatus::Failed`] with no [`Controller::circuit_error`], a
//! stream is [`StreamStatus::Closed`] with nothing received, and a send
//! or a second close on it does nothing.

use crate::client::{CircuitEntry, Command, OnionProxy, ProxyState, StreamEntry};
use crate::client::{CircuitStatus, PolicyError, StreamStatus};
use netsim::{NodeId, SimTime, Simulator};
use onion_crypto::PublicKey;
use std::cell::RefCell;
use std::rc::Rc;

/// Opaque handle to a circuit managed through a [`Controller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitHandle(pub u64);

/// Opaque handle to a stream attached to a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle(pub u64);

/// Controller for one onion proxy.
pub struct Controller {
    shared: Rc<RefCell<ProxyState>>,
    proxy_node: NodeId,
    next_handle: u64,
}

impl Controller {
    /// Creates the proxy process + controller pair. The caller attaches
    /// the returned process to the proxy's node. `identities` holds each
    /// relay's identity key at its [`NodeId::index`].
    pub(crate) fn create(
        proxy_node: NodeId,
        identities: Rc<[Option<PublicKey>]>,
    ) -> (Controller, OnionProxy) {
        let shared = Rc::new(RefCell::new(ProxyState::new(identities)));
        let proxy = OnionProxy(shared.clone());
        (
            Controller {
                shared,
                proxy_node,
                next_handle: 1,
            },
            proxy,
        )
    }

    fn enqueue(&mut self, sim: &mut Simulator, cmd: Command) {
        self.shared.borrow_mut().commands.push_back(cmd);
        sim.wake(self.proxy_node);
    }

    /// Requests construction of an explicit circuit through `path`
    /// (first element = entry). Returns immediately; run the simulator
    /// and poll [`Controller::circuit_status`].
    pub fn build_circuit(&mut self, sim: &mut Simulator, path: Vec<NodeId>) -> CircuitHandle {
        let handle = self.next_handle;
        self.next_handle += 1;
        let entry = CircuitEntry {
            status: CircuitStatus::Building,
            error: None,
            onion: None,
        };
        self.shared.borrow_mut().circuits.insert(handle, entry);
        self.enqueue(sim, Command::BuildCircuit { handle, path });
        CircuitHandle(handle)
    }

    /// Current status of a circuit ([`CircuitStatus::Failed`] once the
    /// handle is closed).
    pub fn circuit_status(&self, circuit: CircuitHandle) -> CircuitStatus {
        self.shared.borrow().circuit_status(circuit.0)
    }

    /// The local policy error that failed a circuit, if any.
    pub fn circuit_error(&self, circuit: CircuitHandle) -> Option<PolicyError> {
        let shared = self.shared.borrow();
        shared.circuits.get(&circuit.0)?.error.clone()
    }

    /// Attaches a stream through `circuit` to `target` (exits from the
    /// circuit's last relay).
    pub fn open_stream(
        &mut self,
        sim: &mut Simulator,
        circuit: CircuitHandle,
        target: NodeId,
    ) -> StreamHandle {
        let handle = self.next_handle;
        self.next_handle += 1;
        let entry = StreamEntry {
            status: StreamStatus::Connecting,
            received: Vec::new(),
            on: None,
        };
        self.shared.borrow_mut().streams.insert(handle, entry);
        self.enqueue(
            sim,
            Command::OpenStream {
                handle,
                circuit: circuit.0,
                target,
            },
        );
        StreamHandle(handle)
    }

    /// Current status of a stream ([`StreamStatus::Closed`] once the
    /// handle, or its circuit's, is closed).
    pub fn stream_status(&self, stream: StreamHandle) -> StreamStatus {
        let shared = self.shared.borrow();
        let entry = shared.streams.get(&stream.0);
        entry.map_or(StreamStatus::Closed, |e| e.status)
    }

    /// Sends application bytes on a stream.
    pub fn send(&mut self, sim: &mut Simulator, stream: StreamHandle, data: Vec<u8>) {
        self.enqueue(
            sim,
            Command::SendData {
                stream: stream.0,
                data,
            },
        );
    }

    /// Drains bytes received on a stream: `(arrival time, data)` pairs
    /// in arrival order.
    pub fn take_received(&mut self, stream: StreamHandle) -> Vec<(SimTime, Vec<u8>)> {
        let mut shared = self.shared.borrow_mut();
        let entry = shared.streams.get_mut(&stream.0);
        entry.map_or_else(Vec::new, |e| std::mem::take(&mut e.received))
    }

    /// Closes a stream (END toward the exit).
    pub fn close_stream(&mut self, sim: &mut Simulator, stream: StreamHandle) {
        self.enqueue(sim, Command::CloseStream { stream: stream.0 });
    }

    /// Tears down a circuit (DESTROY along the path).
    pub fn close_circuit(&mut self, sim: &mut Simulator, circuit: CircuitHandle) {
        self.enqueue(sim, Command::CloseCircuit { circuit: circuit.0 });
    }

    /// Whether the proxy has handled an event since the last call. Until
    /// it has, no status, error or received byte this controller reports
    /// has changed except by the controller's own calls — the signal a
    /// driver of many proxies uses to skip asking again.
    pub fn take_touched(&mut self) -> bool {
        std::mem::take(&mut self.shared.borrow_mut().touched)
    }

    /// Convenience: builds a circuit and runs the simulator until the
    /// build settles. Returns the handle when the circuit is ready.
    pub fn build_and_wait(
        &mut self,
        sim: &mut Simulator,
        path: Vec<NodeId>,
    ) -> Option<CircuitHandle> {
        let h = self.build_circuit(sim, path);
        sim.run_until_idle();
        match self.circuit_status(h) {
            CircuitStatus::Ready => Some(h),
            _ => None,
        }
    }

    /// Convenience: attaches a stream and waits for CONNECTED.
    pub fn open_stream_and_wait(
        &mut self,
        sim: &mut Simulator,
        circuit: CircuitHandle,
        target: NodeId,
    ) -> Option<StreamHandle> {
        let s = self.open_stream(sim, circuit, target);
        sim.run_until_idle();
        match self.stream_status(s) {
            StreamStatus::Open => Some(s),
            _ => None,
        }
    }

    /// Convenience: one application-layer echo round trip. Sends `data`,
    /// runs until quiescent, and returns the RTT in milliseconds (send
    /// instant → arrival of the echoed copy), or `None` if no echo came
    /// back.
    pub fn echo_roundtrip_ms(
        &mut self,
        sim: &mut Simulator,
        stream: StreamHandle,
        data: Vec<u8>,
    ) -> Option<f64> {
        let sent_at = sim.now();
        self.send(sim, stream, data);
        sim.run_until_idle();
        let received = self.take_received(stream);
        let (arrival, _) = received.into_iter().next_back()?;
        Some((arrival - sent_at).as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use crate::client::{CircuitStatus, PolicyError, StreamStatus};
    use crate::network::{TorNetwork, TorNetworkBuilder};
    use crate::relay::RelayFaultProfile;
    use netsim::{NodeId, SimDuration, SimTime};
    use obs::{ExportMeta, Obs, ObsConfig};
    use std::collections::BTreeSet;

    /// Every table that holds one entry per connection, circuit or
    /// handle: the simulator's connections; the relays' link tables,
    /// circuits, exit indexes and exit streams; the proxy's link table,
    /// command queue, circuit index and two handle tables.
    fn table_sizes(net: &TorNetwork) -> [usize; 10] {
        let locals = [&net.w_metrics, &net.z_metrics];
        let mut relays = [0; 4];
        for m in net.relay_metrics.iter().chain(locals) {
            let [circuits, exits, streams] = m.circuit_entries().get();
            let sizes = [m.link_entries().get(), circuits, exits, streams];
            relays.iter_mut().zip(sizes).for_each(|(sum, n)| *sum += n);
        }
        let proxy = net.controller.shared.borrow();
        let [links, circuits, exits, streams] = relays;
        [
            net.sim.open_conn_count(),
            links,
            circuits,
            exits,
            streams,
            proxy.links.len(),
            proxy.commands.len(),
            proxy.circuits.len(),
            proxy.circ_index.len(),
            proxy.streams.len(),
        ]
    }

    /// Bounded memory: runs `round` `rounds` times and checks that it
    /// leaves every table at its size after the first — a campaign
    /// holds state for its open circuits and its links, not for every
    /// connection and handle it ever had — and no handle behind.
    fn bounded_rounds(
        mut net: TorNetwork,
        rounds: usize,
        mut round: impl FnMut(&mut TorNetwork, usize),
    ) {
        let mut after_first = None;
        for i in 0..rounds {
            round(&mut net, i);
            let sizes = table_sizes(&net);
            assert_eq!(*after_first.get_or_insert(sizes), sizes, "after round {i}");
        }
        // Closed handles answer like handles never minted.
        assert_eq!(after_first.map(|s| s[6..].to_vec()), Some(vec![0; 4]));
    }

    /// One pair is what Ting measures it with — `C_xy`, `C_x`, `C_y`, an
    /// echo stream through each, everything closed after use — plus a
    /// circuit the path policy refuses.
    #[test]
    fn two_hundred_pairs_leave_every_table_at_its_size_after_the_first() {
        let net = TorNetworkBuilder::testbed(48).build();
        let (w, z, echo) = (net.local_w, net.local_z, net.echo_server);
        let (x, y) = (net.relays[4], net.relays[11]);
        bounded_rounds(net, 200, |net, _| {
            for path in [vec![w, x, y, z], vec![w, x], vec![w, y], vec![x]] {
                let (ctl, sim) = (&mut net.controller, &mut net.sim);
                let circuit = ctl.build_circuit(sim, path);
                sim.run_until_idle();
                if ctl.circuit_status(circuit) == CircuitStatus::Ready {
                    let stream = ctl
                        .open_stream_and_wait(sim, circuit, echo)
                        .expect("stream");
                    ctl.echo_roundtrip_ms(sim, stream, vec![7; 8])
                        .expect("echo");
                    ctl.close_stream(sim, stream);
                } else {
                    assert!(ctl.circuit_error(circuit).is_some(), "only policy refuses");
                }
                ctl.close_circuit(sim, circuit);
                sim.run_until_idle();
            }
        });
    }

    /// The same on the fault paths: a relay down while a circuit builds
    /// through it — in the middle, or as the first hop — and back up
    /// for the next, a circuit closed while `Building`, a stream closed
    /// while `Connecting`. Round 0 finds no link to the crashed relay,
    /// so the connect is blackholed and the link dies; later rounds
    /// find an established one, and the CREATE2 just vanishes.
    #[test]
    fn two_hundred_faulted_rounds_leave_every_table_at_its_size_after_the_first() {
        let net = TorNetworkBuilder::testbed(48).build();
        let (w, z, echo) = (net.local_w, net.local_z, net.echo_server);
        let (x, y) = (net.relays[4], net.relays[11]);
        bounded_rounds(net, 200, |net, i| {
            for (down, path) in [(y, vec![w, x, y, z]), (x, vec![x, y])] {
                net.crash_relay(down, None);
                let (ctl, sim) = (&mut net.controller, &mut net.sim);
                let circuit = ctl.build_circuit(sim, path.clone());
                sim.run_until_idle();
                let expected = [CircuitStatus::Failed, CircuitStatus::Building][i.min(1)];
                assert_eq!(ctl.circuit_status(circuit), expected, "{down:?} down");
                ctl.close_circuit(sim, circuit);
                sim.run_until_idle();
                net.revive_relay(down);
                let (ctl, sim) = (&mut net.controller, &mut net.sim);
                let circuit = ctl.build_and_wait(sim, path).expect("relay is back");
                ctl.close_circuit(sim, circuit);
                sim.run_until_idle();
            }
            let (ctl, sim) = (&mut net.controller, &mut net.sim);
            let circuit = ctl.build_circuit(sim, vec![w, x, y, z]);
            for _ in 0..20 {
                sim.step();
            }
            assert_eq!(ctl.circuit_status(circuit), CircuitStatus::Building);
            ctl.close_circuit(sim, circuit);
            sim.run_until_idle();

            let circuit = ctl.build_and_wait(sim, vec![w, x]).expect("circuit");
            let stream = ctl.open_stream(sim, circuit, echo);
            ctl.close_stream(sim, stream);
            sim.run_until_idle();
            assert_eq!(ctl.stream_status(stream), StreamStatus::Closed);
            ctl.close_circuit(sim, circuit);
            sim.run_until_idle();
        });
    }

    /// And when the DESTROY comes from the exit side: every measurable
    /// relay refuses to extend, so `x` tears down toward `w`.
    #[test]
    fn two_hundred_refused_extends_leave_every_table_at_its_size_after_the_first() {
        let refusing = RelayFaultProfile {
            extend_refuse_prob: 1.0,
            ..RelayFaultProfile::disabled()
        };
        let net = TorNetworkBuilder::testbed(48)
            .relay_faults(refusing)
            .build();
        let path = vec![net.local_w, net.relays[4], net.relays[11]];
        bounded_rounds(net, 200, |net, _| {
            let (ctl, sim) = (&mut net.controller, &mut net.sim);
            let circuit = ctl.build_circuit(sim, path.clone());
            sim.run_until_idle();
            assert_eq!(ctl.circuit_status(circuit), CircuitStatus::Failed);
            ctl.close_circuit(sim, circuit);
            sim.run_until_idle();
        });
    }

    /// A first hop that is down fails the circuit instead of leaving it
    /// `Building` on an idle event queue, and once the relay is back the
    /// next circuit through it opens a fresh link.
    #[test]
    fn proxy_reopens_the_link_to_a_first_hop_that_was_down() {
        let first_hops: [fn(&TorNetwork) -> NodeId; 2] = [|net| net.relays[4], |net| net.local_w];
        for first_hop in first_hops {
            let mut net = TorNetworkBuilder::testbed(48).build();
            let path = vec![first_hop(&net), net.relays[11]];
            let minute = SimDuration::from_secs(60);
            net.crash_relay(path[0], Some(SimTime::ZERO + minute));
            let (ctl, sim) = (&mut net.controller, &mut net.sim);
            let circuit = ctl.build_circuit(sim, path.clone());
            sim.run_until_idle();
            assert_eq!(ctl.circuit_status(circuit), CircuitStatus::Failed);
            ctl.close_circuit(sim, circuit);
            sim.advance_to(SimTime::ZERO + minute + minute);
            assert!(!net.sim.fault_plan().node_down(path[0], net.sim.now()));
            let (ctl, sim) = (&mut net.controller, &mut net.sim);
            assert!(ctl.build_and_wait(sim, path).is_some(), "relay is back");
        }
    }

    /// A stream is attached to an open circuit only, as Tor attaches
    /// one: on a circuit still `Building` — no hop done yet, or one of
    /// four — it is `Closed` at once, its handle is forgotten, no relay
    /// opens an exit stream, and the circuit goes on to `Ready` and
    /// carries the next stream. (The first panicked the proxy on
    /// `crypto.len() - 1`; the second sent BEGIN to the middle relay
    /// `w`, which opened the exit stream itself.)
    #[test]
    fn a_stream_on_a_circuit_still_building_is_refused() {
        for hops_done in [0, 1] {
            let mut net = TorNetworkBuilder::testbed(48).build();
            let (w, z, echo) = (net.local_w, net.local_z, net.echo_server);
            let (x, y) = (net.relays[4], net.relays[11]);
            let circuit = net.controller.build_circuit(&mut net.sim, vec![w, x, y, z]);
            if hops_done == 1 {
                // `x` holds the circuit: the proxy has sent its EXTEND2
                // and not yet heard EXTENDED2 back.
                while net.relay_metrics[4].snapshot().circuits_created == 0 {
                    assert!(net.sim.step(), "the build stalled");
                }
            }
            let stream = net.controller.open_stream(&mut net.sim, circuit, echo);
            while !net.controller.shared.borrow().commands.is_empty() {
                net.sim.step();
            }
            let ctl = &net.controller;
            assert_eq!(ctl.circuit_status(circuit), CircuitStatus::Building);
            assert_eq!(ctl.stream_status(stream), StreamStatus::Closed);
            assert!(net.controller.shared.borrow().streams.is_empty());
            net.sim.run_until_idle();
            let (ctl, sim) = (&mut net.controller, &mut net.sim);
            assert_eq!(ctl.circuit_status(circuit), CircuitStatus::Ready);
            let relays = net
                .relay_metrics
                .iter()
                .chain([&net.w_metrics, &net.z_metrics]);
            let exits: u64 = relays.map(|m| m.snapshot().streams_opened).sum();
            assert_eq!(exits, 0, "a relay opened an exit stream");
            let stream = ctl.open_stream_and_wait(sim, circuit, echo);
            assert!(stream.is_some(), "hops_done {hops_done}");
        }
    }

    /// A path through a node with no identity key is refused by name:
    /// the echo server (a node, not a relay), and a node past the end of
    /// the key table. A hop repeated is refused as repeated first.
    #[test]
    fn a_path_through_a_node_with_no_key_is_refused_as_unknown() {
        let mut net = TorNetworkBuilder::testbed(48).build();
        let (w, echo) = (net.local_w, net.echo_server);
        let refusals = [
            (vec![w, echo], PolicyError::UnknownRelay(echo)),
            (
                vec![w, NodeId(u32::MAX)],
                PolicyError::UnknownRelay(NodeId(u32::MAX)),
            ),
            (vec![echo, w, echo], PolicyError::RepeatedRelay),
        ];
        for (path, error) in refusals {
            let (ctl, sim) = (&mut net.controller, &mut net.sim);
            let circuit = ctl.build_circuit(sim, path);
            sim.run_until_idle();
            assert_eq!(ctl.circuit_status(circuit), CircuitStatus::Failed);
            assert_eq!(ctl.circuit_error(circuit), Some(error));
        }
    }

    /// Fifty attempts through a first hop that stays down cost the proxy
    /// what one does: the dead link goes, and its queued cells with it.
    #[test]
    fn fifty_builds_through_a_dead_first_hop_queue_nothing() {
        let mut net = TorNetworkBuilder::testbed(48).build();
        let path = vec![net.relays[4], net.relays[11]];
        net.crash_relay(path[0], None);
        bounded_rounds(net, 50, |net, _| {
            let (ctl, sim) = (&mut net.controller, &mut net.sim);
            let circuit = ctl.build_circuit(sim, path.clone());
            sim.run_until_idle();
            assert_eq!(ctl.circuit_status(circuit), CircuitStatus::Failed);
            ctl.close_circuit(sim, circuit);
            sim.run_until_idle();
        });
    }

    /// Same seed ⇒ same bytes when circuits share a dying link: three
    /// vantages each extend through `x` to a crashed `y`, so `x` fails
    /// three circuits at once when its connect to `y` times out, and the
    /// order of its DESTROYs decides the RNG draws behind each delay.
    /// `std` hash maps are seeded per instance, so one process shows a
    /// hash-order dependence (3! orders: 6 outcomes in 40 runs when the
    /// relay walked its hash maps). The outcome is pinned — final clock,
    /// export length and digest — to the order the relay promises: exit
    /// side first, each side in key order.
    #[test]
    fn forty_runs_of_three_lanes_through_one_dying_link_are_one_outcome() {
        let outcomes: BTreeSet<(SimTime, String)> = (0..40)
            .map(|_| {
                let obs = Obs::new(ObsConfig::Trace);
                let mut net = TorNetworkBuilder::testbed(48)
                    .vantages(3)
                    .observability(obs.clone())
                    .build();
                let (x, y) = (net.relays[4], net.relays[11]);
                net.crash_relay(y, None);
                for lane in 0..3 {
                    let (sim, ctl, w, _, _) = net.vantage_parts(lane);
                    ctl.build_circuit(sim, vec![w, x, y]);
                }
                net.sim.run_until_idle();
                let meta = ExportMeta {
                    seed: 48,
                    config_hash: 0,
                };
                (net.sim.now(), obs.export_jsonl(&meta))
            })
            .collect();
        assert_eq!(outcomes.len(), 1);
        let (clock, export) = outcomes.first().expect("one outcome");
        assert_eq!((clock.as_nanos(), export.len()), (3_061_907_267, 3_270));
        let digest = onion_crypto::sha256(export.as_bytes());
        assert_eq!(
            digest[..8],
            [0xfe, 0xab, 0x11, 0x82, 0x3a, 0x84, 0x57, 0xad]
        );
    }
}
