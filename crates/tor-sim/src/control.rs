//! The controller: a Stem-equivalent programmatic interface.
//!
//! §3.1: "we make use of Stem, a Tor controller that provides a clean
//! programmatic interface for both constructing Tor circuits and
//! attaching TCP connections to them." [`Controller`] is that interface
//! for the simulated proxy: build an explicit circuit, attach a stream,
//! send data, read echoes with their arrival timestamps, tear down.
//!
//! Mechanically it shares a command queue with the [`OnionProxy`]
//! process and pokes the simulator's wake timer so commands are executed
//! at the current virtual instant.
//!
//! A handle lives until its owner closes it: [`Controller::close_stream`]
//! and [`Controller::close_circuit`] (which also closes the streams
//! still attached through the circuit) make the proxy forget the handle,
//! so a campaign of any length holds state for its open circuits only.
//! A forgotten handle answers like one never minted: a circuit is
//! [`CircuitStatus::Failed`] with no [`Controller::circuit_error`], a
//! stream is [`StreamStatus::Closed`] with nothing received, and a send
//! or a second close on it does nothing.

pub use crate::client::{CircuitStatus, PolicyError, StreamStatus};
use crate::client::{Command, OnionProxy, ProxyShared};
use netsim::{NodeId, SimTime, Simulator};
use onion_crypto::PublicKey;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Opaque handle to a circuit managed through a [`Controller`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitHandle(pub u64);

/// Opaque handle to a stream attached to a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle(pub u64);

/// Controller for one onion proxy.
pub struct Controller {
    shared: Rc<RefCell<ProxyShared>>,
    proxy_node: NodeId,
    next_handle: u64,
}

impl Controller {
    /// Creates the proxy process + controller pair. The caller attaches
    /// the returned process to the proxy's node.
    pub fn create(
        proxy_node: NodeId,
        identity_map: HashMap<NodeId, PublicKey>,
    ) -> (Controller, OnionProxy) {
        let shared = Rc::new(RefCell::new(ProxyShared::default()));
        let proxy = OnionProxy::new(shared.clone(), identity_map);
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
        self.shared
            .borrow_mut()
            .circuit_status
            .insert(handle, CircuitStatus::Building);
        self.enqueue(sim, Command::BuildCircuit { handle, path });
        CircuitHandle(handle)
    }

    /// Current status of a circuit ([`CircuitStatus::Failed`] once the
    /// handle is closed).
    pub fn circuit_status(&self, circuit: CircuitHandle) -> CircuitStatus {
        self.shared
            .borrow()
            .circuit_status
            .get(&circuit.0)
            .copied()
            .unwrap_or(CircuitStatus::Failed)
    }

    /// The local policy error that failed a circuit, if any.
    pub fn circuit_error(&self, circuit: CircuitHandle) -> Option<PolicyError> {
        self.shared.borrow().circuit_errors.get(&circuit.0).cloned()
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
        self.shared
            .borrow_mut()
            .stream_status
            .insert(handle, StreamStatus::Connecting);
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
        self.shared
            .borrow()
            .stream_status
            .get(&stream.0)
            .copied()
            .unwrap_or(StreamStatus::Closed)
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
        self.shared
            .borrow_mut()
            .received
            .remove(&stream.0)
            .unwrap_or_default()
    }

    /// Closes a stream (END toward the exit).
    pub fn close_stream(&mut self, sim: &mut Simulator, stream: StreamHandle) {
        self.enqueue(sim, Command::CloseStream { stream: stream.0 });
    }

    /// Tears down a circuit (DESTROY along the path).
    pub fn close_circuit(&mut self, sim: &mut Simulator, circuit: CircuitHandle) {
        self.enqueue(sim, Command::CloseCircuit { circuit: circuit.0 });
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
    use crate::control::CircuitStatus;
    use crate::network::{TorNetwork, TorNetworkBuilder};

    /// Every table that holds one entry per connection or handle: the
    /// simulator's connections, the relays' link tables, and the
    /// proxy's three status tables plus its receive buffers.
    fn table_sizes(net: &TorNetwork) -> [usize; 6] {
        let locals = [&net.w_metrics, &net.z_metrics];
        let relays = net.relay_metrics.iter().chain(locals);
        let shared = net.controller.shared.borrow();
        [
            net.sim.open_conn_count(),
            relays.map(|m| m.link_entries().get()).sum(),
            shared.circuit_status.len(),
            shared.circuit_errors.len(),
            shared.stream_status.len(),
            shared.received.len(),
        ]
    }

    /// Bounded memory: a campaign holds state for its open circuits and
    /// its links, not for every connection and handle it ever had. One
    /// pair is what Ting measures it with — `C_xy`, `C_x`, `C_y`, an
    /// echo stream through each, everything closed after use — plus a
    /// circuit the path policy refuses.
    #[test]
    fn two_hundred_pairs_leave_every_table_at_its_size_after_the_first() {
        let mut net = TorNetworkBuilder::testbed(48).build();
        let (w, z, echo) = (net.local_w, net.local_z, net.echo_server);
        let (x, y) = (net.relays[4], net.relays[11]);
        let mut after_first = None;
        for pair in 0..200 {
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
            let sizes = table_sizes(&net);
            assert_eq!(
                *after_first.get_or_insert(sizes),
                sizes,
                "after pair {pair}"
            );
        }
        // Closed handles answer like handles never minted.
        assert_eq!(after_first.map(|s| s[2..].to_vec()), Some(vec![0; 4]));
    }
}
