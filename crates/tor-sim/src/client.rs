//! The onion proxy: the client-side circuit state machine.
//!
//! Mirrors a stock Tor client's behaviour for the operations Ting needs,
//! including the two policy constraints §3.1 calls out — one-hop circuits
//! are disallowed, and a relay may appear at most once per circuit. The
//! proxy is driven through a shared command queue (see
//! [`crate::control::Controller`]), the simulator-friendly equivalent of
//! Stem's control-port connection.

use crate::link::{on_link, HopKey, LinkTable};
use netsim::{ConnId, Context, NodeId, Process, SimTime};
use onion_crypto::{
    client_handshake_finish, client_handshake_start, ClientHandshakeState, KeyPair, PublicKey,
};
use rand::Rng;
use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use tor_protocol::{
    Cell, CellCommand, CircuitId, ClientCrypto, Extend2, Extended2, RelayCell, RelayCmd,
};

/// Why a circuit build or stream attach was refused locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// Paths must have ≥ 2 relays ("one-hop circuits are disallowed").
    TooShort,
    /// A relay appears more than once on the path.
    RepeatedRelay,
    /// A relay on the path has no known identity key.
    UnknownRelay(NodeId),
}

/// Commands the controller enqueues for the proxy.
#[derive(Debug)]
pub(crate) enum Command {
    BuildCircuit {
        handle: u64,
        path: Vec<NodeId>,
    },
    OpenStream {
        handle: u64,
        circuit: u64,
        target: NodeId,
    },
    SendData {
        stream: u64,
        data: Vec<u8>,
    },
    CloseStream {
        stream: u64,
    },
    CloseCircuit {
        circuit: u64,
    },
}

/// Externally visible circuit state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitStatus {
    Building,
    Ready,
    Failed,
}

/// Externally visible stream state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    Connecting,
    Open,
    Closed,
}

/// One circuit handle: what the controller can ask about it, and the
/// circuit itself once its build has started.
pub(crate) struct CircuitEntry {
    pub(crate) status: CircuitStatus,
    /// The path policy that refused the circuit, if one did.
    pub(crate) error: Option<PolicyError>,
    /// `None` until the build starts, and for a path the policy refused.
    pub(crate) onion: Option<ClientCircuit>,
}

/// One stream handle.
pub(crate) struct StreamEntry {
    pub(crate) status: StreamStatus,
    /// Echoed data not yet taken: (arrival time, bytes).
    pub(crate) received: Vec<(SimTime, Vec<u8>)>,
    /// The circuit handle and stream id it was attached as, from its
    /// BEGIN on (kept after the exit ENDs it).
    pub(crate) on: Option<(u64, u16)>,
}

/// One circuit from the proxy's point of view.
pub(crate) struct ClientCircuit {
    path: Vec<NodeId>,
    identities: Vec<PublicKey>,
    /// The link to the first hop, and the circuit's id on it.
    hop: HopKey,
    crypto: ClientCrypto,
    /// In-flight handshake for the hop currently being established.
    hs: Option<ClientHandshakeState>,
    /// Streams on this circuit the exit has not ENDed: stream id →
    /// external handle.
    streams: BTreeMap<u16, u64>,
    next_stream_id: u16,
}

impl ClientCircuit {
    /// Sends a relay cell to the circuit's last hop. A circuit with no
    /// established hop sends nothing.
    fn send_forward(&mut self, links: &mut LinkTable, ctx: &mut Context, rc: &RelayCell) {
        let Some(last) = self.crypto.last_hop() else {
            return;
        };
        let payload = self.crypto.encrypt_forward(last, rc);
        links.send(ctx, self.hop, CellCommand::Relay, payload);
    }
}

/// Starts an ntor handshake with `identity` from a fresh ephemeral key.
fn handshake(ctx: &mut Context, identity: PublicKey) -> (ClientHandshakeState, PublicKey) {
    let mut seed = [0u8; 32];
    ctx.rng.fill(&mut seed);
    client_handshake_start(KeyPair::from_secret(seed), identity)
}

/// Everything the proxy knows, in the one cell the process and its
/// [`crate::control::Controller`] share. The two handle-keyed tables
/// hold live handles only: closing a circuit or stream forgets it (see
/// the controller's docs).
pub(crate) struct ProxyState {
    pub(crate) commands: VecDeque<Command>,
    pub(crate) circuits: BTreeMap<u64, CircuitEntry>,
    pub(crate) streams: BTreeMap<u64, StreamEntry>,
    /// The proxy handled an event since [`crate::Controller::take_touched`]
    /// last read this.
    pub(crate) touched: bool,
    /// Identity keys by [`NodeId::index`], one table for every proxy:
    /// `None` for a node that is not a relay.
    identities: Rc<[Option<PublicKey>]>,
    pub(crate) links: LinkTable,
    /// (link conn, circuit id) → circuit handle.
    pub(crate) circ_index: BTreeMap<HopKey, u64>,
    next_circ_id: u32,
}

impl ProxyState {
    pub(crate) fn new(identities: Rc<[Option<PublicKey>]>) -> ProxyState {
        ProxyState {
            commands: VecDeque::new(),
            circuits: BTreeMap::new(),
            streams: BTreeMap::new(),
            touched: false,
            identities,
            links: LinkTable::default(),
            circ_index: BTreeMap::new(),
            next_circ_id: 1,
        }
    }

    /// A closed handle answers like one never minted: `Failed`.
    pub(crate) fn circuit_status(&self, handle: u64) -> CircuitStatus {
        let entry = self.circuits.get(&handle);
        entry.map_or(CircuitStatus::Failed, |e| e.status)
    }

    fn fail_circuit(&mut self, handle: u64) {
        if let Some(entry) = self.circuits.get_mut(&handle) {
            entry.status = CircuitStatus::Failed;
        }
    }

    /// Checks the §3.1 client policies and looks up each hop's key.
    fn identities(&self, path: &[NodeId]) -> Result<Vec<PublicKey>, PolicyError> {
        if path.len() < 2 {
            return Err(PolicyError::TooShort);
        }
        let hop = |(i, a): (usize, &NodeId)| {
            if path[i + 1..].contains(a) {
                return Err(PolicyError::RepeatedRelay);
            }
            let key = self.identities.get(a.index()).copied().flatten();
            key.ok_or(PolicyError::UnknownRelay(*a))
        };
        path.iter().enumerate().map(hop).collect()
    }

    fn start_build(&mut self, ctx: &mut Context, handle: u64, path: Vec<NodeId>) {
        let identities = self.identities(&path);
        let Some(entry) = self.circuits.get_mut(&handle) else {
            return;
        };
        let identities = match identities {
            Ok(identities) => identities,
            Err(e) => {
                entry.status = CircuitStatus::Failed;
                entry.error = Some(e);
                return;
            }
        };
        let hop = (
            self.links.find_or_open(ctx, path[0]),
            CircuitId(self.next_circ_id),
        );
        self.next_circ_id += 1;
        let (hs, x_pub) = handshake(ctx, identities[0]);
        entry.onion = Some(ClientCircuit {
            path,
            identities,
            hop,
            crypto: ClientCrypto::new(),
            hs: Some(hs),
            streams: BTreeMap::new(),
            next_stream_id: 1,
        });
        self.circ_index.insert(hop, handle);
        self.links
            .send(ctx, hop, CellCommand::Create2, x_pub.to_vec());
    }

    /// A hop's handshake reply: adds the hop, then sends the next
    /// EXTEND2 or marks the circuit ready.
    fn handle_created2(&mut self, ctx: &mut Context, handle: u64, body: &[u8]) {
        let Some(entry) = self.circuits.get_mut(&handle) else {
            return;
        };
        let Some(circuit) = &mut entry.onion else {
            return;
        };
        let reply = Extended2::decode(&body[..Extended2::LEN.min(body.len())]);
        let keys = reply.and_then(|reply| {
            let reply = onion_crypto::ServerReply {
                ephemeral_public: reply.server_pk,
                auth: reply.auth,
            };
            client_handshake_finish(&circuit.hs.take()?, &reply)
        });
        let Some(keys) = keys else {
            entry.status = CircuitStatus::Failed;
            return;
        };
        circuit.crypto.add_hop(&keys);
        let established = circuit.crypto.last_hop().map_or(0, |last| last + 1);
        let (Some(next), Some(&identity)) = (
            circuit.path.get(established),
            circuit.identities.get(established),
        ) else {
            entry.status = CircuitStatus::Ready;
            return;
        };
        let target = next.0;
        let (hs, client_pk) = handshake(ctx, identity);
        circuit.hs = Some(hs);
        let ext = Extend2 { target, client_pk };
        let rc = RelayCell::new(RelayCmd::Extend2, 0, ext.encode());
        circuit.send_forward(&mut self.links, ctx, &rc);
    }

    fn handle_command(&mut self, ctx: &mut Context, cmd: Command) {
        match cmd {
            Command::BuildCircuit { handle, path } => self.start_build(ctx, handle, path),
            Command::OpenStream {
                handle,
                circuit,
                target,
            } => {
                // Like Tor, attach to an open circuit only: one still
                // building has no exit to send BEGIN to yet.
                let entry = self.circuits.get_mut(&circuit);
                let ready = entry.filter(|e| e.status == CircuitStatus::Ready);
                let (Some(c), Some(stream)) = (
                    ready.and_then(|e| e.onion.as_mut()),
                    self.streams.get_mut(&handle),
                ) else {
                    // Nothing to attach to: closed from the start.
                    self.streams.remove(&handle);
                    return;
                };
                let stream_id = c.next_stream_id;
                c.next_stream_id += 1;
                c.streams.insert(stream_id, handle);
                stream.on = Some((circuit, stream_id));
                let mut data = target.0.to_be_bytes().to_vec();
                data.extend_from_slice(&7u16.to_be_bytes()); // echo port
                let rc = RelayCell::new(RelayCmd::Begin, stream_id, data);
                c.send_forward(&mut self.links, ctx, &rc);
            }
            Command::SendData { stream, data } => {
                let Some((circuit, stream_id)) = self.streams.get(&stream).and_then(|s| s.on)
                else {
                    return;
                };
                // A failed circuit carries no more cells.
                let entry = self.circuits.get_mut(&circuit);
                let live = entry.filter(|e| e.status != CircuitStatus::Failed);
                let Some(c) = live.and_then(|e| e.onion.as_mut()) else {
                    return;
                };
                for chunk in data.chunks(tor_protocol::RELAY_DATA_LEN) {
                    let rc = RelayCell::new(RelayCmd::Data, stream_id, chunk.to_vec());
                    c.send_forward(&mut self.links, ctx, &rc);
                }
            }
            Command::CloseStream { stream } => {
                let Some((circuit, stream_id)) = self.streams.remove(&stream).and_then(|s| s.on)
                else {
                    return;
                };
                let Some(entry) = self.circuits.get_mut(&circuit) else {
                    return;
                };
                let Some(c) = &mut entry.onion else {
                    return;
                };
                if c.streams.remove(&stream_id).is_some() && entry.status != CircuitStatus::Failed {
                    let rc = RelayCell::new(RelayCmd::End, stream_id, vec![]);
                    c.send_forward(&mut self.links, ctx, &rc);
                }
            }
            Command::CloseCircuit { circuit } => {
                // The handle dies here whatever became of the circuit —
                // one refused by path policy never had any other state —
                // and so do the streams attached through it, those the
                // exit already ENDed included.
                self.streams
                    .retain(|_, s| s.on.is_none_or(|(through, _)| through != circuit));
                let Some(c) = self.circuits.remove(&circuit).and_then(|e| e.onion) else {
                    return;
                };
                self.circ_index.remove(&c.hop);
                self.links.send(ctx, c.hop, CellCommand::Destroy, vec![]);
            }
        }
    }

    /// A link closed. When it was the link to a first hop that never
    /// answered, forget it, so that the next circuit through that relay
    /// opens a fresh one, and fail the circuits that were waiting on it.
    fn link_closed(&mut self, conn: ConnId) {
        if !self.links.closed(conn) {
            return;
        }
        for handle in self.circ_index.range(on_link(conn)).map(|(_, h)| h) {
            if let Some(entry) = self.circuits.get_mut(handle) {
                entry.status = CircuitStatus::Failed;
            }
        }
    }

    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        let Some(cell) = Cell::decode(data) else {
            return;
        };
        let Some(&handle) = self.circ_index.get(&(conn, cell.circ_id)) else {
            return;
        };
        match cell.command {
            CellCommand::Created2 => self.handle_created2(ctx, handle, &cell.payload),
            CellCommand::Relay => self.handle_relay(ctx, handle, cell.payload),
            CellCommand::Destroy => self.fail_circuit(handle),
            CellCommand::Create2 => {} // clients never receive CREATE2
        }
    }

    /// A RELAY cell from one of the circuit's hops.
    fn handle_relay(&mut self, ctx: &mut Context, handle: u64, payload: Vec<u8>) {
        let Some(circuit) = self
            .circuits
            .get_mut(&handle)
            .and_then(|e| e.onion.as_mut())
        else {
            return;
        };
        let Some((hop, rc)) = circuit.crypto.decrypt_backward(payload) else {
            self.fail_circuit(handle);
            return;
        };
        if rc.cmd == RelayCmd::Extended2 {
            // Must come from the current last hop.
            if circuit.crypto.last_hop() == Some(hop) {
                self.handle_created2(ctx, handle, &rc.data);
            } else {
                self.fail_circuit(handle);
            }
            return;
        }
        let attached = match rc.cmd {
            RelayCmd::End => circuit.streams.remove(&rc.stream_id),
            _ => circuit.streams.get(&rc.stream_id).copied(),
        };
        let Some(stream) = attached.and_then(|h| self.streams.get_mut(&h)) else {
            return;
        };
        match rc.cmd {
            RelayCmd::Connected => stream.status = StreamStatus::Open,
            RelayCmd::Data => stream.received.push((ctx.now, rc.data)),
            RelayCmd::End => stream.status = StreamStatus::Closed,
            _ => {}
        }
    }
}

/// The onion-proxy process: each event borrows the state it shares with
/// its controller once, and hands it to one handler.
pub(crate) struct OnionProxy(pub(crate) Rc<RefCell<ProxyState>>);

impl OnionProxy {
    /// The shared state, marked touched: only the proxy's handlers
    /// change what its controller reports between two of the
    /// controller's own calls.
    fn state(&self) -> RefMut<'_, ProxyState> {
        let mut state = self.0.borrow_mut();
        state.touched = true;
        state
    }
}

impl Process for OnionProxy {
    fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
        self.state().links.established(ctx, conn);
    }

    fn on_conn_closed(&mut self, _ctx: &mut Context, conn: ConnId) {
        self.state().link_closed(conn);
    }

    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        self.state().on_data(ctx, conn, data);
    }

    fn on_timer(&mut self, ctx: &mut Context, _id: u64) {
        // Wake: drain the command queue.
        let mut state = self.state();
        while let Some(cmd) = state.commands.pop_front() {
            state.handle_command(ctx, cmd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::World;
    use netsim::{AsProfile, Simulator, Underlay, UnderlayConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Node 0: opens a link to node 1, then sends a relay cell on a
    /// circuit that has no established hop.
    struct Sender;

    impl Process for Sender {
        fn on_start(&mut self, ctx: &mut Context) {
            let mut links = LinkTable::default();
            let conn = links.find_or_open(ctx, NodeId(1));
            let before = links.len();
            let mut circuit = ClientCircuit {
                path: vec![NodeId(1)],
                identities: Vec::new(),
                hop: (conn, CircuitId(1)),
                crypto: ClientCrypto::new(),
                hs: None,
                streams: BTreeMap::new(),
                next_stream_id: 1,
            };
            let rc = RelayCell::new(RelayCmd::Data, 1, b"x".to_vec());
            circuit.send_forward(&mut links, ctx, &rc);
            assert_eq!(links.len(), before, "no cell queued");
        }
    }

    /// Node 1: counts the bytes that reach it.
    struct Peer(Rc<RefCell<usize>>);

    impl Process for Peer {
        fn on_data(&mut self, _ctx: &mut Context, _conn: ConnId, data: Vec<u8>) {
            *self.0.borrow_mut() += data.len();
        }
    }

    #[test]
    fn a_circuit_with_no_established_hop_sends_nothing() {
        let world = World::new();
        let mut underlay = Underlay::new(UnderlayConfig, 5);
        let mut rng = SmallRng::seed_from_u64(1);
        for (i, city) in ["New York", "London"].into_iter().enumerate() {
            let at = world.city(city).expect("city exists").location;
            let in_as = underlay.add_as(AsProfile::datacenter(city, at));
            underlay.add_node_in(in_as, at, [10, i as u8, 0, 1], &mut rng);
        }
        let mut sim = Simulator::new(underlay, 9);
        let received = Rc::new(RefCell::new(0));
        sim.add_process(Box::new(Sender));
        sim.add_process(Box::new(Peer(received.clone())));
        sim.run_until_idle();
        assert_eq!(*received.borrow(), 0);
    }
}
