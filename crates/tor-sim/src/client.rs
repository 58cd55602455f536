//! The onion proxy: the client-side circuit state machine.
//!
//! Mirrors a stock Tor client's behaviour for the operations Ting needs,
//! including the two policy constraints §3.1 calls out — one-hop circuits
//! are disallowed, and a relay may appear at most once per circuit. The
//! proxy is driven through a shared command queue (see
//! [`crate::control::Controller`]), the simulator-friendly equivalent of
//! Stem's control-port connection.

use crate::link::{HopKey, LinkTable};
use netsim::{ConnId, Context, NodeId, Process, SimTime};
use onion_crypto::{
    client_handshake_finish, client_handshake_start, ClientHandshakeState, KeyPair, PublicKey,
};
use rand::Rng;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
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

/// What the controller can ask about a circuit handle.
#[derive(Debug)]
pub(crate) struct CircuitEntry {
    pub status: CircuitStatus,
    /// The path policy that refused the circuit, if one did.
    pub error: Option<PolicyError>,
}

/// What the controller can ask about a stream handle.
#[derive(Debug)]
pub(crate) struct StreamEntry {
    pub status: StreamStatus,
    /// Echoed data not yet taken: (arrival time, bytes).
    pub received: Vec<(SimTime, Vec<u8>)>,
}

/// State shared between the proxy process and the controller handle.
/// The two handle-keyed tables hold live handles only: closing a
/// circuit or stream forgets it (see [`crate::control::Controller`]).
#[derive(Debug, Default)]
pub(crate) struct ProxyShared {
    pub commands: VecDeque<Command>,
    pub circuits: HashMap<u64, CircuitEntry>,
    pub streams: HashMap<u64, StreamEntry>,
    /// The proxy handled an event since [`crate::Controller::take_touched`]
    /// last read this.
    pub touched: bool,
    /// The size of the proxy's link table, in test builds.
    #[cfg(test)]
    pub link_entries: Rc<std::cell::Cell<usize>>,
}

impl ProxyShared {
    /// A closed handle answers like one never minted: `Failed`.
    pub fn circuit_status(&self, handle: u64) -> CircuitStatus {
        let entry = self.circuits.get(&handle);
        entry.map_or(CircuitStatus::Failed, |e| e.status)
    }

    /// Records a live circuit's status (a closed handle stays closed).
    fn set_circuit(&mut self, handle: u64, status: CircuitStatus) {
        if let Some(entry) = self.circuits.get_mut(&handle) {
            entry.status = status;
        }
    }

    fn set_stream(&mut self, handle: u64, status: StreamStatus) {
        if let Some(entry) = self.streams.get_mut(&handle) {
            entry.status = status;
        }
    }
}

/// One circuit from the proxy's point of view.
struct ClientCircuit {
    path: Vec<NodeId>,
    identities: Vec<PublicKey>,
    /// The link to the first hop, and the circuit's id on it.
    hop: HopKey,
    crypto: ClientCrypto,
    /// In-flight handshake for the hop currently being established.
    hs: Option<ClientHandshakeState>,
    /// Streams on this circuit: stream id → external handle.
    streams: HashMap<u16, u64>,
    next_stream_id: u16,
}

impl ClientCircuit {
    /// Sends a relay cell to the circuit's last hop.
    fn send_forward(&mut self, links: &mut LinkTable, ctx: &mut Context, rc: &RelayCell) {
        let payload = self.crypto.encrypt_forward(self.crypto.len() - 1, rc);
        links.send(ctx, self.hop, CellCommand::Relay, payload);
    }
}

/// The onion-proxy process.
pub struct OnionProxy {
    shared: Rc<RefCell<ProxyShared>>,
    /// Identity keys for every relay the proxy may extend to.
    identity_map: HashMap<NodeId, PublicKey>,
    links: LinkTable,
    circuits: HashMap<u64, ClientCircuit>,
    /// Index (link conn, circuit id) → circuit handle.
    circ_index: HashMap<HopKey, u64>,
    /// Index stream handle → (circuit handle, stream id).
    stream_index: HashMap<u64, (u64, u16)>,
    next_circ_id: u32,
}

impl OnionProxy {
    pub(crate) fn new(
        shared: Rc<RefCell<ProxyShared>>,
        identity_map: HashMap<NodeId, PublicKey>,
    ) -> OnionProxy {
        let links = LinkTable::default();
        #[cfg(test)]
        {
            shared.borrow_mut().link_entries = links.published_len.clone();
        }
        OnionProxy {
            shared,
            identity_map,
            links,
            circuits: HashMap::new(),
            circ_index: HashMap::new(),
            stream_index: HashMap::new(),
            next_circ_id: 1,
        }
    }

    fn touch(&self) {
        self.shared.borrow_mut().touched = true;
    }

    /// Validates the §3.1 client policies.
    fn validate_path(&self, path: &[NodeId]) -> Result<(), PolicyError> {
        if path.len() < 2 {
            return Err(PolicyError::TooShort);
        }
        for (i, a) in path.iter().enumerate() {
            if path[i + 1..].contains(a) {
                return Err(PolicyError::RepeatedRelay);
            }
            if !self.identity_map.contains_key(a) {
                return Err(PolicyError::UnknownRelay(*a));
            }
        }
        Ok(())
    }

    fn start_build(&mut self, ctx: &mut Context, handle: u64, path: Vec<NodeId>) {
        if let Err(e) = self.validate_path(&path) {
            if let Some(entry) = self.shared.borrow_mut().circuits.get_mut(&handle) {
                entry.status = CircuitStatus::Failed;
                entry.error = Some(e);
            }
            return;
        }
        let identities: Vec<PublicKey> = path.iter().map(|n| self.identity_map[n]).collect();
        let hop = (
            self.links.find_or_open(ctx, path[0]),
            CircuitId(self.next_circ_id),
        );
        self.next_circ_id += 1;

        let mut seed = [0u8; 32];
        ctx.rng.fill(&mut seed);
        let (hs, x_pub) = client_handshake_start(KeyPair::from_secret(seed), identities[0]);

        self.circuits.insert(
            handle,
            ClientCircuit {
                path,
                identities,
                hop,
                crypto: ClientCrypto::new(),
                hs: Some(hs),
                streams: HashMap::new(),
                next_stream_id: 1,
            },
        );
        self.circ_index.insert(hop, handle);
        self.links
            .send(ctx, hop, CellCommand::Create2, x_pub.to_vec());
    }

    /// Sends the next EXTEND2, or marks the circuit ready.
    fn continue_build(&mut self, ctx: &mut Context, handle: u64) {
        let circuit = self.circuits.get_mut(&handle).expect("circuit exists");
        let established = circuit.crypto.len();
        if established == circuit.path.len() {
            let mut shared = self.shared.borrow_mut();
            shared.set_circuit(handle, CircuitStatus::Ready);
            return;
        }
        let mut seed = [0u8; 32];
        ctx.rng.fill(&mut seed);
        let (hs, x_pub) =
            client_handshake_start(KeyPair::from_secret(seed), circuit.identities[established]);
        circuit.hs = Some(hs);
        let ext = Extend2 {
            target: circuit.path[established].0,
            client_pk: x_pub,
        };
        let rc = RelayCell::new(RelayCmd::Extend2, 0, ext.encode());
        circuit.send_forward(&mut self.links, ctx, &rc);
    }

    fn fail_circuit(&self, handle: u64) {
        let mut shared = self.shared.borrow_mut();
        shared.set_circuit(handle, CircuitStatus::Failed);
    }

    fn handle_created2(&mut self, ctx: &mut Context, handle: u64, body: &[u8]) {
        let circuit = self.circuits.get_mut(&handle).expect("circuit exists");
        let Some(reply) = Extended2::decode(&body[..Extended2::LEN.min(body.len())]) else {
            self.fail_circuit(handle);
            return;
        };
        let Some(hs) = circuit.hs.take() else {
            self.fail_circuit(handle);
            return;
        };
        let Some(keys) = client_handshake_finish(
            &hs,
            &onion_crypto::ntor::ServerReply {
                ephemeral_public: reply.server_pk,
                auth: reply.auth,
            },
        ) else {
            self.fail_circuit(handle);
            return;
        };
        circuit.crypto.add_hop(&keys);
        self.continue_build(ctx, handle);
    }

    fn handle_backward(&mut self, ctx: &mut Context, handle: u64, hop: usize, rc: RelayCell) {
        let circuit = self.circuits.get_mut(&handle).expect("circuit exists");
        match rc.cmd {
            RelayCmd::Extended2 => {
                // Must come from the current last hop.
                if hop + 1 != circuit.crypto.len() {
                    self.fail_circuit(handle);
                    return;
                }
                self.handle_created2(ctx, handle, &rc.data);
            }
            RelayCmd::Connected => {
                if let Some(&stream_handle) = circuit.streams.get(&rc.stream_id) {
                    let mut shared = self.shared.borrow_mut();
                    shared.set_stream(stream_handle, StreamStatus::Open);
                }
            }
            RelayCmd::Data => {
                let stream_handle = circuit.streams.get(&rc.stream_id);
                let mut shared = self.shared.borrow_mut();
                if let Some(entry) = stream_handle.and_then(|h| shared.streams.get_mut(h)) {
                    entry.received.push((ctx.now, rc.data));
                }
            }
            RelayCmd::End => {
                if let Some(stream_handle) = circuit.streams.remove(&rc.stream_id) {
                    let mut shared = self.shared.borrow_mut();
                    shared.set_stream(stream_handle, StreamStatus::Closed);
                }
            }
            _ => {}
        }
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
                let ready = self.shared.borrow().circuit_status(circuit) == CircuitStatus::Ready;
                let Some(c) = self.circuits.get_mut(&circuit).filter(|_| ready) else {
                    // Nothing to attach to: closed from the start.
                    self.shared.borrow_mut().streams.remove(&handle);
                    return;
                };
                let stream_id = c.next_stream_id;
                c.next_stream_id += 1;
                c.streams.insert(stream_id, handle);
                self.stream_index.insert(handle, (circuit, stream_id));
                let mut data = target.0.to_be_bytes().to_vec();
                data.extend_from_slice(&7u16.to_be_bytes()); // echo port
                let rc = RelayCell::new(RelayCmd::Begin, stream_id, data);
                c.send_forward(&mut self.links, ctx, &rc);
            }
            Command::SendData { stream, data } => {
                let Some(&(circuit, stream_id)) = self.stream_index.get(&stream) else {
                    return;
                };
                // A failed circuit carries no more cells.
                if self.shared.borrow().circuit_status(circuit) == CircuitStatus::Failed {
                    return;
                }
                let c = self.circuits.get_mut(&circuit).expect("indexed");
                for chunk in data.chunks(tor_protocol::RELAY_DATA_LEN) {
                    let rc = RelayCell::new(RelayCmd::Data, stream_id, chunk.to_vec());
                    c.send_forward(&mut self.links, ctx, &rc);
                }
            }
            Command::CloseStream { stream } => {
                self.shared.borrow_mut().streams.remove(&stream);
                let Some((circuit, stream_id)) = self.stream_index.remove(&stream) else {
                    return;
                };
                let failed = self.shared.borrow().circuit_status(circuit) == CircuitStatus::Failed;
                let c = self.circuits.get_mut(&circuit).expect("indexed");
                if c.streams.remove(&stream_id).is_some() && !failed {
                    let rc = RelayCell::new(RelayCmd::End, stream_id, vec![]);
                    c.send_forward(&mut self.links, ctx, &rc);
                }
            }
            Command::CloseCircuit { circuit } => {
                // The handle dies here whatever became of the circuit —
                // one refused by path policy never had any other state —
                // and so do the streams still attached through it.
                let mut shared = self.shared.borrow_mut();
                shared.circuits.remove(&circuit);
                self.stream_index.retain(|stream, &mut (through, _)| {
                    if through == circuit {
                        shared.streams.remove(stream);
                    }
                    through != circuit
                });
                drop(shared);
                let Some(c) = self.circuits.remove(&circuit) else {
                    return;
                };
                self.circ_index.remove(&c.hop);
                self.links.send(ctx, c.hop, CellCommand::Destroy, vec![]);
            }
        }
    }
}

/// Every handler marks the shared state touched: only the proxy's
/// handlers change what its controller reports between two of the
/// controller's own calls.
impl Process for OnionProxy {
    fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
        self.touch();
        self.links.established(ctx, conn);
    }

    fn on_conn_closed(&mut self, _ctx: &mut Context, conn: ConnId) {
        self.touch();
        // The first hop never answered: forget the link, so that the
        // next circuit through that relay opens a fresh one, and fail
        // the circuits that were waiting on it. (Nothing is sent, so
        // the order of this walk decides nothing.)
        if self.links.closed(conn) {
            for (_, &handle) in self.circ_index.iter().filter(|(key, _)| key.0 == conn) {
                self.fail_circuit(handle);
            }
        }
    }

    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        self.touch();
        let Some(cell) = Cell::decode(data) else {
            return;
        };
        let Some(&handle) = self.circ_index.get(&(conn, cell.circ_id)) else {
            return;
        };
        match cell.command {
            CellCommand::Created2 => self.handle_created2(ctx, handle, &cell.payload),
            CellCommand::Relay => {
                let circuit = self.circuits.get_mut(&handle).expect("indexed");
                match circuit.crypto.decrypt_backward(cell.payload) {
                    Some((hop, rc)) => self.handle_backward(ctx, handle, hop, rc),
                    None => self.fail_circuit(handle),
                }
            }
            CellCommand::Destroy => {
                self.fail_circuit(handle);
            }
            CellCommand::Create2 => {} // clients never receive CREATE2
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, _id: u64) {
        self.touch();
        // Wake: drain the command queue.
        loop {
            let cmd = self.shared.borrow_mut().commands.pop_front();
            match cmd {
                Some(c) => self.handle_command(ctx, c),
                None => break,
            }
        }
    }
}
