//! The onion proxy: the client-side circuit state machine.
//!
//! Mirrors a stock Tor client's behaviour for the operations Ting needs,
//! including the two policy constraints §3.1 calls out — one-hop circuits
//! are disallowed, and a relay may appear at most once per circuit. The
//! proxy is driven through a shared command queue (see
//! [`crate::control::Controller`]), the simulator-friendly equivalent of
//! Stem's control-port connection.

use netsim::{ConnId, Context, NodeId, Process, SimTime, TrafficClass};
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

/// State shared between the proxy process and the controller handle.
/// The four handle-keyed tables hold live handles only: closing a
/// circuit or stream forgets it (see [`crate::control::Controller`]).
#[derive(Debug, Default)]
pub(crate) struct ProxyShared {
    pub commands: VecDeque<Command>,
    pub circuit_status: HashMap<u64, CircuitStatus>,
    pub circuit_errors: HashMap<u64, PolicyError>,
    pub stream_status: HashMap<u64, StreamStatus>,
    /// Echoed data arriving on a stream: (arrival time, bytes).
    pub received: HashMap<u64, Vec<(SimTime, Vec<u8>)>>,
}

impl ProxyShared {
    fn forget_stream(&mut self, stream: u64) {
        self.stream_status.remove(&stream);
        self.received.remove(&stream);
    }
}

/// One circuit from the proxy's point of view.
struct ClientCircuit {
    path: Vec<NodeId>,
    identities: Vec<PublicKey>,
    link: ConnId,
    circ_id: CircuitId,
    crypto: ClientCrypto,
    /// In-flight handshake for the hop currently being established.
    hs: Option<ClientHandshakeState>,
    /// Streams on this circuit: stream id → external handle.
    streams: HashMap<u16, u64>,
    next_stream_id: u16,
    alive: bool,
}

/// The onion-proxy process.
pub struct OnionProxy {
    shared: Rc<RefCell<ProxyShared>>,
    /// Identity keys for every relay the proxy may extend to.
    identity_map: HashMap<NodeId, PublicKey>,
    links: HashMap<NodeId, ConnId>,
    conn_ready: HashMap<ConnId, bool>,
    pending_cells: HashMap<ConnId, Vec<Cell>>,
    circuits: HashMap<u64, ClientCircuit>,
    /// Index (link conn, circuit id) → circuit handle.
    circ_index: HashMap<(ConnId, CircuitId), u64>,
    /// Index stream handle → (circuit handle, stream id).
    stream_index: HashMap<u64, (u64, u16)>,
    next_circ_id: u32,
}

impl OnionProxy {
    pub(crate) fn new(
        shared: Rc<RefCell<ProxyShared>>,
        identity_map: HashMap<NodeId, PublicKey>,
    ) -> OnionProxy {
        OnionProxy {
            shared,
            identity_map,
            links: HashMap::new(),
            conn_ready: HashMap::new(),
            pending_cells: HashMap::new(),
            circuits: HashMap::new(),
            circ_index: HashMap::new(),
            stream_index: HashMap::new(),
            next_circ_id: 1,
        }
    }

    fn link_to(&mut self, ctx: &mut Context, relay: NodeId) -> ConnId {
        if let Some(&c) = self.links.get(&relay) {
            return c;
        }
        let c = ctx.open(relay, TrafficClass::Tor);
        self.links.insert(relay, c);
        self.conn_ready.insert(c, false);
        c
    }

    fn send_cell(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        if self.conn_ready.get(&conn).copied().unwrap_or(false) {
            ctx.send(conn, cell.encode());
        } else {
            self.pending_cells.entry(conn).or_default().push(cell);
        }
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
            let mut shared = self.shared.borrow_mut();
            shared.circuit_status.insert(handle, CircuitStatus::Failed);
            shared.circuit_errors.insert(handle, e);
            return;
        }
        let identities: Vec<PublicKey> = path.iter().map(|n| self.identity_map[n]).collect();
        let link = self.link_to(ctx, path[0]);
        let circ_id = CircuitId(self.next_circ_id);
        self.next_circ_id += 1;

        let mut seed = [0u8; 32];
        ctx.rng.fill(&mut seed);
        let (hs, x_pub) = client_handshake_start(KeyPair::from_secret(seed), identities[0]);

        self.circuits.insert(
            handle,
            ClientCircuit {
                path,
                identities,
                link,
                circ_id,
                crypto: ClientCrypto::new(),
                hs: Some(hs),
                streams: HashMap::new(),
                next_stream_id: 1,
                alive: true,
            },
        );
        self.circ_index.insert((link, circ_id), handle);
        self.shared
            .borrow_mut()
            .circuit_status
            .insert(handle, CircuitStatus::Building);
        self.send_cell(
            ctx,
            link,
            Cell::new(circ_id, CellCommand::Create2, x_pub.to_vec()),
        );
    }

    /// Sends the next EXTEND2, or marks the circuit ready.
    fn continue_build(&mut self, ctx: &mut Context, handle: u64) {
        let circuit = self.circuits.get_mut(&handle).expect("circuit exists");
        let established = circuit.crypto.len();
        if established == circuit.path.len() {
            self.shared
                .borrow_mut()
                .circuit_status
                .insert(handle, CircuitStatus::Ready);
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
        let payload = circuit.crypto.encrypt_forward(established - 1, &rc);
        let (link, circ_id) = (circuit.link, circuit.circ_id);
        self.send_cell(ctx, link, Cell::new(circ_id, CellCommand::Relay, payload));
    }

    fn fail_circuit(&mut self, handle: u64) {
        if let Some(c) = self.circuits.get_mut(&handle) {
            c.alive = false;
        }
        self.shared
            .borrow_mut()
            .circuit_status
            .insert(handle, CircuitStatus::Failed);
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
                    self.shared
                        .borrow_mut()
                        .stream_status
                        .insert(stream_handle, StreamStatus::Open);
                }
            }
            RelayCmd::Data => {
                if let Some(&stream_handle) = circuit.streams.get(&rc.stream_id) {
                    self.shared
                        .borrow_mut()
                        .received
                        .entry(stream_handle)
                        .or_default()
                        .push((ctx.now, rc.data));
                }
            }
            RelayCmd::End => {
                if let Some(stream_handle) = circuit.streams.remove(&rc.stream_id) {
                    self.shared
                        .borrow_mut()
                        .stream_status
                        .insert(stream_handle, StreamStatus::Closed);
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
                let Some(c) = self.circuits.get_mut(&circuit) else {
                    // Nothing to attach to: closed from the start.
                    self.shared.borrow_mut().stream_status.remove(&handle);
                    return;
                };
                let stream_id = c.next_stream_id;
                c.next_stream_id += 1;
                c.streams.insert(stream_id, handle);
                self.stream_index.insert(handle, (circuit, stream_id));
                self.shared
                    .borrow_mut()
                    .stream_status
                    .insert(handle, StreamStatus::Connecting);
                let mut data = target.0.to_be_bytes().to_vec();
                data.extend_from_slice(&7u16.to_be_bytes()); // echo port
                let rc = RelayCell::new(RelayCmd::Begin, stream_id, data);
                let last_hop = c.crypto.len() - 1;
                let payload = c.crypto.encrypt_forward(last_hop, &rc);
                let (link, circ_id) = (c.link, c.circ_id);
                self.send_cell(ctx, link, Cell::new(circ_id, CellCommand::Relay, payload));
            }
            Command::SendData { stream, data } => {
                let Some(&(circuit, stream_id)) = self.stream_index.get(&stream) else {
                    return;
                };
                let Some(c) = self.circuits.get_mut(&circuit) else {
                    return;
                };
                if !c.alive {
                    return;
                }
                let mut out = Vec::new();
                for chunk in data.chunks(tor_protocol::RELAY_DATA_LEN) {
                    let rc = RelayCell::new(RelayCmd::Data, stream_id, chunk.to_vec());
                    let last_hop = c.crypto.len() - 1;
                    let payload = c.crypto.encrypt_forward(last_hop, &rc);
                    out.push((c.link, Cell::new(c.circ_id, CellCommand::Relay, payload)));
                }
                for (link, cell) in out {
                    self.send_cell(ctx, link, cell);
                }
            }
            Command::CloseStream { stream } => {
                self.shared.borrow_mut().forget_stream(stream);
                let Some((circuit, stream_id)) = self.stream_index.remove(&stream) else {
                    return;
                };
                let Some(c) = self.circuits.get_mut(&circuit) else {
                    return;
                };
                if c.streams.remove(&stream_id).is_some() && c.alive {
                    let rc = RelayCell::new(RelayCmd::End, stream_id, vec![]);
                    let last_hop = c.crypto.len() - 1;
                    let payload = c.crypto.encrypt_forward(last_hop, &rc);
                    let (link, circ_id) = (c.link, c.circ_id);
                    self.send_cell(ctx, link, Cell::new(circ_id, CellCommand::Relay, payload));
                }
            }
            Command::CloseCircuit { circuit } => {
                // The handle dies here whatever became of the circuit —
                // one refused by path policy never had any other state —
                // and so do the streams still attached through it.
                let mut shared = self.shared.borrow_mut();
                shared.circuit_status.remove(&circuit);
                shared.circuit_errors.remove(&circuit);
                self.stream_index.retain(|&stream, &mut (through, _)| {
                    if through == circuit {
                        shared.forget_stream(stream);
                    }
                    through != circuit
                });
                drop(shared);
                let Some(c) = self.circuits.remove(&circuit) else {
                    return;
                };
                self.circ_index.remove(&(c.link, c.circ_id));
                self.send_cell(
                    ctx,
                    c.link,
                    Cell::new(c.circ_id, CellCommand::Destroy, vec![]),
                );
            }
        }
    }
}

impl Process for OnionProxy {
    fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
        self.conn_ready.insert(conn, true);
        if let Some(cells) = self.pending_cells.remove(&conn) {
            for cell in cells {
                ctx.send(conn, cell.encode());
            }
        }
    }

    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        let Some(cell) = Cell::decode(&data) else {
            return;
        };
        let Some(&handle) = self.circ_index.get(&(conn, cell.circ_id)) else {
            return;
        };
        match cell.command {
            CellCommand::Created2 => self.handle_created2(ctx, handle, &cell.payload),
            CellCommand::Relay => {
                let circuit = self.circuits.get_mut(&handle).expect("indexed");
                match circuit.crypto.decrypt_backward(&cell.payload) {
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
