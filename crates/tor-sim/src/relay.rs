//! The onion-router state machine.
//!
//! A relay terminates link connections from clients and other relays,
//! maintains per-circuit crypto state, and moves cells:
//!
//! * CREATE2 → run the ntor handshake, become the newest hop;
//! * RELAY (from the client side) → strip one onion layer; if recognized,
//!   act on the relay command (EXTEND2 / BEGIN / DATA / END), otherwise
//!   forward to the next hop;
//! * RELAY (from the exit side) → add one onion layer, forward backward;
//! * DESTROY → tear down and propagate.
//!
//! **Forwarding delay.** Every cell passes through a busy-until queue
//! before processing: `F = base_proc + queueing`, where `base_proc` is
//! the symmetric-crypto floor (the "time to decrypt and encrypt packets",
//! §3.2) and queueing is a load-dependent random term ("the time the
//! packet spends enqueued … if our measurement packet arrives at a node
//! when our circuit is not first in the schedule"). Ting's estimator
//! exists precisely to cancel this `F`; §4.3 finds its per-relay minimum
//! at 0–3 ms, which is what the default [`RelayConfig`] produces.

use crate::metrics::RelayMetrics;
use netsim::{ConnId, Context, NodeId, Process, SimDuration, TrafficClass};
use onion_crypto::{server_handshake, KeyPair};
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use tor_protocol::{
    Cell, CellCommand, CircuitId, Extend2, Extended2, RelayCell, RelayCmd, RelayCrypto,
    RelayCryptoOutcome,
};

/// Timer id: the head of the processing queue is due.
const TIMER_PROC: u64 = 1;

/// Per-relay performance/load parameters.
#[derive(Debug, Clone, Copy)]
pub struct RelayConfig {
    /// Crypto + context-switch floor per cell (ms). Paper §4.3: the
    /// minimum forwarding delay "should consist only of the time to
    /// process the packet, which mostly consists of symmetric key
    /// cryptography" — 0–2 ms on PlanetLab hardware.
    pub base_proc_ms: f64,
    /// Probability a cell finds other circuits' cells scheduled ahead of
    /// it (relay utilization by background traffic).
    pub busy_prob: f64,
    /// Mean of the exponential queueing delay when busy (ms).
    pub busy_mean_ms: f64,
}

impl RelayConfig {
    /// The mean per-cell forwarding delay this config induces:
    /// the crypto floor plus the expected queueing excess
    /// (`busy_prob · busy_mean_ms`). This is the ground truth a §4.3
    /// forwarding-delay estimator should recover, so trace-analysis
    /// tests correlate their per-relay attributions against it.
    pub fn expected_forwarding_ms(&self) -> f64 {
        self.base_proc_ms + self.expected_queueing_ms()
    }

    /// The queueing part of the forwarding delay alone. An estimator
    /// that subtracts a minimum-RTT floor cancels `base_proc_ms` along
    /// with propagation (both sit in every probe, including the
    /// fastest), so what it can actually recover per relay is this
    /// excess term.
    pub fn expected_queueing_ms(&self) -> f64 {
        self.busy_prob * self.busy_mean_ms
    }
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            base_proc_ms: 0.5,
            busy_prob: 0.35,
            busy_mean_ms: 3.0,
        }
    }
}

/// Relay-level fault injection: misbehaviour of the onion router itself,
/// as opposed to the underlay faults in [`netsim::FaultPlan`].
///
/// Fault decisions come from a keyed hash over `(seed, draw counter)`
/// private to each relay — never from the simulation RNG — so enabling
/// faults on one relay does not perturb random draws anywhere else, and
/// a profile with all rates zero is a strict no-op (no draws happen).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RelayFaultProfile {
    /// Probability an EXTEND2 request is refused (circuit torn down with
    /// DESTROY back to the client, as a loaded or misconfigured relay
    /// would).
    pub extend_refuse_prob: f64,
    /// Probability a cell is shed instead of queued once the processing
    /// queue is at least [`RelayFaultProfile::overload_queue_depth`]
    /// deep.
    pub overload_drop_prob: f64,
    /// Queue depth at which overload shedding kicks in.
    pub overload_queue_depth: usize,
    /// Seed for this relay's private fault-draw stream.
    pub seed: u64,
}

impl RelayFaultProfile {
    /// A profile that injects nothing.
    pub fn disabled() -> RelayFaultProfile {
        RelayFaultProfile::default()
    }

    /// True when the profile can inject anything at all.
    pub fn is_enabled(&self) -> bool {
        self.extend_refuse_prob > 0.0 || self.overload_drop_prob > 0.0
    }

    /// Derives a per-relay copy with its own seed, so relays sharing one
    /// profile still draw independent fault streams.
    pub fn for_relay(mut self, index: u64) -> RelayFaultProfile {
        self.seed = self
            .seed
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            | 1;
        self
    }
}

/// Keys a circuit hop uniquely at this relay: the client-side link
/// connection and circuit id.
type HopKey = (ConnId, CircuitId);

/// One circuit's state at this relay.
struct CircuitState {
    crypto: RelayCrypto,
    /// Link/circuit toward the client.
    prev: HopKey,
    /// Link/circuit toward the exit, once extended.
    next: Option<HopKey>,
    /// Open exit streams: stream id → external connection.
    streams: HashMap<u16, ConnId>,
    /// Streams whose BEGIN is awaiting the external connect.
    pending_streams: HashMap<ConnId, u16>,
    torn_down: bool,
}

/// A cell waiting in the processing queue.
struct PendingCell {
    ready_at_ns: u64,
    cost_ms: f64,
    conn: ConnId,
    cell: Cell,
}

/// The relay process.
pub struct Relay {
    identity: KeyPair,
    config: RelayConfig,
    /// Link conns to peers (outbound, for extension).
    links: HashMap<NodeId, ConnId>,
    /// Cells queued while an outbound link handshakes.
    pending_link: HashMap<ConnId, Vec<Cell>>,
    /// Which node each link conn talks to (both directions). Like
    /// `conn_ready`, Tor links only: an exit stream's external conn
    /// lives in `stream_index` alone, so it is forgotten with the
    /// stream.
    conn_peer: HashMap<ConnId, NodeId>,
    /// Established link conns (outbound ready or inbound accepted).
    conn_ready: HashMap<ConnId, bool>,
    circuits: HashMap<HopKey, CircuitState>,
    /// Secondary index: (conn, circ) on the *next* side → prev key.
    next_index: HashMap<HopKey, HopKey>,
    /// CREATE2s we sent, awaiting CREATED2: (conn, circ) → prev key.
    pending_create: HashMap<HopKey, HopKey>,
    /// External stream conns → (circuit prev key, stream id).
    stream_index: HashMap<ConnId, (HopKey, u16)>,
    /// Next circuit id for links we originate.
    next_circ_id: u32,
    /// Busy-until accounting for the processing queue (ns).
    busy_until_ns: u64,
    queue: VecDeque<PendingCell>,
    metrics: RelayMetrics,
    faults: RelayFaultProfile,
    /// Monotone counter for the private fault-draw stream.
    fault_draws: u64,
}

impl Relay {
    pub fn new(identity: KeyPair, config: RelayConfig) -> Relay {
        Relay {
            identity,
            config,
            links: HashMap::new(),
            pending_link: HashMap::new(),
            conn_peer: HashMap::new(),
            conn_ready: HashMap::new(),
            circuits: HashMap::new(),
            next_index: HashMap::new(),
            pending_create: HashMap::new(),
            stream_index: HashMap::new(),
            next_circ_id: 1,
            busy_until_ns: 0,
            queue: VecDeque::new(),
            metrics: RelayMetrics::new(),
            faults: RelayFaultProfile::disabled(),
            fault_draws: 0,
        }
    }

    /// Attaches an external metrics handle (callers keep a clone).
    pub fn with_metrics(mut self, metrics: RelayMetrics) -> Relay {
        self.metrics = metrics;
        self
    }

    /// Attaches a fault profile (disabled by default).
    pub fn with_faults(mut self, faults: RelayFaultProfile) -> Relay {
        self.faults = faults;
        self
    }

    /// One uniform draw in `[0, 1)` from this relay's private
    /// fault-injection stream. Call only when faults are enabled.
    fn fault_draw_u01(&mut self) -> f64 {
        let n = self.fault_draws;
        self.fault_draws += 1;
        let seed = self.faults.seed;
        netsim::keyed_u01(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(n))
    }

    /// This relay's metrics handle.
    pub fn metrics(&self) -> RelayMetrics {
        self.metrics.clone()
    }

    /// Samples this cell's processing cost and returns its ready time.
    fn enqueue_cell(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        if self.faults.is_enabled()
            && self.faults.overload_drop_prob > 0.0
            && self.queue.len() >= self.faults.overload_queue_depth
            && self.fault_draw_u01() < self.faults.overload_drop_prob
        {
            // Overloaded: shed the cell instead of queueing it.
            self.metrics.on_cell_dropped();
            return;
        }
        let cost_ms = self.config.base_proc_ms
            + if ctx.rng.gen_bool(self.config.busy_prob) {
                -ctx.rng.gen_range(1e-12..1.0f64).ln() * self.config.busy_mean_ms
            } else {
                0.0
            };
        let now_ns = ctx.now.as_nanos();
        self.busy_until_ns = self
            .busy_until_ns
            .max(now_ns)
            .saturating_add((cost_ms * 1e6) as u64);
        let ready_at_ns = self.busy_until_ns;
        self.metrics.on_enqueue();
        self.queue.push_back(PendingCell {
            ready_at_ns,
            cost_ms,
            conn,
            cell,
        });
        ctx.set_timer(SimDuration::from_nanos(ready_at_ns - now_ns), TIMER_PROC);
    }

    fn send_cell(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        if self.conn_ready.get(&conn).copied().unwrap_or(false) {
            ctx.send(conn, cell.encode());
        } else {
            self.pending_link.entry(conn).or_default().push(cell);
        }
    }

    /// Finds or opens a Tor link to `peer`.
    fn link_to(&mut self, ctx: &mut Context, peer: NodeId) -> ConnId {
        if let Some(&c) = self.links.get(&peer) {
            return c;
        }
        let c = ctx.open(peer, TrafficClass::Tor);
        self.links.insert(peer, c);
        self.conn_peer.insert(c, peer);
        self.conn_ready.insert(c, false);
        self.publish_link_entries();
        c
    }

    /// Test builds publish the link tables' size wherever it changes.
    fn publish_link_entries(&self) {
        #[cfg(test)]
        let entries = self.conn_peer.len() + self.conn_ready.len();
        #[cfg(test)]
        self.metrics.link_entries().set(entries);
    }

    fn process_cell(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        match cell.command {
            CellCommand::Create2 => self.handle_create2(ctx, conn, cell),
            CellCommand::Created2 => self.handle_created2(ctx, conn, cell),
            CellCommand::Relay => self.handle_relay(ctx, conn, cell),
            CellCommand::Destroy => self.handle_destroy(ctx, conn, cell),
        }
    }

    fn handle_create2(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        let mut client_pk = [0u8; 32];
        client_pk.copy_from_slice(&cell.payload[..32]);
        // Fresh ephemeral from the simulation RNG.
        let mut seed = [0u8; 32];
        ctx.rng.fill(&mut seed);
        let ephemeral = KeyPair::from_secret(seed);
        let (reply, keys) = server_handshake(&self.identity, ephemeral, &client_pk);
        self.metrics.on_circuit_created();
        let key = (conn, cell.circ_id);
        self.circuits.insert(
            key,
            CircuitState {
                crypto: RelayCrypto::new(&keys),
                prev: key,
                next: None,
                streams: HashMap::new(),
                pending_streams: HashMap::new(),
                torn_down: false,
            },
        );
        let body = Extended2 {
            server_pk: reply.ephemeral_public,
            auth: reply.auth,
        };
        self.send_cell(
            ctx,
            conn,
            Cell::new(cell.circ_id, CellCommand::Created2, body.encode()),
        );
    }

    fn handle_created2(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        let key = (conn, cell.circ_id);
        let Some(prev_key) = self.pending_create.remove(&key) else {
            return; // stale
        };
        let Some(circuit) = self.circuits.get_mut(&prev_key) else {
            return;
        };
        circuit.next = Some(key);
        self.next_index.insert(key, prev_key);
        // Tunnel the CREATED2 body back as EXTENDED2.
        let body = &cell.payload[..Extended2::LEN];
        let rc = RelayCell::new(RelayCmd::Extended2, 0, body.to_vec());
        let payload = circuit.crypto.encrypt_backward(&rc);
        let (prev_conn, prev_circ) = circuit.prev;
        self.send_cell(
            ctx,
            prev_conn,
            Cell::new(prev_circ, CellCommand::Relay, payload),
        );
    }

    fn handle_relay(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        let key = (conn, cell.circ_id);
        if let Some(&prev_key) = self.next_index.get(&key) {
            // Backward direction: add our layer and pass toward client.
            let Some(circuit) = self.circuits.get_mut(&prev_key) else {
                return;
            };
            let payload = circuit.crypto.reencrypt_backward(&cell.payload);
            let (prev_conn, prev_circ) = circuit.prev;
            self.send_cell(
                ctx,
                prev_conn,
                Cell::new(prev_circ, CellCommand::Relay, payload),
            );
            return;
        }
        // Forward direction.
        let Some(circuit) = self.circuits.get_mut(&key) else {
            return; // unknown circuit: drop
        };
        match circuit.crypto.process_forward(&cell.payload) {
            RelayCryptoOutcome::Forward(payload) => {
                self.metrics.on_forwarded();
                let Some((next_conn, next_circ)) = circuit.next else {
                    // Unrecognized at the last hop: protocol violation.
                    self.teardown(ctx, key, true);
                    return;
                };
                self.send_cell(
                    ctx,
                    next_conn,
                    Cell::new(next_circ, CellCommand::Relay, payload),
                );
            }
            RelayCryptoOutcome::Recognized(rc) => {
                self.metrics.on_recognized();
                self.handle_recognized(ctx, key, rc)
            }
        }
    }

    fn handle_recognized(&mut self, ctx: &mut Context, key: HopKey, rc: RelayCell) {
        match rc.cmd {
            RelayCmd::Extend2 => {
                if self.faults.is_enabled()
                    && self.faults.extend_refuse_prob > 0.0
                    && self.fault_draw_u01() < self.faults.extend_refuse_prob
                {
                    // Refuse to extend: tear down so the client sees a
                    // DESTROY and can rebuild through the same pair.
                    self.metrics.on_extend_refused();
                    self.teardown(ctx, key, true);
                    return;
                }
                let Some(ext) = Extend2::decode(&rc.data) else {
                    self.teardown(ctx, key, true);
                    return;
                };
                let link = self.link_to(ctx, NodeId(ext.target));
                let out_circ = CircuitId(self.next_circ_id);
                self.next_circ_id += 1;
                self.pending_create.insert((link, out_circ), key);
                self.send_cell(
                    ctx,
                    link,
                    Cell::new(out_circ, CellCommand::Create2, ext.client_pk.to_vec()),
                );
            }
            RelayCmd::Begin => {
                // data = target node u32 (the simulator's address form).
                if rc.data.len() < 4 {
                    return;
                }
                let target = NodeId(u32::from_be_bytes([
                    rc.data[0], rc.data[1], rc.data[2], rc.data[3],
                ]));
                let ext_conn = ctx.open(target, TrafficClass::Tcp);
                let circuit = self.circuits.get_mut(&key).expect("circuit exists");
                circuit.pending_streams.insert(ext_conn, rc.stream_id);
                self.stream_index.insert(ext_conn, (key, rc.stream_id));
                self.metrics.on_stream_opened();
            }
            RelayCmd::Data => {
                let circuit = self.circuits.get_mut(&key).expect("circuit exists");
                if let Some(&ext_conn) = circuit.streams.get(&rc.stream_id) {
                    ctx.send(ext_conn, rc.data);
                }
            }
            RelayCmd::End => {
                let circuit = self.circuits.get_mut(&key).expect("circuit exists");
                if let Some(ext_conn) = circuit.streams.remove(&rc.stream_id) {
                    self.stream_index.remove(&ext_conn);
                    ctx.close(ext_conn);
                }
            }
            RelayCmd::SendMe => {} // flow control not enforced
            RelayCmd::Connected | RelayCmd::Extended2 => {
                // Client-bound commands arriving forward: protocol error.
                self.teardown(ctx, key, true);
            }
        }
    }

    fn handle_destroy(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        let key = (conn, cell.circ_id);
        if self.circuits.contains_key(&key) {
            self.teardown(ctx, key, false);
        } else if let Some(&prev_key) = self.next_index.get(&key) {
            // Destroy arriving from the exit side.
            self.teardown_toward_client(ctx, prev_key);
        }
    }

    /// Tears down a circuit identified by its prev-side key, propagating
    /// DESTROY toward the exit (and to the client if `notify_client`).
    fn teardown(&mut self, ctx: &mut Context, key: HopKey, notify_client: bool) {
        let Some(mut circuit) = self.circuits.remove(&key) else {
            return;
        };
        if circuit.torn_down {
            return;
        }
        circuit.torn_down = true;
        self.metrics.on_circuit_destroyed();
        for (_, ext_conn) in circuit.streams.drain() {
            self.stream_index.remove(&ext_conn);
            ctx.close(ext_conn);
        }
        for (ext_conn, _) in circuit.pending_streams.drain() {
            self.stream_index.remove(&ext_conn);
            ctx.close(ext_conn);
        }
        if let Some(next) = circuit.next {
            self.next_index.remove(&next);
            self.send_cell(ctx, next.0, Cell::new(next.1, CellCommand::Destroy, vec![]));
        }
        if notify_client {
            let (prev_conn, prev_circ) = circuit.prev;
            self.send_cell(
                ctx,
                prev_conn,
                Cell::new(prev_circ, CellCommand::Destroy, vec![]),
            );
        }
    }

    fn teardown_toward_client(&mut self, ctx: &mut Context, prev_key: HopKey) {
        let Some(circuit) = self.circuits.get(&prev_key) else {
            return;
        };
        let next = circuit.next;
        if let Some(next) = next {
            self.next_index.remove(&next);
        }
        let mut c = self.circuits.remove(&prev_key).unwrap();
        self.metrics.on_circuit_destroyed();
        for (_, ext_conn) in c.streams.drain() {
            self.stream_index.remove(&ext_conn);
            ctx.close(ext_conn);
        }
        let (prev_conn, prev_circ) = c.prev;
        self.send_cell(
            ctx,
            prev_conn,
            Cell::new(prev_circ, CellCommand::Destroy, vec![]),
        );
    }
}

impl Process for Relay {
    fn on_conn_opened(&mut self, _ctx: &mut Context, conn: ConnId, peer: NodeId) {
        self.conn_peer.insert(conn, peer);
        self.conn_ready.insert(conn, true);
        self.publish_link_entries();
    }

    fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
        // A link this relay opened, unless it has been forgotten since.
        if let Some(ready) = self.conn_ready.get_mut(&conn) {
            *ready = true;
        }
        // Exit-stream connects complete here too.
        if let Some(&(key, stream_id)) = self.stream_index.get(&conn) {
            if let Some(circuit) = self.circuits.get_mut(&key) {
                if circuit.pending_streams.remove(&conn).is_some() {
                    circuit.streams.insert(stream_id, conn);
                    let rc = RelayCell::new(RelayCmd::Connected, stream_id, vec![]);
                    let payload = circuit.crypto.encrypt_backward(&rc);
                    let (prev_conn, prev_circ) = circuit.prev;
                    self.send_cell(
                        ctx,
                        prev_conn,
                        Cell::new(prev_circ, CellCommand::Relay, payload),
                    );
                }
            }
        }
        // Flush cells queued on this link.
        if let Some(cells) = self.pending_link.remove(&conn) {
            for cell in cells {
                ctx.send(conn, cell.encode());
            }
        }
    }

    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        if let Some(&(key, stream_id)) = self.stream_index.get(&conn) {
            // Data returning from an exit stream: wrap and send backward.
            let Some(circuit) = self.circuits.get_mut(&key) else {
                return;
            };
            let mut out = Vec::new();
            for chunk in data.chunks(tor_protocol::RELAY_DATA_LEN) {
                let rc = RelayCell::new(RelayCmd::Data, stream_id, chunk.to_vec());
                let payload = circuit.crypto.encrypt_backward(&rc);
                let (prev_conn, prev_circ) = circuit.prev;
                out.push((prev_conn, Cell::new(prev_circ, CellCommand::Relay, payload)));
            }
            for (conn, cell) in out {
                self.send_cell(ctx, conn, cell);
            }
            return;
        }
        // A link cell: queue behind the processing model.
        if let Some(cell) = Cell::decode(&data) {
            self.enqueue_cell(ctx, conn, cell);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, id: u64) {
        if id != TIMER_PROC {
            return;
        }
        let now_ns = ctx.now.as_nanos();
        while let Some(front) = self.queue.front() {
            if front.ready_at_ns > now_ns {
                break;
            }
            let pending = self.queue.pop_front().unwrap();
            self.metrics.on_processed(pending.cost_ms);
            self.process_cell(ctx, pending.conn, pending.cell);
        }
    }

    fn on_conn_closed(&mut self, ctx: &mut Context, conn: ConnId) {
        // An exit stream's target hung up: END toward the client.
        if let Some((key, stream_id)) = self.stream_index.remove(&conn) {
            if let Some(circuit) = self.circuits.get_mut(&key) {
                circuit.streams.remove(&stream_id);
                circuit.pending_streams.remove(&conn);
                let rc = RelayCell::new(RelayCmd::End, stream_id, vec![]);
                let payload = circuit.crypto.encrypt_backward(&rc);
                let (prev_conn, prev_circ) = circuit.prev;
                self.send_cell(
                    ctx,
                    prev_conn,
                    Cell::new(prev_circ, CellCommand::Relay, payload),
                );
            }
            return;
        }
        // A peer link died (e.g. a blackholed connect to a crashed
        // relay timed out): forget the cached link so future extends
        // reopen it, and fail everything that was riding on it.
        if let Some(peer) = self.conn_peer.remove(&conn) {
            if self.links.get(&peer) == Some(&conn) {
                self.links.remove(&peer);
            }
        }
        self.conn_ready.remove(&conn);
        self.pending_link.remove(&conn);
        self.publish_link_entries();
        // CREATE2s awaiting a reply on this link: DESTROY to clients.
        let dead_creates: Vec<(HopKey, HopKey)> = self
            .pending_create
            .iter()
            .filter(|((c, _), _)| *c == conn)
            .map(|(&k, &v)| (k, v))
            .collect();
        for (key, prev_key) in dead_creates {
            self.pending_create.remove(&key);
            self.teardown(ctx, prev_key, true);
        }
        // Established circuits whose next hop used this link.
        let dead_next: Vec<HopKey> = self
            .next_index
            .iter()
            .filter(|((c, _), _)| *c == conn)
            .map(|(_, &prev)| prev)
            .collect();
        for prev_key in dead_next {
            self.teardown(ctx, prev_key, true);
        }
        // Circuits whose client side was this link: tear toward exit.
        let dead_prev: Vec<HopKey> = self
            .circuits
            .keys()
            .filter(|(c, _)| *c == conn)
            .copied()
            .collect();
        for key in dead_prev {
            self.teardown(ctx, key, false);
        }
    }
}
