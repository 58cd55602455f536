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
//! at 0–3 ms, which is what the [`RelayConfig`]s the network builder
//! draws per relay produce.

use crate::link::{on_link, HopKey, LinkTable};
use crate::metrics::RelayMetrics;
use netsim::{ConnId, Context, NodeId, Process, SimDuration, TrafficClass};
use onion_crypto::{server_handshake, KeyPair};
use rand::Rng;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
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
        self.base_proc_ms + self.busy_prob * self.busy_mean_ms
    }
}

/// Queue depth at which overload shedding kicks in.
const OVERLOAD_QUEUE_DEPTH: usize = 32;

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
    /// queue is at least `OVERLOAD_QUEUE_DEPTH` (32) cells deep.
    pub overload_drop_prob: f64,
    /// Seed for this relay's private fault-draw stream.
    pub seed: u64,
}

impl RelayFaultProfile {
    /// A profile that injects nothing.
    pub(crate) fn disabled() -> RelayFaultProfile {
        RelayFaultProfile::default()
    }

    /// True when the profile can inject anything at all.
    pub(crate) fn is_enabled(&self) -> bool {
        self.extend_refuse_prob > 0.0 || self.overload_drop_prob > 0.0
    }

    /// Derives a per-relay copy with its own seed, so relays sharing one
    /// profile still draw independent fault streams.
    pub(crate) fn for_relay(mut self, index: u64) -> RelayFaultProfile {
        self.seed = self
            .seed
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            | 1;
        self
    }
}

/// A circuit's two neighbours at this relay.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Client,
    Exit,
}

/// One exit stream: the external connection and whether its connect
/// has completed (until then DATA and END for the stream are ignored).
struct ExitStream {
    conn: ConnId,
    connected: bool,
}

/// One circuit's state at this relay.
struct CircuitState {
    crypto: RelayCrypto,
    /// Link/circuit toward the client.
    prev: HopKey,
    /// Link/circuit toward the exit, from the CREATE2 on.
    next: Option<HopKey>,
    /// The CREATED2 for `next` is back: cells and DESTROYs go there.
    extended: bool,
    /// Exit streams by stream id. Ordered: a teardown closes them in
    /// this order, and every close draws from the simulation RNG.
    streams: BTreeMap<u16, ExitStream>,
}

impl CircuitState {
    /// Sends a relay cell of this relay's own toward the client.
    fn send_backward(&mut self, links: &mut LinkTable, ctx: &mut Context, rc: &RelayCell) {
        let payload = self.crypto.encrypt_backward(rc);
        links.send(ctx, self.prev, CellCommand::Relay, payload);
    }
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
    /// Tor links only: an exit stream's external conn lives in
    /// `stream_index` and its circuit.
    links: LinkTable,
    /// Circuits by their client-side key. Boxed: a B-tree node holds
    /// eleven values inline.
    circuits: BTreeMap<HopKey, Box<CircuitState>>,
    /// Exit-side index: a circuit's `next` → its client-side key.
    exit_index: BTreeMap<HopKey, HopKey>,
    /// External stream conns → (circuit's client-side key, stream id).
    stream_index: BTreeMap<ConnId, (HopKey, u16)>,
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
    pub(crate) fn new(identity: KeyPair, config: RelayConfig) -> Relay {
        Relay {
            identity,
            config,
            links: LinkTable::default(),
            circuits: BTreeMap::new(),
            exit_index: BTreeMap::new(),
            stream_index: BTreeMap::new(),
            next_circ_id: 1,
            busy_until_ns: 0,
            queue: VecDeque::new(),
            metrics: RelayMetrics::new(),
            faults: RelayFaultProfile::disabled(),
            fault_draws: 0,
        }
    }

    /// Attaches an external metrics handle (callers keep a clone).
    pub(crate) fn with_metrics(mut self, metrics: RelayMetrics) -> Relay {
        #[cfg(test)]
        {
            self.links.published_len = metrics.link_entries();
        }
        self.metrics = metrics;
        self
    }

    /// Attaches a fault profile (disabled by default).
    pub(crate) fn with_faults(mut self, faults: RelayFaultProfile) -> Relay {
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

    /// Samples this cell's processing cost and returns its ready time.
    fn enqueue_cell(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        if self.faults.is_enabled()
            && self.faults.overload_drop_prob > 0.0
            && self.queue.len() >= OVERLOAD_QUEUE_DEPTH
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
        let circuit = CircuitState {
            crypto: RelayCrypto::new(&keys),
            prev: key,
            next: None,
            extended: false,
            streams: BTreeMap::new(),
        };
        self.circuits.insert(key, Box::new(circuit));
        let body = Extended2 {
            server_pk: reply.ephemeral_public,
            auth: reply.auth,
        };
        self.links
            .send(ctx, key, CellCommand::Created2, body.encode());
    }

    fn handle_created2(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        let key = (conn, cell.circ_id);
        let Some(circuit) = self
            .exit_index
            .get(&key)
            .and_then(|prev_key| self.circuits.get_mut(prev_key))
            .filter(|circuit| !circuit.extended)
        else {
            return; // stale
        };
        circuit.extended = true;
        // Tunnel the CREATED2 body back as EXTENDED2.
        let body = &cell.payload[..Extended2::LEN];
        let rc = RelayCell::new(RelayCmd::Extended2, 0, body.to_vec());
        circuit.send_backward(&mut self.links, ctx, &rc);
    }

    fn handle_relay(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        let key = (conn, cell.circ_id);
        if let Some(prev_key) = self.exit_index.get(&key) {
            // Backward direction: add our layer and pass toward client.
            let Some(circuit) = self.circuits.get_mut(prev_key) else {
                return;
            };
            let payload = circuit.crypto.reencrypt_backward(cell.payload);
            self.links
                .send(ctx, circuit.prev, CellCommand::Relay, payload);
            return;
        }
        // Forward direction.
        let Some(circuit) = self.circuits.get_mut(&key) else {
            return; // unknown circuit: drop
        };
        match circuit.crypto.process_forward(cell.payload) {
            RelayCryptoOutcome::Forward(payload) => {
                self.metrics.on_forwarded();
                let Some(next) = circuit.next.filter(|_| circuit.extended) else {
                    // Unrecognized at the last hop: protocol violation.
                    self.teardown(ctx, key, None);
                    return;
                };
                self.links.send(ctx, next, CellCommand::Relay, payload);
            }
            RelayCryptoOutcome::Recognized(rc) => {
                self.metrics.on_recognized();
                self.handle_recognized(ctx, key, rc)
            }
        }
    }

    fn handle_recognized(&mut self, ctx: &mut Context, key: HopKey, rc: RelayCell) {
        if rc.cmd == RelayCmd::Extend2
            && self.faults.is_enabled()
            && self.faults.extend_refuse_prob > 0.0
            && self.fault_draw_u01() < self.faults.extend_refuse_prob
        {
            // Refuse to extend: tear down so the client sees a
            // DESTROY and can rebuild through the same pair.
            self.metrics.on_extend_refused();
            self.teardown(ctx, key, None);
            return;
        }
        let Some(circuit) = self.circuits.get_mut(&key) else {
            return;
        };
        match rc.cmd {
            RelayCmd::Extend2 => {
                // A second EXTEND2 is as malformed as an undecodable one.
                let Some(ext) = Extend2::decode(&rc.data).filter(|_| circuit.next.is_none()) else {
                    self.teardown(ctx, key, None);
                    return;
                };
                let link = self.links.find_or_open(ctx, NodeId(ext.target));
                let next = (link, CircuitId(self.next_circ_id));
                self.next_circ_id += 1;
                circuit.next = Some(next);
                self.exit_index.insert(next, key);
                let client_pk = ext.client_pk.to_vec();
                self.links.send(ctx, next, CellCommand::Create2, client_pk);
            }
            RelayCmd::Begin => {
                // data = target node u32 (the simulator's address form);
                // a short one, or a stream id already in use, is ignored.
                let (Some(&target), Entry::Vacant(slot)) = (
                    rc.data.first_chunk::<4>(),
                    circuit.streams.entry(rc.stream_id),
                ) else {
                    return;
                };
                let conn = ctx.open(NodeId(u32::from_be_bytes(target)), TrafficClass::Tcp);
                let connected = false;
                slot.insert(ExitStream { conn, connected });
                self.stream_index.insert(conn, (key, rc.stream_id));
                self.metrics.on_stream_opened();
            }
            RelayCmd::Data => {
                if let Some(stream) = circuit.streams.get(&rc.stream_id).filter(|s| s.connected) {
                    ctx.send(stream.conn, rc.data);
                }
            }
            RelayCmd::End => match circuit.streams.entry(rc.stream_id) {
                Entry::Occupied(slot) if slot.get().connected => {
                    let stream = slot.remove();
                    self.stream_index.remove(&stream.conn);
                    ctx.close(stream.conn);
                }
                _ => {}
            },
            RelayCmd::SendMe => {} // flow control not enforced
            RelayCmd::Connected | RelayCmd::Extended2 => {
                // Client-bound commands arriving forward: protocol error.
                self.teardown(ctx, key, None);
            }
        }
    }

    fn handle_destroy(&mut self, ctx: &mut Context, conn: ConnId, cell: Cell) {
        let key = (conn, cell.circ_id);
        if self.circuits.contains_key(&key) {
            self.teardown(ctx, key, Some(Side::Client));
        } else if let Some(&prev_key) = self.exit_index.get(&key) {
            self.teardown(ctx, prev_key, Some(Side::Exit));
        }
    }

    /// Test builds publish the circuit tables' sizes beside the links'.
    /// Only processing a cell and a closed connection change them.
    fn publish_tables(&self) {
        #[cfg(test)]
        self.metrics.circuit_entries().set([
            self.circuits.len(),
            self.exit_index.len(),
            self.stream_index.len(),
        ]);
    }

    /// Forgets the circuit with client-side key `key`: closes its exit
    /// streams and sends DESTROY to each neighbour except the one the
    /// teardown was `heard_from` (`None`: this relay's own decision).
    fn teardown(&mut self, ctx: &mut Context, key: HopKey, heard_from: Option<Side>) {
        let Some(circuit) = self.circuits.remove(&key) else {
            return;
        };
        self.metrics.on_circuit_destroyed();
        for stream in circuit.streams.into_values() {
            self.stream_index.remove(&stream.conn);
            ctx.close(stream.conn);
        }
        if let Some(next) = circuit.next {
            self.exit_index.remove(&next);
            if circuit.extended && heard_from != Some(Side::Exit) {
                self.links.send(ctx, next, CellCommand::Destroy, vec![]);
            }
        }
        if heard_from != Some(Side::Client) {
            self.links
                .send(ctx, circuit.prev, CellCommand::Destroy, vec![]);
        }
    }
}

impl Process for Relay {
    fn on_conn_opened(&mut self, _ctx: &mut Context, conn: ConnId, peer: NodeId) {
        self.links.accepted(conn, peer);
    }

    fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
        self.links.established(ctx, conn);
        // Exit-stream connects complete here too.
        let Some(&(key, stream_id)) = self.stream_index.get(&conn) else {
            return;
        };
        let Some(circuit) = self.circuits.get_mut(&key) else {
            return;
        };
        let Some(stream) = circuit.streams.get_mut(&stream_id) else {
            return;
        };
        stream.connected = true;
        let rc = RelayCell::new(RelayCmd::Connected, stream_id, vec![]);
        circuit.send_backward(&mut self.links, ctx, &rc);
    }

    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        if let Some(&(key, stream_id)) = self.stream_index.get(&conn) {
            // Data returning from an exit stream: wrap and send backward.
            if let Some(circuit) = self.circuits.get_mut(&key) {
                for chunk in data.chunks(tor_protocol::RELAY_DATA_LEN) {
                    let rc = RelayCell::new(RelayCmd::Data, stream_id, chunk.to_vec());
                    circuit.send_backward(&mut self.links, ctx, &rc);
                }
            }
            return;
        }
        // A link cell: queue behind the processing model. Its buffer is
        // the one it leaves by (`Cell`'s docs).
        if let Some(cell) = Cell::decode(data) {
            self.enqueue_cell(ctx, conn, cell);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, id: u64) {
        if id != TIMER_PROC {
            return;
        }
        let now_ns = ctx.now.as_nanos();
        while let Some(pending) = self.queue.pop_front_if(|p| p.ready_at_ns <= now_ns) {
            self.metrics.on_processed(pending.cost_ms);
            self.process_cell(ctx, pending.conn, pending.cell);
        }
        self.publish_tables();
    }

    fn on_conn_closed(&mut self, ctx: &mut Context, conn: ConnId) {
        if let Some((key, stream_id)) = self.stream_index.remove(&conn) {
            // An exit stream's target hung up: END toward the client.
            if let Some(circuit) = self.circuits.get_mut(&key) {
                circuit.streams.remove(&stream_id);
                let rc = RelayCell::new(RelayCmd::End, stream_id, vec![]);
                circuit.send_backward(&mut self.links, ctx, &rc);
            }
        } else if self.links.closed(conn) {
            // A peer link died (e.g. a blackholed connect to a crashed
            // relay timed out): it is forgotten, so future extends
            // reopen it. Fail everything that was riding on it — exit
            // side first, each side in key order, because each DESTROY
            // draws a delay from the simulation RNG.
            let exits = self.exit_index.range(on_link(conn)).map(|(_, &key)| key);
            for key in exits.collect::<Vec<_>>() {
                self.teardown(ctx, key, Some(Side::Exit));
            }
            let clients = self.circuits.range(on_link(conn)).map(|(&key, _)| key);
            for key in clients.collect::<Vec<_>>() {
                self.teardown(ctx, key, Some(Side::Client));
            }
        }
        self.publish_tables();
    }
}
