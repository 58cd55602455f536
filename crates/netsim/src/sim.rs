//! The simulator engine: nodes, connections, and the dispatch loop.

use crate::event::{EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::process::{Context, Op, Process};
use crate::time::{SimDuration, SimTime};
use crate::underlay::{TrafficClass, Underlay};
use obs::{Counter, Obs, Value};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// How long an opener waits for a SYN+ACK that never comes before the
/// connection attempt is reported closed (blackholed connects only).
const CONNECT_TIMEOUT_MS: f64 = 3_000.0;

/// Identifies a node (dense index, shared with the underlay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a connection (globally unique within a run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

/// Per-connection state, kept from the open to the close: a closed
/// connection is a forgotten one.
#[derive(Debug)]
struct ConnState {
    /// Active opener.
    a: NodeId,
    /// Passive acceptor.
    b: NodeId,
    class: TrafficClass,
    /// When the opener may start transmitting (handshake completion).
    ready_at: SimTime,
    /// FIFO enforcement: the last scheduled delivery per direction.
    last_delivery_a2b: SimTime,
    last_delivery_b2a: SimTime,
}

impl ConnState {
    fn peer_of(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            debug_assert_eq!(n, self.b);
            self.a
        }
    }
}

/// Pre-resolved observability handles for the dispatch loop. Every
/// field is a null check + `Cell` bump when enabled, a null check when
/// not — the per-event budget that keeps [`obs::ObsConfig::Off`]
/// bit-identical and `Metrics` within the ≤5% overhead gate.
#[derive(Debug, Clone, Default)]
struct SimObs {
    obs: Obs,
    events: Counter,
    delivers: Counter,
    conns_opened: Counter,
    conns_established: Counter,
    conns_closed: Counter,
    timers: Counter,
    fault_events_dropped: Counter,
    fault_connects_blackholed: Counter,
    fault_messages_dropped: Counter,
    fault_delays: Counter,
}

impl SimObs {
    fn new(obs: Obs) -> SimObs {
        SimObs {
            events: obs.counter_handle("net.events"),
            delivers: obs.counter_handle("net.delivers"),
            conns_opened: obs.counter_handle("net.conns_opened"),
            conns_established: obs.counter_handle("net.conns_established"),
            conns_closed: obs.counter_handle("net.conns_closed"),
            timers: obs.counter_handle("net.timers"),
            fault_events_dropped: obs.counter_handle("net.fault.events_dropped"),
            fault_connects_blackholed: obs.counter_handle("net.fault.connects_blackholed"),
            fault_messages_dropped: obs.counter_handle("net.fault.messages_dropped"),
            fault_delays: obs.counter_handle("net.fault.delays"),
            obs,
        }
    }
}

/// The discrete-event simulator.
///
/// Owns the underlay, the node processes, the connection table, the
/// event queue, the clock, and the RNG. Everything that happens in a run
/// is a deterministic function of the construction seed and the sequence
/// of API calls.
pub struct Simulator {
    underlay: Underlay,
    processes: Vec<Box<dyn Process>>,
    /// Processes `..started` have run `on_start`. Processes are only
    /// appended, and they start in index order.
    started: usize,
    queue: EventQueue,
    conns: HashMap<ConnId, ConnState>,
    now: SimTime,
    rng: SmallRng,
    next_conn: u64,
    faults: FaultPlan,
    obs: SimObs,
    /// The one op buffer every handler emits into: lent to the handler's
    /// [`Context`], drained by [`Simulator::apply_ops`], and kept with
    /// its capacity for the next dispatch.
    ops: Vec<Op>,
}

impl Simulator {
    /// Creates a simulator over `underlay`, seeding the run RNG.
    pub fn new(underlay: Underlay, seed: u64) -> Simulator {
        Simulator {
            underlay,
            processes: Vec::new(),
            started: 0,
            queue: EventQueue::new(),
            conns: HashMap::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            next_conn: 0,
            faults: FaultPlan::disabled(),
            obs: SimObs::default(),
            ops: Vec::new(),
        }
    }

    /// Attaches an observability handle (keep a clone to read the
    /// registry later). The default is [`Obs::off`], which records
    /// nothing and leaves the run bit-identical to an uninstrumented
    /// build.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = SimObs::new(obs);
    }

    /// The attached observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs.obs
    }

    /// Installs a fault-injection plan. A disabled plan (the default)
    /// leaves every code path bit-identical to a fault-free build.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Mutable access, e.g. to add churn-driven crash windows mid-run.
    pub fn fault_plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Attaches `process` to the next underlay node. Must be called once
    /// per node, in underlay order; returns the node's id.
    pub fn add_process(&mut self, process: Box<dyn Process>) -> NodeId {
        #[expect(
            clippy::expect_used,
            reason = "a node id is a u32, and a simulation holds far fewer than 2^32 nodes"
        )]
        let id = NodeId(u32::try_from(self.processes.len()).expect("too many nodes"));
        assert!(
            self.processes.len() < self.underlay.node_count(),
            "more processes than underlay nodes"
        );
        self.processes.push(process);
        id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The underlay (e.g. for ground-truth latency queries in tests and
    /// ping-based experiment code).
    pub fn underlay_mut(&mut self) -> &mut Underlay {
        &mut self.underlay
    }

    pub fn underlay(&self) -> &Underlay {
        &self.underlay
    }

    /// One synthetic ICMP echo RTT at the current time — Fig. 3's ground
    /// truth and the §3.2 strawman both use this.
    pub fn ping_rtt_ms(&mut self, a: NodeId, b: NodeId) -> f64 {
        self.underlay
            .ping_rtt_ms(a.index(), b.index(), self.now, &mut self.rng)
    }

    /// One TCP probe RTT (tcptraceroute-style) at the current time.
    pub fn tcp_rtt_ms(&mut self, a: NodeId, b: NodeId) -> f64 {
        self.underlay
            .tcp_rtt_ms(a.index(), b.index(), self.now, &mut self.rng)
    }

    /// Schedules an immediate wake-up timer for `node` (id
    /// `u64::MAX`) — the mechanism external drivers use to hand new
    /// commands to a process between runs.
    pub fn wake(&mut self, node: NodeId) {
        self.queue
            .schedule(self.now, EventKind::Timer { node, id: u64::MAX });
    }

    /// Advances the clock to `t` without dispatching anything scheduled
    /// after `t`. Events before `t` are processed.
    pub fn advance_to(&mut self, t: SimTime) {
        self.ensure_started();
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if self.now < t {
            self.now = t;
        }
    }

    /// The timestamp of the earliest queued event, if any. Starts any
    /// not-yet-started processes first (their `on_start` hooks may
    /// schedule events).
    ///
    /// This is the interleaving hook external drivers use to multiplex
    /// several in-flight operations over one event loop: peek the next
    /// event time, compare it against their own wake-up deadlines, and
    /// either [`Simulator::step`] or [`Simulator::advance_to`] — never
    /// draining further than the earliest thing anyone is waiting on.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.ensure_started();
        self.queue.peek_time()
    }

    /// Runs until the event queue drains. Returns the number of events
    /// dispatched.
    pub fn run_until_idle(&mut self) -> u64 {
        self.ensure_started();
        let mut n = 0;
        while self.step() {
            n += 1;
        }
        n
    }

    fn ensure_started(&mut self) {
        while self.started < self.processes.len() {
            let node = NodeId(self.started as u32);
            self.started += 1;
            self.dispatch_to(node, |p, ctx| p.on_start(ctx));
        }
    }

    /// Dispatches the next event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.obs.events.inc();
        // A crashed node receives nothing: its deliveries, handshake
        // notifications, and timers all vanish while it is down. (On
        // reboot the process resumes with its pre-crash state, like a
        // daemon restarted from a snapshot; anything in flight is gone.)
        if self.faults.is_enabled() {
            let dest = match ev.kind {
                EventKind::Deliver { to, .. } => to,
                EventKind::ConnOpened { at, .. } => at,
                EventKind::ConnEstablished { at, .. } => at,
                EventKind::ConnClosed { at, .. } => at,
                EventKind::Timer { node, .. } => node,
            };
            if self.faults.node_down(dest, ev.at) {
                self.obs.fault_events_dropped.inc();
                self.obs.obs.event(
                    obs::names::NET_FAULT_EVENT_DROPPED,
                    self.now.as_nanos(),
                    || vec![("node", Value::U64(u64::from(dest.0)))],
                );
                return true;
            }
        }
        match ev.kind {
            EventKind::Deliver { conn, to, data } => {
                self.obs.delivers.inc();
                self.obs
                    .obs
                    .event(obs::names::NET_DELIVER, self.now.as_nanos(), || {
                        vec![
                            ("conn", Value::U64(conn.0)),
                            ("to", Value::U64(u64::from(to.0))),
                            ("bytes", Value::U64(data.len() as u64)),
                        ]
                    });
                self.dispatch_to(to, |p, ctx| p.on_data(ctx, conn, data));
            }
            EventKind::ConnOpened { conn, at, peer } => {
                self.obs.conns_opened.inc();
                self.obs
                    .obs
                    .event(obs::names::NET_CONN_OPENED, self.now.as_nanos(), || {
                        vec![
                            ("conn", Value::U64(conn.0)),
                            ("opener", Value::U64(u64::from(peer.0))),
                            ("acceptor", Value::U64(u64::from(at.0))),
                        ]
                    });
                self.dispatch_to(at, |p, ctx| p.on_conn_opened(ctx, conn, peer));
            }
            EventKind::ConnEstablished { conn, at } => {
                self.obs.conns_established.inc();
                self.dispatch_to(at, |p, ctx| p.on_conn_established(ctx, conn));
            }
            EventKind::ConnClosed { conn, at } => {
                self.obs.conns_closed.inc();
                self.obs
                    .obs
                    .event(obs::names::NET_CONN_CLOSED, self.now.as_nanos(), || {
                        vec![("conn", Value::U64(conn.0))]
                    });
                self.dispatch_to(at, |p, ctx| p.on_conn_closed(ctx, conn));
            }
            EventKind::Timer { node, id } => {
                self.obs.timers.inc();
                self.dispatch_to(node, |p, ctx| p.on_timer(ctx, id));
            }
        }
        true
    }

    /// Runs `f` on `node`'s process with a fresh context, then applies
    /// the ops the handler emitted.
    fn dispatch_to<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn Process>, &mut Context),
    {
        // An underlay node with no process attached drops the event.
        let Some(process) = self.processes.get_mut(node.index()) else {
            return;
        };
        let mut ctx = Context {
            now: self.now,
            rng: &mut self.rng,
            ops: std::mem::take(&mut self.ops),
            next_conn: &mut self.next_conn,
        };
        f(process, &mut ctx);
        let mut ops = std::mem::take(&mut ctx.ops);
        self.apply_ops(node, &mut ops);
        self.ops = ops;
    }

    /// Applies and removes every op in `ops`, leaving its capacity.
    fn apply_ops(&mut self, from: NodeId, ops: &mut Vec<Op>) {
        for op in ops.drain(..) {
            match op {
                Op::Open { conn, to, class } => self.do_open(from, conn, to, class),
                Op::Send { conn, data } => self.do_send(from, conn, data),
                Op::Close { conn } => self.do_close(from, conn),
                Op::Timer { delay, id } => {
                    self.queue
                        .schedule(self.now + delay, EventKind::Timer { node: from, id });
                }
            }
        }
    }

    fn do_open(&mut self, from: NodeId, conn: ConnId, to: NodeId, class: TrafficClass) {
        // A SYN toward a crashed host is blackholed: neither side ever
        // hears anything, and the opener's higher layers must time out.
        if self.faults.is_enabled()
            && (self.faults.node_down(to, self.now) || self.faults.node_down(from, self.now))
        {
            self.obs.fault_connects_blackholed.inc();
            self.obs.obs.event(
                obs::names::NET_FAULT_CONNECT_BLACKHOLED,
                self.now.as_nanos(),
                || {
                    vec![
                        ("from", Value::U64(u64::from(from.0))),
                        ("to", Value::U64(u64::from(to.0))),
                    ]
                },
            );
            // The connection never exists — anything sent on it is
            // dropped like on a closed one. The opener's SYN
            // retransmissions expire after a fixed timeout; surface the
            // failure as a close so its process can drop cached state
            // for the dead connection.
            let at = self.now + SimDuration::from_millis_f64(CONNECT_TIMEOUT_MS);
            self.queue
                .schedule(at, EventKind::ConnClosed { conn, at: from });
            return;
        }
        // SYN: one sampled one-way delay to the acceptor…
        let syn_ms =
            self.underlay
                .sample_owd_ms(from.index(), to.index(), class, self.now, &mut self.rng);
        let syn_at = self.now + SimDuration::from_millis_f64(syn_ms);
        // …SYN+ACK back to the opener.
        let ack_ms =
            self.underlay
                .sample_owd_ms(to.index(), from.index(), class, syn_at, &mut self.rng);
        let ready_at = syn_at + SimDuration::from_millis_f64(ack_ms);

        self.conns.insert(
            conn,
            ConnState {
                a: from,
                b: to,
                class,
                ready_at,
                last_delivery_a2b: SimTime::ZERO,
                last_delivery_b2a: SimTime::ZERO,
            },
        );
        self.queue.schedule(
            syn_at,
            EventKind::ConnOpened {
                conn,
                at: to,
                peer: from,
            },
        );
        self.queue
            .schedule(ready_at, EventKind::ConnEstablished { conn, at: from });
    }

    fn do_send(&mut self, from: NodeId, conn: ConnId, data: Vec<u8>) {
        let Some(state) = self.conns.get_mut(&conn) else {
            return; // Sending on an unknown/closed connection drops.
        };
        let to = state.peer_of(from);
        // The opener cannot transmit before the handshake completes; the
        // acceptor cannot transmit before it learns of the connection.
        let tx_at = if from == state.a {
            self.now.max(state.ready_at)
        } else {
            self.now
        };
        let owd_ms = self.underlay.sample_owd_ms(
            from.index(),
            to.index(),
            state.class,
            tx_at,
            &mut self.rng,
        );
        // Fault hooks: silent loss drops the message entirely; spikes
        // and stalls add delay on top of the sampled one-way latency.
        let fault_extra_ms = if self.faults.is_enabled() {
            if self.faults.node_down(from, tx_at) || self.faults.drop_message() {
                self.obs.fault_messages_dropped.inc();
                self.obs.obs.event(
                    obs::names::NET_FAULT_MESSAGE_DROPPED,
                    self.now.as_nanos(),
                    || {
                        vec![
                            ("conn", Value::U64(conn.0)),
                            ("from", Value::U64(u64::from(from.0))),
                        ]
                    },
                );
                return;
            }
            let extra = self.faults.extra_delay_ms();
            if extra > 0.0 {
                self.obs.fault_delays.inc();
                self.obs
                    .obs
                    .event(obs::names::NET_FAULT_DELAY, self.now.as_nanos(), || {
                        vec![("conn", Value::U64(conn.0)), ("ms", Value::F64(extra))]
                    });
            }
            extra
        } else {
            0.0
        };
        let mut deliver_at = tx_at + SimDuration::from_millis_f64(owd_ms + fault_extra_ms);
        // FIFO per direction: a message can't overtake its predecessor.
        let last = if from == state.a {
            &mut state.last_delivery_a2b
        } else {
            &mut state.last_delivery_b2a
        };
        if deliver_at <= *last {
            deliver_at = *last + SimDuration::from_nanos(1);
        }
        *last = deliver_at;
        self.queue
            .schedule(deliver_at, EventKind::Deliver { conn, to, data });
    }

    fn do_close(&mut self, from: NodeId, conn: ConnId) {
        // Forgetting the connection is what closes it, so the table
        // holds open connections only.
        let Some(state) = self.conns.remove(&conn) else {
            return;
        };
        let to = state.peer_of(from);
        let owd_ms = self.underlay.sample_owd_ms(
            from.index(),
            to.index(),
            state.class,
            self.now,
            &mut self.rng,
        );
        let at = self.now + SimDuration::from_millis_f64(owd_ms);
        self.queue
            .schedule(at, EventKind::ConnClosed { conn, at: to });
    }

    /// Number of live (non-closed) connections — useful for leak checks
    /// in tests.
    pub fn open_conn_count(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::underlay::{AsProfile, UnderlayConfig};
    use geo::World;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A process that does nothing: an endpoint that only exists to be
    /// pinged.
    struct IdleProcess;

    impl Process for IdleProcess {}

    /// Builds a two-node world: an echo server at node 1, a driver at 0.
    fn build() -> (Simulator, NodeId, NodeId) {
        let world = World::new();
        let nyc = world.city("New York").unwrap().location;
        let lon = world.city("London").unwrap().location;
        let mut u = Underlay::new(UnderlayConfig, 5);
        let a = u.add_as(AsProfile::datacenter("a", nyc));
        let b = u.add_as(AsProfile::datacenter("b", lon));
        let mut seed_rng = SmallRng::seed_from_u64(1);
        u.add_node_in(a, nyc, [10, 0, 0, 1], &mut seed_rng);
        u.add_node_in(b, lon, [10, 1, 0, 1], &mut seed_rng);
        let mut sim = Simulator::new(u, 99);
        let n0 = sim.add_process(Box::new(IdleProcess));
        let n1 = sim.add_process(Box::new(EchoServer));
        (sim, n0, n1)
    }

    /// Echoes every message back on the same connection.
    struct EchoServer;
    impl Process for EchoServer {
        fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
            ctx.send(conn, data);
        }
    }

    /// Opens a connection, sends pings, records RTT samples.
    struct PingDriver {
        target: NodeId,
        remaining: u32,
        conn: Option<ConnId>,
        sent_at: SimTime,
        results: Rc<RefCell<Vec<f64>>>,
    }
    impl Process for PingDriver {
        fn on_start(&mut self, ctx: &mut Context) {
            self.conn = Some(ctx.open(self.target, TrafficClass::Tcp));
        }
        fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
            self.sent_at = ctx.now;
            ctx.send(conn, vec![1, 2, 3]);
        }
        fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
            assert_eq!(data, vec![1, 2, 3]);
            let rtt = (ctx.now - self.sent_at).as_millis_f64();
            self.results.borrow_mut().push(rtt);
            self.remaining -= 1;
            if self.remaining > 0 {
                self.sent_at = ctx.now;
                ctx.send(conn, vec![1, 2, 3]);
            } else {
                ctx.close(conn);
            }
        }
    }

    #[test]
    fn echo_round_trips_match_underlay() {
        let world = World::new();
        let nyc = world.city("New York").unwrap().location;
        let lon = world.city("London").unwrap().location;
        let mut u = Underlay::new(UnderlayConfig, 5);
        let a = u.add_as(AsProfile::datacenter("a", nyc));
        let b = u.add_as(AsProfile::datacenter("b", lon));
        let mut seed_rng = SmallRng::seed_from_u64(1);
        u.add_node_in(a, nyc, [10, 0, 0, 1], &mut seed_rng);
        u.add_node_in(b, lon, [10, 1, 0, 1], &mut seed_rng);
        let base_rtt = u.base_rtt_ms(0, 1, TrafficClass::Tcp);

        let results = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(u, 99);
        let n1 = NodeId(1);
        sim.add_process(Box::new(PingDriver {
            target: n1,
            remaining: 50,
            conn: None,
            sent_at: SimTime::ZERO,
            results: results.clone(),
        }));
        sim.add_process(Box::new(EchoServer));
        sim.run_until_idle();

        let rtts = results.borrow();
        assert_eq!(rtts.len(), 50);
        let min = rtts.iter().copied().fold(f64::INFINITY, f64::min);
        // Every sample at or above the base RTT; minimum close to it.
        for &r in rtts.iter() {
            assert!(r >= base_rtt - 1e-6, "rtt {r} below base {base_rtt}");
        }
        assert!(min < base_rtt * 1.25, "min {min} vs base {base_rtt}");
        // Connection was closed.
        assert_eq!(sim.open_conn_count(), 0);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = || {
            let results = Rc::new(RefCell::new(Vec::new()));
            let (mut sim, _, n1) = {
                let (sim, a, b) = build();
                (sim, a, b)
            };
            // Replace node 0's process with a driver by rebuilding:
            // simpler to just build manually here.
            let _ = (&mut sim, n1);
            let world = World::new();
            let nyc = world.city("New York").unwrap().location;
            let lon = world.city("London").unwrap().location;
            let mut u = Underlay::new(UnderlayConfig, 5);
            let a = u.add_as(AsProfile::datacenter("a", nyc));
            let b = u.add_as(AsProfile::datacenter("b", lon));
            let mut seed_rng = SmallRng::seed_from_u64(1);
            u.add_node_in(a, nyc, [10, 0, 0, 1], &mut seed_rng);
            u.add_node_in(b, lon, [10, 1, 0, 1], &mut seed_rng);
            let mut sim = Simulator::new(u, 123);
            sim.add_process(Box::new(PingDriver {
                target: NodeId(1),
                remaining: 20,
                conn: None,
                sent_at: SimTime::ZERO,
                results: results.clone(),
            }));
            sim.add_process(Box::new(EchoServer));
            sim.run_until_idle();
            let out = results.borrow().clone();
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ping_helper_returns_positive_rtts() {
        let (mut sim, a, b) = build();
        for _ in 0..10 {
            let rtt = sim.ping_rtt_ms(a, b);
            assert!(rtt > 0.0);
        }
    }

    #[test]
    fn advance_to_moves_clock_without_events() {
        let (mut sim, _, _) = build();
        let t = SimTime::ZERO + SimDuration::from_hours(5);
        sim.advance_to(t);
        assert_eq!(sim.now(), t);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProc {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Process for TimerProc {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimDuration::from_nanos(20_000_000), 2);
                ctx.set_timer(SimDuration::from_nanos(10_000_000), 1);
                ctx.set_timer(SimDuration::from_nanos(30_000_000), 3);
            }
            fn on_timer(&mut self, _ctx: &mut Context, id: u64) {
                self.fired.borrow_mut().push(id);
            }
        }
        let world = World::new();
        let nyc = world.city("New York").unwrap().location;
        let mut u = Underlay::new(UnderlayConfig, 5);
        let a = u.add_as(AsProfile::datacenter("a", nyc));
        let mut seed_rng = SmallRng::seed_from_u64(1);
        u.add_node_in(a, nyc, [10, 0, 0, 1], &mut seed_rng);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(u, 1);
        sim.add_process(Box::new(TimerProc {
            fired: fired.clone(),
        }));
        sim.run_until_idle();
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn send_on_closed_conn_is_dropped() {
        struct Closer {
            target: NodeId,
        }
        impl Process for Closer {
            fn on_start(&mut self, ctx: &mut Context) {
                let conn = ctx.open(self.target, TrafficClass::Tcp);
                ctx.close(conn);
                ctx.send(conn, vec![9]); // after close: dropped
            }
        }
        let (_, _, _) = build();
        let world = World::new();
        let nyc = world.city("New York").unwrap().location;
        let lon = world.city("London").unwrap().location;
        let mut u = Underlay::new(UnderlayConfig, 5);
        let a = u.add_as(AsProfile::datacenter("a", nyc));
        let b = u.add_as(AsProfile::datacenter("b", lon));
        let mut seed_rng = SmallRng::seed_from_u64(1);
        u.add_node_in(a, nyc, [10, 0, 0, 1], &mut seed_rng);
        u.add_node_in(b, lon, [10, 1, 0, 1], &mut seed_rng);
        let mut sim = Simulator::new(u, 77);
        sim.add_process(Box::new(Closer { target: NodeId(1) }));
        struct MustNotReceive;
        impl Process for MustNotReceive {
            fn on_data(&mut self, _ctx: &mut Context, _conn: ConnId, _data: Vec<u8>) {
                panic!("data arrived on closed connection");
            }
        }
        sim.add_process(Box::new(MustNotReceive));
        sim.run_until_idle();
    }

    #[test]
    fn trace_observes_connection_lifecycle() {
        struct OneShot {
            target: NodeId,
        }
        impl Process for OneShot {
            fn on_start(&mut self, ctx: &mut Context) {
                let c = ctx.open(self.target, TrafficClass::Tcp);
                ctx.send(c, vec![1, 2, 3]);
                ctx.close(c);
            }
        }
        let world = World::new();
        let nyc = world.city("New York").unwrap().location;
        let lon = world.city("London").unwrap().location;
        let mut u = Underlay::new(UnderlayConfig, 5);
        let a_as = u.add_as(AsProfile::datacenter("a", nyc));
        let b_as = u.add_as(AsProfile::datacenter("b", lon));
        let mut seed_rng = SmallRng::seed_from_u64(1);
        u.add_node_in(a_as, nyc, [10, 0, 0, 1], &mut seed_rng);
        u.add_node_in(b_as, lon, [10, 1, 0, 1], &mut seed_rng);
        let mut sim = Simulator::new(u, 3);
        let obs = Obs::new(obs::ObsConfig::Trace);
        sim.set_obs(obs.clone());
        sim.add_process(Box::new(OneShot { target: NodeId(1) }));
        sim.add_process(Box::new(IdleProcess));
        sim.run_until_idle();

        let events = obs
            .document(&obs::ExportMeta {
                seed: 0,
                config_hash: 0,
            })
            .events;
        let named = |name| events.iter().filter(move |e| e.name == name);
        assert!(named(obs::names::NET_CONN_OPENED).next().is_some());
        assert!(named(obs::names::NET_DELIVER)
            .any(|e| e.fields.contains(&("bytes".to_owned(), Value::U64(3)))));
        assert!(named(obs::names::NET_CONN_CLOSED).next().is_some());
        // Timestamps are monotone.
        for w in events.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }

    fn two_node_sim(seed: u64, pings: u32, results: Rc<RefCell<Vec<f64>>>) -> Simulator {
        let world = World::new();
        let nyc = world.city("New York").unwrap().location;
        let lon = world.city("London").unwrap().location;
        let mut u = Underlay::new(UnderlayConfig, 5);
        let a = u.add_as(AsProfile::datacenter("a", nyc));
        let b = u.add_as(AsProfile::datacenter("b", lon));
        let mut seed_rng = SmallRng::seed_from_u64(1);
        u.add_node_in(a, nyc, [10, 0, 0, 1], &mut seed_rng);
        u.add_node_in(b, lon, [10, 1, 0, 1], &mut seed_rng);
        let mut sim = Simulator::new(u, seed);
        sim.add_process(Box::new(PingDriver {
            target: NodeId(1),
            remaining: pings,
            conn: None,
            sent_at: SimTime::ZERO,
            results,
        }));
        sim.add_process(Box::new(EchoServer));
        sim
    }

    #[test]
    fn zero_rate_fault_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<crate::fault::FaultPlan>| {
            let results = Rc::new(RefCell::new(Vec::new()));
            let mut sim = two_node_sim(321, 40, results.clone());
            if let Some(p) = plan {
                sim.set_fault_plan(p);
            }
            sim.run_until_idle();
            let out = results.borrow().clone();
            (out, sim.now())
        };
        let baseline = run(None);
        // A plan with every rate at zero must not perturb anything.
        let zeroed = run(Some(
            crate::fault::FaultPlan::new(777)
                .with_link_loss(0.0)
                .with_jitter_spikes(0.0, 50.0)
                .with_stalls(0.5, 0.0),
        ));
        assert_eq!(baseline, zeroed);
    }

    #[test]
    fn link_loss_drops_some_echoes() {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut sim = two_node_sim(321, 40, results.clone());
        sim.set_fault_plan(crate::fault::FaultPlan::new(9).with_link_loss(0.5));
        sim.set_obs(Obs::new(obs::ObsConfig::Metrics));
        sim.run_until_idle(); // terminates: a lost ping ends the driver's loop
        assert!(sim.obs().counter_value("net.fault.messages_dropped") >= 1);
        assert!(
            results.borrow().len() < 40,
            "all 40 pings survived 50% loss"
        );
    }

    #[test]
    fn crashed_target_blackholes_connect() {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut sim = two_node_sim(5, 3, results.clone());
        let mut plan = crate::fault::FaultPlan::new(1);
        plan.add_crash(NodeId(1), SimTime::ZERO, None);
        sim.set_fault_plan(plan);
        sim.set_obs(Obs::new(obs::ObsConfig::Metrics));
        sim.run_until_idle();
        // No ConnEstablished ever fires, so the driver never sends.
        assert!(results.borrow().is_empty());
        let blackholed = sim.obs().counter_value("net.fault.connects_blackholed");
        assert_eq!(blackholed, 1);
    }

    #[test]
    fn crash_window_drops_events_then_recovers() {
        // Crash the echo server for a window covering the whole run:
        // every delivery to it is dropped.
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut sim = two_node_sim(5, 3, results.clone());
        let from = SimTime::ZERO + SimDuration::from_nanos(200_000_000);
        let mut plan = crate::fault::FaultPlan::new(1);
        plan.add_crash(NodeId(1), from, Some(from + SimDuration::from_hours(1)));
        sim.set_fault_plan(plan);
        sim.run_until_idle();
        let n_before_crash = results.borrow().len();
        assert!(n_before_crash < 3, "crash never bit");
        // After the window the node answers again.
        sim.advance_to(from + SimDuration::from_hours(2));
        assert!(!sim
            .fault_plan()
            .node_down(NodeId(1), from + SimDuration::from_hours(2)));
    }

    #[test]
    fn stalls_delay_but_deliver() {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut sim = two_node_sim(321, 10, results.clone());
        sim.set_fault_plan(crate::fault::FaultPlan::new(4).with_stalls(1.0, 5_000.0));
        sim.run_until_idle();
        // Every message stalls 5 s each way, but they all arrive.
        assert_eq!(results.borrow().len(), 10);
        assert!(results.borrow().iter().all(|&r| r >= 10_000.0));
    }

    #[test]
    fn more_processes_than_nodes_rejected() {
        let (mut sim, _, _) = build();
        // build() already attached 2 processes to 2 underlay nodes.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_process(Box::new(IdleProcess));
        }));
        assert!(result.is_err());
    }
}
