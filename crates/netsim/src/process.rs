//! Node behaviours.
//!
//! A [`Process`] is an event-driven state machine attached to one node:
//! it reacts to connection events, framed messages, and timers, and emits
//! actions through a [`Context`]. Actions are buffered and applied by the
//! simulator *after* the handler returns, which keeps the borrow story
//! simple and the dispatch order deterministic.

use crate::sim::{ConnId, NodeId};
use crate::time::{SimDuration, SimTime};
use crate::underlay::TrafficClass;
use rand::rngs::SmallRng;

/// Buffered actions a handler emits.
#[derive(Debug)]
pub(crate) enum Op {
    Open {
        conn: ConnId,
        to: NodeId,
        class: TrafficClass,
    },
    Send {
        conn: ConnId,
        data: Vec<u8>,
    },
    Close {
        conn: ConnId,
    },
    Timer {
        delay: SimDuration,
        id: u64,
    },
}

/// The handler-side view of the simulator.
pub struct Context<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// Simulation RNG — all randomness must come from here.
    pub rng: &'a mut SmallRng,
    pub(crate) ops: Vec<Op>,
    pub(crate) next_conn: &'a mut u64,
}

impl<'a> Context<'a> {
    /// Opens a connection to `to`. The returned id is usable immediately
    /// for [`Context::send`]; transmission begins once the simulated
    /// handshake (one RTT) completes, and `on_conn_established` fires at
    /// that point.
    pub fn open(&mut self, to: NodeId, class: TrafficClass) -> ConnId {
        let conn = ConnId(*self.next_conn);
        *self.next_conn += 1;
        self.ops.push(Op::Open { conn, to, class });
        conn
    }

    /// Sends one framed message on `conn`. Messages are delivered whole,
    /// in order, to the peer's `on_data`.
    pub fn send(&mut self, conn: ConnId, data: Vec<u8>) {
        self.ops.push(Op::Send { conn, data });
    }

    /// Closes `conn`; the peer gets `on_conn_closed` one one-way delay
    /// later. Queued data already in flight is still delivered.
    pub fn close(&mut self, conn: ConnId) {
        self.ops.push(Op::Close { conn });
    }

    /// Arranges for `on_timer(id)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, id: u64) {
        self.ops.push(Op::Timer { delay, id });
    }
}

/// An event-driven node behaviour.
///
/// All methods default to no-ops so implementations only write the
/// handlers they care about.
pub trait Process {
    /// Called once when the simulation starts (before any other event).
    fn on_start(&mut self, ctx: &mut Context) {
        let _ = ctx;
    }

    /// An inbound connection from `peer` was opened to this node.
    fn on_conn_opened(&mut self, ctx: &mut Context, conn: ConnId, peer: NodeId) {
        let _ = (ctx, conn, peer);
    }

    /// An outbound `open` completed its handshake.
    fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
        let _ = (ctx, conn);
    }

    /// A framed message arrived.
    fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
        let _ = (ctx, conn, data);
    }

    /// The peer closed the connection.
    fn on_conn_closed(&mut self, ctx: &mut Context, conn: ConnId) {
        let _ = (ctx, conn);
    }

    /// A timer set with [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context, id: u64) {
        let _ = (ctx, id);
    }
}
