//! The Tor link table a [`crate::relay::Relay`] and the
//! [`crate::client::OnionProxy`] both hold.
//!
//! A link is one `TrafficClass::Tor` connection to a neighbour. The
//! table keeps one record per link connection — the peer, and the cells
//! waiting for the handshake while the link is one this node opened —
//! plus the peer → connection index that lets the next circuit reuse a
//! link this node opened. An accepted link is ready at once. A closed
//! link is forgotten whole, queue included, and a cell sent on a
//! forgotten connection is dropped, the way `netsim` drops a send on a
//! closed connection.

use netsim::{ConnId, Context, NodeId, TrafficClass};
use std::collections::HashMap;
use tor_protocol::{Cell, CellCommand, CircuitId};

/// Addresses one circuit hop at a node: a link and the circuit's id on it.
pub(crate) type HopKey = (ConnId, CircuitId);

/// Every key on link `conn`: a range over a map ordered by [`HopKey`].
pub(crate) fn on_link(conn: ConnId) -> std::ops::RangeInclusive<HopKey> {
    (conn, CircuitId(0))..=(conn, CircuitId(u32::MAX))
}

struct Link {
    peer: NodeId,
    /// Cells held back until the handshake this node started completes;
    /// `None` once the link carries traffic.
    queued: Option<Vec<Cell>>,
}

#[derive(Default)]
pub(crate) struct LinkTable {
    /// Links this node opened, by peer.
    by_peer: HashMap<NodeId, ConnId>,
    links: HashMap<ConnId, Link>,
    /// Test builds publish [`LinkTable::len`] here wherever it changes.
    #[cfg(test)]
    pub(crate) published_len: std::rc::Rc<std::cell::Cell<usize>>,
}

impl LinkTable {
    /// The link this node opened to `peer`, opening one if there is none.
    pub(crate) fn find_or_open(&mut self, ctx: &mut Context, peer: NodeId) -> ConnId {
        if let Some(&conn) = self.by_peer.get(&peer) {
            return conn;
        }
        let conn = ctx.open(peer, TrafficClass::Tor);
        self.by_peer.insert(peer, conn);
        let queued = Some(Vec::new());
        self.links.insert(conn, Link { peer, queued });
        self.publish_len();
        conn
    }

    /// `peer` opened `conn` to this node.
    pub(crate) fn accepted(&mut self, conn: ConnId, peer: NodeId) {
        self.links.insert(conn, Link { peer, queued: None });
        self.publish_len();
    }

    /// The handshake on `conn` completed: the queued cells leave in the
    /// order they were queued. Nothing happens for a connection that is
    /// not a link, or not one any more.
    pub(crate) fn established(&mut self, ctx: &mut Context, conn: ConnId) {
        let queued = self.links.get_mut(&conn).and_then(|l| l.queued.take());
        for cell in queued.into_iter().flatten() {
            ctx.send(conn, cell.encode());
        }
        self.publish_len();
    }

    /// Sends a cell for circuit `circ` on link `conn`, or queues it
    /// behind the handshake.
    pub(crate) fn send(
        &mut self,
        ctx: &mut Context,
        (conn, circ): HopKey,
        command: CellCommand,
        payload: Vec<u8>,
    ) {
        let cell = Cell::new(circ, command, payload);
        match self.links.get_mut(&conn) {
            Some(Link { queued: None, .. }) => ctx.send(conn, cell.encode()),
            Some(Link {
                queued: Some(cells),
                ..
            }) => {
                cells.push(cell);
                self.publish_len();
            }
            None => {}
        }
    }

    /// Forgets `conn`. True when it was a link.
    pub(crate) fn closed(&mut self, conn: ConnId) -> bool {
        let Some(link) = self.links.remove(&conn) else {
            return false;
        };
        if self.by_peer.get(&link.peer) == Some(&conn) {
            self.by_peer.remove(&link.peer);
        }
        self.publish_len();
        true
    }

    /// Everything the table holds: index entries, links and queued cells.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let queued = self.links.values().flat_map(|l| &l.queued).map(Vec::len);
        self.by_peer.len() + self.links.len() + queued.sum::<usize>()
    }

    fn publish_len(&self) {
        #[cfg(test)]
        self.published_len.set(self.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::World;
    use netsim::{AsProfile, FaultPlan, Process, SimTime, Simulator, Underlay, UnderlayConfig};
    use rand::{rngs::SmallRng, SeedableRng};
    use std::cell::RefCell;
    use std::rc::Rc;
    use tor_protocol::CellCommand;

    fn send(links: &mut LinkTable, ctx: &mut Context, conn: ConnId, id: u32) {
        links.send(ctx, (conn, CircuitId(id)), CellCommand::Destroy, vec![]);
    }

    /// What the two nodes saw, in order: `(node, circuit id)` per cell
    /// received, and `(node, u32::MAX)` per link that died.
    type Seen = Rc<RefCell<Vec<(u32, u32)>>>;

    /// A node with a link table. The dialer opens a link at start and
    /// sends cells 1–3 before the handshake and 4 after it; the other
    /// node sends every cell it receives straight back.
    struct Node {
        links: LinkTable,
        dial: Option<NodeId>,
        seen: Seen,
    }

    impl Process for Node {
        fn on_start(&mut self, ctx: &mut Context) {
            let Some(peer) = self.dial else { return };
            let conn = self.links.find_or_open(ctx, peer);
            for id in 1..=3 {
                send(&mut self.links, ctx, conn, id);
            }
            assert_eq!(self.links.find_or_open(ctx, peer), conn, "one link a peer");
            assert_eq!(self.links.len(), 2 + 3);
        }

        fn on_conn_opened(&mut self, _ctx: &mut Context, conn: ConnId, peer: NodeId) {
            self.links.accepted(conn, peer);
        }

        fn on_conn_established(&mut self, ctx: &mut Context, conn: ConnId) {
            self.links.established(ctx, conn);
            send(&mut self.links, ctx, conn, 4);
        }

        fn on_data(&mut self, ctx: &mut Context, conn: ConnId, data: Vec<u8>) {
            let cell = Cell::decode(&data).expect("a cell");
            self.seen.borrow_mut().push((ctx.self_id.0, cell.circ_id.0));
            if self.dial.is_none() {
                send(&mut self.links, ctx, conn, cell.circ_id.0);
            }
        }

        fn on_conn_closed(&mut self, ctx: &mut Context, conn: ConnId) {
            self.seen.borrow_mut().push((ctx.self_id.0, u32::MAX));
            assert!(self.links.closed(conn));
            assert_eq!(self.links.len(), 0, "both indexes and the queue");
            assert!(!self.links.closed(conn), "already forgotten");
            send(&mut self.links, ctx, conn, 5);
            assert_eq!(self.links.len(), 0, "a send makes no entry");
        }
    }

    /// Node 0 dials node 1. Returns what they saw and the two tables'
    /// published sizes once the run is idle.
    fn run(faults: FaultPlan) -> (Vec<(u32, u32)>, [usize; 2]) {
        let world = World::new();
        let mut underlay = Underlay::new(UnderlayConfig, 5);
        let mut rng = SmallRng::seed_from_u64(1);
        for (i, city) in ["New York", "London"].into_iter().enumerate() {
            let at = world.city(city).expect("city exists").location;
            let in_as = underlay.add_as(AsProfile::datacenter(city, at));
            underlay.add_node_in(in_as, at, [10, i as u8, 0, 1], &mut rng);
        }
        let mut sim = Simulator::new(underlay, 9);
        sim.set_fault_plan(faults);
        let seen = Seen::default();
        let lens = [Some(NodeId(1)), None].map(|dial| {
            let links = LinkTable::default();
            let len = links.published_len.clone();
            let seen = seen.clone();
            sim.add_process(Box::new(Node { links, dial, seen }));
            len
        });
        sim.run_until_idle();
        let seen = seen.borrow().clone();
        (seen, lens.map(|len| len.get()))
    }

    #[test]
    fn queued_cells_leave_in_order_and_an_accepted_link_is_ready_at_once() {
        let (seen, lens) = run(FaultPlan::disabled());
        let at = |node| seen.iter().filter(move |s| s.0 == node).map(|s| s.1);
        assert_eq!(at(1).collect::<Vec<_>>(), [1, 2, 3, 4], "queue order");
        assert_eq!(
            at(0).collect::<Vec<_>>(),
            [1, 2, 3, 4],
            "sent back unqueued"
        );
        // Peer index + link, queue drained; an accepted link has no index.
        assert_eq!(lens, [2, 1]);
    }

    #[test]
    fn a_closed_link_is_forgotten_whole_and_a_send_on_it_is_dropped() {
        let mut crashed = FaultPlan::new(1);
        crashed.add_crash(NodeId(1), SimTime::ZERO, None);
        let (seen, lens) = run(crashed);
        // The blackholed connect closed; cells 1–3 went with the link,
        // cell 5 (sent on the forgotten conn) went nowhere.
        assert_eq!(seen, [(0, u32::MAX)]);
        assert_eq!(lens, [0, 0]);
    }
}
