//! The event queue.
//!
//! A classic discrete-event core: a min-heap of events ordered by
//! `(time, sequence)`. The sequence number makes dispatch order total and
//! deterministic even when events share a timestamp — determinism rule 1
//! of the crate.

use crate::sim::{ConnId, NodeId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A framed message arrives at `to` on `conn`.
    Deliver {
        conn: ConnId,
        to: NodeId,
        data: Vec<u8>,
    },
    /// The passive side learns a new connection was opened to it.
    ConnOpened {
        conn: ConnId,
        at: NodeId,
        peer: NodeId,
    },
    /// The active side learns its `open` completed (SYN+ACK arrived).
    ConnEstablished { conn: ConnId, at: NodeId },
    /// Either side learns the connection was closed by the peer.
    ConnClosed { conn: ConnId, at: NodeId },
    /// A timer set by `node` fires.
    Timer { node: NodeId, id: u64 },
}

/// A scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub at: SimTime,
    pub seq: u64,
    pub(crate) kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Schedules `kind` at `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Timestamp of the earliest event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, id: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            id,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), timer(0, 3));
        q.schedule(SimTime(10), timer(0, 1));
        q.schedule(SimTime(20), timer(0, 2));
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { id, .. } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for id in 0..10 {
            q.schedule(SimTime(5), timer(0, id));
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { id, .. } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(9), timer(0, 0));
        q.schedule(SimTime(4), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime(4)));
        assert_eq!(q.heap.len(), 2);
    }
}
