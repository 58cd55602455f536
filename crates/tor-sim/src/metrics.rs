//! Relay observability.
//!
//! A production relay exports counters; so does this one. Each
//! [`crate::relay::Relay`] can be given a [`RelayMetrics`] handle at
//! construction; the same handle stays with the caller, which can read
//! a consistent [`MetricsSnapshot`] at any time without touching the
//! simulator. Used by tests to assert on internal behaviour (queue
//! depths, teardown completeness) without poking at private state.

use std::cell::Cell;
use std::rc::Rc;

/// Counters one relay maintains. All monotonic except the gauges.
#[derive(Debug, Default)]
struct Inner {
    cells_processed: Cell<u64>,
    cells_forwarded: Cell<u64>,
    cells_recognized: Cell<u64>,
    circuits_created: Cell<u64>,
    circuits_destroyed: Cell<u64>,
    streams_opened: Cell<u64>,
    queue_depth: Cell<u64>,
    queue_high_water: Cell<u64>,
    busy_ms_accumulated: Cell<f64>,
    cells_dropped: Cell<u64>,
    extends_refused: Cell<u64>,
    /// The sizes of the relay's link table and of its three circuit
    /// tables (circuits, exit index, exit streams): gauges only test
    /// builds keep, for the bounded-memory tests in `control.rs`.
    #[cfg(test)]
    link_entries: Rc<Cell<usize>>,
    #[cfg(test)]
    circuit_entries: Cell<[usize; 3]>,
}

/// A cheap, clonable handle to one relay's counters.
#[derive(Debug, Clone, Default)]
pub struct RelayMetrics {
    inner: Rc<Inner>,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MetricsSnapshot {
    pub cells_processed: u64,
    pub cells_forwarded: u64,
    pub cells_recognized: u64,
    pub circuits_created: u64,
    pub circuits_destroyed: u64,
    pub streams_opened: u64,
    pub queue_depth: u64,
    pub queue_high_water: u64,
    /// Total simulated milliseconds spent processing cells.
    pub busy_ms_accumulated: f64,
    /// Cells shed under injected overload faults.
    pub cells_dropped: u64,
    /// EXTEND2 requests the relay refused under injected faults.
    pub extends_refused: u64,
}

impl RelayMetrics {
    pub(crate) fn new() -> RelayMetrics {
        RelayMetrics::default()
    }

    pub(crate) fn on_enqueue(&self) {
        let d = self.inner.queue_depth.get() + 1;
        self.inner.queue_depth.set(d);
        if d > self.inner.queue_high_water.get() {
            self.inner.queue_high_water.set(d);
        }
    }

    pub(crate) fn on_processed(&self, cost_ms: f64) {
        self.inner
            .queue_depth
            .set(self.inner.queue_depth.get().saturating_sub(1));
        self.inner
            .cells_processed
            .set(self.inner.cells_processed.get() + 1);
        self.inner
            .busy_ms_accumulated
            .set(self.inner.busy_ms_accumulated.get() + cost_ms);
    }

    pub(crate) fn on_forwarded(&self) {
        self.inner
            .cells_forwarded
            .set(self.inner.cells_forwarded.get() + 1);
    }

    pub(crate) fn on_recognized(&self) {
        self.inner
            .cells_recognized
            .set(self.inner.cells_recognized.get() + 1);
    }

    pub(crate) fn on_circuit_created(&self) {
        self.inner
            .circuits_created
            .set(self.inner.circuits_created.get() + 1);
    }

    pub(crate) fn on_circuit_destroyed(&self) {
        self.inner
            .circuits_destroyed
            .set(self.inner.circuits_destroyed.get() + 1);
    }

    pub(crate) fn on_stream_opened(&self) {
        self.inner
            .streams_opened
            .set(self.inner.streams_opened.get() + 1);
    }

    pub(crate) fn on_cell_dropped(&self) {
        self.inner
            .cells_dropped
            .set(self.inner.cells_dropped.get() + 1);
    }

    pub(crate) fn on_extend_refused(&self) {
        self.inner
            .extends_refused
            .set(self.inner.extends_refused.get() + 1);
    }

    #[cfg(test)]
    pub(crate) fn link_entries(&self) -> Rc<Cell<usize>> {
        self.inner.link_entries.clone()
    }

    #[cfg(test)]
    pub(crate) fn circuit_entries(&self) -> &Cell<[usize; 3]> {
        &self.inner.circuit_entries
    }

    /// Reads all counters at once.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            cells_processed: self.inner.cells_processed.get(),
            cells_forwarded: self.inner.cells_forwarded.get(),
            cells_recognized: self.inner.cells_recognized.get(),
            circuits_created: self.inner.circuits_created.get(),
            circuits_destroyed: self.inner.circuits_destroyed.get(),
            streams_opened: self.inner.streams_opened.get(),
            queue_depth: self.inner.queue_depth.get(),
            queue_high_water: self.inner.queue_high_water.get(),
            busy_ms_accumulated: self.inner.busy_ms_accumulated.get(),
            cells_dropped: self.inner.cells_dropped.get(),
            extends_refused: self.inner.extends_refused.get(),
        }
    }
}
