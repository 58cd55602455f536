//! Relay observability.
//!
//! A production relay exports counters; so does this one. Each
//! [`crate::relay::Relay`] can be given a [`RelayMetrics`] handle at
//! construction; the same handle stays with the caller, which can read
//! a consistent [`MetricsSnapshot`] at any time without touching the
//! simulator. Used by tests to assert on internal behaviour (circuit
//! and stream counts, teardown completeness) without poking at private
//! state.

use std::cell::Cell;
use std::rc::Rc;

/// Counters one relay maintains. All monotonic except the gauges.
#[derive(Debug, Default)]
struct Inner {
    cells_processed: Cell<u64>,
    cells_forwarded: Cell<u64>,
    circuits_created: Cell<u64>,
    circuits_destroyed: Cell<u64>,
    streams_opened: Cell<u64>,
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
pub(crate) struct RelayMetrics {
    inner: Rc<Inner>,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricsSnapshot {
    pub(crate) cells_processed: u64,
    pub(crate) cells_forwarded: u64,
    pub(crate) circuits_created: u64,
    pub(crate) circuits_destroyed: u64,
    pub(crate) streams_opened: u64,
    /// Cells shed under injected overload faults.
    pub(crate) cells_dropped: u64,
    /// EXTEND2 requests the relay refused under injected faults.
    pub(crate) extends_refused: u64,
}

impl RelayMetrics {
    pub(crate) fn new() -> RelayMetrics {
        RelayMetrics::default()
    }

    pub(crate) fn on_processed(&self) {
        self.inner
            .cells_processed
            .set(self.inner.cells_processed.get() + 1);
    }

    pub(crate) fn on_forwarded(&self) {
        self.inner
            .cells_forwarded
            .set(self.inner.cells_forwarded.get() + 1);
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
            circuits_created: self.inner.circuits_created.get(),
            circuits_destroyed: self.inner.circuits_destroyed.get(),
            streams_opened: self.inner.streams_opened.get(),
            cells_dropped: self.inner.cells_dropped.get(),
            extends_refused: self.inner.extends_refused.get(),
        }
    }
}
