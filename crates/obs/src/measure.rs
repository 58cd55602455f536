//! Measurement-pipeline counters.
//!
//! [`MeasurementMetrics`] predates the [`crate::Obs`] registry and
//! moved here (from `tor-sim`) when the observability layer unified
//! the stack's instrumentation: the Ting driver and scanner bump these
//! counters unconditionally — they are part of the pipeline's public
//! behaviour and several tests pin them — while `Obs` adds the named
//! registry, histograms, and event log on top. `tor-sim` re-exports
//! these types, so existing `tor_sim::MeasurementMetrics` paths keep
//! working.

use std::cell::Cell;
use std::rc::Rc;

/// Counters the measurement pipeline (Ting driver + scanner) maintains.
#[derive(Debug, Default)]
struct MeasurementInner {
    circuits_failed: Cell<u64>,
    probes_timed_out: Cell<u64>,
    retries: Cell<u64>,
    pairs_requeued: Cell<u64>,
    estimates_rejected: Cell<u64>,
    estimates_flagged: Cell<u64>,
    relays_quarantined: Cell<u64>,
    relays_released: Cell<u64>,
    probation_probes: Cell<u64>,
}

/// A cheap, clonable handle to the measurement pipeline's counters.
#[derive(Debug, Clone, Default)]
pub struct MeasurementMetrics {
    inner: Rc<MeasurementInner>,
}

/// A point-in-time copy of the measurement counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeasurementSnapshot {
    /// Circuit builds that did not reach Ready (including rebuilds).
    pub circuits_failed: u64,
    /// Probes whose echo missed the per-probe deadline.
    pub probes_timed_out: u64,
    /// Measurement attempts retried after a failure.
    pub retries: u64,
    /// Scanner pairs put back on the queue under backoff.
    pub pairs_requeued: u64,
    /// Estimates refused by validation (never cached); the reason code
    /// is in the `ting.validate.reject.<code>` obs counters.
    pub estimates_rejected: u64,
    /// Estimates cached but flagged suspect by validation.
    pub estimates_flagged: u64,
    /// Relay quarantine entries (health score collapsed).
    pub relays_quarantined: u64,
    /// Relay quarantine releases (probation or decay).
    pub relays_released: u64,
    /// Probation probes scheduled for quarantined relays.
    pub probation_probes: u64,
}

impl MeasurementMetrics {
    pub fn new() -> MeasurementMetrics {
        MeasurementMetrics::default()
    }

    pub fn on_circuit_failed(&self) {
        self.inner
            .circuits_failed
            .set(self.inner.circuits_failed.get() + 1);
    }

    pub fn on_probe_timed_out(&self) {
        self.inner
            .probes_timed_out
            .set(self.inner.probes_timed_out.get() + 1);
    }

    pub fn on_retry(&self) {
        self.inner.retries.set(self.inner.retries.get() + 1);
    }

    pub fn on_pair_requeued(&self) {
        self.inner
            .pairs_requeued
            .set(self.inner.pairs_requeued.get() + 1);
    }

    pub fn on_estimate_rejected(&self) {
        self.inner
            .estimates_rejected
            .set(self.inner.estimates_rejected.get() + 1);
    }

    pub fn on_estimate_flagged(&self) {
        self.inner
            .estimates_flagged
            .set(self.inner.estimates_flagged.get() + 1);
    }

    pub fn on_relay_quarantined(&self) {
        self.inner
            .relays_quarantined
            .set(self.inner.relays_quarantined.get() + 1);
    }

    pub fn on_relay_released(&self) {
        self.inner
            .relays_released
            .set(self.inner.relays_released.get() + 1);
    }

    pub fn on_probation_probe(&self) {
        self.inner
            .probation_probes
            .set(self.inner.probation_probes.get() + 1);
    }

    /// Reads all counters at once.
    pub fn snapshot(&self) -> MeasurementSnapshot {
        MeasurementSnapshot {
            circuits_failed: self.inner.circuits_failed.get(),
            probes_timed_out: self.inner.probes_timed_out.get(),
            retries: self.inner.retries.get(),
            pairs_requeued: self.inner.pairs_requeued.get(),
            estimates_rejected: self.inner.estimates_rejected.get(),
            estimates_flagged: self.inner.estimates_flagged.get(),
            relays_quarantined: self.inner.relays_quarantined.get(),
            relays_released: self.inner.relays_released.get(),
            probation_probes: self.inner.probation_probes.get(),
        }
    }
}
