//! Adaptive per-phase timeouts, in the spirit of Tor's circuit-build
//! timeout (CBT) estimation.
//!
//! Fixed deadlines are either too loose (a dead relay costs the full
//! 30 s build timeout, every time) or too tight (a healthy-but-distant
//! circuit gets cut off). Tor itself learns a build timeout from the
//! observed completion-time distribution; the circuit-selection
//! literature (Imani et al., arXiv:1706.06457) confirms the learned
//! cutoff beats any global constant. This module does the same for the
//! measurement pipeline's three phases — circuit build, stream attach,
//! probe echo — so every lane of the measurement engine cuts off
//! stragglers at the observed p95 (plus headroom) rather than a
//! hardcoded constant.
//!
//! Only *successful* phase durations feed the estimator: timeouts are
//! censored observations and would drag the quantile toward whatever
//! the previous deadline was. Until `MIN_SAMPLES` (16) successes have been
//! seen, the fixed fallback from [`crate::orchestrator::TingConfig`]
//! applies unchanged — which also means a run with adaptive timeouts
//! off (`TingConfig::adaptive_timeouts = false`) is bit-identical to
//! the pre-adaptive pipeline.
//!
//! The estimator state is a plain ring buffer per phase, owned by the
//! driver ([`crate::orchestrator::Ting`]). A supervisor keeps a shard's
//! driver across a crash, so a killed-and-resumed scan replays with
//! bit-identical deadlines.

use std::cell::RefCell;

/// Quantile of the observed success durations used as the cutoff basis
/// (Tor's CBT uses ~0.8; measurement wants a laxer p95).
const QUANTILE: f64 = 0.95;
/// Multiplier on the quantile — headroom for jitter above p95.
const HEADROOM: f64 = 1.5;
/// Ring-buffer window of success durations kept per phase.
const WINDOW: usize = 128;
/// Successes required before the estimate replaces the fallback.
const MIN_SAMPLES: usize = 16;
/// Never cut off below this (ms), no matter how fast successes are.
const FLOOR_MS: f64 = 250.0;
/// Never wait longer than this (ms).
const CEILING_MS: f64 = 30_000.0;

/// The three deadline-bearing phases of one circuit measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimeoutPhase {
    /// Circuit build: `build_circuit` issued → `CircuitStatus::Ready`.
    Build,
    /// Echo stream attach: open issued → `StreamStatus::Open`.
    Stream,
    /// One probe: sent → echo received.
    Probe,
}

/// One phase's rolling window of success durations.
#[derive(Debug, Clone, Default)]
struct Window {
    samples: Vec<f64>,
    /// Next overwrite position once `samples` reaches the window size.
    cursor: usize,
}

impl PartialEq for Window {
    fn eq(&self, other: &Self) -> bool {
        let bits = |w: &Window| w.samples.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        self.cursor == other.cursor && bits(self) == bits(other)
    }
}

impl Window {
    fn observe(&mut self, ms: f64) {
        if self.samples.len() < WINDOW {
            self.samples.push(ms);
        } else {
            self.samples[self.cursor] = ms;
        }
        self.cursor = (self.cursor + 1) % WINDOW;
    }

    /// The [`QUANTILE`] (nearest-rank) of the window, if non-empty.
    fn quantile(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((QUANTILE * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }
}

#[derive(Debug, Default, PartialEq)]
struct Inner {
    build: Window,
    stream: Window,
    probe: Window,
}

impl Inner {
    fn window(&mut self, phase: TimeoutPhase) -> &mut Window {
        match phase {
            TimeoutPhase::Build => &mut self.build,
            TimeoutPhase::Stream => &mut self.stream,
            TimeoutPhase::Probe => &mut self.probe,
        }
    }

    fn window_ref(&self, phase: TimeoutPhase) -> &Window {
        match phase {
            TimeoutPhase::Build => &self.build,
            TimeoutPhase::Stream => &self.stream,
            TimeoutPhase::Probe => &self.probe,
        }
    }
}

/// The three per-phase estimators, fed and read through `&self`, so
/// every lane of the measurement engine shares its driver's one state.
#[derive(Debug, Default)]
pub struct TimeoutEstimators {
    inner: RefCell<Inner>,
}

impl TimeoutEstimators {
    pub(crate) fn new() -> TimeoutEstimators {
        TimeoutEstimators::default()
    }

    /// Feeds one successful phase duration.
    pub(crate) fn observe(&self, phase: TimeoutPhase, ms: f64) {
        self.inner.borrow_mut().window(phase).observe(ms);
    }

    /// The deadline for `phase` in ms: [`QUANTILE`] · [`HEADROOM`],
    /// clamped to `[FLOOR_MS, CEILING_MS]` — or `fallback_ms` until
    /// [`MIN_SAMPLES`] successes have been seen.
    pub(crate) fn timeout_ms(&self, phase: TimeoutPhase, fallback_ms: f64) -> f64 {
        let inner = self.inner.borrow();
        let w = inner.window_ref(phase);
        if w.samples.len() < MIN_SAMPLES {
            return fallback_ms;
        }
        let q = w.quantile().unwrap_or(fallback_ms);
        (q * HEADROOM).clamp(FLOOR_MS, CEILING_MS)
    }
}

/// Equal when every phase holds the same cursor and the same samples,
/// bit for bit: the kill/resume contract's comparison.
impl PartialEq for TimeoutEstimators {
    fn eq(&self, other: &Self) -> bool {
        *self.inner.borrow() == *other.inner.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_until_min_samples() {
        let est = TimeoutEstimators::new();
        for _ in 0..MIN_SAMPLES - 1 {
            est.observe(TimeoutPhase::Build, 300.0);
        }
        assert_eq!(est.timeout_ms(TimeoutPhase::Build, 30_000.0), 30_000.0);
        est.observe(TimeoutPhase::Build, 300.0);
        // p95 of sixteen 300s · 1.5 = 450.
        assert_eq!(est.timeout_ms(TimeoutPhase::Build, 30_000.0), 450.0);
    }

    #[test]
    fn quantile_tracks_the_tail_and_clamps() {
        let est = TimeoutEstimators::new();
        let mut tail = [300.0; MIN_SAMPLES];
        tail[4] = 25_000.0;
        for ms in tail {
            est.observe(TimeoutPhase::Probe, ms);
        }
        // p95 over 16 samples is the max: 25,000 · 1.5 > ceiling → clamped.
        assert_eq!(est.timeout_ms(TimeoutPhase::Probe, 5_000.0), CEILING_MS);
        // Floor clamps equally: all-fast successes never cut below it.
        let est2 = TimeoutEstimators::new();
        for _ in 0..MIN_SAMPLES {
            est2.observe(TimeoutPhase::Probe, 1.0);
        }
        assert_eq!(est2.timeout_ms(TimeoutPhase::Probe, 5_000.0), FLOOR_MS);
    }

    #[test]
    fn window_evicts_oldest() {
        let est = TimeoutEstimators::new();
        for _ in 0..WINDOW {
            est.observe(TimeoutPhase::Stream, 500.0);
        }
        // A window more of slower successes pushes every 500 out of it.
        for _ in 0..WINDOW {
            est.observe(TimeoutPhase::Stream, 200.0);
        }
        assert_eq!(est.timeout_ms(TimeoutPhase::Stream, 9_999.0), 300.0);
        let inner = est.inner.borrow();
        assert_eq!(inner.window_ref(TimeoutPhase::Stream).samples.len(), WINDOW);
    }

    #[test]
    fn equality_compares_cursors_and_sample_bits() {
        let fed = |samples: &[f64]| {
            let est = TimeoutEstimators::new();
            for &ms in samples {
                est.observe(TimeoutPhase::Probe, ms);
            }
            est
        };
        assert_eq!(fed(&[1.0, 2.0]), fed(&[1.0, 2.0]));
        assert_ne!(fed(&[1.0, 0.0]), fed(&[1.0, -0.0]));
        assert_ne!(fed(&[1.0, 2.0]), fed(&[2.0, 1.0]));
        // A full window: same samples, cursor one further along.
        let more = [5.0; WINDOW + 1];
        assert_ne!(fed(&more), fed(&more[..WINDOW]));
        assert_eq!(fed(&[f64::NAN]), fed(&[f64::NAN]));
    }
}
