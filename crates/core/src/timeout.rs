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
//! the previous deadline was. Until `min_samples` successes have been
//! seen, the fixed fallback from [`crate::orchestrator::TingConfig`]
//! applies unchanged — which also means a run with adaptive timeouts
//! disabled (`TingConfig::adaptive_timeouts = None`) is bit-identical
//! to the pre-adaptive pipeline.
//!
//! The estimator state is a plain ring buffer per phase behind a shared
//! handle. A supervisor keeps a shard's handle across a crash and hands
//! it to the restarted driver, so a killed-and-resumed scan replays with
//! bit-identical deadlines.

use std::cell::RefCell;
use std::rc::Rc;

/// Adaptive-timeout knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveTimeoutConfig {
    /// Quantile of the observed success durations used as the cutoff
    /// basis (Tor's CBT uses ~0.8; measurement wants a laxer p95).
    pub quantile: f64,
    /// Multiplier on the quantile — headroom for jitter above p95.
    pub headroom: f64,
    /// Ring-buffer window of success durations kept per phase.
    pub window: usize,
    /// Successes required before the estimate replaces the fallback.
    pub min_samples: usize,
    /// Never cut off below this (ms), no matter how fast successes are.
    pub floor_ms: f64,
    /// Never wait longer than this (ms).
    pub ceiling_ms: f64,
}

impl Default for AdaptiveTimeoutConfig {
    fn default() -> Self {
        AdaptiveTimeoutConfig {
            quantile: 0.95,
            headroom: 1.5,
            window: 128,
            min_samples: 16,
            floor_ms: 250.0,
            ceiling_ms: 30_000.0,
        }
    }
}

/// The three deadline-bearing phases of one circuit measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutPhase {
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
    fn observe(&mut self, ms: f64, window: usize) {
        if window == 0 {
            return;
        }
        if self.samples.len() < window {
            self.samples.push(ms);
        } else {
            self.cursor %= self.samples.len();
            self.samples[self.cursor] = ms;
        }
        self.cursor = (self.cursor + 1) % window.max(1);
    }

    /// The q-quantile (nearest-rank) of the window, if non-empty.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank =
            ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
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

/// A cheap, clonable handle to the three per-phase estimators (`Rc`
/// sharing, like [`tor_sim::RelayMetrics`]), so the scanner and every
/// lane of the measurement engine feed and read one state.
#[derive(Debug, Clone, Default)]
pub struct TimeoutEstimators {
    inner: Rc<RefCell<Inner>>,
}

impl TimeoutEstimators {
    pub fn new() -> TimeoutEstimators {
        TimeoutEstimators::default()
    }

    /// Feeds one successful phase duration.
    pub fn observe(&self, phase: TimeoutPhase, ms: f64, config: &AdaptiveTimeoutConfig) {
        self.inner
            .borrow_mut()
            .window(phase)
            .observe(ms, config.window);
    }

    /// Successes observed so far for `phase`.
    pub fn samples(&self, phase: TimeoutPhase) -> usize {
        self.inner.borrow().window_ref(phase).samples.len()
    }

    /// The deadline for `phase` in ms: `quantile · headroom`, clamped
    /// to `[floor, ceiling]` — or `fallback_ms` until `min_samples`
    /// successes have been seen.
    pub fn timeout_ms(
        &self,
        phase: TimeoutPhase,
        config: &AdaptiveTimeoutConfig,
        fallback_ms: f64,
    ) -> f64 {
        let inner = self.inner.borrow();
        let w = inner.window_ref(phase);
        if w.samples.len() < config.min_samples.max(1) {
            return fallback_ms;
        }
        let q = w.quantile(config.quantile).unwrap_or(fallback_ms);
        (q * config.headroom).clamp(config.floor_ms, config.ceiling_ms)
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

    fn cfg() -> AdaptiveTimeoutConfig {
        AdaptiveTimeoutConfig {
            min_samples: 4,
            window: 8,
            floor_ms: 10.0,
            ceiling_ms: 1_000.0,
            quantile: 0.95,
            headroom: 1.5,
        }
    }

    #[test]
    fn fallback_until_min_samples() {
        let est = TimeoutEstimators::new();
        let c = cfg();
        for _ in 0..3 {
            est.observe(TimeoutPhase::Build, 100.0, &c);
        }
        assert_eq!(est.timeout_ms(TimeoutPhase::Build, &c, 30_000.0), 30_000.0);
        est.observe(TimeoutPhase::Build, 100.0, &c);
        // p95 of {100,100,100,100}·1.5 = 150.
        assert_eq!(est.timeout_ms(TimeoutPhase::Build, &c, 30_000.0), 150.0);
    }

    #[test]
    fn quantile_tracks_the_tail_and_clamps() {
        let est = TimeoutEstimators::new();
        let c = cfg();
        for ms in [10.0, 12.0, 11.0, 13.0, 700.0, 10.0, 12.0, 11.0] {
            est.observe(TimeoutPhase::Probe, ms, &c);
        }
        // p95 over 8 samples is the max: 700 · 1.5 > ceiling → clamped.
        assert_eq!(est.timeout_ms(TimeoutPhase::Probe, &c, 5_000.0), 1_000.0);
        // Floor clamps equally: all-fast successes never cut below it.
        let est2 = TimeoutEstimators::new();
        for _ in 0..8 {
            est2.observe(TimeoutPhase::Probe, 1.0, &c);
        }
        assert_eq!(est2.timeout_ms(TimeoutPhase::Probe, &c, 5_000.0), 10.0);
    }

    #[test]
    fn window_evicts_oldest() {
        let est = TimeoutEstimators::new();
        let c = cfg();
        for _ in 0..8 {
            est.observe(TimeoutPhase::Stream, 500.0, &c);
        }
        // 8 more fast successes push every 500 out of the window.
        for _ in 0..8 {
            est.observe(TimeoutPhase::Stream, 20.0, &c);
        }
        assert_eq!(est.timeout_ms(TimeoutPhase::Stream, &c, 9_999.0), 30.0);
        assert_eq!(est.samples(TimeoutPhase::Stream), 8);
    }

    #[test]
    fn equality_compares_cursors_and_sample_bits() {
        let c = cfg();
        let fed = |samples: &[f64]| {
            let est = TimeoutEstimators::new();
            for &ms in samples {
                est.observe(TimeoutPhase::Probe, ms, &c);
            }
            est
        };
        assert_eq!(fed(&[1.0, 2.0]), fed(&[1.0, 2.0]));
        assert_ne!(fed(&[1.0, 0.0]), fed(&[1.0, -0.0]));
        assert_ne!(fed(&[1.0, 2.0]), fed(&[2.0, 1.0]));
        // A full window: same samples, cursor one further along.
        let nine = [5.0; 9];
        assert_ne!(fed(&nine), fed(&nine[..8]));
        assert_eq!(fed(&[f64::NAN]), fed(&[f64::NAN]));
    }
}
