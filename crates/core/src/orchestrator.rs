//! Driving Ting measurements over a simulated Tor network.
//!
//! [`Ting::measure_pair`] is the top-level operation: build `C_xy`,
//! `C_x`, `C_y`, attach an echo stream to each, sample RTTs under the
//! configured [`SamplePolicy`], tear everything down, and return the
//! [`TingMeasurement`]. The procedure itself lives in
//! [`crate::parallel`]; this module holds its configuration, its error
//! type, and the observability hooks it reports through.

use crate::estimator::{CircuitSamples, TingMeasurement};
use crate::parallel;
use crate::sampling::SamplePolicy;
use crate::timeout::{TimeoutEstimators, TimeoutPhase};
use netsim::{NodeId, SimTime};
use obs::{Counter, Hist, Obs, Value};
use tor_sim::TorNetwork;

/// Ting configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TingConfig {
    /// Sampling policy per circuit.
    pub policy: SamplePolicy,
    /// Give up on a circuit build after this long (virtual ms).
    pub circuit_build_timeout_ms: f64,
    /// Probes allowed to time out within one circuit measurement before
    /// the attempt is abandoned as [`TingError::ProbeLost`].
    pub max_lost_probes: u32,
    /// Attempts per circuit (build + sample), including the first.
    /// Failed attempts rebuild the circuit through the same relays
    /// after a backoff.
    pub max_attempts: u32,
    /// CBT-style adaptive per-phase deadlines (see [`crate::timeout`]).
    /// `false` keeps the fixed deadlines — and keeps the pipeline
    /// bit-identical to the pre-adaptive behaviour.
    pub adaptive_timeouts: bool,
}

/// Echo payload size in bytes (one cell each way regardless; the
/// paper's probes are tiny).
const PAYLOAD_LEN: usize = 8;
/// Pause between consecutive probes on a circuit, ms (gives relay
/// queues a chance to drain, as a polite real deployment would).
pub(crate) const PROBE_SPACING_MS: f64 = 5.0;
/// Give up on the echo stream attach after this long (ms).
const STREAM_TIMEOUT_MS: f64 = 15_000.0;
/// Give up on an individual probe after this long (ms); the probe is
/// discarded, never entering the sample set.
const PROBE_TIMEOUT_MS: f64 = 5_000.0;
/// Base retry backoff (ms); attempt `k` waits `base · 2^(k-1)`, scaled
/// by a deterministic jitter in `[0.5, 1.5)`, up to the cap (ms).
const RETRY_BACKOFF_MS: f64 = 500.0;
const RETRY_BACKOFF_CAP_MS: f64 = 8_000.0;

impl Default for TingConfig {
    fn default() -> Self {
        TingConfig {
            policy: SamplePolicy::paper_accurate(),
            // Like the stream and probe deadlines, generous enough that
            // a fault-free run never hits it (keeping estimates
            // bit-identical to an untimed run), tight enough that a
            // dead relay costs seconds, not a hung scan.
            circuit_build_timeout_ms: 30_000.0,
            max_lost_probes: 16,
            max_attempts: 3,
            adaptive_timeouts: false,
        }
    }
}

impl TingConfig {
    /// The §4.4 fast preset (~5% error, seconds per pair).
    pub fn fast() -> TingConfig {
        TingConfig {
            policy: SamplePolicy::paper_fast(),
            ..Default::default()
        }
    }

    /// Fixed-count sampling.
    pub fn with_samples(n: usize) -> TingConfig {
        TingConfig {
            policy: SamplePolicy::FixedCount(n),
            ..Default::default()
        }
    }
}

/// Why a measurement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TingError {
    /// A circuit could not be built through the given relays.
    /// `permanent` marks client-side policy rejections (one-hop path,
    /// repeated relay, unknown identity) that no retry can fix.
    CircuitBuildFailed { path: Vec<NodeId>, permanent: bool },
    /// The echo stream never connected.
    StreamFailed,
    /// Too many probes got no echo back (circuit died or the path is
    /// shedding cells).
    ProbeLost,
}

impl TingError {
    /// Whether retrying the same operation can possibly succeed.
    pub(crate) fn is_retryable(&self) -> bool {
        !matches!(
            self,
            TingError::CircuitBuildFailed {
                permanent: true,
                ..
            }
        )
    }

    /// A stable machine-readable code naming the variant — the suffix
    /// of the `ting.error.<code>` observability counter each failure
    /// increments.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            TingError::CircuitBuildFailed { .. } => "circuit_build_failed",
            TingError::StreamFailed => "stream_failed",
            TingError::ProbeLost => "probe_lost",
        }
    }
}

impl std::fmt::Display for TingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TingError::CircuitBuildFailed { path, permanent } => {
                write!(f, "circuit build failed through [")?;
                for (i, n) in path.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", n.0)?;
                }
                write!(
                    f,
                    "] ({})",
                    if *permanent {
                        "policy rejection"
                    } else {
                        "timeout or relay failure"
                    }
                )
            }
            TingError::StreamFailed => write!(f, "echo stream never connected"),
            TingError::ProbeLost => write!(f, "too many probes lost without an echo"),
        }
    }
}

impl std::error::Error for TingError {}

/// Pre-resolved observability handles for the measurement hot path:
/// per-phase latency histograms and failure counters. Each is a null
/// check when observability is off.
#[derive(Debug, Clone, Default)]
struct TingObsHandles {
    build_hist: Hist,
    stream_hist: Hist,
    probe_hist: Hist,
    err_circuit: Counter,
    err_stream: Counter,
    err_probe: Counter,
    retries: Counter,
    probe_timeouts: Counter,
}

impl TingObsHandles {
    fn new(obs: &Obs) -> TingObsHandles {
        TingObsHandles {
            build_hist: obs.hist_handle("ting.phase.build_us"),
            stream_hist: obs.hist_handle("ting.phase.stream_us"),
            probe_hist: obs.hist_handle("ting.phase.probe_us"),
            err_circuit: obs.counter_handle("ting.error.circuit_build_failed"),
            err_stream: obs.counter_handle("ting.error.stream_failed"),
            err_probe: obs.counter_handle("ting.error.probe_lost"),
            retries: obs.counter_handle("ting.retry"),
            probe_timeouts: obs.counter_handle("ting.probe.timeout"),
        }
    }
}

/// The Ting measurement driver.
#[derive(Debug, Clone, Default)]
pub struct Ting {
    pub config: TingConfig,
    /// Rolling per-phase duration estimators feeding the adaptive
    /// deadlines (inert unless `config.adaptive_timeouts` is set).
    pub timeouts: TimeoutEstimators,
    /// Observability: per-phase histograms, failure counters, and (at
    /// trace level) typed events. Off by default.
    obs: Obs,
    handles: TingObsHandles,
}

impl Ting {
    pub fn new(config: TingConfig) -> Ting {
        Ting::with_obs(config, Obs::off())
    }

    /// A driver recording into `obs`. The scanner reaches the same
    /// handle through [`Ting::obs`], so attaching it here instruments
    /// the whole measurement path.
    pub fn with_obs(config: TingConfig, obs: Obs) -> Ting {
        Ting {
            config,
            timeouts: TimeoutEstimators::new(),
            handles: TingObsHandles::new(&obs),
            obs,
        }
    }

    /// The attached observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The effective deadline for `phase` in ms: the learned estimate
    /// once adaptive timeouts are enabled and warmed up, otherwise the
    /// fixed config value.
    pub(crate) fn phase_timeout_ms(&self, phase: TimeoutPhase) -> f64 {
        let fixed = match phase {
            TimeoutPhase::Build => self.config.circuit_build_timeout_ms,
            TimeoutPhase::Stream => STREAM_TIMEOUT_MS,
            TimeoutPhase::Probe => PROBE_TIMEOUT_MS,
        };
        if self.config.adaptive_timeouts {
            self.timeouts.timeout_ms(phase, fixed)
        } else {
            fixed
        }
    }

    /// Records a completed phase at virtual instant `at`: the duration
    /// enters the per-phase latency histogram (and, at trace level, a
    /// `ting.phase` event tagged with the enclosing circuit's span id),
    /// and feeds the adaptive-deadline estimators when those are
    /// enabled.
    pub(crate) fn observe_phase_ms(
        &self,
        phase: TimeoutPhase,
        ms: f64,
        at: SimTime,
        circuit: obs::SpanId,
    ) {
        let hist = match phase {
            TimeoutPhase::Build => &self.handles.build_hist,
            TimeoutPhase::Stream => &self.handles.stream_hist,
            TimeoutPhase::Probe => &self.handles.probe_hist,
        };
        hist.record_ms(ms);
        self.obs.event(obs::names::TING_PHASE, at.as_nanos(), || {
            vec![
                ("phase", Value::Str(Self::phase_name(phase).to_owned())),
                ("dur_us", Value::U64(obs::ms_to_us(ms))),
                ("circuit", Value::U64(circuit.0)),
            ]
        });
        if self.config.adaptive_timeouts {
            self.timeouts.observe(phase, ms);
        }
    }

    fn phase_name(phase: TimeoutPhase) -> &'static str {
        match phase {
            TimeoutPhase::Build => "build",
            TimeoutPhase::Stream => "stream",
            TimeoutPhase::Probe => "probe",
        }
    }

    /// Bumps the `ting.error.<code>` counter and, at trace level,
    /// records a `ting.error` event naming the failed circuit's span.
    /// Called at every failure creation site, so retried failures
    /// count each time they occur.
    pub(crate) fn observe_error(&self, err: &TingError, at: SimTime, circuit: obs::SpanId) {
        match err {
            TingError::CircuitBuildFailed { .. } => self.handles.err_circuit.inc(),
            TingError::StreamFailed => self.handles.err_stream.inc(),
            TingError::ProbeLost => self.handles.err_probe.inc(),
        }
        self.obs.event(obs::names::TING_ERROR, at.as_nanos(), || {
            vec![
                ("code", Value::Str(err.code().to_owned())),
                ("circuit", Value::U64(circuit.0)),
            ]
        });
    }

    /// Bumps the retry counter and, at trace level, records a
    /// `ting.retry` event.
    pub(crate) fn observe_retry(&self, attempt: u32, at: SimTime) {
        self.handles.retries.inc();
        self.obs.event(obs::names::TING_RETRY, at.as_nanos(), || {
            vec![("attempt", Value::U64(u64::from(attempt)))]
        });
    }

    /// Opens a `ting.circuit` span: one build-attach-sample attempt
    /// through `path`. `kind` names the circuit's role in the Eq. (4)
    /// estimator (`full` = C_xy, `x` = C_x, `y` = C_y; `leg` when a
    /// bare two-hop circuit is sampled outside [`Ting::measure_pair`]
    /// and the target leg is unknown). The span id tags every
    /// `ting.phase`/`ting.error` event recorded inside the attempt, so
    /// an analyzer can attribute each probe to its circuit.
    pub(crate) fn observe_circuit_begin(
        &self,
        path: &[NodeId],
        kind: &'static str,
        attempt: u32,
        vantage: usize,
        at: SimTime,
    ) -> obs::SpanId {
        self.obs
            .span_begin(obs::names::TING_CIRCUIT_BEGIN, at.as_nanos(), || {
                let rendered: Vec<String> = path.iter().map(|n| n.0.to_string()).collect();
                vec![
                    ("kind", Value::Str(kind.to_owned())),
                    ("path", Value::Str(rendered.join("-"))),
                    ("attempt", Value::U64(u64::from(attempt))),
                    ("vantage", Value::U64(vantage as u64)),
                ]
            })
    }

    /// Closes a `ting.circuit` span. `outcome` is `"ok"` or the
    /// [`TingError::code`] that ended the attempt; every exit from a
    /// circuit attempt — success, build failure, stream failure, probe
    /// loss — must pass through here exactly once (the trace linter
    /// rejects traces with unmatched begins).
    pub(crate) fn observe_circuit_end(&self, span: obs::SpanId, outcome: &str, at: SimTime) {
        self.obs
            .span_end(obs::names::TING_CIRCUIT_END, span, at.as_nanos(), || {
                vec![("outcome", Value::Str(outcome.to_owned()))]
            });
    }

    /// Bumps the probe-timeout counter.
    pub(crate) fn observe_probe_timeout(&self) {
        self.handles.probe_timeouts.inc();
    }

    /// Measures `R(x, y)` per §3.3: the three circuits, minima, Eq. (4).
    /// Each circuit is retried under backoff through the same relays
    /// before the pair is abandoned, and circuits are measured strictly
    /// one after another, exactly as the published tool does (a
    /// single-lane drive of the engine in [`crate::parallel`]).
    pub fn measure_pair(
        &self,
        net: &mut TorNetwork,
        x: NodeId,
        y: NodeId,
    ) -> Result<TingMeasurement, TingError> {
        let job = parallel::pair_job(self, (net.local_w, net.local_z), (x, y), ());
        parallel::run_alone(net, self, job).into_measurement()
    }

    /// The backoff pause before retry `attempt` (1-based) of a circuit:
    /// exponential in the attempt, jittered by a keyed hash of the path
    /// so concurrent deployments desynchronize — but never drawn from
    /// the simulation RNG, keeping retries replayable.
    pub(crate) fn backoff_ms(&self, path: &[NodeId], attempt: u32) -> f64 {
        crate::backoff::jittered_ms(RETRY_BACKOFF_MS, RETRY_BACKOFF_CAP_MS, path, attempt)
    }

    /// Builds one circuit, attaches an echo stream, samples RTTs under
    /// the policy, and tears the circuit down — a single attempt, no
    /// retry. Each phase runs under its configured timeout; probes that
    /// miss their deadline are dropped from the sample set.
    pub fn sample_circuit(
        &self,
        net: &mut TorNetwork,
        path: Vec<NodeId>,
    ) -> Result<CircuitSamples, TingError> {
        // Judging only by path shape, four hops is the full `C_xy`
        // circuit; a bare two-hop leg cannot be told apart as `C_x` vs
        // `C_y`.
        let kind = if path.len() == 4 { "full" } else { "leg" };
        let job = parallel::Job {
            subject: (),
            circuits: [(path, kind)],
            max_attempts: 1,
        };
        parallel::run_alone(net, self, job)
            .result
            .map(|[samples]| samples)
    }

    /// Opens a `scan.pair` span for a measurement of `(a, b)` from
    /// `vantage`, as the engine starts it.
    pub(crate) fn observe_pair_begin(
        &self,
        a: NodeId,
        b: NodeId,
        vantage: usize,
        at: SimTime,
    ) -> obs::SpanId {
        self.obs
            .span_begin(obs::names::SCAN_PAIR_BEGIN, at.as_nanos(), || {
                vec![
                    ("a", Value::U64(u64::from(a.0))),
                    ("b", Value::U64(u64::from(b.0))),
                    ("vantage", Value::U64(vantage as u64)),
                ]
            })
    }

    /// Closes a `scan.pair` span with an outcome string (`accepted`,
    /// `rejected`, an error code, or `ok` for raw engine runs with no
    /// validating scanner above them).
    pub(crate) fn observe_pair_end(&self, span: obs::SpanId, outcome: &str, at: SimTime) {
        self.obs
            .span_end(obs::names::SCAN_PAIR_END, span, at.as_nanos(), || {
                vec![("outcome", Value::Str(outcome.to_owned()))]
            });
    }

    /// The probe payload: [`PAYLOAD_LEN`] bytes carrying the probe index
    /// (little-endian, truncated) so echoes are matchable to their
    /// probe. Same length for every probe — identical timing.
    pub(crate) fn probe_payload(&self, probe_idx: u64) -> Vec<u8> {
        let mut payload = vec![0xA5u8; PAYLOAD_LEN];
        for (slot, byte) in payload.iter_mut().zip(probe_idx.to_le_bytes()) {
            *slot = byte;
        }
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tor_sim::TorNetworkBuilder;

    fn quick_ting() -> Ting {
        Ting::new(TingConfig::with_samples(30))
    }

    #[test]
    fn estimate_close_to_ground_truth() {
        let mut net = TorNetworkBuilder::testbed(11).build();
        let (x, y) = (net.relays[2], net.relays[25]);
        let truth = net.true_rtt_ms(x, y);
        let m = quick_ting().measure_pair(&mut net, x, y).expect("measured");
        let est = m.estimate_ms();
        // Estimate = truth + F_x + F_y (0–3 ms floors) + residual noise.
        let err = (est - truth).abs();
        assert!(
            err < truth * 0.25 + 8.0,
            "estimate {est} vs truth {truth} (err {err})"
        );
        assert!(est > 0.0);
    }

    #[test]
    fn estimates_preserve_rank_order() {
        // Even a quick measurement should rank a nearby pair below a
        // far-apart pair (the Spearman-ρ headline depends on this).
        let mut net = TorNetworkBuilder::testbed(12).build();
        let pairs = [
            (net.relays[0], net.relays[1]),
            (net.relays[3], net.relays[9]),
            (net.relays[14], net.relays[30]),
        ];
        let ting = quick_ting();
        let mut truth: Vec<f64> = Vec::new();
        let mut est: Vec<f64> = Vec::new();
        for &(x, y) in &pairs {
            truth.push(net.true_rtt_ms(x, y));
            est.push(ting.measure_pair(&mut net, x, y).unwrap().estimate_ms());
        }
        let rho = stats::spearman(&truth, &est).unwrap();
        assert!(rho > 0.9, "rank correlation {rho}");
    }

    #[test]
    fn measurement_reports_elapsed_time() {
        let mut net = TorNetworkBuilder::testbed(13).build();
        let (x, y) = (net.relays[4], net.relays[5]);
        let m = quick_ting().measure_pair(&mut net, x, y).unwrap();
        assert!(m.elapsed_s > 0.0);
        assert_eq!(m.total_samples(), 90);
    }

    #[test]
    fn early_stop_uses_fewer_samples() {
        let mut net = TorNetworkBuilder::testbed(14).build();
        let (x, y) = (net.relays[7], net.relays[8]);
        let accurate = Ting::new(TingConfig::with_samples(100))
            .measure_pair(&mut net, x, y)
            .unwrap();
        let fast = Ting::new(TingConfig::fast())
            .measure_pair(&mut net, x, y)
            .unwrap();
        assert!(fast.total_samples() < accurate.total_samples() / 2);
        // And still lands near the accurate estimate (§4.4: ~5% error).
        let rel =
            (fast.estimate_ms() - accurate.estimate_ms()).abs() / accurate.estimate_ms().max(1.0);
        assert!(rel < 0.25, "fast estimate off by {rel}");
    }

    #[test]
    fn unbuildable_circuit_is_an_error() {
        let mut net = TorNetworkBuilder::testbed(15).build();
        let bogus = netsim::NodeId(9999);
        let first = net.relays[0];
        let err = quick_ting().measure_pair(&mut net, bogus, first);
        assert!(matches!(err, Err(TingError::CircuitBuildFailed { .. })));
    }
}
