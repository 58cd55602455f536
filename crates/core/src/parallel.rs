//! The measurement engine.
//!
//! §3.3's procedure — build a circuit, attach an echo stream, sample
//! RTTs, tear the circuit down, retry under backoff — is implemented
//! exactly once, as a poll-driven state machine (`Task`) that issues
//! controller commands without ever draining the event queue itself.
//! One cooperative driver (`drive`) runs one task per *lane* (a
//! vantage: its own proxy, local relay pair `(w_i, z_i)` and echo
//! server — see [`tor_sim::TorNetworkBuilder::vantages`]): it peeks the
//! next event time ([`netsim::Simulator::next_event_at`]), compares it
//! with every task's earliest wake-up deadline, and advances whichever
//! comes first. Every entry point is a lane assignment over that
//! driver: [`Ting::measure_pair`] and [`Ting::sample_circuit`] run one
//! job on one lane, [`crate::scanner::Scanner::run_round`] queues a
//! whole round on one lane, and
//! [`crate::scanner::Scanner::run_round_parallel`] spreads it over all
//! of them — §6's "multiple instances of Ting can run in parallel",
//! with K pairs in flight concurrently *in virtual time*.
//!
//! Two rules make a single-lane call reproduce the published tool,
//! which measures its circuits strictly one after another:
//!
//! * **Single-lane drain.** After a successful teardown, a task that is
//!   the only lane of its driver call waits for the network to go quiet
//!   before it starts its next circuit (or reports completion), so no
//!   DESTROY is still in flight when the next CREATE leaves. With
//!   several lanes the network never goes quiet while others measure,
//!   so multi-lane tasks overlap teardown with the next build instead.
//! * **No `idle` for a fresh task.** "The network is quiescent" is a
//!   statement about what a task was waiting for; a task the driver
//!   started this turn has not asked for anything yet, and must not
//!   read the previous task's quiet as its own build never settling.
//!
//! The event stream — and therefore every estimate — is a deterministic
//! function of `(seed, lane count, assignment order)`.

use crate::estimator::{CircuitSamples, TingMeasurement};
use crate::orchestrator::{Ting, TingError, PROBE_SPACING_MS};
use crate::timeout::TimeoutPhase;
use netsim::{NodeId, SimDuration, SimTime, Simulator};
use std::collections::VecDeque;
use tor_sim::{CircuitHandle, CircuitStatus, Controller, StreamHandle, StreamStatus, TorNetwork};

/// The completion record of one interleaved pair measurement.
#[derive(Debug)]
pub struct PairOutcome {
    pub x: NodeId,
    pub y: NodeId,
    /// Vantage index that measured the pair.
    pub vantage: usize,
    /// Virtual instant the measurement finished (success or failure).
    pub completed_at: SimTime,
    /// The pair's `scan.pair` trace span, opened by the engine when the
    /// measurement started. The completion handler must close it (the
    /// scanner does so with the validation outcome;
    /// [`measure_interleaved`] closes it with the raw result).
    pub span: obs::SpanId,
    pub result: Result<TingMeasurement, TingError>,
}

/// An assignment named a vantage the network does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownVantage {
    pub vantage: usize,
    pub provisioned: usize,
}

impl std::fmt::Display for UnknownVantage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "assignment to vantage {} but only {} provisioned",
            self.vantage, self.provisioned
        )
    }
}

impl std::error::Error for UnknownVantage {}

/// A circuit to sample: its relay path (entry first) and its role in
/// the Eq. (4) estimator (see [`Ting::observe_circuit_begin`]).
pub(crate) type Circuit = (Vec<NodeId>, &'static str);

/// One lane's unit of work: `N` circuits sampled in order, each
/// attempted up to `max_attempts` times. `subject` is whatever the
/// caller needs back with the result.
pub(crate) struct Job<S, const N: usize> {
    pub subject: S,
    pub circuits: [Circuit; N],
    pub max_attempts: u32,
}

/// A completed [`Job`].
pub(crate) struct Finished<S, const N: usize> {
    pub subject: S,
    pub vantage: usize,
    pub started: SimTime,
    pub completed_at: SimTime,
    pub result: Result<[CircuitSamples; N], TingError>,
}

impl<S> Finished<S, 3> {
    /// The §3.3 measurement a [`pair_job`] produced.
    pub(crate) fn into_measurement(self) -> Result<TingMeasurement, TingError> {
        let elapsed_s = (self.completed_at - self.started).as_secs_f64();
        self.result.map(|[full, x_leg, y_leg]| TingMeasurement {
            full,
            x_leg,
            y_leg,
            elapsed_s,
        })
    }
}

/// The three circuits of §3.3 for the pair `(x, y)` seen from the local
/// relays `(w, z)`: `C_xy`, `C_x`, `C_y`, each under the configured
/// retry policy.
pub(crate) fn pair_job<S>(
    ting: &Ting,
    (w, z): (NodeId, NodeId),
    (x, y): (NodeId, NodeId),
    subject: S,
) -> Job<S, 3> {
    Job {
        subject,
        circuits: [
            (vec![w, x, y, z], "full"),
            (vec![w, x], "x"),
            (vec![w, y], "y"),
        ],
        max_attempts: ting.config.max_attempts.max(1),
    }
}

/// Where one in-flight job currently is.
enum TaskState {
    /// About to build the current circuit.
    StartCircuit,
    /// Waiting for the circuit build to settle.
    Building {
        circuit: CircuitHandle,
        deadline: SimTime,
    },
    /// Waiting for the echo stream to connect.
    Opening {
        circuit: CircuitHandle,
        stream: StreamHandle,
        deadline: SimTime,
    },
    /// Waiting out the inter-probe spacing.
    Spacing {
        circuit: CircuitHandle,
        stream: StreamHandle,
        resume_at: SimTime,
    },
    /// A probe is in flight.
    AwaitEcho {
        circuit: CircuitHandle,
        stream: StreamHandle,
        expect: Vec<u8>,
        sent_at: SimTime,
        deadline: SimTime,
    },
    /// Single lane only: the circuit is torn down and the task waits
    /// for the network to go quiet before moving on.
    Draining,
    /// Waiting out the retry backoff before rebuilding the circuit.
    Backoff { resume_at: SimTime },
    /// Finished; the result has been recorded.
    Done,
}

/// A poll-driven run of one [`Job`] through one vantage: build, attach,
/// sample and tear down each circuit in turn, retrying a failed one
/// under backoff. It never drains the event queue itself, so it can
/// interleave with other tasks.
struct Task<const N: usize> {
    circuits: [Circuit; N],
    max_attempts: u32,
    echo: NodeId,
    /// Vantage index this task measures from (trace attribution).
    vantage: usize,
    /// Whether this task is the only lane of its driver call (see the
    /// module docs' drain rule).
    drain: bool,
    /// The `ting.circuit` span of the in-flight attempt, tagging every
    /// phase/error event recorded while it is open.
    circuit_span: obs::SpanId,
    started: SimTime,
    /// Index of the circuit being sampled.
    idx: usize,
    /// 1-based attempt counter for the current circuit.
    attempt: u32,
    /// RTTs collected so far, one set per circuit.
    samples: [Vec<f64>; N],
    lost: u32,
    probe_idx: u64,
    /// When the in-flight circuit build was issued (adaptive-timeout
    /// observation).
    build_started: SimTime,
    /// When the in-flight stream open was issued.
    open_started: SimTime,
    state: TaskState,
    result: Option<Result<[CircuitSamples; N], TingError>>,
}

impl<const N: usize> Task<N> {
    fn new<S>(job: Job<S, N>, echo: NodeId, vantage: usize, drain: bool, now: SimTime) -> Task<N> {
        Task {
            circuits: job.circuits,
            max_attempts: job.max_attempts,
            echo,
            vantage,
            drain,
            circuit_span: obs::SpanId(0),
            started: now,
            idx: 0,
            attempt: 1,
            samples: std::array::from_fn(|_| Vec::new()),
            lost: 0,
            probe_idx: 0,
            build_started: now,
            open_started: now,
            state: TaskState::StartCircuit,
            result: None,
        }
    }

    fn deadline(sim: &Simulator, timeout_ms: f64) -> SimTime {
        sim.now() + SimDuration::from_millis_f64(timeout_ms)
    }

    /// Handles a failed circuit attempt: rebuild through the same
    /// relays after a jittered exponential backoff, or conclude the job
    /// once attempts are exhausted (or the failure is permanent).
    fn fail_attempt(&mut self, sim: &Simulator, ting: &Ting, err: TingError) {
        // Whatever happens next (retry or give up), this attempt's
        // circuit is over — close its span so no error path leaks one.
        ting.observe_circuit_end(self.circuit_span, err.code(), sim.now());
        if !err.is_retryable() || self.attempt >= self.max_attempts {
            self.result = Some(Err(err));
            self.state = TaskState::Done;
            return;
        }
        let pause_ms = ting.backoff_ms(&self.circuits[self.idx].0, self.attempt);
        self.attempt += 1;
        ting.observe_retry(self.attempt, sim.now());
        self.state = TaskState::Backoff {
            resume_at: sim.now() + SimDuration::from_millis_f64(pause_ms),
        };
    }

    /// Sends the next probe on the open stream.
    fn send_probe(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        circuit: CircuitHandle,
        stream: StreamHandle,
    ) {
        let payload = ting.probe_payload(self.probe_idx);
        self.probe_idx += 1;
        let sent_at = sim.now();
        let deadline = Self::deadline(sim, ting.phase_timeout_ms(TimeoutPhase::Probe));
        ctl.send(sim, stream, payload.clone());
        self.state = TaskState::AwaitEcho {
            circuit,
            stream,
            expect: payload,
            sent_at,
            deadline,
        };
    }

    /// Advances the state machine as far as it can go at the current
    /// instant. Returns the earliest virtual time this task needs to be
    /// woken at (`None` = it is waiting purely on network events).
    ///
    /// `idle` tells the task the global event queue has drained with no
    /// task holding a wake-up: an unmet condition (circuit not ready,
    /// echo not arrived) can never be met and must be treated as a
    /// failure/timeout, and a drain is complete.
    fn poll(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        mut idle: bool,
    ) -> Option<SimTime> {
        #[cfg(test)]
        tests::POLLS.with(|polls| polls.set(polls.get() + 1));
        loop {
            match self.state {
                TaskState::StartCircuit => {
                    self.samples[self.idx].clear();
                    self.lost = 0;
                    self.probe_idx = 0;
                    self.build_started = sim.now();
                    let (path, kind) = &self.circuits[self.idx];
                    self.circuit_span = ting.observe_circuit_begin(
                        path,
                        kind,
                        self.attempt,
                        self.vantage,
                        sim.now(),
                    );
                    let deadline = Self::deadline(sim, ting.phase_timeout_ms(TimeoutPhase::Build));
                    let circuit = ctl.build_circuit(sim, path.clone());
                    self.state = TaskState::Building { circuit, deadline };
                }
                TaskState::Building { circuit, deadline } => match ctl.circuit_status(circuit) {
                    CircuitStatus::Ready => {
                        ting.observe_phase_ms(
                            TimeoutPhase::Build,
                            sim.now().since(self.build_started).as_millis_f64(),
                            sim.now(),
                            self.circuit_span,
                        );
                        self.open_started = sim.now();
                        let deadline =
                            Self::deadline(sim, ting.phase_timeout_ms(TimeoutPhase::Stream));
                        let stream = ctl.open_stream(sim, circuit, self.echo);
                        self.state = TaskState::Opening {
                            circuit,
                            stream,
                            deadline,
                        };
                    }
                    status => {
                        let settled = status == CircuitStatus::Failed;
                        if !settled && sim.now() < deadline && !idle {
                            return Some(deadline);
                        }
                        idle = false;
                        // A local policy rejection (one-hop path,
                        // repeated or unknown relay) can never succeed
                        // on retry; anything else — timeout, refused
                        // extend, crashed relay — can.
                        let permanent = ctl.circuit_error(circuit).is_some();
                        ctl.close_circuit(sim, circuit);
                        let err = TingError::CircuitBuildFailed {
                            path: self.circuits[self.idx].0.clone(),
                            permanent,
                        };
                        ting.observe_error(&err, sim.now(), self.circuit_span);
                        self.fail_attempt(sim, ting, err);
                    }
                },
                TaskState::Opening {
                    circuit,
                    stream,
                    deadline,
                } => match ctl.stream_status(stream) {
                    StreamStatus::Open => {
                        ting.observe_phase_ms(
                            TimeoutPhase::Stream,
                            sim.now().since(self.open_started).as_millis_f64(),
                            sim.now(),
                            self.circuit_span,
                        );
                        self.send_probe(sim, ctl, ting, circuit, stream);
                    }
                    status => {
                        let settled = status != StreamStatus::Connecting;
                        if !settled && sim.now() < deadline && !idle {
                            return Some(deadline);
                        }
                        idle = false;
                        ctl.close_circuit(sim, circuit);
                        ting.observe_error(&TingError::StreamFailed, sim.now(), self.circuit_span);
                        self.fail_attempt(sim, ting, TingError::StreamFailed);
                    }
                },
                TaskState::Spacing {
                    circuit,
                    stream,
                    resume_at,
                } => {
                    if sim.now() < resume_at {
                        return Some(resume_at);
                    }
                    self.send_probe(sim, ctl, ting, circuit, stream);
                }
                TaskState::AwaitEcho {
                    circuit,
                    stream,
                    ref expect,
                    sent_at,
                    deadline,
                } => {
                    // Probes are content-tagged and matched: a late
                    // echo of an earlier, timed-out probe draining into
                    // this window must not pass for a fast reply (it
                    // would deflate a minimum-based estimator).
                    let echoed = ctl
                        .take_received(stream)
                        .into_iter()
                        .filter(|(arrival, data)| *arrival >= sent_at && data == expect)
                        .map(|(arrival, _)| (arrival - sent_at).as_millis_f64())
                        .next_back();
                    match echoed {
                        Some(rtt) => {
                            ting.observe_phase_ms(
                                TimeoutPhase::Probe,
                                rtt,
                                sim.now(),
                                self.circuit_span,
                            );
                            self.samples[self.idx].push(rtt);
                            if ting.config.policy.wants_more(&self.samples[self.idx]) {
                                self.pause_or_probe(sim, ctl, ting, circuit, stream);
                            } else {
                                self.finish_circuit(sim, ctl, ting, circuit, stream);
                            }
                        }
                        None => {
                            if sim.now() < deadline && !idle {
                                return Some(deadline);
                            }
                            idle = false;
                            self.lost += 1;
                            ting.observe_probe_timeout();
                            if self.lost > ting.config.max_lost_probes {
                                ctl.close_stream(sim, stream);
                                ctl.close_circuit(sim, circuit);
                                ting.observe_error(
                                    &TingError::ProbeLost,
                                    sim.now(),
                                    self.circuit_span,
                                );
                                self.fail_attempt(sim, ting, TingError::ProbeLost);
                            } else {
                                self.pause_or_probe(sim, ctl, ting, circuit, stream);
                            }
                        }
                    }
                }
                TaskState::Draining => {
                    if !idle {
                        return None;
                    }
                    idle = false;
                    self.next_circuit(sim, ting);
                }
                TaskState::Backoff { resume_at } => {
                    if sim.now() < resume_at {
                        return Some(resume_at);
                    }
                    self.state = TaskState::StartCircuit;
                }
                TaskState::Done => return None,
            }
        }
    }

    /// Waits out the probe spacing before the next probe. The first
    /// probe of a circuit never waits.
    fn pause_or_probe(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        circuit: CircuitHandle,
        stream: StreamHandle,
    ) {
        if self.probe_idx > 0 {
            self.state = TaskState::Spacing {
                circuit,
                stream,
                resume_at: sim.now() + SimDuration::from_millis_f64(PROBE_SPACING_MS),
            };
        } else {
            self.send_probe(sim, ctl, ting, circuit, stream);
        }
    }

    /// Tears the fully sampled circuit down, then moves on — at once
    /// when other lanes share the network, after the drain otherwise.
    fn finish_circuit(
        &mut self,
        sim: &mut Simulator,
        ctl: &mut Controller,
        ting: &Ting,
        circuit: CircuitHandle,
        stream: StreamHandle,
    ) {
        ctl.close_stream(sim, stream);
        ctl.close_circuit(sim, circuit);
        if self.drain {
            self.state = TaskState::Draining;
        } else {
            self.next_circuit(sim, ting);
        }
    }

    /// Closes the sampled circuit's span and either starts the next
    /// circuit or completes the job.
    fn next_circuit(&mut self, sim: &Simulator, ting: &Ting) {
        ting.observe_circuit_end(self.circuit_span, "ok", sim.now());
        self.idx += 1;
        self.attempt = 1;
        if self.idx == N {
            self.result = Some(Ok(std::array::from_fn(|i| {
                CircuitSamples::new(std::mem::take(&mut self.samples[i]))
            })));
            self.state = TaskState::Done;
        } else {
            self.state = TaskState::StartCircuit;
        }
    }
}

/// Runs every lane's jobs to completion, one in-flight job per lane,
/// interleaved over the shared event loop. Lane `v` measures from
/// vantage `v`, so `lanes` must not be longer than
/// [`TorNetwork::vantage_count`]. `on_start` runs as a job leaves its
/// queue, `on_complete` *at the virtual instant it finishes* (the
/// simulation has not advanced past [`Finished::completed_at`]), so
/// bookkeeping either performs — trace spans, cache updates, health
/// accounting — lands time-ordered.
///
/// # Panics
/// Panics when the driver detects a livelock (a task neither
/// progressing nor holding a wake-up — a bug, not an expected runtime
/// condition).
pub(crate) fn drive<S: Copy, const N: usize>(
    net: &mut TorNetwork,
    ting: &Ting,
    mut lanes: Vec<VecDeque<Job<S, N>>>,
    mut on_start: impl FnMut(&mut S, usize, SimTime),
    mut on_complete: impl FnMut(Finished<S, N>),
) {
    debug_assert!(lanes.len() <= net.vantage_count());
    let drain = lanes.len() == 1;
    // Per lane: the job's subject, its task, and the wake-up hint the
    // task's last poll returned.
    let mut active: Vec<Option<(S, Task<N>, Option<SimTime>)>> =
        lanes.iter().map(|_| None).collect();
    let mut idle_pending = false;
    let mut stuck_polls = 0u32;

    loop {
        let idle = std::mem::take(&mut idle_pending);
        let mut wake: Option<SimTime> = None;
        let mut any_active = false;
        for v in 0..lanes.len() {
            let mut fresh = false;
            if active[v].is_none() {
                if let Some(mut job) = lanes[v].pop_front() {
                    let now = net.sim.now();
                    on_start(&mut job.subject, v, now);
                    let echo = net.vantage_endpoints(v).2;
                    active[v] = Some((job.subject, Task::new(job, echo, v, drain, now), None));
                    fresh = true;
                }
            }
            let Some((subject, task, hint)) = active[v].as_mut() else {
                continue;
            };
            any_active = true;
            let (sim, ctl, _, _, _) = net.vantage_parts(v);
            // The polling rule (DESIGN §10): a poll that finds nothing
            // new changes nothing and returns its last hint, and only
            // these can make it find something.
            let touched = ctl.take_touched();
            let due = hint.is_some_and(|h| sim.now() >= h);
            if fresh || idle || due || touched {
                *hint = task.poll(sim, ctl, ting, idle && !fresh);
            }
            if let Some(result) = task.result.take() {
                on_complete(Finished {
                    subject: *subject,
                    vantage: v,
                    started: task.started,
                    completed_at: net.sim.now(),
                    result,
                });
                active[v] = None;
            } else if let Some(h) = *hint {
                wake = Some(wake.map_or(h, |w| w.min(h)));
            }
        }
        if !any_active && lanes.iter().all(VecDeque::is_empty) {
            break;
        }

        // Advance virtual time to whatever comes first: the next queued
        // event or the earliest task wake-up. When neither exists the
        // network is quiescent with tasks still waiting — re-poll them
        // with the idle flag so drains complete and unmet conditions
        // resolve as timeouts.
        match (net.sim.next_event_at(), wake) {
            (Some(te), Some(tw)) if te > tw => {
                net.sim.advance_to(tw);
            }
            (Some(_), _) => {
                net.sim.step();
            }
            (None, Some(tw)) => {
                net.sim.advance_to(tw);
            }
            (None, None) => {
                idle_pending = true;
                stuck_polls += 1;
                assert!(
                    stuck_polls < 100_000,
                    "interleaved measurement livelocked with tasks pending"
                );
                continue;
            }
        }
        stuck_polls = 0;
    }
}

/// Runs one job alone on the primary vantage — a single-lane [`drive`].
#[expect(
    clippy::expect_used,
    reason = "`drive` returns only once every queued job has completed, and the one job's completion sets `finished`"
)]
pub(crate) fn run_alone<const N: usize>(
    net: &mut TorNetwork,
    ting: &Ting,
    job: Job<(), N>,
) -> Finished<(), N> {
    let mut finished = None;
    drive(
        net,
        ting,
        vec![VecDeque::from([job])],
        |_, _, _| {},
        |f| finished = Some(f),
    );
    finished.expect("the driver returns only once every queued job has completed")
}

/// Measures each lane's pairs in order from that lane's vantage, every
/// measurement wrapped in a `scan.pair` span. The completion handler
/// owns the span ([`PairOutcome::span`]) and must close it.
pub(crate) fn measure_lanes(
    net: &mut TorNetwork,
    ting: &Ting,
    lanes: Vec<VecDeque<(NodeId, NodeId)>>,
    mut on_complete: impl FnMut(PairOutcome),
) {
    let jobs = lanes
        .into_iter()
        .enumerate()
        .map(|(v, pairs)| {
            let (w, z, _) = net.vantage_endpoints(v);
            pairs
                .into_iter()
                .map(|(x, y)| pair_job(ting, (w, z), (x, y), (x, y, obs::SpanId(0))))
                .collect()
        })
        .collect();
    drive(
        net,
        ting,
        jobs,
        |(x, y, span), v, now| *span = ting.observe_pair_begin(*x, *y, v, now),
        |finished| {
            let (x, y, span) = finished.subject;
            on_complete(PairOutcome {
                x,
                y,
                vantage: finished.vantage,
                completed_at: finished.completed_at,
                span,
                result: finished.into_measurement(),
            });
        },
    );
}

/// Measures `assignments` — `(vantage, x, y)` triples — with one
/// in-flight measurement per vantage, interleaved over the shared event
/// loop so up to [`TorNetwork::vantage_count`] pairs progress
/// concurrently in virtual time. Each vantage works through its own
/// shard of the assignment list in order; outcomes are returned in
/// completion order (deterministic for a fixed network and assignment
/// list), each pair's trace span closed with the raw measurement
/// outcome. An assignment to a vantage the network does not have
/// refuses the whole call before anything is measured.
pub fn measure_interleaved(
    net: &mut TorNetwork,
    ting: &Ting,
    assignments: &[(usize, NodeId, NodeId)],
) -> Result<Vec<PairOutcome>, UnknownVantage> {
    let provisioned = net.vantage_count();
    let mut lanes = vec![VecDeque::new(); provisioned];
    for &(vantage, x, y) in assignments {
        lanes
            .get_mut(vantage)
            .ok_or(UnknownVantage {
                vantage,
                provisioned,
            })?
            .push_back((x, y));
    }
    let mut outcomes = Vec::with_capacity(assignments.len());
    measure_lanes(net, ting, lanes, |outcome| {
        let label = match &outcome.result {
            Ok(_) => "ok",
            Err(e) => e.code(),
        };
        ting.observe_pair_end(outcome.span, label, outcome.completed_at);
        outcomes.push(outcome);
    });
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::crc32;
    use crate::TingConfig;
    use obs::{Obs, ObsConfig};
    use std::cell::Cell;
    use tor_sim::TorNetworkBuilder;

    thread_local! {
        /// `Task::poll` calls made on this thread.
        pub(super) static POLLS: Cell<u64> = const { Cell::new(0) };
    }

    /// CRC-32 and length of `four_lane_run`'s record as the driver made
    /// it at 34b20cc, when it polled every lane after every event.
    const EVERY_LANE_EVERY_EVENT: (u32, usize) = (0x5ef4_ecfa, 4_794);

    /// Eight pairs over four vantages: the outcomes in completion order
    /// and the final virtual clock, plus the events the run dispatched.
    fn four_lane_run() -> (String, u64) {
        let obs = Obs::new(ObsConfig::Metrics);
        let mut net = TorNetworkBuilder::live(0x601d, 20)
            .vantages(4)
            .observability(obs.clone())
            .build();
        let ting = Ting::new(TingConfig::fast());
        let relays = net.relays.clone();
        let assignments: Vec<_> = (0..8).map(|i| (i % 4, relays[i], relays[i + 8])).collect();
        let outcomes = measure_interleaved(&mut net, &ting, &assignments).expect("four vantages");
        let record = format!("{outcomes:?} {}", net.sim.now().as_nanos());
        (record, obs.counter_value("net.events"))
    }

    /// The polling rule skips only polls that would have found nothing:
    /// four lanes end where they ended when every lane was polled after
    /// every event, in under a third of those polls.
    #[test]
    fn four_lanes_are_polled_a_third_as_often_to_the_same_outcomes() {
        POLLS.with(|polls| polls.set(0));
        let (record, events) = four_lane_run();
        let polls = POLLS.with(Cell::get);
        assert_eq!(
            (crc32(record.as_bytes()), record.len()),
            EVERY_LANE_EVERY_EVENT,
            "{record}"
        );
        assert!(
            polls * 3 <= events * 4,
            "{polls} polls for {events} events × 4 lanes"
        );
    }
}
