//! The fault storm every soak runs: one hostile network, one weather
//! schedule, one set of invariants.
//!
//! `chaos_soak` drives a [`Scanner`] through it, `shard_storm` a
//! [`Supervisor`], `pipeline_storm` a supervisor feeding an
//! `oracle::Pipeline`; each keeps only what it drives, what it kills and
//! what it compares. The scanner storm itself lives here
//! ([`scanner_storm`]) because `tests/soak.rs` runs the same function.

use crate::{env_u64, parse_override};
use netsim::{FaultPlan, NodeId, SimDuration, SimTime};
use std::path::PathBuf;
use ting::obs::{config_hash, ExportMeta, Obs};
use ting::shard::{Supervisor, SupervisorConfig};
use ting::{RttMatrix, Scanner, ScannerConfig, TimeoutEstimators, Ting, TingConfig};
use tor_sim::{RelayFaultProfile, TorNetwork, TorNetworkBuilder};

/// Virtual seconds between the starts of consecutive scan rounds.
pub const ROUND_SECS: u64 = 300;
/// Shards of every supervised storm.
pub const SHARDS: usize = 4;
const RELAYS: usize = 12;

fn builder(seed: u64, obs: &Obs) -> TorNetworkBuilder {
    TorNetworkBuilder::live(seed, RELAYS)
        .vantages(2)
        .observability(obs.clone())
}

/// The storm's topology with no fault injected: the control network.
pub fn calm_net(seed: u64, obs: &Obs) -> TorNetwork {
    builder(seed, obs).build()
}

/// The hostile network: link loss, stream stalls, EXTEND refusals and
/// overload cell-dropping throughout.
pub fn hostile_net(seed: u64, obs: &Obs) -> TorNetwork {
    builder(seed, obs)
        .fault_plan(
            FaultPlan::new(seed ^ 0x7)
                .with_link_loss(0.003)
                .with_stalls(0.001, 300.0),
        )
        .relay_faults(RelayFaultProfile {
            extend_refuse_prob: 0.01,
            overload_drop_prob: 0.002,
            seed: seed ^ 0x9,
        })
        .build()
}

/// The first `n` relays of `net`: the set a storm scans.
pub fn nodes(net: &TorNetwork, n: usize) -> Vec<NodeId> {
    net.relays.iter().copied().take(n).collect()
}

/// The full self-healing stack: health + quarantine and estimate
/// validation on.
pub fn scan_config() -> ScannerConfig {
    ScannerConfig {
        staleness: SimDuration::from_hours(24),
        pairs_per_round: 8,
        retry_backoff: SimDuration::from_secs(60),
        retry_backoff_cap: SimDuration::from_hours(1),
        health: true,
        validation: true,
    }
}

fn ting_config() -> TingConfig {
    TingConfig {
        max_attempts: 2,
        max_lost_probes: 4,
        adaptive_timeouts: true,
        ..TingConfig::fast()
    }
}

/// A [`SHARDS`]-shard supervised scan of `nodes`, recording into `obs`.
pub fn supervisor(nodes: Vec<NodeId>, restart_budget: u32, obs: &Obs) -> Supervisor {
    let config = SupervisorConfig {
        shards: SHARDS,
        scanner: scan_config(),
        heartbeat_timeout: SimDuration::from_hours(2),
        restart_budget,
        // Zero backoff: a crashed shard rejoins on the next round, so a
        // kill/resume run walks the same virtual-time schedule as an
        // uninterrupted one.
        restart_backoff: SimDuration::from_nanos(0),
        restart_backoff_cap: SimDuration::from_nanos(0),
    };
    Supervisor::with_obs(nodes, config, ting_config(), obs.clone())
}

/// Advances the clock to the start of `round` (never backwards: a round
/// that overran its slot starts late).
pub fn advance_to_round(net: &mut TorNetwork, round: u64) {
    let target = SimTime::ZERO + SimDuration::from_secs(round * ROUND_SECS);
    if target > net.sim.now() {
        net.sim.advance_to(target);
    }
}

fn revive_all(net: &mut TorNetwork) {
    for &n in &net.relays.clone() {
        net.revive_relay(n);
    }
    net.refresh_consensus();
}

/// The weather before `round`: the clock moves to the round's slot,
/// relays churn every 6th round and every relay is revived every 9th.
pub fn weather(net: &mut TorNetwork, round: u64, seed: u64) {
    advance_to_round(net, round);
    if round % 6 == 2 {
        net.churn_step(1.2, 1.0, seed ^ round);
        net.refresh_consensus();
    }
    if round % 9 == 8 {
        revive_all(net);
    }
}

/// One violation per estimate in `matrix` that is not plausible:
/// finite, positive, and at or above the pair's speed-of-light floor.
pub fn implausible_estimates(net: &TorNetwork, matrix: &RttMatrix) -> Vec<String> {
    let mut violations = Vec::new();
    for (a, b, est) in matrix.pairs() {
        if !(est.is_finite() && est > 0.05) {
            violations.push(format!("implausible estimate ({},{}): {est}", a.0, b.0));
            continue;
        }
        let pa = net.sim.underlay().node(a.index()).location;
        let pb = net.sim.underlay().node(b.index()).location;
        let floor = geo::lightspeed::min_rtt_ms(geo::great_circle_km(pa, pb));
        if est < floor {
            violations.push(format!(
                "faster-than-light estimate ({},{}): {est} < {floor}",
                a.0, b.0
            ));
        }
    }
    violations
}

/// Kills the scanning process: scanner and driver are torn down and
/// rebuilt from the checkpoint, and the timeout estimators move into
/// the new driver, as a supervisor's restart hands them over.
fn kill_and_resume(scanner: &mut Scanner, ting: &mut Ting, obs: &Obs) -> Result<(), String> {
    *scanner = Scanner::from_checkpoint(&scanner.to_checkpoint())
        .map_err(|e| format!("own checkpoint refused: {e}"))?;
    let timeouts = std::mem::take(&mut ting.timeouts);
    *ting = Ting::with_obs(ting_config(), obs.clone());
    ting.timeouts = timeouts;
    Ok(())
}

/// Final state of a scanner storm. Everything here must be equal
/// between a killed-and-resumed run and an uninterrupted one.
#[derive(Debug, PartialEq)]
pub struct ScanOutcome {
    pub checkpoint: String,
    pub timeouts: TimeoutEstimators,
    pub measured_pairs: usize,
    /// Broken invariants: progress went backwards, an implausible
    /// estimate was cached, own state was refused on resume, or a
    /// quarantine was never released.
    pub violations: Vec<String>,
}

/// Drives the parallel scanner over 8 relays through `rounds` of
/// weather, recording into `obs`. With `kill_at` set the scanning
/// process is killed and resumed after that round. Ends by reviving
/// every relay and scanning until the quarantine roster drains.
pub fn scanner_storm(seed: u64, rounds: u64, kill_at: Option<u64>, obs: &Obs) -> ScanOutcome {
    let mut net = hostile_net(seed, obs);
    let mut scanner = Scanner::new(nodes(&net, 8), scan_config());
    let mut ting = Ting::with_obs(ting_config(), obs.clone());
    let mut violations = Vec::new();
    let mut prev_measured = 0;
    for round in 0..rounds {
        weather(&mut net, round, seed);
        scanner.run_round_parallel(&mut net, &ting);

        let measured = scanner.matrix().measured_pairs();
        if measured < prev_measured {
            violations.push(format!(
                "round {round}: completed pairs went backwards ({prev_measured} -> {measured})"
            ));
        }
        prev_measured = measured;

        if kill_at == Some(round) {
            if let Err(e) = kill_and_resume(&mut scanner, &mut ting, obs) {
                violations.push(format!("round {round}: {e}"));
                break;
            }
        }
    }
    violations.extend(implausible_estimates(&net, scanner.matrix()));

    // Quarantine is never a life sentence: with every relay back,
    // probation + decay must release the whole roster.
    revive_all(&mut net);
    let mut extra = 0u64;
    loop {
        let roster = scanner
            .health()
            .expect("storm config enables health")
            .quarantined_nodes();
        if roster.is_empty() {
            break;
        }
        extra += 1;
        if extra > 200 {
            violations.push(format!("quarantines never released: {roster:?}"));
            break;
        }
        let next = net.sim.now() + SimDuration::from_secs(1800);
        net.sim.advance_to(next);
        scanner.run_round_parallel(&mut net, &ting);
    }

    ScanOutcome {
        checkpoint: scanner.to_checkpoint(),
        timeouts: ting.timeouts,
        measured_pairs: scanner.matrix().measured_pairs(),
        violations,
    }
}

/// The word a phase summary prints for a bit-identity comparison; a
/// divergence is also recorded as the violation `diverged`.
pub fn identity(same: bool, diverged: &str, violations: &mut Vec<String>) -> &'static str {
    if same {
        return "bit-identical";
    }
    violations.push(diverged.into());
    "DIVERGED"
}

/// A fresh scratch directory for this process's on-disk state.
pub fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ting-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create storm scratch dir");
    dir
}

/// Writes `obs`'s JSONL export to `path` and returns it.
pub fn export_trace(obs: &Obs, seed: u64, config: &str, path: &str) -> String {
    let trace = obs.export_jsonl(&ExportMeta {
        seed,
        config_hash: config_hash(config),
    });
    if let Err(e) = std::fs::write(path, &trace) {
        eprintln!("error: cannot write trace to {path}: {e}");
        std::process::exit(1);
    }
    trace
}

/// What every storm binary reads from its command line:
/// `[--seed N] [--virtual-hours H] [--trace-out PATH]`, the first two
/// falling back to `TING_SEED` / `TING_HOURS`.
pub struct Args {
    pub seed: u64,
    pub hours: u64,
    pub trace_out: Option<String>,
}

impl Args {
    pub fn parse() -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let value = |name: &str| {
            let i = args.iter().position(|a| a == name)?;
            args.get(i + 1).cloned()
        };
        // A flag value that does not parse exits 2, as its variable's
        // does: a mistyped seed must not run the default one.
        let number = |name: &str, env_name: &str, default: u64| match value(name) {
            Some(v) => parse_override(&format!("{name} "), &v),
            None => env_u64(env_name, default),
        };
        Args {
            seed: number("--seed", "TING_SEED", 2015),
            hours: number("--virtual-hours", "TING_HOURS", 4),
            trace_out: value("--trace-out"),
        }
    }

    /// Scan rounds in the requested virtual hours, at least `min`.
    pub fn rounds(&self, min: u64) -> u64 {
        (self.hours.saturating_mul(3600) / ROUND_SECS).max(min)
    }
}

/// Prints the verdict; any violation exits non-zero.
pub fn verdict(name: &str, held: &str, violations: &[String]) {
    if !violations.is_empty() {
        fail(name, violations);
    }
    println!("{name} PASSED: {held}");
}

/// Prints the failing verdict and exits non-zero.
pub fn fail(name: &str, violations: &[String]) -> ! {
    println!("{name} FAILED:");
    for v in violations {
        println!("  - {v}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_saturate_where_the_hours_overflow() {
        let rounds = |hours| {
            let args = Args {
                seed: 0,
                hours,
                trace_out: None,
            };
            args.rounds(3)
        };
        assert_eq!((rounds(0), rounds(1), rounds(4)), (3, 12, 48));
        let last = u64::MAX / 3600;
        assert_eq!(rounds(last), last * 3600 / ROUND_SECS);
        // One hour more wrapped to a 0-hour soak in release and
        // panicked in debug; it is the longest soak there is.
        assert_eq!(rounds(last + 1), u64::MAX / ROUND_SECS);
        assert_eq!(rounds(u64::MAX), u64::MAX / ROUND_SECS);
    }
}
