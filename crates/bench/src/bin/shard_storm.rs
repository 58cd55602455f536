//! Shard soak: a fault storm against the sharded scan supervisor.
//!
//! Drives a 4-shard supervised scan through the [`bench::storm`]
//! weather in two phases:
//!
//! * **kill/resume** — mid-storm, a seeded-random shard is crashed; the
//!   supervisor restarts it from its checkpoint (through the on-disk
//!   file, exercising the fsync/rename/`.bak` plumbing) and the final
//!   merged matrix document must be bit-identical to an uninterrupted
//!   run of the same seed;
//! * **degraded mode** — a shard is killed past a zero restart budget;
//!   the survivors must keep scanning, every round must report exactly
//!   one quarantined shard, the merged document must carry the dead
//!   shard's uncovered pairs, and the whole scenario must be
//!   deterministic.
//!
//! Shared invariants (any violation exits non-zero): merged coverage is
//! monotone round over round, and every merged estimate is plausible
//! (positive, finite, at or above the pair's speed-of-light floor).
//!
//! Usage: `shard_storm [--seed N] [--virtual-hours H] [--trace-out PATH]`
//! (env fallbacks: `TING_SEED`, `TING_HOURS`). `--trace-out` writes
//! the kill/resume run's trace — a crash and a restore through its
//! checkpoint file — as JSONL, and says so on stderr.

use bench::storm::{self, SHARDS};
use netsim::SimTime;
use ting::obs::{Obs, ObsConfig};
use ting::shard::{MergeOutcome, ShardStatus};

struct StormOutcome {
    merged: MergeOutcome,
    end: SimTime,
    quarantined: usize,
    violations: Vec<String>,
}

/// One supervised storm, recording into `obs`. `kill` = (round, shard)
/// crashes that shard right after that round; `checkpoint_dir` routes
/// restarts through on-disk shard files instead of the kept scanners.
fn storm_run(
    seed: u64,
    rounds: u64,
    kill: Option<(u64, usize)>,
    restart_budget: u32,
    checkpoint_dir: Option<&std::path::Path>,
    obs: &Obs,
) -> StormOutcome {
    let mut net = storm::hostile_net(seed, obs);
    let mut sup = storm::supervisor(storm::nodes(&net, 10), restart_budget, obs);
    if let Some(dir) = checkpoint_dir {
        sup.set_checkpoint_dir(dir);
    }
    let mut violations = Vec::new();
    let mut prev_covered = 0usize;
    for round in 0..rounds {
        storm::weather(&mut net, round, seed);
        let report = sup.run_round(&mut net);
        let accounted = report.shards_run + report.shards_waiting + report.shards_quarantined;
        if accounted < SHARDS {
            violations.push(format!(
                "round {round}: {} of {SHARDS} shards unaccounted for",
                SHARDS - accounted
            ));
        }
        match sup.merge(net.sim.now()) {
            Ok(m) => {
                let covered: usize = m.shards.iter().map(|c| c.covered).sum();
                if covered < prev_covered {
                    violations.push(format!(
                        "round {round}: merged coverage went backwards ({prev_covered} -> {covered})"
                    ));
                }
                prev_covered = covered;
            }
            Err(e) => violations.push(format!("round {round}: merge refused: {e}")),
        }
        if let Some((_, shard)) = kill.filter(|&(at, _)| at == round) {
            sup.inject_crash(shard, net.sim.now());
        }
    }

    let merged = sup.merge(net.sim.now()).unwrap_or_else(|e| {
        violations.push(format!("final merge refused: {e}"));
        storm::fail("shard storm", &violations)
    });
    violations.extend(storm::implausible_estimates(&net, &merged.matrix));

    let quarantined = (0..sup.shard_count())
        .filter(|&k| sup.status(k) == ShardStatus::Quarantined)
        .count();
    StormOutcome {
        merged,
        end: net.sim.now(),
        quarantined,
        violations,
    }
}

fn main() {
    let args = storm::Args::parse();
    let (seed, hours, rounds) = (args.seed, args.hours, args.rounds(3));
    let victim = (seed % SHARDS as u64) as usize;
    let kill_round = rounds / 3;
    println!(
        "# shard storm: seed={seed} virtual_hours={hours} rounds={rounds} \
         shards={SHARDS} (kill shard {victim} at round {kill_round})"
    );

    let mut violations = Vec::new();

    // Phase 1: kill/resume bit-identity. The resumed run restarts its
    // victim through an on-disk checkpoint file. It is the traced run
    // when a trace is asked for: recording is behaviourally inert, so
    // the comparison against the unobserved baseline still stands.
    let obs = match args.trace_out {
        Some(_) => Obs::new(ObsConfig::Trace),
        None => Obs::off(),
    };
    let dir = storm::tempdir("shard-storm");
    let baseline = storm_run(seed, rounds, None, 3, None, &Obs::off());
    let kill = Some((kill_round, victim));
    let resumed = storm_run(seed, rounds, kill, 3, Some(&dir), &obs);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(path) = &args.trace_out {
        let trace = storm::export_trace(&obs, seed, &format!("shard-storm hours={hours}"), path);
        eprintln!("# trace: {} lines -> {path}", trace.lines().count());
    }
    violations.extend(baseline.violations.iter().cloned());
    violations.extend(resumed.violations.iter().cloned());
    if resumed.end != baseline.end {
        violations.push(format!(
            "kill/resume virtual clock diverged: {:?} vs {:?}",
            resumed.end, baseline.end
        ));
    }
    println!(
        "# phase 1: coverage={:.4} measured_pairs={} (kill/resume {})",
        baseline.merged.coverage(),
        baseline.merged.matrix.measured_pairs(),
        storm::identity(
            resumed.merged.to_document() == baseline.merged.to_document(),
            "kill/resume merged document diverged from uninterrupted run",
            &mut violations
        )
    );

    // Phase 2: degraded mode. Budget 0, killed early: the shard dies
    // for good and the survivors carry the scan.
    let degraded = storm_run(seed, rounds, Some((0, victim)), 0, None, &Obs::off());
    let degraded_again = storm_run(seed, rounds, Some((0, victim)), 0, None, &Obs::off());
    violations.extend(degraded.violations.iter().cloned());
    if degraded.merged.to_document() != degraded_again.merged.to_document() {
        violations.push("degraded-mode run is nondeterministic".into());
    }
    if degraded.quarantined != 1 {
        violations.push(format!(
            "expected exactly 1 quarantined shard, got {}",
            degraded.quarantined
        ));
    }
    let dead = &degraded.merged.shards[victim];
    if dead.status != "dead" {
        violations.push(format!("victim shard reported {:?}, not dead", dead.status));
    }
    if dead.uncovered == 0 {
        violations.push("victim shard reports no uncovered pairs: kill came too late".into());
    }
    if degraded.merged.coverage() >= 1.0 {
        violations.push("degraded coverage claims 100% with a dead shard".into());
    }
    let live_covered: usize = degraded
        .merged
        .shards
        .iter()
        .filter(|c| c.status == "live")
        .map(|c| c.covered)
        .sum();
    if live_covered == 0 {
        violations.push("surviving shards measured nothing in degraded mode".into());
    }
    println!(
        "# phase 2: coverage={:.4} dead_shard={victim} uncovered={} live_covered={live_covered}",
        degraded.merged.coverage(),
        dead.uncovered,
    );

    storm::verdict(
        "shard storm",
        "kill/resume bit-identical, degraded mode held",
        &violations,
    );
}
