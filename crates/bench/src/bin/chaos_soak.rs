//! Chaos soak: hours of virtual-time fault storm against the
//! self-healing scanner, with invariants checked every round.
//!
//! Runs [`bench::storm::scanner_storm`] — the parallel scanner with the
//! full self-healing stack (relay health + quarantine, adaptive
//! per-phase timeouts, estimate validation, CRC-sealed checkpoints) on
//! the hostile network — twice: once uninterrupted, and once with the
//! scanner process "killed" mid-run (serialized to a checkpoint, torn
//! down, resumed). The two final states are compared bit for bit.
//!
//! Invariants (any violation exits non-zero):
//! * no panics and no wedged rounds;
//! * completed-pair count is monotone;
//! * every cached estimate is plausible (positive, finite, at or above
//!   the pair's speed-of-light floor);
//! * every quarantine is eventually released once relays come back;
//! * kill/resume is bit-identical to the uninterrupted run.
//!
//! Usage: `chaos_soak [--seed N] [--virtual-hours H] [--trace-out PATH]`
//! (env fallbacks: `TING_SEED`, `TING_HOURS`). With `--trace-out` the
//! uninterrupted run records a full span trace and exports it as
//! `ting-obs-v1` JSONL for `ting-prof lint` / `ting-prof flame`.

use bench::storm::{self, scanner_storm};
use ting::obs::{Obs, ObsConfig};

fn main() {
    let args = storm::Args::parse();
    let (seed, hours, rounds) = (args.seed, args.hours, args.rounds(1));
    println!(
        "# chaos soak: seed={seed} virtual_hours={hours} rounds={rounds} (kill at round {})",
        rounds / 3
    );

    // Tracing rides on the uninterrupted run only; the obs layer is
    // behaviorally inert, so the bit-identity comparison against the
    // unobserved resumed run still stands (and doubles as a check of
    // that inertness under storm conditions).
    let obs = Obs::new(match args.trace_out {
        Some(_) => ObsConfig::Trace,
        None => ObsConfig::Metrics,
    });
    let uninterrupted = scanner_storm(seed, rounds, None, &obs);
    let resumed = scanner_storm(seed, rounds, Some(rounds / 3), &Obs::off());

    if let Some(path) = &args.trace_out {
        let trace = storm::export_trace(&obs, seed, &format!("chaos-soak hours={hours}"), path);
        println!("# trace: {} lines -> {path}", trace.lines().count());
    }

    let mut violations = uninterrupted.violations.clone();
    violations.extend(resumed.violations.iter().cloned());
    if uninterrupted.checkpoint != resumed.checkpoint {
        violations.push("kill/resume scanner state diverged from uninterrupted run".into());
    }
    if uninterrupted.timeouts != resumed.timeouts {
        violations.push("kill/resume timeout estimators diverged from uninterrupted run".into());
    }

    let sum_prefixed = |prefix: &str| -> u64 {
        let counters = obs.counters();
        counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    println!(
        "measured_pairs={} quarantines={} releases={} estimates_rejected={} estimates_flagged={}",
        uninterrupted.measured_pairs,
        obs.counter_value("ting.health.quarantined"),
        sum_prefixed("ting.health.released."),
        sum_prefixed("ting.validate.reject."),
        sum_prefixed("ting.validate.flag."),
    );
    storm::verdict(
        "chaos soak",
        "kill/resume bit-identical, all invariants held",
        &violations,
    );
}
