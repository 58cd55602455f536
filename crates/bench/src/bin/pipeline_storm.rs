//! Pipeline soak: a fault storm against the live scan→serve pipeline.
//!
//! Drives a sharded supervised scan through the [`bench::storm`]
//! weather, with a mid-storm shard crash, and streams its merge deltas into journaled
//! [`oracle::Pipeline`]s in three phases:
//!
//! * **continuous serving** — every published generation must match
//!   what an offline `Supervisor::merge` at the same instant produces,
//!   the generation counter must track the oracle version in lockstep,
//!   and the final document must be bit-identical to the offline merge;
//! * **kill/resume** — the serving process is killed mid-storm with a
//!   torn journal tail (a mid-append kill at a seeded byte offset);
//!   recovery must report the torn tail, resume from the last sealed
//!   generation, and converge bit-identically to the uninterrupted run;
//! * **seal/swap window** — the kill lands just after the next
//!   generation was sealed as a whole `@gen` record at the journal's
//!   tail, before it was served; recovery must serve that generation
//!   and converge the same.
//!
//! Any violation exits non-zero.
//!
//! With `--trace-out PATH` the storm additionally runs a *no-fault*
//! control campaign — same topology and cadence, no injected faults —
//! with full tracing and the live SLO engine enabled, and writes its
//! JSONL export to PATH. CI feeds that trace to `ting-prof slo
//! --fail-on staleness`: under the no-fault baseline the staleness
//! SLO must never breach, so any breach there is a serving-loop
//! regression, not weather.
//!
//! Usage: `pipeline_storm [--seed N] [--virtual-hours H] [--trace-out PATH]`
//! (env fallbacks: `TING_SEED`, `TING_HOURS`).

use bench::storm::{self, ROUND_SECS, SHARDS};
use netsim::{NodeId, SimDuration};
use oracle::journal::frame_record;
use oracle::{Journal, Pipeline, PipelineConfig, SloConfig, TtlPolicy};
use std::io::Write as _;
use std::path::Path;
use ting::obs::{Obs, ObsConfig};
use ting::shard::MergeDelta;

const N_NODES: usize = 10;

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        queue_cap: 4,
        publish_interval: SimDuration(0),
        staleness: storm::scan_config().staleness,
        ttl: TtlPolicy::new(SimDuration::from_hours(1), SimDuration::from_hours(48))
            .expect("static TTL config"),
        slo: None,
    }
}

/// The traced control run's SLOs. Under the no-fault baseline the 99%
/// staleness objective must hold with zero burn, so any breach is a
/// serving-loop regression; the other objectives are sentinels (0 =
/// breach only when *nothing* succeeds) so the gate stays about
/// staleness. The soft TTL must exceed the scanner's own re-measure
/// period (`storm::scan_config().staleness`): a healthy scanner leaves a
/// fresh-enough pair alone for that long, and a tighter serving TTL
/// would read that by-design quiet as staleness and poison the gate.
fn traced_pipeline_config() -> PipelineConfig {
    PipelineConfig {
        ttl: TtlPolicy::new(
            storm::scan_config().staleness + SimDuration::from_hours(1),
            SimDuration::from_hours(48),
        )
        .expect("static TTL config"),
        slo: Some(SloConfig {
            bucket: SimDuration::from_secs(ROUND_SECS),
            buckets: 48,
            coverage_objective_ppm: 0,
            progress_objective_ppm: 0,
            latency_budget: SimDuration::from_secs(ROUND_SECS),
            latency_objective_ppm: 0,
            staleness_objective_ppm: 990_000,
        }),
        ..pipeline_config()
    }
}

/// The no-fault control campaign: same topology, cadence, and sharding
/// as the storm, but a clean network, full tracing, and the SLO engine
/// live. Writes the JSONL export to `path`.
fn traced_run(seed: u64, rounds: u64, path: &str) {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = storm::calm_net(seed, &obs);
    let nodes = storm::nodes(&net, N_NODES);
    let mut sup = storm::supervisor(nodes.clone(), 3, &obs);
    let mut p = Pipeline::with_obs(nodes, SHARDS, traced_pipeline_config(), obs.clone(), None);
    for round in 0..rounds {
        storm::advance_to_round(&mut net, round);
        sup.run_round(&mut net);
        p.offer(sup.take_delta(net.sim.now()));
        p.tick(net.sim.now())
            .expect("volatile pipeline cannot fail");
    }
    let text = storm::export_trace(&obs, seed, "pipeline-storm-trace-v1", path);
    println!(
        "# trace: {rounds} rounds (no faults) -> {path} ({} bytes, final state {})",
        text.len(),
        p.state().tag()
    );
}

/// One supervised storm, drained round by round. Returns the node set,
/// the full delta stream, and the offline merge document at the end —
/// the ground truth every pipeline run must converge to.
fn storm_stream(seed: u64, rounds: u64) -> (Vec<NodeId>, Vec<MergeDelta>, String) {
    let mut net = storm::hostile_net(seed, &Obs::off());
    let nodes = storm::nodes(&net, N_NODES);
    let mut sup = storm::supervisor(nodes.clone(), 3, &Obs::off());
    let victim = (seed % SHARDS as u64) as usize;
    let mut deltas = Vec::new();
    for round in 0..rounds {
        storm::weather(&mut net, round, seed);
        sup.run_round(&mut net);
        // A mid-storm shard crash puts "restarting" statuses and a
        // checkpoint re-emission into the delta stream.
        if round == rounds / 3 {
            sup.inject_crash(victim, net.sim.now());
        }
        deltas.push(sup.take_delta(net.sim.now()));
    }
    let merged = sup
        .merge(net.sim.now())
        .expect("storm merge must succeed")
        .to_document();
    (nodes, deltas, merged)
}

/// A storm-configured pipeline journaling into `dir`.
fn journaled(nodes: &[NodeId], dir: &Path) -> Pipeline {
    Pipeline::with_obs(
        nodes.to_vec(),
        SHARDS,
        pipeline_config(),
        Obs::off(),
        Some(Journal::open(dir).expect("open journal")),
    )
}

/// Feeds `deltas` into `p`, checking lockstep invariants each round.
/// Returns the per-round serving documents (index = rounds consumed).
fn drive(p: &mut Pipeline, deltas: &[MergeDelta], violations: &mut Vec<String>) -> Vec<String> {
    let mut docs = Vec::new();
    for d in deltas {
        let now = d.now;
        let seq = d.seq;
        p.offer(d.clone());
        match p.tick(now) {
            Ok(Some(generation)) => {
                if generation != p.generation() {
                    violations.push(format!(
                        "round {seq}: tick returned generation {generation}, pipeline at {}",
                        p.generation()
                    ));
                }
                let version = p.reader().snapshot().meta().version;
                if version != generation {
                    violations.push(format!(
                        "round {seq}: oracle version {version} != generation {generation}"
                    ));
                }
            }
            Ok(None) => violations.push(format!(
                "round {seq}: zero-interval tick with queued data published nothing"
            )),
            Err(e) => violations.push(format!("round {seq}: publish failed: {e}")),
        }
        if p.queue_depth() != 0 {
            violations.push(format!("round {seq}: queue not drained after publish"));
        }
        docs.push(p.serving_document());
    }
    docs
}

/// One kill of the serving process as it publishes the generation after
/// `kill_round` rounds. `torn` leaves a prefix of that generation's
/// frame, cut at a seeded offset, at the journal's tail, as a
/// mid-append kill would; otherwise the frame is appended whole and
/// sealed, and the kill lands before the swap that would serve it. The
/// recovered process serves the rest of the stream and must converge on
/// the uninterrupted run's final document. Returns the phase's summary.
fn kill_phase(
    seed: u64,
    torn: bool,
    (nodes, deltas, docs): (&[NodeId], &[MergeDelta], &[String]),
    kill_round: usize,
    violations: &mut Vec<String>,
) -> Result<String, String> {
    let label = if torn {
        "torn-tail"
    } else {
        "seal/swap-window"
    };
    let dir = storm::tempdir("pipe-storm-kill");
    let mut p = journaled(nodes, &dir);
    drive(&mut p, &deltas[..kill_round], violations);
    let next_gen = p.generation() + 1;
    drop(p);
    let journal =
        Journal::open(&dir).map_err(|e| format!("{label}: journal reopen failed: {e}"))?;
    let (resume_at, damage) = if torn {
        let frame = frame_record(next_gen, &docs[kill_round]);
        let cut = 1 + (seed as usize % (frame.len() - 1));
        std::fs::OpenOptions::new()
            .append(true)
            .open(journal.journal_path())
            .and_then(|mut f| f.write_all(&frame.as_bytes()[..cut]))
            .expect("write torn tail");
        let damage = format!("torn tail at byte {cut}/{} -> resumed to", frame.len());
        (deltas[kill_round - 1].now, damage)
    } else {
        journal
            .append(next_gen, &docs[kill_round])
            .expect("stage sealed record");
        let damage = format!("pending generation {next_gen} applied ->");
        (deltas[kill_round].now, damage)
    };
    let (mut p, found) = Pipeline::recover(
        nodes.to_vec(),
        SHARDS,
        pipeline_config(),
        Obs::off(),
        journal,
        resume_at,
    )
    .map_err(|e| format!("{label}: recovery failed: {e}"))?;
    if torn && !found.torn_tail {
        violations.push(format!("{damage}: recovery did not report the torn tail"));
    }
    // Generation g corresponds to the delta-stream prefix of length
    // g − 1: resume from the first unconsumed delta.
    let consumed = (p.generation() - 1) as usize;
    drive(&mut p, &deltas[consumed..], violations);
    let diverged = format!("{label} kill/resume diverged from uninterrupted run");
    let same = p.serving_document() == docs[docs.len() - 1];
    let same = storm::identity(same, &diverged, violations);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!("{damage} generation {} ({same})", p.generation()))
}

fn main() {
    let args = storm::Args::parse();
    let (seed, hours, rounds) = (args.seed, args.hours, args.rounds(4));
    let kill_round = (rounds / 2) as usize;
    println!(
        "# pipeline storm: seed={seed} virtual_hours={hours} rounds={rounds} \
         shards={SHARDS} (kill serving process after round {kill_round})"
    );

    let mut violations = Vec::new();
    let (nodes, deltas, offline_merge) = storm_stream(seed, rounds);

    // Phase 1: continuous serving, uninterrupted. The baseline run and
    // ground truth for both kill phases.
    let base_dir = storm::tempdir("pipe-storm-base");
    let mut baseline = journaled(&nodes, &base_dir);
    let docs = drive(&mut baseline, &deltas, &mut violations);
    println!(
        "# phase 1: generations={} final_state={} (vs offline merge {})",
        baseline.generation(),
        baseline.state().tag(),
        storm::identity(
            baseline.serving_document() == offline_merge,
            "pipeline final document diverged from offline merge",
            &mut violations
        )
    );
    let _ = std::fs::remove_dir_all(&base_dir);

    // Phase 2: kill mid-append; phase 3: kill between seal and swap.
    let stream = (&nodes[..], &deltas[..], &docs[..]);
    for (phase, torn) in [(2, true), (3, false)] {
        match kill_phase(seed, torn, stream, kill_round, &mut violations) {
            Ok(summary) => println!("# phase {phase}: {summary}"),
            Err(e) => violations.push(e),
        }
    }

    // The traced no-fault control run, when requested — written even
    // if the storm phases found violations, so CI always has the
    // artifact to post-mortem with.
    if let Some(path) = &args.trace_out {
        traced_run(seed, rounds, path);
    }

    storm::verdict(
        "pipeline storm",
        "continuous serving exact, kill/resume bit-identical",
        &violations,
    );
}
