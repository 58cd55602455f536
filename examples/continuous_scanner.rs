//! Continuous scanning: the §4.6 deployment workflow.
//!
//! Rather than measuring all pairs at once, a long-running deployment
//! keeps a cached matrix fresh under a per-round budget. This example
//! runs the scanner for three simulated days, then feeds the resulting
//! cache straight into the TIV analysis — the full Ting product loop.
//!
//! Run with: `cargo run --release --example continuous_scanner`

use netsim::{FaultPlan, SimDuration, SimTime};
use ting::obs::{Obs, ObsConfig};
use ting::{Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

fn main() {
    // A little link loss makes the resilience layer visibly earn its
    // keep: some probes time out and some pairs are retried, yet the
    // cache still converges.
    let mut net = TorNetworkBuilder::live(808, 60)
        .fault_plan(FaultPlan::new(9).with_link_loss(0.002))
        .build();
    let nodes: Vec<_> = net.relays.iter().copied().take(16).collect();
    let pairs = nodes.len() * (nodes.len() - 1) / 2;

    let mut scanner = Scanner::new(
        nodes,
        ScannerConfig {
            staleness: SimDuration::from_hours(24),
            pairs_per_round: 20,
            ..ScannerConfig::default()
        },
    );
    let ting = Ting::with_obs(TingConfig::fast(), Obs::new(ObsConfig::Metrics));

    println!("scanning {pairs} pairs at ≤20 pairs per 4-hour round:\n");
    println!(
        "{:>6} {:>10} {:>9} {:>8}",
        "hour", "measured", "coverage", "pending"
    );
    for round in 0..18u64 {
        let hour = round * 4;
        net.sim
            .advance_to(SimTime::ZERO + SimDuration::from_hours(hour));
        let report = scanner.run_round(&mut net, &ting);
        println!(
            "{:>6} {:>10} {:>8.0}% {:>8}",
            hour,
            report.measured,
            scanner.coverage() * 100.0,
            report.still_pending
        );
    }

    // The cache is now a complete, reasonably fresh matrix: run §5.2.1.
    let matrix = scanner.matrix();
    assert!(matrix.is_complete());
    let tiv = analysis::TivReport::analyze(matrix);
    println!(
        "\ncache complete: mean RTT {:.1} ms; {:.0}% of pairs have a TIV detour",
        matrix.mean_rtt_ms().unwrap(),
        tiv.violation_fraction() * 100.0
    );
    println!("(the paper's §4.6 point: infrequent measurement + caching suffices,");
    println!(" because estimates are stable over at least a week)");

    let count = |name| ting.obs().counter_value(name);
    println!(
        "\nresilience counters: circuits_failed={} probes_timed_out={} retries={} pairs_requeued={}",
        count("ting.error.circuit_build_failed"),
        count("ting.probe.timeout"),
        count("ting.retry"),
        count("ting.pair_requeued")
    );
}
