//! Fault storm bench: success ratio and estimator error vs fault rate.
//!
//! Sweeps the full fault stack — link loss, jitter spikes, stream
//! stalls, EXTEND refusals, overload cell-dropping — over a set of
//! rates on a live network and reports, per rate, the pair success
//! ratio, the median/p90 relative estimator error against the
//! fault-free underlay ground truth, and the resilience counters.
//!
//! Overrides: `TING_SEED`, `TING_SAMPLES`, `TING_PAIRS` (pairs per
//! rate), `TING_RELAYS` (relay population, ≥20 measured).

use bench::{env_usize, seed};
use netsim::{FaultPlan, NodeId};
use ting::obs::{Obs, ObsConfig};
use ting::{Ting, TingConfig};
use tor_sim::{RelayFaultProfile, TorNetworkBuilder};

fn main() {
    let samples = env_usize("TING_SAMPLES", 10);
    let pairs_limit = env_usize("TING_PAIRS", 60);
    let relays = env_usize("TING_RELAYS", 30).max(20);
    let rates = [0.0, 0.002, 0.005, 0.01, 0.02];

    println!("# fault storm: {relays} relays, {pairs_limit} pairs/rate, {samples} samples");
    println!(
        "# rate\tsuccess\tmed_rel_err\tp90_rel_err\tcircuits_failed\tprobes_timed_out\tretries"
    );
    for (i, &rate) in rates.iter().enumerate() {
        let storm_seed = seed() ^ (0xFA00 + i as u64);
        let mut net = TorNetworkBuilder::live(storm_seed, relays)
            .fault_plan(
                FaultPlan::new(storm_seed ^ 0x1)
                    .with_link_loss(rate)
                    .with_jitter_spikes(rate, 40.0)
                    .with_stalls(rate * 0.5, 400.0),
            )
            .relay_faults(RelayFaultProfile {
                extend_refuse_prob: rate * 0.5,
                overload_drop_prob: rate,
                seed: storm_seed ^ 0x2,
            })
            .build();
        let nodes: Vec<NodeId> = net.relays.iter().copied().take(20).collect();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for a in 0..nodes.len() {
            for b in (a + 1)..nodes.len() {
                pairs.push((nodes[a], nodes[b]));
            }
        }
        pairs.truncate(pairs_limit);

        let config = TingConfig {
            max_lost_probes: 4,
            max_attempts: 5,
            ..TingConfig::with_samples(samples)
        };
        let ting = Ting::with_obs(config, Obs::new(ObsConfig::Metrics));
        let mut succeeded = 0usize;
        let mut rel_errs: Vec<f64> = Vec::new();
        for &(x, y) in &pairs {
            let truth = net.true_rtt_ms(x, y);
            if let Ok(m) = ting.measure_pair(&mut net, x, y) {
                succeeded += 1;
                rel_errs.push((m.estimate_ms() - truth).abs() / truth);
            }
        }
        rel_errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let quantile = |q: f64| -> f64 {
            if rel_errs.is_empty() {
                return f64::NAN;
            }
            let idx = ((rel_errs.len() - 1) as f64 * q).round() as usize;
            rel_errs[idx]
        };
        let count = |name| ting.obs().counter_value(name);
        println!(
            "{rate}\t{:.4}\t{:.4}\t{:.4}\t{}\t{}\t{}",
            succeeded as f64 / pairs.len() as f64,
            quantile(0.5),
            quantile(0.9),
            count("ting.error.circuit_build_failed"),
            count("ting.probe.timeout"),
            count("ting.retry"),
        );
    }
    println!("# every rate terminated: per-phase timeouts + bounded retry, no deadlocks");
}
