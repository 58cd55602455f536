//! No silent error paths: every failure class the measurement pipeline
//! can hit during a chaos round must surface in the exported metrics.
//!
//! The test drives a storm (crashed relays, link loss, stalls, relay
//! overload, health + validation enabled) with observability at
//! `Trace`, then derives the set of resilience events that *actually
//! occurred* from the exported event log and checks each one against
//! the `obs` registry: the matching counter is nonzero, its count
//! agrees with the event log, and the JSONL export carries it.

use netsim::{FaultPlan, NodeId, SimDuration, SimTime};
use ting::obs::{config_hash, names, Event, ExportMeta, Obs, ObsConfig, Value};
use ting::{Scanner, ScannerConfig, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

const SEED: u64 = 0x0b5e;

/// The string field `key` of a trace event.
fn str_field<'a>(event: &'a Event, key: &str) -> &'a str {
    event
        .fields
        .iter()
        .find_map(|(k, v)| match v {
            Value::Str(s) if *k == key => Some(s.as_str()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{} event missing {key}", event.name))
}

#[test]
fn every_observed_failure_class_reaches_the_exported_metrics() {
    let obs = Obs::new(ObsConfig::Trace);
    let mut net = TorNetworkBuilder::live(SEED, 12)
        .fault_plan(
            FaultPlan::new(SEED ^ 0x7)
                .with_link_loss(0.004)
                .with_stalls(0.001, 300.0),
        )
        .relay_faults(tor_sim::RelayFaultProfile {
            extend_refuse_prob: 0.02,
            overload_drop_prob: 0.002,
            seed: SEED ^ 0x9,
        })
        .observability(obs.clone())
        .build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(8).collect();
    // Two permanently dead relays guarantee circuit failures, retries,
    // requeues, and quarantines occur.
    net.crash_relay(nodes[2], None);
    net.crash_relay(nodes[5], None);
    let mut scanner = Scanner::new(
        nodes,
        ScannerConfig {
            staleness: SimDuration::from_hours(24),
            pairs_per_round: 8,
            retry_backoff: SimDuration::from_secs(60),
            retry_backoff_cap: SimDuration::from_hours(1),
            health: true,
            validation: true,
        },
    );
    let ting = Ting::with_obs(
        TingConfig {
            max_attempts: 2,
            max_lost_probes: 4,
            adaptive_timeouts: true,
            ..TingConfig::fast()
        },
        obs.clone(),
    );
    for round in 0..40u64 {
        let target = SimTime::ZERO + SimDuration::from_secs(round * 300);
        if target > net.sim.now() {
            net.sim.advance_to(target);
        }
        scanner.run_round(&mut net, &ting);
    }

    // Derive the classes that actually occurred from the event log,
    // mapped to the obs counter each one must have incremented.
    let mut expected: Vec<(String, u64)> = Vec::new();
    let mut tally = |name: String| match expected.iter_mut().find(|(n, _)| *n == name) {
        Some((_, count)) => *count += 1,
        None => expected.push((name, 1)),
    };
    for event in obs.events() {
        match event.name {
            names::TING_ERROR => tally(format!("ting.error.{}", str_field(&event, "code"))),
            names::TING_RETRY => tally("ting.retry".into()),
            // Every pair the scanner does not accept — pipeline error,
            // implausible or rejected estimate — is re-queued.
            names::SCAN_PAIR_END if str_field(&event, "outcome") != "accepted" => {
                tally("ting.pair_requeued".into())
            }
            names::VALIDATE_IMPLAUSIBLE => tally("ting.estimate.implausible".into()),
            names::HEALTH_QUARANTINE => tally("ting.health.quarantined".into()),
            names::HEALTH_RELEASE => tally(format!(
                "ting.health.released.{}",
                str_field(&event, "reason")
            )),
            names::HEALTH_PROBE => tally("ting.health.probation_probe".into()),
            names::VALIDATE_REJECT => tally(format!(
                "ting.validate.reject.{}",
                str_field(&event, "code")
            )),
            names::VALIDATE_FLAG => {
                tally(format!("ting.validate.flag.{}", str_field(&event, "code")))
            }
            _ => {}
        }
    }

    // The storm must actually have exercised the interesting paths —
    // otherwise the coverage assertion below is vacuous.
    for must_occur in [
        "ting.error.circuit_build_failed",
        "ting.retry",
        "ting.pair_requeued",
        "ting.health.quarantined",
    ] {
        assert!(
            expected.iter().any(|(n, _)| n == must_occur),
            "storm too mild: {must_occur} never occurred"
        );
    }

    // Every class that occurred is in the registry with the exact same
    // count the event log shows, and in the JSONL export.
    let meta = ExportMeta {
        seed: SEED,
        config_hash: config_hash("obs-coverage-v1"),
    };
    let doc = obs.export_jsonl(&meta);
    for (name, count) in &expected {
        assert_eq!(
            obs.counter_value(name),
            *count,
            "counter {name} disagrees with the trace"
        );
        assert!(
            doc.contains(&format!("{{\"counter\":\"{name}\",\"value\":{count}}}")),
            "export missing counter {name}={count}"
        );
    }

    // Per-phase latency histograms filled up alongside.
    let hists = obs.document(&meta).hists;
    let build = hists
        .iter()
        .find(|h| h.name == "ting.phase.build_us")
        .expect("build histogram");
    assert!(build.count > 0);
    assert!(build.summary.unwrap().p50 > 0);
}
