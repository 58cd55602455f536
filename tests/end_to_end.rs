//! Full-stack integration tests: underlay → Tor overlay → Ting →
//! applications, all through the public API.

use ting::{RttMatrix, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

/// The headline claim, end to end: Ting measures a pair of simulated
/// Tor relays to within the paper's tolerance of ground truth, using
/// nothing but circuits and echoes.
#[test]
fn ting_measures_pairs_accurately() {
    let mut net = TorNetworkBuilder::testbed(1001).build();
    let ting = Ting::new(TingConfig::with_samples(100));
    let mut within10 = 0;
    let mut total = 0;
    for (i, j) in [(0usize, 16usize), (2, 25), (5, 30), (9, 20), (12, 28)] {
        let (x, y) = (net.relays[i], net.relays[j]);
        let truth = net.true_rtt_ms(x, y);
        let est = ting.measure_pair(&mut net, x, y).unwrap().estimate_ms();
        total += 1;
        if (est / truth - 1.0).abs() < 0.10 {
            within10 += 1;
        }
        // Hard bound: never grossly wrong.
        assert!(
            (est / truth - 1.0).abs() < 0.5,
            "pair ({i},{j}): est {est} truth {truth}"
        );
    }
    assert!(within10 >= 3, "only {within10}/{total} within 10%");
}

/// Determinism: identical seeds give identical measurements, bit for
/// bit — the property every experiment's reproducibility rests on.
#[test]
fn identical_seeds_identical_measurements() {
    let run = || {
        let mut net = TorNetworkBuilder::testbed(77).build();
        let (x, y) = (net.relays[4], net.relays[21]);
        let m = Ting::new(TingConfig::with_samples(25))
            .measure_pair(&mut net, x, y)
            .unwrap();
        (m.estimate_ms(), m.full.samples.clone())
    };
    let (e1, s1) = run();
    let (e2, s2) = run();
    assert_eq!(e1, e2);
    assert_eq!(s1, s2);
}

/// Different seeds give a *different* network (no accidental constant
/// world).
#[test]
fn different_seeds_differ() {
    let truth = |seed: u64| {
        let mut net = TorNetworkBuilder::testbed(seed).build();
        let (x, y) = (net.relays[0], net.relays[1]);
        net.true_rtt_ms(x, y)
    };
    assert_ne!(truth(1), truth(2));
}

/// A small all-pairs matrix built through the real pipeline feeds the
/// §5 applications.
#[test]
fn matrix_feeds_applications() {
    let mut net = TorNetworkBuilder::live(55, 40).build();
    let nodes: Vec<_> = net.relays.iter().copied().take(10).collect();
    let ting = Ting::new(TingConfig::fast());
    let matrix = RttMatrix::measure(&mut net, nodes, &ting, |_, _| {}).unwrap();
    assert!(matrix.is_complete());

    // TIV analysis runs and respects its own invariants.
    let tiv = analysis::TivReport::analyze(&matrix);
    for f in &tiv.findings {
        assert!(f.best_detour_ms > 0.0);
        if f.is_violation() {
            assert!(f.best_detour_ms < f.direct_ms);
        }
    }

    // Deanonymization always terminates and finds the circuit.
    let sim = analysis::DeanonSimulator::new(&matrix);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    use rand::SeedableRng;
    for strategy in [
        analysis::Strategy::RttUnaware,
        analysis::Strategy::IgnoreTooLarge,
        analysis::Strategy::Informed,
    ] {
        for o in sim.run_many(strategy, 20, &mut rng) {
            assert!(o.probes >= 2 && o.probes <= o.universe);
        }
    }
}

/// Ting's estimates and ping-based ground truth agree in rank order
/// (the Spearman headline) even on the live-like network.
#[test]
fn rank_order_agreement_live_network() {
    let mut net = TorNetworkBuilder::live(60, 50).build();
    let ting = Ting::new(TingConfig::with_samples(60));
    let mut est = Vec::new();
    let mut truth = Vec::new();
    for k in 0..8 {
        let (x, y) = (net.relays[k], net.relays[k + 20]);
        truth.push(net.true_rtt_ms(x, y));
        est.push(ting.measure_pair(&mut net, x, y).unwrap().estimate_ms());
    }
    let rho = stats::spearman(&est, &truth).unwrap();
    assert!(rho > 0.9, "rank correlation {rho}");
}

/// The §4.6 caching story: measure once, save, reload, and the §5
/// analyses see the same data.
#[test]
fn matrix_tsv_cache_roundtrip() {
    let mut net = TorNetworkBuilder::live(70, 30).build();
    let nodes: Vec<_> = net.relays.iter().copied().take(8).collect();
    let ting = Ting::new(TingConfig::fast());
    let matrix = RttMatrix::measure(&mut net, nodes, &ting, |_, _| {}).unwrap();
    let reloaded = RttMatrix::from_tsv(&matrix.to_tsv()).unwrap();
    assert_eq!(reloaded, matrix);
    assert_eq!(
        analysis::TivReport::analyze(&reloaded).violation_fraction(),
        analysis::TivReport::analyze(&matrix).violation_fraction()
    );
}

/// Forwarding-delay measurements stay sane across probe protocols on a
/// fully neutral network (§4.3's sanity case).
#[test]
fn forwarding_delay_probe_protocols_agree_when_neutral() {
    let mut net = TorNetworkBuilder::testbed(88).neutral_fraction(1.0).build();
    let ting = Ting::new(TingConfig::with_samples(40));
    let x = net.relays[10];
    let icmp =
        ting::measure_forwarding_delay(&ting, &mut net, x, ting::ProbeProtocol::Icmp, 40).unwrap();
    let tcp =
        ting::measure_forwarding_delay(&ting, &mut net, x, ting::ProbeProtocol::Tcp, 40).unwrap();
    assert!(
        (icmp.f_x_ms - tcp.f_x_ms).abs() < 3.0,
        "icmp {} tcp {}",
        icmp.f_x_ms,
        tcp.f_x_ms
    );
}

/// Churn + coverage pipeline from the umbrella crate.
#[test]
fn churn_coverage_pipeline() {
    let mut model = tor_sim::churn::ChurnModel::new(tor_sim::churn::ChurnConfig::default(), 5);
    let series = model.run(14);
    assert_eq!(series.len(), 14);
    let report = analysis::CoverageReport::analyze(model.relays());
    assert!(report.unique_slash24 > 0);
    assert!(report.residential > 0);
    assert!(report.named <= report.total_relays);
}
