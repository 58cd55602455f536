//! Integration tests pinning the paper's qualitative results — the
//! "shape" claims every figure regeneration depends on.

use ting::{Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

/// §3.2: mixing Tor and ping measurements is unreliable on networks
/// that discriminate by protocol; Ting is not (its probes never leave
/// Tor).
#[test]
fn ting_immune_to_protocol_discrimination() {
    let mut net = TorNetworkBuilder::testbed(91).neutral_fraction(1.0).build();
    let (x, y) = (net.relays[6], net.relays[22]);
    let ting = Ting::new(TingConfig::with_samples(60));
    let before = ting.measure_pair(&mut net, x, y).unwrap().estimate_ms();
    // Turn on aggressive ICMP deprioritization at x's network.
    let x_as = net.sim.underlay().node(x.index()).as_id;
    net.sim
        .underlay_mut()
        .set_policy(x_as, netsim::ProtocolPolicy::icmp_deprioritized(50.0));
    let after = ting.measure_pair(&mut net, x, y).unwrap().estimate_ms();
    assert!(
        (after - before).abs() < 5.0,
        "Ting moved {before} -> {after} under an ICMP-only policy change"
    );
}

/// §4.4: sample minima converge — more samples never hurt, and a few
/// dozen samples land within a few percent of the 1000-sample result.
#[test]
fn sample_count_convergence() {
    let mut net = TorNetworkBuilder::testbed(92).build();
    let (x, y) = (net.relays[8], net.relays[27]);
    let m_low = Ting::new(TingConfig::with_samples(40))
        .measure_pair(&mut net, x, y)
        .unwrap();
    let m_high = Ting::new(TingConfig::with_samples(400))
        .measure_pair(&mut net, x, y)
        .unwrap();
    // Minima only decrease with more samples on the same circuits;
    // across circuits the estimates must agree within a few percent.
    let rel = (m_low.estimate_ms() - m_high.estimate_ms()).abs() / m_high.estimate_ms();
    assert!(rel < 0.10, "40-sample vs 400-sample disagree by {rel}");
}

/// §5.2.1: the underlay produces genuine triangle-inequality
/// violations observable through Ting's measured matrix.
#[test]
fn tivs_exist_and_are_exploitable() {
    let mut net = TorNetworkBuilder::live(93, 60).build();
    let nodes: Vec<_> = net.relays.iter().copied().take(14).collect();
    let ting = Ting::new(TingConfig::fast());
    let matrix = ting::RttMatrix::measure(&mut net, nodes, &ting, |_, _| {}).unwrap();
    let report = analysis::TivReport::analyze(&matrix);
    assert!(
        report.violation_fraction() > 0.05,
        "only {:.0}% of pairs have TIVs",
        report.violation_fraction() * 100.0
    );
    // Each detour, if taken as a real circuit leg, genuinely beats the
    // direct path per the same measured data.
    for f in report.findings.iter().filter(|f| f.is_violation()).take(5) {
        let via =
            matrix.get(f.src, f.best_relay).unwrap() + matrix.get(f.best_relay, f.dst).unwrap();
        assert!(via < f.direct_ms);
    }
}

/// §5.1: RTT knowledge can only help deanonymization (never increases
/// the median probe count), and the informed strategy helps most.
#[test]
fn deanonymization_ordering() {
    let mut net = TorNetworkBuilder::live(94, 70).build();
    let nodes: Vec<_> = net.relays.iter().copied().take(20).collect();
    let ting = Ting::new(TingConfig::fast());
    let matrix = ting::RttMatrix::measure(&mut net, nodes, &ting, |_, _| {}).unwrap();
    let sim = analysis::DeanonSimulator::new(&matrix);
    use rand::SeedableRng;
    let rng = rand::rngs::SmallRng::seed_from_u64(9);
    let med = |s| {
        let o = sim.run_many(s, 300, &mut rng.clone());
        let f: Vec<f64> = o.iter().map(|x| x.fraction_probed()).collect();
        stats::median(&f).unwrap()
    };
    let unaware = med(analysis::Strategy::RttUnaware);
    let ignore = med(analysis::Strategy::IgnoreTooLarge);
    let informed = med(analysis::Strategy::Informed);
    assert!(ignore <= unaware + 0.02, "{ignore} vs {unaware}");
    assert!(informed <= ignore + 0.02, "{informed} vs {ignore}");
    assert!(informed < unaware, "no net gain: {informed} vs {unaware}");
}

/// §5.2.2: longer circuits can achieve the same RTT band as 3-hop
/// circuits, with more absolute options.
#[test]
fn longer_circuits_offer_more_options() {
    let mut net = TorNetworkBuilder::live(95, 60).build();
    let nodes: Vec<_> = net.relays.iter().copied().take(16).collect();
    let ting = Ting::new(TingConfig::fast());
    let matrix = ting::RttMatrix::measure(&mut net, nodes, &ting, |_, _| {}).unwrap();
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
    let analysis = analysis::CircuitLengthAnalysis::run(&matrix, [3, 4], 8000, 3.0, &mut rng);
    // Find the 3-hop median band and compare option counts.
    let s3 = &analysis.series[0];
    let total: f64 = s3.scaled_counts.iter().sum();
    let mut acc = 0.0;
    let mut band = 0.0;
    for (c, v) in s3.bin_centers_s.iter().zip(&s3.scaled_counts) {
        acc += v;
        if acc >= total / 2.0 {
            band = *c;
            break;
        }
    }
    let c3 = analysis.circuits_in_range(3, band - 0.05, band + 0.05);
    let c4 = analysis.circuits_in_range(4, band - 0.05, band + 0.05);
    assert!(
        c4 > c3,
        "4-hop options {c4} <= 3-hop {c3} in the median band"
    );
}
