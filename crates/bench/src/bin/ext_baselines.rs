//! Extension experiment: Ting vs its predecessors.
//!
//! The paper motivates Ting against two alternatives it cannot beat on
//! coverage but crushes on accuracy/viability:
//!
//! * **King** (§2, §4.2, §5.3) — proxy measurements via recursive DNS:
//!   skewed left of x = 1 (name servers are better connected than the
//!   hosts), and ~97% of name servers no longer cooperate;
//! * **geographic distance** (§5.2) — LASTor's proxy: correlated with
//!   RTT but structurally blind to triangle-inequality violations.
//!
//! This binary measures all three against ground truth on the same
//! relay population and prints their error CDFs and rank correlations.

use analysis::GeoPredictor;
use bench::{env_usize, print_cdf, seed};
use geo::{GeoDb, GeoErrorModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ting::{king_measure, KingOutcome, RttMatrix, Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

fn main() {
    let n_pairs = env_usize("TING_PAIRS", 200);
    let samples = env_usize("TING_SAMPLES", 100);
    let mut net = TorNetworkBuilder::live(seed(), 120).build();
    let mut rng = SmallRng::seed_from_u64(seed() ^ 0xba5e);

    let relays = net.relays.clone();
    let ting = Ting::new(TingConfig::with_samples(samples));

    // Geolocate everything once (error-prone, as in Fig. 8).
    let mut geodb = GeoDb::new(GeoErrorModel::default());
    for &r in &relays {
        geodb.insert(r.index(), net.sim.underlay().node(r.index()).location);
    }

    let mut ting_ratios = Vec::new();
    let mut king_ratios = Vec::new();
    let mut truths = Vec::new();
    let mut ting_ests = Vec::new();
    let mut pairs = Vec::new();
    for k in 0..n_pairs {
        let x = relays[(k * 7) % relays.len()];
        let y = relays[(k * 13 + 31) % relays.len()];
        if x == y {
            continue;
        }
        pairs.push((x, y));
        let truth = net.true_rtt_ms(x, y);
        let t = ting.measure_pair(&mut net, x, y).expect("ting");
        let now = net.sim.now();
        // Every name server answers: an accuracy comparison (viability
        // is reported below).
        let KingOutcome::Estimate(kg) =
            king_measure(net.sim.underlay_mut(), x, y, 1.0, now, &mut rng)
        else {
            unreachable!("availability = 1");
        };
        truths.push(truth);
        ting_ests.push(t.estimate_ms());
        ting_ratios.push(t.estimate_ms() / truth);
        king_ratios.push(kg / truth);
    }

    print_cdf("Ting estimate / truth", &ting_ratios, 60);
    print_cdf("King estimate / truth", &king_ratios, 60);

    // Geographic predictor trained on the Ting measurements themselves.
    let mut matrix = RttMatrix::new({
        let mut ns: Vec<_> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        ns.sort();
        ns.dedup();
        ns
    });
    for (&(a, b), &est) in pairs.iter().zip(&ting_ests) {
        matrix.set(a, b, est);
    }
    let geo_rho = GeoPredictor::fit(&matrix, &geodb, &mut rng)
        .and_then(|p| {
            let mut pred = Vec::new();
            let mut real = Vec::new();
            for (&(a, b), &t) in pairs.iter().zip(&truths) {
                pred.push(p.predict(a, b)?);
                real.push(t);
            }
            stats::spearman(&pred, &real)
        })
        .unwrap_or(f64::NAN);

    let ting_rho = stats::spearman(&ting_ests, &truths).unwrap();
    let king_ests: Vec<f64> = king_ratios
        .iter()
        .zip(&truths)
        .map(|(r, t)| r * t)
        .collect();
    let king_rho = stats::spearman(&king_ests, &truths).unwrap();

    let med = |v: &[f64]| stats::median(v).unwrap();
    println!("#");
    println!("# estimator        median ratio   spearman vs truth   deployable?");
    println!(
        "# ting             {:.3}          {:.4}             yes (any Tor relay)",
        med(&ting_ratios),
        ting_rho
    );
    println!(
        "# king             {:.3}          {:.4}             ~3% of name servers left (§5.3)",
        med(&king_ratios),
        king_rho
    );
    println!(
        "# geo distance     n/a            {:.4}             yes, but TIV-blind (§5.2.1)",
        geo_rho
    );
    println!("#");
    println!("# paper: King 'exhibits a distribution skewed to the left of x = 1' — ");
    println!("# its median ratio above should be below Ting's and below 1.0.");
}
