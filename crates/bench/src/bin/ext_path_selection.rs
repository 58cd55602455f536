//! Extension experiment: the §6 path-selection design space.
//!
//! "\[Ting\] could also be used to improve the latency of Tor while
//! maintaining, and even improving, the level of anonymity it provides,
//! by greatly increasing the set of acceptable circuits for a given
//! RTT, though we leave specific algorithms to future work."
//!
//! This binary runs `analysis::pathsel`'s algorithm over the 50-node
//! matrix for a sweep of RTT budgets, reporting (a) the acceptable
//! circuit population when lengths 3–6 are allowed vs 3 only, and
//! (b) the node-usage entropy of the resulting selection — latency
//! *and* anonymity, quantified together.

use analysis::{PathSelector, PathSelectorConfig};
use bench::{env_usize, live_matrix, seed};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let n = env_usize("TING_RELAYS", 50);
    let samples = env_usize("TING_SAMPLES", 200);
    let (_net, matrix) = live_matrix(n, samples);
    let mut rng = SmallRng::seed_from_u64(seed() ^ 0x9a7);

    println!("# budget_ms\tcircuits_3hop\tcircuits_3to6\tgain\tentropy_3hop\tentropy_3to6");
    for budget_ms in [150.0, 200.0, 250.0, 300.0, 400.0, 600.0] {
        let narrow = PathSelector::new(
            &matrix,
            PathSelectorConfig {
                max_len: 3,
                budget_ms,
                pilot_samples: 4000,
            },
            &mut rng,
        );
        let wide = PathSelector::new(
            &matrix,
            PathSelectorConfig {
                max_len: 6,
                budget_ms,
                pilot_samples: 4000,
            },
            &mut rng,
        );
        let pn = narrow.profile(400, &mut rng);
        let pw = wide.profile(400, &mut rng);
        let gain = if pn.total_circuits() > 0.0 {
            pw.total_circuits() / pn.total_circuits()
        } else {
            f64::INFINITY
        };
        println!(
            "{budget_ms}\t{:.3e}\t{:.3e}\t{gain:.1}x\t{:.3}\t{:.3}",
            pn.total_circuits(),
            pw.total_circuits(),
            pn.normalized_entropy(),
            pw.normalized_entropy()
        );
    }
    println!("#");
    println!("# expectation (§6): allowing longer circuits multiplies the acceptable");
    println!("# set at every budget without collapsing node-usage entropy.");
}
