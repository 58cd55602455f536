//! Figure 13: fraction of nodes ruled out *implicitly* (before any
//! probing) vs the victim circuit's end-to-end RTT.
//!
//! Paper expectations: a strong negative correlation — the lower the
//! end-to-end RTT, the more relays the RTT budget excludes; the very
//! highest-RTT circuits gain nothing.

use analysis::{DeanonSimulator, Strategy};
use bench::{env_usize, live_matrix, seed};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let n = env_usize("TING_RELAYS", 50);
    let samples = env_usize("TING_SAMPLES", 200);
    let runs = env_usize("TING_RUNS", 1000);
    let (_net, matrix) = live_matrix(n, samples);

    let sim = DeanonSimulator::new(&matrix);
    let mut rng = SmallRng::seed_from_u64(seed() ^ 0xf13);
    let outcomes = sim.run_many(Strategy::IgnoreTooLarge, runs, &mut rng);

    println!("# Fig. 13: re2e_ms\tfraction_ruled_out");
    for o in &outcomes {
        println!("{:.1}\t{:.4}", o.re2e_ms, o.fraction_ruled_out());
    }

    let re2e: Vec<f64> = outcomes.iter().map(|o| o.re2e_ms).collect();
    let ruled: Vec<f64> = outcomes.iter().map(|o| o.fraction_ruled_out()).collect();
    let rho = stats::spearman(&re2e, &ruled).unwrap();

    // Bin the relationship for readability.
    let max_rtt = re2e.iter().copied().fold(0.0f64, f64::max);
    let layout = stats::BinLayout::with_bin_width(0.0, max_rtt + 1.0, 100.0);
    let groups = stats::group_by_bins(&layout, re2e.iter().copied().zip(ruled.iter().copied()));
    println!("#");
    println!("# binned: re2e_bin_ms\tmean_fraction_ruled_out\truns");
    for (i, g) in groups.iter().enumerate() {
        if g.is_empty() {
            continue;
        }
        println!(
            "# {:.0}\t{:.3}\t{}",
            layout.bin_center(i),
            stats::mean(g).unwrap(),
            g.len()
        );
    }
    println!("#");
    println!("# spearman(re2e, ruled_out) = {rho:.3}  (paper: strongly negative)");
}
