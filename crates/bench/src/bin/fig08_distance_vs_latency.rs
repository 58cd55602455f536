//! Figure 8: Ting-measured RTT vs great-circle distance for 10,000
//! random pairs of live relays, with geolocation-derived coordinates.
//!
//! Paper expectations: a strong linear trend; essentially no points
//! below the ⅔·c propagation bound (the handful that appear are
//! geolocation errors); a min-latency fit that sits *below* a
//! median-latency fit (the Htrae comparison — Htrae measured medians);
//! a surge of extra latency on long international paths.

use bench::{env_usize, seed};
use geo::{GeoDb, GeoErrorModel};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use stats::linear_fit;
use ting::{Ting, TingConfig};
use tor_sim::TorNetworkBuilder;

fn main() {
    let n_pairs = env_usize("TING_PAIRS", 10_000);
    let relays = env_usize("TING_RELAYS", 300);
    let samples = env_usize("TING_SAMPLES", 50);

    let mut net = TorNetworkBuilder::live(seed(), relays).build();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed() ^ 0xf18);

    // The "Neustar" lookup: error-prone geolocation of each relay.
    let mut geodb = GeoDb::new(GeoErrorModel::default());
    for &r in &net.relays {
        let true_loc = net.sim.underlay().node(r.index()).location;
        geodb.insert(r.index(), true_loc);
    }

    let ting = Ting::new(TingConfig::with_samples(samples));
    println!("# Fig. 8: distance_km\tting_rtt_ms\tmedian_rtt_ms");
    let mut dists = Vec::new();
    let mut mins = Vec::new();
    let mut medians = Vec::new();
    let mut below_light = 0usize;
    let mut pool = net.relays.clone();
    for i in 0..n_pairs {
        pool.shuffle(&mut rng);
        let (x, y) = (pool[0], pool[1]);
        let m = match ting.measure_pair(&mut net, x, y) {
            Ok(m) => m,
            Err(_) => continue,
        };
        let est = m.estimate_ms();
        // A median-filter variant of the same samples (the Htrae-style
        // statistic) for the second fit line.
        let med_full = stats::median(&m.full.samples).unwrap();
        let med_x = stats::median(&m.x_leg.samples).unwrap();
        let med_y = stats::median(&m.y_leg.samples).unwrap();
        let est_median = ting::ting_estimate_ms(med_full, med_x, med_y);

        let gx = geodb.estimate(x.index(), &mut rng).unwrap();
        let gy = geodb.estimate(y.index(), &mut rng).unwrap();
        let d_km = geo::great_circle_km(gx, gy);
        if !geo::physically_possible(est, d_km) {
            below_light += 1;
        }
        dists.push(d_km);
        mins.push(est);
        medians.push(est_median);
        if i % 20 == 0 {
            println!("{d_km:.1}\t{est:.2}\t{est_median:.2}");
        }
    }

    let fit_min = linear_fit(&dists, &mins).unwrap();
    let fit_med = linear_fit(&dists, &medians).unwrap();
    println!("#");
    println!("# pairs measured: {}", dists.len());
    println!(
        "# min-latency fit   : rtt = {:.5}*km + {:.2}  (r2 {:.3})",
        fit_min.slope, fit_min.intercept, fit_min.r_squared
    );
    println!(
        "# median-latency fit: rtt = {:.5}*km + {:.2}  (Htrae-like, above the min fit)",
        fit_med.slope, fit_med.intercept
    );
    println!(
        "# 2/3 c bound       : rtt = {:.5}*km   (physical floor)",
        2.0 / geo::FIBER_KM_PER_MS
    );
    println!(
        "# points below 2/3c : {} of {} ({:.2}%) — geolocation errors (paper: 'a handful')",
        below_light,
        dists.len(),
        below_light as f64 / dists.len() as f64 * 100.0
    );
    let gap_ok = fit_med.predict(5000.0) > fit_min.predict(5000.0);
    println!("# median fit above min fit at 5000 km: {gap_ok} (paper: Htrae above Ting)");
}
