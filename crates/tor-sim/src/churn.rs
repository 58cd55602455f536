//! The relay-population process behind Fig. 18 and §5.3's coverage
//! analysis.
//!
//! Fig. 18 plots, for two months of consensuses, the number of running
//! relays and the number of unique /24 prefixes they cover (observed
//! range: 5426–6044 unique /24s, with the relay count ~30% above the
//! prior year — i.e. a slow upward trend with daily churn). This module
//! simulates that population: a pool of relay records with IPs drawn
//! from ISP-like /16 blocks, Poisson-ish daily arrivals, proportional
//! departures, and a growth drift.

use geo::generate_hostname;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One relay's record in the population model (descriptor-level only —
/// churn analysis never needs packet-level simulation).
#[derive(Debug, Clone)]
pub struct PopulationRelay {
    pub ip: [u8; 4],
    pub rdns: Option<String>,
    /// Day the relay joined.
    pub joined_day: u32,
}

impl PopulationRelay {
    pub fn slash24(&self) -> [u8; 3] {
        [self.ip[0], self.ip[1], self.ip[2]]
    }
}

/// Fraction of the population leaving per day.
const DAILY_DEPARTURE_RATE: f64 = 0.02;
/// Mean arrivals per day as a fraction of the population (set above
/// the departure rate to produce the paper's growth trend).
const DAILY_ARRIVAL_RATE: f64 = 0.0205;
/// How many distinct /16 "provider blocks" IPs are drawn from. Fewer
/// blocks ⇒ more /24 sharing. Tuned so ~6500 relays cover ~5400–6100
/// unique /24s as in Fig. 18.
const PROVIDER_BLOCKS: usize = 1800;

/// Parameters of the churn model.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Relays running on day 0.
    pub initial_relays: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            initial_relays: 6500,
        }
    }
}

/// A day-by-day snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DailySnapshot {
    pub day: u32,
    pub running_relays: usize,
    pub unique_slash24: usize,
}

/// The churn simulator.
#[derive(Debug)]
pub struct ChurnModel {
    rng: SmallRng,
    relays: Vec<PopulationRelay>,
    day: u32,
}

impl ChurnModel {
    pub fn new(config: ChurnConfig, seed: u64) -> ChurnModel {
        let mut m = ChurnModel {
            rng: SmallRng::seed_from_u64(seed),
            relays: Vec::new(),
            day: 0,
        };
        for _ in 0..config.initial_relays {
            let r = m.new_relay(0);
            m.relays.push(r);
        }
        m
    }

    fn new_relay(&mut self, day: u32) -> PopulationRelay {
        // Draw a /16 provider block, then host bits. Clustering inside
        // blocks produces realistic /24 sharing.
        let block = self.rng.gen_range(0..PROVIDER_BLOCKS);
        let ip = [
            (20 + block / 250) as u8,
            (block % 250) as u8,
            // Providers concentrate relays in a handful of /24s per
            // block; 16 per /16 reproduces Fig. 18's ~10–15% /24
            // sharing (5426–6044 unique /24s for ~6500 relays).
            self.rng.gen_range(0..16u8),
            self.rng.gen_range(1..=254u8),
        ];
        let rdns = generate_hostname(ip, &mut self.rng);
        PopulationRelay {
            ip,
            rdns,
            joined_day: day,
        }
    }

    /// Current population.
    pub fn relays(&self) -> &[PopulationRelay] {
        &self.relays
    }

    /// Advances one day: departures then arrivals.
    pub(crate) fn step_day(&mut self) -> DailySnapshot {
        self.day += 1;
        let n = self.relays.len();
        // Departures: each relay independently leaves.
        let rng = &mut self.rng;
        let mut kept = Vec::with_capacity(n);
        for r in self.relays.drain(..) {
            if !rng.gen_bool(DAILY_DEPARTURE_RATE) {
                kept.push(r);
            }
        }
        self.relays = kept;
        // Arrivals: Poisson-approximated by a binomial draw.
        let expected = DAILY_ARRIVAL_RATE * n as f64;
        let arrivals = {
            // Simple Poisson sampler (Knuth) — rates here are ~100/day.
            let l = (-expected).exp();
            let mut k = 0u32;
            let mut p = 1.0;
            loop {
                p *= self.rng.gen_range(0.0..1.0f64);
                if p <= l || k > 10_000 {
                    break;
                }
                k += 1;
            }
            k as usize
        };
        let day = self.day;
        for _ in 0..arrivals {
            let r = self.new_relay(day);
            self.relays.push(r);
        }
        self.snapshot()
    }

    /// The current day's counts.
    pub(crate) fn snapshot(&self) -> DailySnapshot {
        let unique: HashSet<[u8; 3]> = self.relays.iter().map(|r| r.slash24()).collect();
        DailySnapshot {
            day: self.day,
            running_relays: self.relays.len(),
            unique_slash24: unique.len(),
        }
    }

    /// Runs `days` days and returns one snapshot per day (Fig. 18's
    /// series).
    pub fn run(&mut self, days: u32) -> Vec<DailySnapshot> {
        (0..days).map(|_| self.step_day()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_stays_in_figure_18_range() {
        let mut m = ChurnModel::new(ChurnConfig::default(), 1);
        let series = m.run(60);
        for snap in &series {
            assert!(
                snap.running_relays > 5800 && snap.running_relays < 7800,
                "day {} relays {}",
                snap.day,
                snap.running_relays
            );
            assert!(
                snap.unique_slash24 > 4800 && snap.unique_slash24 < 6700,
                "day {} /24s {}",
                snap.day,
                snap.unique_slash24
            );
            // /24s never exceed relays.
            assert!(snap.unique_slash24 <= snap.running_relays);
        }
    }

    #[test]
    fn growth_trend_is_positive() {
        let mut m = ChurnModel::new(ChurnConfig::default(), 2);
        let series = m.run(365);
        let start = series[..10].iter().map(|s| s.running_relays).sum::<usize>() / 10;
        let end = series[355..]
            .iter()
            .map(|s| s.running_relays)
            .sum::<usize>()
            / 10;
        // ~0.05%/day compounds to a visible yearly increase.
        assert!(end > start, "no growth: {start} → {end}");
    }

    #[test]
    fn churn_replaces_relays() {
        let mut m = ChurnModel::new(
            ChurnConfig {
                initial_relays: 1000,
            },
            3,
        );
        m.run(30);
        let newcomers = m.relays().iter().filter(|r| r.joined_day > 0).count();
        assert!(newcomers > 200, "only {newcomers} newcomers after 30 days");
    }

    #[test]
    fn deterministic_per_seed() {
        let s1 = ChurnModel::new(ChurnConfig::default(), 7).run(10);
        let s2 = ChurnModel::new(ChurnConfig::default(), 7).run(10);
        assert_eq!(s1, s2);
    }

    #[test]
    fn some_relays_share_slash24s() {
        let m = ChurnModel::new(ChurnConfig::default(), 4);
        let snap = m.snapshot();
        assert!(snap.unique_slash24 < snap.running_relays);
    }
}
