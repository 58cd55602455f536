//! A geolocation database with an explicit error model.
//!
//! Fig. 8 uses "the Neustar IP Geolocation service to obtain an estimate
//! of the GPS coordinates for each of the relays"; the paper observes "a
//! handful of points below [the ⅔·c] line" and attributes them to "errors
//! in the underlying geolocation database". To reproduce that figure
//! honestly we model geolocation as truth plus error: small Gaussian-ish
//! displacement most of the time, and occasionally a gross error that
//! relocates the host to a completely wrong city.

use crate::coord::GeoPoint;
use crate::world::CITIES;
use rand::Rng;

/// Error parameters for [`GeoDb::estimate`].
#[derive(Debug, Clone, Copy)]
pub struct GeoErrorModel {
    /// Standard deviation of the usual displacement error, km.
    pub(crate) sigma_km: f64,
    /// Probability that an estimate is grossly wrong (random other city).
    pub(crate) gross_error_prob: f64,
}

impl Default for GeoErrorModel {
    fn default() -> Self {
        // Commercial IP geolocation is usually city-accurate (tens of
        // km) with a small tail of total misses.
        GeoErrorModel {
            sigma_km: 30.0,
            gross_error_prob: 0.015,
        }
    }
}

/// Maps opaque host IDs to true locations and serves error-prone
/// estimates, like a commercial geolocation service would.
#[derive(Debug, Clone, Default)]
pub struct GeoDb {
    truth: Vec<Option<GeoPoint>>,
    error_model: GeoErrorModel,
}

impl GeoDb {
    /// Creates an empty database with the given error model.
    pub fn new(error_model: GeoErrorModel) -> GeoDb {
        GeoDb {
            truth: Vec::new(),
            error_model,
        }
    }

    /// Records the true location of `host` (a dense small-integer ID).
    pub fn insert(&mut self, host: usize, location: GeoPoint) {
        if host >= self.truth.len() {
            self.truth.resize(host + 1, None);
        }
        self.truth[host] = Some(location);
    }

    /// The true location, if known. Ground-truth consumers (the underlay
    /// latency model) use this; experiment code should use
    /// [`GeoDb::estimate`] to mimic what a measurement study can see.
    pub(crate) fn truth(&self, host: usize) -> Option<GeoPoint> {
        self.truth.get(host).copied().flatten()
    }

    /// An error-prone location estimate, as the paper's Neustar lookups
    /// were. Deterministic per (host, rng state): callers seed the RNG.
    pub fn estimate<R: Rng + ?Sized>(&self, host: usize, rng: &mut R) -> Option<GeoPoint> {
        let true_loc = self.truth(host)?;
        if rng.gen_bool(self.error_model.gross_error_prob) {
            // Gross error: the database thinks this host is somewhere
            // else entirely (e.g. the ISP's registered HQ).
            let city = CITIES[rng.gen_range(0..CITIES.len())];
            return Some(city.location);
        }
        if self.error_model.sigma_km == 0.0 {
            return Some(true_loc);
        }
        // Box–Muller for two independent N(0, sigma) displacements.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let mag = (-2.0 * u1.ln()).sqrt();
        let north = self.error_model.sigma_km * mag * (2.0 * std::f64::consts::PI * u2).cos();
        let east = self.error_model.sigma_km * mag * (2.0 * std::f64::consts::PI * u2).sin();
        Some(true_loc.offset_km(north, east))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::great_circle_km;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A perfect oracle.
    const PERFECT: GeoErrorModel = GeoErrorModel {
        sigma_km: 0.0,
        gross_error_prob: 0.0,
    };

    #[test]
    fn insert_and_truth_roundtrip() {
        let mut db = GeoDb::new(PERFECT);
        let p = GeoPoint::new(50.0, 10.0);
        db.insert(3, p);
        assert_eq!(db.truth(3), Some(p));
        assert_eq!(db.truth(0), None);
        assert_eq!(db.truth(99), None);
    }

    #[test]
    fn perfect_model_returns_truth() {
        let mut db = GeoDb::new(PERFECT);
        let p = GeoPoint::new(40.0, -74.0);
        db.insert(0, p);
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(db.estimate(0, &mut rng), Some(p));
    }

    #[test]
    fn typical_error_is_small() {
        let mut db = GeoDb::new(GeoErrorModel {
            sigma_km: 30.0,
            gross_error_prob: 0.0,
        });
        let p = GeoPoint::new(40.0, -74.0);
        db.insert(0, p);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut total = 0.0;
        let n = 1000;
        for _ in 0..n {
            let est = db.estimate(0, &mut rng).unwrap();
            total += great_circle_km(p, est);
        }
        let mean_err = total / n as f64;
        // Mean of |N2(0, σ)| is σ·sqrt(π/2) ≈ 37.6 km.
        assert!(mean_err > 25.0 && mean_err < 50.0, "mean error {mean_err}");
    }

    #[test]
    fn gross_errors_occur_at_configured_rate() {
        let mut db = GeoDb::new(GeoErrorModel {
            sigma_km: 0.0,
            gross_error_prob: 0.2,
        });
        let p = GeoPoint::new(40.7128, -74.0060);
        db.insert(0, p);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 5000;
        let gross = (0..n)
            .filter(|_| {
                let est = db.estimate(0, &mut rng).unwrap();
                great_circle_km(p, est) > 100.0
            })
            .count();
        let frac = gross as f64 / n as f64;
        assert!(frac > 0.12 && frac < 0.28, "gross fraction {frac}");
    }

    #[test]
    fn unknown_host_estimate_is_none() {
        let db = GeoDb::new(GeoErrorModel::default());
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(db.estimate(5, &mut rng), None);
    }
}
