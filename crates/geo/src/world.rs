//! A synthetic world map of cities.
//!
//! §4.1 of the paper chooses PlanetLab nodes so that "their geographic
//! distribution resembled that of the current Tor network, which contains
//! a concentration of relays in the U.S. and Europe, and only a few nodes
//! sparsely distributed throughout other countries", covering 6 European
//! countries, 9 U.S. states, and at least one relay in Asia, South
//! America, Australia, and the Middle East. [`World`] encodes a city list
//! with real coordinates and region weights matching that skew, and
//! samples relay locations from it.

use crate::coord::GeoPoint;
use rand::seq::SliceRandom;
use rand::Rng;

/// Coarse world regions used for weighting relay placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Region {
    NorthAmerica,
    Europe,
    Asia,
    SouthAmerica,
    Oceania,
    MiddleEast,
    Africa,
}

impl Region {
    /// Sampling weight approximating the Tor relay population's skew
    /// toward Europe and North America (Tor Metrics, 2015).
    pub(crate) fn tor_weight(self) -> f64 {
        match self {
            Region::Europe => 0.52,
            Region::NorthAmerica => 0.33,
            Region::Asia => 0.06,
            Region::SouthAmerica => 0.03,
            Region::Oceania => 0.03,
            Region::MiddleEast => 0.02,
            Region::Africa => 0.01,
        }
    }
}

/// A city a relay can be placed in.
#[derive(Debug, Clone, Copy)]
pub struct City {
    pub name: &'static str,
    pub country: &'static str,
    pub(crate) region: Region,
    pub location: GeoPoint,
}

const fn city(
    name: &'static str,
    country: &'static str,
    region: Region,
    lat: f64,
    lon: f64,
) -> City {
    City {
        name,
        country,
        region,
        location: GeoPoint { lat, lon },
    }
}

/// All cities in the synthetic world. Coordinates are the real ones.
pub(crate) const CITIES: &[City] = &[
    // North America — the paper's testbed covers 9 U.S. states.
    city("New York", "US", Region::NorthAmerica, 40.7128, -74.0060),
    city(
        "Washington DC",
        "US",
        Region::NorthAmerica,
        38.9072,
        -77.0369,
    ),
    city("Boston", "US", Region::NorthAmerica, 42.3601, -71.0589),
    city("Atlanta", "US", Region::NorthAmerica, 33.7490, -84.3880),
    city("Miami", "US", Region::NorthAmerica, 25.7617, -80.1918),
    city("Chicago", "US", Region::NorthAmerica, 41.8781, -87.6298),
    city("Dallas", "US", Region::NorthAmerica, 32.7767, -96.7970),
    city("Houston", "US", Region::NorthAmerica, 29.7604, -95.3698),
    city("Denver", "US", Region::NorthAmerica, 39.7392, -104.9903),
    city("Seattle", "US", Region::NorthAmerica, 47.6062, -122.3321),
    city(
        "San Francisco",
        "US",
        Region::NorthAmerica,
        37.7749,
        -122.4194,
    ),
    city(
        "Los Angeles",
        "US",
        Region::NorthAmerica,
        34.0522,
        -118.2437,
    ),
    city("Toronto", "CA", Region::NorthAmerica, 43.6532, -79.3832),
    city("Montreal", "CA", Region::NorthAmerica, 45.5017, -73.5673),
    city("Vancouver", "CA", Region::NorthAmerica, 49.2827, -123.1207),
    // Europe — ≥ 6 countries as in §4.1, plus the big relay havens.
    city("London", "GB", Region::Europe, 51.5074, -0.1278),
    city("Paris", "FR", Region::Europe, 48.8566, 2.3522),
    city("Berlin", "DE", Region::Europe, 52.5200, 13.4050),
    city("Frankfurt", "DE", Region::Europe, 50.1109, 8.6821),
    city("Amsterdam", "NL", Region::Europe, 52.3676, 4.9041),
    city("Stockholm", "SE", Region::Europe, 59.3293, 18.0686),
    city("Zurich", "CH", Region::Europe, 47.3769, 8.5417),
    city("Vienna", "AT", Region::Europe, 48.2082, 16.3738),
    city("Madrid", "ES", Region::Europe, 40.4168, -3.7038),
    city("Rome", "IT", Region::Europe, 41.9028, 12.4964),
    city("Warsaw", "PL", Region::Europe, 52.2297, 21.0122),
    city("Prague", "CZ", Region::Europe, 50.0755, 14.4378),
    city("Helsinki", "FI", Region::Europe, 60.1699, 24.9384),
    city("Oslo", "NO", Region::Europe, 59.9139, 10.7522),
    city("Dublin", "IE", Region::Europe, 53.3498, -6.2603),
    city("Lisbon", "PT", Region::Europe, 38.7223, -9.1393),
    city("Bucharest", "RO", Region::Europe, 44.4268, 26.1025),
    city("Kyiv", "UA", Region::Europe, 50.4501, 30.5234),
    city("Moscow", "RU", Region::Europe, 55.7558, 37.6173),
    // Asia.
    city("Tokyo", "JP", Region::Asia, 35.6762, 139.6503),
    city("Seoul", "KR", Region::Asia, 37.5665, 126.9780),
    city("Hong Kong", "HK", Region::Asia, 22.3193, 114.1694),
    city("Singapore", "SG", Region::Asia, 1.3521, 103.8198),
    city("Mumbai", "IN", Region::Asia, 19.0760, 72.8777),
    city("Bangkok", "TH", Region::Asia, 13.7563, 100.5018),
    // South America.
    city("Sao Paulo", "BR", Region::SouthAmerica, -23.5505, -46.6333),
    city(
        "Buenos Aires",
        "AR",
        Region::SouthAmerica,
        -34.6037,
        -58.3816,
    ),
    city("Santiago", "CL", Region::SouthAmerica, -33.4489, -70.6693),
    // Oceania.
    city("Sydney", "AU", Region::Oceania, -33.8688, 151.2093),
    city("Melbourne", "AU", Region::Oceania, -37.8136, 144.9631),
    city("Auckland", "NZ", Region::Oceania, -36.8509, 174.7645),
    // Middle East.
    city("Tel Aviv", "IL", Region::MiddleEast, 32.0853, 34.7818),
    city("Istanbul", "TR", Region::MiddleEast, 41.0082, 28.9784),
    city("Dubai", "AE", Region::MiddleEast, 25.2048, 55.2708),
    // Africa.
    city("Johannesburg", "ZA", Region::Africa, -26.2041, 28.0473),
    city("Cairo", "EG", Region::Africa, 30.0444, 31.2357),
];

/// Metro-area jitter radius in km (relays in the same city are placed
/// within this radius of the center).
const METRO_JITTER_KM: f64 = 25.0;

/// The synthetic world: samples relay locations with the Tor-like
/// regional skew, and jitters positions inside a city's metro area so
/// co-located relays are close but not identical.
#[derive(Debug, Clone)]
pub struct World {
    cities: Vec<City>,
}

impl Default for World {
    fn default() -> Self {
        World::new()
    }
}

impl World {
    /// The full default world.
    pub fn new() -> World {
        World {
            cities: CITIES.to_vec(),
        }
    }

    /// All cities.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// Samples one city with the Tor regional skew.
    pub(crate) fn sample_city<R: Rng + ?Sized>(&self, rng: &mut R) -> City {
        // Pick a region by weight, then a uniform city within it.
        let total: f64 = self
            .cities
            .iter()
            .map(|c| c.region.tor_weight())
            .sum::<f64>();
        let mut target = rng.gen_range(0.0..total);
        for c in &self.cities {
            target -= c.region.tor_weight();
            if target <= 0.0 {
                return *c;
            }
        }
        *self.cities.last().expect("world has cities")
    }

    /// Samples a relay location: a skew-weighted city plus metro jitter.
    pub fn sample_location<R: Rng + ?Sized>(&self, rng: &mut R) -> (City, GeoPoint) {
        let c = self.sample_city(rng);
        let north = rng.gen_range(-METRO_JITTER_KM..METRO_JITTER_KM);
        let east = rng.gen_range(-METRO_JITTER_KM..METRO_JITTER_KM);
        (c, c.location.offset_km(north, east))
    }

    /// Samples `n` distinct cities uniformly (used for the PlanetLab-like
    /// testbed, which wants wide geographic coverage rather than the Tor
    /// skew).
    pub fn sample_distinct_cities<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<City> {
        assert!(n <= self.cities.len(), "not enough cities");
        let mut cs = self.cities.clone();
        cs.shuffle(rng);
        cs.truncate(n);
        cs
    }

    /// Looks up a city by name.
    pub fn city(&self, name: &str) -> Option<&City> {
        self.cities.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::great_circle_km;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn world_has_papers_regional_coverage() {
        let w = World::new();
        // §4.1: ≥ 6 European countries, ≥ 9 US states/cities, and at
        // least one of Asia / South America / Australia / Middle East.
        let eu_countries: std::collections::HashSet<_> = w
            .cities()
            .iter()
            .filter(|c| c.region == Region::Europe)
            .map(|c| c.country)
            .collect();
        assert!(eu_countries.len() >= 6);
        let us_cities = w.cities().iter().filter(|c| c.country == "US").count();
        assert!(us_cities >= 9);
        for region in [
            Region::Asia,
            Region::SouthAmerica,
            Region::Oceania,
            Region::MiddleEast,
        ] {
            assert!(w.cities().iter().any(|c| c.region == region));
        }
    }

    #[test]
    fn sampling_respects_tor_skew() {
        let w = World::new();
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 10_000;
        let mut eu = 0;
        let mut na = 0;
        for _ in 0..n {
            match w.sample_city(&mut rng).region {
                Region::Europe => eu += 1,
                Region::NorthAmerica => na += 1,
                _ => {}
            }
        }
        let eu_frac = eu as f64 / n as f64;
        let na_frac = na as f64 / n as f64;
        assert!(eu_frac > 0.40 && eu_frac < 0.65, "eu {eu_frac}");
        assert!(na_frac > 0.20 && na_frac < 0.45, "na {na_frac}");
    }

    #[test]
    fn metro_jitter_stays_near_city() {
        let w = World::new();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            let (city, loc) = w.sample_location(&mut rng);
            let d = great_circle_km(city.location, loc);
            // Corner of the jitter square is sqrt(2) * 25 km away.
            assert!(d <= 25.0 * std::f64::consts::SQRT_2 + 1.0, "d {d}");
        }
    }

    #[test]
    fn distinct_cities_are_distinct() {
        let w = World::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let cs = w.sample_distinct_cities(&mut rng, 31);
        assert_eq!(cs.len(), 31);
        let names: std::collections::HashSet<_> = cs.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 31);
    }

    #[test]
    fn city_lookup() {
        let w = World::new();
        assert!(w.city("Tokyo").is_some());
        assert!(w.city("Atlantis").is_none());
    }

    #[test]
    #[should_panic]
    fn too_many_distinct_cities_panics() {
        let w = World::new();
        let mut rng = SmallRng::seed_from_u64(7);
        let _ = w.sample_distinct_cities(&mut rng, 10_000);
    }
}
