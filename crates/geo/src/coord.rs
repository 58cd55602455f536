//! GPS coordinates and great-circle distance.

/// Mean Earth radius in kilometres (IUGG).
pub(crate) const EARTH_RADIUS_KM: f64 = 6371.0088;

/// A point on the Earth's surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north, in `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, positive east, in `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, normalizing longitude into `[-180, 180]` and
    /// clamping latitude into `[-90, 90]`.
    pub fn new(lat: f64, lon: f64) -> GeoPoint {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        GeoPoint {
            lat,
            lon: lon - 180.0,
        }
    }

    /// Displaces this point by roughly `north_km` north and `east_km`
    /// east. Accurate for the small (tens of km) offsets the geolocation
    /// error model uses; breaks down only at the poles, where latitude is
    /// clamped.
    pub(crate) fn offset_km(&self, north_km: f64, east_km: f64) -> GeoPoint {
        let km_per_deg_lat = EARTH_RADIUS_KM * std::f64::consts::PI / 180.0;
        let lat = self.lat + north_km / km_per_deg_lat;
        let km_per_deg_lon = km_per_deg_lat * self.lat.to_radians().cos().max(0.01);
        let lon = self.lon + east_km / km_per_deg_lon;
        GeoPoint::new(lat, lon)
    }
}

/// Haversine great-circle distance between two points, in kilometres.
pub fn great_circle_km(a: GeoPoint, b: GeoPoint) -> f64 {
    let lat1 = a.lat.to_radians();
    let lat2 = b.lat.to_radians();
    let dlat = (b.lat - a.lat).to_radians();
    let dlon = (b.lon - a.lon).to_radians();
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * h.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NYC: GeoPoint = GeoPoint {
        lat: 40.7128,
        lon: -74.0060,
    };
    const LONDON: GeoPoint = GeoPoint {
        lat: 51.5074,
        lon: -0.1278,
    };
    const SYDNEY: GeoPoint = GeoPoint {
        lat: -33.8688,
        lon: 151.2093,
    };

    #[test]
    fn nyc_to_london_about_5570km() {
        let d = great_circle_km(NYC, LONDON);
        assert!((d - 5570.0).abs() < 30.0, "got {d}");
    }

    #[test]
    fn london_to_sydney_about_17000km() {
        let d = great_circle_km(LONDON, SYDNEY);
        assert!((d - 16994.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        assert_eq!(great_circle_km(NYC, NYC), 0.0);
        assert!((great_circle_km(NYC, LONDON) - great_circle_km(LONDON, NYC)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_distance_is_half_circumference() {
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(0.0, 180.0);
        let d = great_circle_km(a, b);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((d - half).abs() < 1.0, "got {d}, want {half}");
    }

    #[test]
    fn longitude_normalizes() {
        let p = GeoPoint::new(10.0, 190.0);
        assert!((p.lon - -170.0).abs() < 1e-9);
        let q = GeoPoint::new(10.0, -190.0);
        assert!((q.lon - 170.0).abs() < 1e-9);
    }

    #[test]
    fn latitude_clamps() {
        assert_eq!(GeoPoint::new(95.0, 0.0).lat, 90.0);
        assert_eq!(GeoPoint::new(-95.0, 0.0).lat, -90.0);
    }

    #[test]
    fn offset_km_moves_approximately_right_distance() {
        let p = GeoPoint::new(40.0, -74.0);
        let q = p.offset_km(50.0, 0.0);
        let d = great_circle_km(p, q);
        assert!((d - 50.0).abs() < 1.0, "got {d}");
        let r = p.offset_km(0.0, 50.0);
        let d2 = great_circle_km(p, r);
        assert!((d2 - 50.0).abs() < 1.0, "got {d2}");
    }

    #[test]
    fn triangle_inequality_on_sphere() {
        // Great-circle distances never violate the triangle inequality —
        // the TIVs the paper finds are routing artifacts, not geometry.
        let d_direct = great_circle_km(NYC, SYDNEY);
        let via = great_circle_km(NYC, LONDON) + great_circle_km(LONDON, SYDNEY);
        assert!(d_direct <= via + 1e-6);
    }

    proptest! {
        #[test]
        fn offset_roundtrip_small(
            a in (-90.0..90.0f64, -180.0..180.0f64).prop_map(|(lat, lon)| GeoPoint::new(lat, lon)),
            n in -50.0..50.0f64,
            e in -50.0..50.0f64,
        ) {
            // Small offsets move the point by at most the Euclidean magnitude
            // (plus slack for spherical distortion at extreme latitudes).
            let b = a.offset_km(n, e);
            let d = great_circle_km(a, b);
            let mag = (n * n + e * e).sqrt();
            prop_assert!(d <= mag * 1.5 + 1.0, "moved {d} for offset {mag}");
        }
    }
}
