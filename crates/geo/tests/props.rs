//! Property-based tests for geodesy and classification.

use geo::{classify_hostname, great_circle_km, min_rtt_ms, GeoPoint, HostClass};
use proptest::prelude::*;

fn point() -> impl Strategy<Value = GeoPoint> {
    (-90.0..90.0f64, -180.0..180.0f64).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

proptest! {
    #[test]
    fn distance_symmetric(a in point(), b in point()) {
        let ab = great_circle_km(a, b);
        let ba = great_circle_km(b, a);
        prop_assert!((ab - ba).abs() < 1e-6);
    }

    #[test]
    fn distance_nonnegative_and_bounded(a in point(), b in point()) {
        let d = great_circle_km(a, b);
        prop_assert!(d >= 0.0);
        // Half the circumference is the maximum separation.
        prop_assert!(d <= std::f64::consts::PI * 6371.01 + 1.0);
    }

    #[test]
    fn triangle_inequality_holds_geometrically(a in point(), b in point(), c in point()) {
        // Physical geometry never violates the triangle inequality; the
        // paper's TIVs come from routing, which netsim models separately.
        let direct = great_circle_km(a, c);
        let detour = great_circle_km(a, b) + great_circle_km(b, c);
        prop_assert!(direct <= detour + 1e-6);
    }

    #[test]
    fn identity_of_indiscernibles(a in point()) {
        prop_assert_eq!(great_circle_km(a, a), 0.0);
    }

    #[test]
    fn light_bound_monotone(d1 in 0.0..20_000.0f64, d2 in 0.0..20_000.0f64) {
        if d1 <= d2 {
            prop_assert!(min_rtt_ms(d1) <= min_rtt_ms(d2));
        } else {
            prop_assert!(min_rtt_ms(d1) >= min_rtt_ms(d2));
        }
    }

    #[test]
    fn classifier_total_on_arbitrary_strings(s in "[a-z0-9.-]{0,64}") {
        // Never panics, always returns one of the three classes.
        let c = classify_hostname(&s);
        prop_assert!(matches!(c, HostClass::Residential | HostClass::Datacenter | HostClass::Unknown));
    }
}
