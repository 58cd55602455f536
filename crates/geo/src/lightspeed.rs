//! Speed-of-light propagation bounds.
//!
//! Fig. 8 annotates the distance/latency scatter with "the generally
//! accepted maximum speed that packets can traverse a given distance in
//! the Internet: ⅔ the speed of light" — the speed of light in optical
//! fiber. Points below that line indicate geolocation errors.

/// Speed of light in vacuum, km/s.
pub const C_KM_PER_S: f64 = 299_792.458;

/// Effective propagation speed in fiber (⅔·c), expressed in km per
/// millisecond: ≈ 199.86 km/ms.
pub const FIBER_KM_PER_MS: f64 = C_KM_PER_S * (2.0 / 3.0) / 1000.0;

/// The minimum physically possible round-trip time, in milliseconds,
/// between two hosts `distance_km` apart, assuming straight-line fiber.
pub fn min_rtt_ms(distance_km: f64) -> f64 {
    assert!(distance_km >= 0.0, "negative distance");
    2.0 * distance_km / FIBER_KM_PER_MS
}

/// Whether an (RTT, distance) observation is physically possible.
pub fn physically_possible(rtt_ms: f64, distance_km: f64) -> bool {
    rtt_ms + 1e-9 >= min_rtt_ms(distance_km)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fiber_speed_is_two_thirds_c() {
        assert!((FIBER_KM_PER_MS - 199.86).abs() < 0.01);
    }

    #[test]
    fn transatlantic_bound() {
        // NYC–London ≈ 5570 km → minimum RTT ≈ 55.7 ms.
        let rtt = min_rtt_ms(5570.0);
        assert!((rtt - 55.7).abs() < 0.5, "got {rtt}");
    }

    #[test]
    fn zero_distance_zero_rtt() {
        assert_eq!(min_rtt_ms(0.0), 0.0);
    }

    #[test]
    fn possibility_check() {
        assert!(physically_possible(60.0, 5570.0));
        assert!(!physically_possible(40.0, 5570.0));
        assert!(physically_possible(0.0, 0.0));
    }
}
