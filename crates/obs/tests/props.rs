//! Property tests for the `ms_to_us` clamp in front of the histograms:
//! it never panics, saturates deterministically at both ends, and stays
//! monotone so ordering survives the unit conversion. The histogram's
//! own properties are unit tests in `src/hist.rs`.

use obs::ms_to_us;
use proptest::prelude::*;

proptest! {
    /// Monotone: a longer duration never converts to fewer µs, so
    /// histogram ordering survives the unit conversion.
    #[test]
    fn ms_to_us_is_monotone(a in any::<f64>(), b in any::<f64>()) {
        if a.is_nan() || b.is_nan() {
            prop_assert_eq!(ms_to_us(f64::NAN), 0);
        } else {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(ms_to_us(lo) <= ms_to_us(hi));
        }
    }

    /// In the exact integer range, the conversion is the plain
    /// ×1000 the histograms expect.
    #[test]
    fn ms_to_us_scales_exact_integers(ms in 1u32..=1_000_000) {
        prop_assert_eq!(ms_to_us(f64::from(ms)), u64::from(ms) * 1000);
    }
}
