//! The Eq. (4) estimator and measurement records.
//!
//! With `s`, `d`, `w`, `z` co-located on host `h`, the three circuits'
//! end-to-end RTTs decompose as (Eqs. 1–3 of the paper):
//!
//! ```text
//! R_Cxy = R(h,h) + 2F_h + R(h,x) + 2F_x + R(x,y) + 2F_y + R(h,y) + 2F_h + R(h,h)
//! R_Cx  = 2R(h,h) + 4F_h + 2R(h,x) + 2F_x
//! R_Cy  = 2R(h,h) + 4F_h + 2R(h,y) + 2F_y
//! ```
//!
//! so `R_Cxy − ½R_Cx − ½R_Cy = R(x,y) + F_x + F_y` — the estimate is the
//! true RTT plus the two forwarding delays, whose minima are small.

use crate::sampling::min_filter;

/// The RTT samples collected through one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSamples {
    /// Every echo RTT observed, in order (ms).
    pub samples: Vec<f64>,
}

impl CircuitSamples {
    pub fn new(samples: Vec<f64>) -> CircuitSamples {
        assert!(!samples.is_empty(), "a circuit measurement needs samples");
        CircuitSamples { samples }
    }

    /// The circuit's RTT estimate: the minimum sample.
    #[expect(
        clippy::expect_used,
        reason = "`CircuitSamples::new` refuses an empty sample list"
    )]
    pub fn min_ms(&self) -> f64 {
        min_filter(&self.samples).expect("non-empty by construction")
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Eq. (4): combines the three circuit minima into the pair estimate.
pub fn ting_estimate_ms(r_cxy_ms: f64, r_cx_ms: f64, r_cy_ms: f64) -> f64 {
    r_cxy_ms - r_cx_ms / 2.0 - r_cy_ms / 2.0
}

/// A complete Ting measurement of one relay pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TingMeasurement {
    /// Samples through `C_xy = (w, x, y, z)`.
    pub full: CircuitSamples,
    /// Samples through `C_x = (w, x)`.
    pub x_leg: CircuitSamples,
    /// Samples through `C_y = (w, y)`.
    pub y_leg: CircuitSamples,
    /// Virtual time the measurement took, in seconds (§4.4 reports
    /// 2.5 min/pair at 200 samples, <15 s at ~5% error).
    pub elapsed_s: f64,
}

impl TingMeasurement {
    /// The pair's RTT estimate (ms), per Eq. (4).
    pub fn estimate_ms(&self) -> f64 {
        ting_estimate_ms(self.full.min_ms(), self.x_leg.min_ms(), self.y_leg.min_ms())
    }

    /// Total samples across the three circuits.
    pub fn total_samples(&self) -> usize {
        self.full.len() + self.x_leg.len() + self.y_leg.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebra_recovers_planted_rtt_exactly() {
        // Plant R(h,x)=10, R(h,y)=20, R(x,y)=77, forwarding delays zero.
        let r_cx = 2.0 * 10.0;
        let r_cy = 2.0 * 20.0;
        let r_cxy = 10.0 + 77.0 + 20.0;
        assert_eq!(ting_estimate_ms(r_cxy, r_cx, r_cy), 77.0);
    }

    #[test]
    fn forwarding_delays_remain_in_estimate() {
        // With F_x = 2, F_y = 3 the estimate is R(x,y) + 5 (Eq. 4).
        let (rhx, rhy, rxy, fx, fy) = (10.0, 20.0, 77.0, 2.0, 3.0);
        let r_cx = 2.0 * rhx + 2.0 * fx;
        let r_cy = 2.0 * rhy + 2.0 * fy;
        let r_cxy = rhx + 2.0 * fx + rxy + 2.0 * fy + rhy;
        let est = ting_estimate_ms(r_cxy, r_cx, r_cy);
        assert!((est - (rxy + fx + fy)).abs() < 1e-12);
    }

    #[test]
    fn host_terms_cancel() {
        // Adding host-side latency/forwarding to all three circuits
        // leaves the estimate unchanged.
        let host = 4.2; // R(h,h) + 2F_h per traversal
        let base = ting_estimate_ms(100.0, 30.0, 40.0);
        let with_host = ting_estimate_ms(100.0 + 2.0 * host, 30.0 + 2.0 * host, 40.0 + 2.0 * host);
        assert!((base - with_host).abs() < 1e-12);
    }

    #[test]
    fn measurement_uses_minima() {
        let m = TingMeasurement {
            full: CircuitSamples::new(vec![120.0, 100.0, 115.0]),
            x_leg: CircuitSamples::new(vec![22.0, 20.0]),
            y_leg: CircuitSamples::new(vec![41.0, 40.0, 44.0]),
            elapsed_s: 1.0,
        };
        assert_eq!(m.estimate_ms(), 100.0 - 10.0 - 20.0);
        assert_eq!(m.total_samples(), 8);
    }

    #[test]
    #[should_panic]
    fn empty_samples_rejected() {
        let _ = CircuitSamples::new(vec![]);
    }
}
