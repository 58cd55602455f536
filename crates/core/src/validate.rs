//! Estimate validation: the gate between a raw Eq. (4) estimate and
//! the cache.
//!
//! §4.6 caches estimates for a week, which makes a poisoned entry
//! expensive — every §5 application reads it until staleness evicts
//! it. The paper's own plausibility argument (estimates track ground
//! truth to within ~1 ms, Fig. 5) justifies three cheap cross-checks
//! before caching:
//!
//! * **Speed of light** (reject): `R(x, y)` below the great-circle
//!   light-in-fiber round trip ([`geo::lightspeed`]) is physically
//!   impossible — an Eq. (4) undershoot artifact, like the
//!   negative-estimate case `implausibly_low` already catches. The
//!   scanner reads both endpoints' locations from the network's
//!   underlay, so the bound needs no setup.
//! * **Cache divergence** (reject once, then accept): a re-measurement
//!   that lands far from a still-fresh cached value is suspect — but
//!   paths do change, so only the *first* divergent measurement is
//!   refused (re-queued under backoff with a reason code); a retry
//!   that still diverges is accepted as the new truth and flagged.
//! * **TIV outlier** (flag only): an estimate enormously larger than
//!   the best cached detour `R(x, z) + R(z, y)` is *recorded* as a
//!   triangle-inequality-violation outlier but never rejected —
//!   genuine TIVs are common in Tor and §5.2 exploits them; the flag
//!   exists so a campaign audit can distinguish "interesting topology"
//!   from "suspect sample".
//!
//! Reason codes land in the `ting.validate.{flag,reject}.<code>` obs
//! counters and trace events, so a deterministic run yields a
//! deterministic audit trail.

/// Whether an Eq. (4) estimate is below any plausible RTT floor
/// (negative or ~0 ms). The subtraction of two half-leg minima can
/// undershoot when the leg circuits were measured under different
/// congestion floors; such a value is a measurement artifact, not an
/// RTT, and [`crate::scanner::Scanner`] refuses to cache it whether or
/// not the checks below are on. NaN (an artifact of
/// degenerate sampling) counts as implausible too — a plain `< 0.05`
/// would let it slip into the cache.
pub(crate) fn implausibly_low(estimate_ms: f64) -> bool {
    estimate_ms.is_nan() || estimate_ms < 0.05
}

/// A re-measurement further than this factor (plus
/// [`DIVERGENCE_SLACK_MS`]) from a fresh cached value is divergent.
pub(crate) const DIVERGENCE_FACTOR: f64 = 4.0;
/// Absolute slack (ms) before divergence triggers — sub-ms paths jitter
/// by more than any ratio test tolerates.
pub(crate) const DIVERGENCE_SLACK_MS: f64 = 50.0;
/// Estimates above `best_detour ×` this are flagged as TIV outliers.
pub(crate) const TIV_FACTOR: f64 = 8.0;
/// Detours shorter than this (ms) flag nothing.
pub(crate) const TIV_MIN_DETOUR_MS: f64 = 5.0;

/// Why an estimate was refused or flagged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidationError {
    /// Faster than light in fiber over the pair's great circle.
    BelowLightspeed { est_ms: f64, min_possible_ms: f64 },
    /// Far from a still-fresh cached estimate of the same pair.
    CacheDivergence { est_ms: f64, cached_ms: f64 },
    /// Vastly above the best cached two-hop detour.
    TivOutlier { est_ms: f64, best_detour_ms: f64 },
}

impl ValidationError {
    /// Stable reason code for metrics traces.
    pub(crate) fn code(&self) -> &'static str {
        match self {
            ValidationError::BelowLightspeed { .. } => "below_lightspeed",
            ValidationError::CacheDivergence { .. } => "cache_divergence",
            ValidationError::TivOutlier { .. } => "tiv_outlier",
        }
    }
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::BelowLightspeed {
                est_ms,
                min_possible_ms,
            } => write!(
                f,
                "estimate {est_ms:.3} ms beats the lightspeed floor {min_possible_ms:.3} ms"
            ),
            ValidationError::CacheDivergence { est_ms, cached_ms } => write!(
                f,
                "estimate {est_ms:.3} ms diverges from fresh cached {cached_ms:.3} ms"
            ),
            ValidationError::TivOutlier {
                est_ms,
                best_detour_ms,
            } => write!(
                f,
                "estimate {est_ms:.3} ms dwarfs best detour {best_detour_ms:.3} ms"
            ),
        }
    }
}

/// The gate's decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Cache it.
    Accept,
    /// Cache it, but record the anomaly.
    Flag(ValidationError),
    /// Refuse it; the pair re-queues under backoff.
    Reject(ValidationError),
}

/// Everything the checks need to know about the pair being validated.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidationContext {
    /// Great-circle distance between the endpoints, if both are
    /// geolocated (every scanned pair is).
    pub distance_km: Option<f64>,
    /// The cached estimate, only when it is still fresh (stale cache
    /// entries prove nothing about the current path).
    pub fresh_cached_ms: Option<f64>,
    /// Whether this measurement is already a retry of a refused one —
    /// a second divergent reading confirms the change instead of
    /// re-rejecting forever.
    pub confirming_retry: bool,
    /// `min over z of R(x,z) + R(z,y)` from the cache, if any third
    /// node connects both endpoints.
    pub best_detour_ms: Option<f64>,
}

/// Runs the checks in severity order and returns the verdict.
pub(crate) fn validate(est_ms: f64, ctx: &ValidationContext) -> Verdict {
    if let Some(km) = ctx.distance_km {
        let min_possible_ms = geo::lightspeed::min_rtt_ms(km);
        if est_ms < min_possible_ms {
            return Verdict::Reject(ValidationError::BelowLightspeed {
                est_ms,
                min_possible_ms,
            });
        }
    }
    if let Some(cached_ms) = ctx.fresh_cached_ms {
        let hi = cached_ms * DIVERGENCE_FACTOR + DIVERGENCE_SLACK_MS;
        let lo = (cached_ms / DIVERGENCE_FACTOR - DIVERGENCE_SLACK_MS).max(0.0);
        if est_ms > hi || est_ms < lo {
            let err = ValidationError::CacheDivergence { est_ms, cached_ms };
            return if ctx.confirming_retry {
                Verdict::Flag(err)
            } else {
                Verdict::Reject(err)
            };
        }
    }
    if let Some(best_detour_ms) = ctx.best_detour_ms {
        if best_detour_ms >= TIV_MIN_DETOUR_MS && est_ms > best_detour_ms * TIV_FACTOR {
            return Verdict::Flag(ValidationError::TivOutlier {
                est_ms,
                best_detour_ms,
            });
        }
    }
    Verdict::Accept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implausibly_low_boundary_values() {
        // The gate is exactly `< 0.05 ms` with NaN on the implausible
        // side: estimates at the threshold pass, anything below — or
        // not a number at all — is refused.
        assert!(!implausibly_low(0.05));
        assert!(!implausibly_low(0.050001));
        assert!(!implausibly_low(100.0));
        assert!(!implausibly_low(f64::INFINITY));
        assert!(implausibly_low(0.049999));
        assert!(implausibly_low(0.0));
        assert!(implausibly_low(-0.0));
        assert!(implausibly_low(-25.0));
        assert!(implausibly_low(f64::NEG_INFINITY));
        assert!(implausibly_low(f64::NAN));
    }

    #[test]
    fn clean_estimate_accepted() {
        let v = validate(80.0, &ValidationContext::default());
        assert_eq!(v, Verdict::Accept);
    }

    #[test]
    fn faster_than_light_rejected() {
        // New York ↔ Sydney is ~16,000 km; ~160 ms light-in-fiber RTT.
        let ctx = ValidationContext {
            distance_km: Some(16_000.0),
            ..Default::default()
        };
        match validate(20.0, &ctx) {
            Verdict::Reject(e @ ValidationError::BelowLightspeed { .. }) => {
                assert_eq!(e.code(), "below_lightspeed");
            }
            other => panic!("expected lightspeed rejection, got {other:?}"),
        }
        // A plausible transpacific RTT passes.
        assert_eq!(validate(220.0, &ctx), Verdict::Accept);
    }

    #[test]
    fn divergence_rejects_once_then_confirms() {
        let ctx = ValidationContext {
            fresh_cached_ms: Some(40.0),
            ..Default::default()
        };
        // 40 → 500 ms is past 4× + 50 ms slack.
        assert!(matches!(
            validate(500.0, &ctx),
            Verdict::Reject(ValidationError::CacheDivergence { .. })
        ));
        // The confirming retry is accepted (flagged, not refused).
        let confirming = ValidationContext {
            confirming_retry: true,
            ..ctx
        };
        assert!(matches!(
            validate(500.0, &confirming),
            Verdict::Flag(ValidationError::CacheDivergence { .. })
        ));
        // Ordinary re-measurement noise is fine.
        assert_eq!(validate(55.0, &ctx), Verdict::Accept);
    }

    #[test]
    fn stale_cache_never_triggers_divergence() {
        // The caller models staleness by leaving fresh_cached_ms unset.
        let ctx = ValidationContext::default();
        assert_eq!(validate(500.0, &ctx), Verdict::Accept);
    }

    #[test]
    fn tiv_outlier_is_flagged_never_rejected() {
        let ctx = ValidationContext {
            best_detour_ms: Some(10.0),
            ..Default::default()
        };
        match validate(200.0, &ctx) {
            Verdict::Flag(e @ ValidationError::TivOutlier { .. }) => {
                assert_eq!(e.code(), "tiv_outlier");
            }
            other => panic!("expected TIV flag, got {other:?}"),
        }
        // An ordinary TIV (direct a bit above the detour) passes clean:
        // §5.2 *wants* those in the dataset.
        assert_eq!(validate(25.0, &ctx), Verdict::Accept);
        // Tiny detours prove nothing.
        let tiny = ValidationContext {
            best_detour_ms: Some(0.5),
            ..Default::default()
        };
        assert_eq!(validate(200.0, &tiny), Verdict::Accept);
    }
}
