//! Exponential-backoff arithmetic shared by every retry path.
//!
//! Three call sites used to roll their own doubling-with-cap math: the
//! scanner's per-pair failure backoff, the orchestrator's per-circuit
//! retry pause, and (via the orchestrator) the parallel pipeline's
//! `Backoff` task state. They now all route through this module, which
//! owns the two hazards the ad-hoc versions each had to dodge:
//!
//! * **Overflow** — `base · 2^(attempts−1)` exceeds `u64` nanoseconds
//!   after ~30 doublings of any realistic base. [`exponential`] does
//!   the shift in `u128` and saturates at the cap, so arbitrarily
//!   large attempt counts are safe (property-tested below).
//! * **Synchronized retries** — concurrent measurements that fail
//!   together would retry together. [`jittered_ms`] spreads pauses
//!   with a keyed hash of the circuit path, never the simulation RNG,
//!   so runs stay replayable.

use netsim::{NodeId, SimDuration};

/// The pause after the `attempts`-th consecutive failure:
/// `min(base · 2^(attempts−1), cap)`, computed without overflow.
/// `attempts = 0` is treated like the first failure.
pub fn exponential(base: SimDuration, attempts: u32, cap: SimDuration) -> SimDuration {
    let base_ns = base.as_nanos();
    let cap_ns = cap.as_nanos();
    if base_ns == 0 {
        return SimDuration::from_nanos(0);
    }
    let shift = attempts.saturating_sub(1);
    // base ≥ 1 ns shifted 64+ places exceeds u64; the cap applies.
    if shift >= 64 {
        return SimDuration::from_nanos(cap_ns);
    }
    let ns = ((base_ns as u128) << shift).min(cap_ns as u128) as u64;
    SimDuration::from_nanos(ns)
}

/// The pause before retry `attempt` (1-based) of a circuit:
/// exponential in the attempt, jittered by a keyed hash of the path so
/// concurrent deployments desynchronize — but never drawn from the
/// simulation RNG, keeping retries replayable. The jitter factor lies
/// in `[0.5, 1.5)`; the result is capped at `cap_ms`.
pub fn jittered_ms(base_ms: f64, cap_ms: f64, path: &[NodeId], attempt: u32) -> f64 {
    // Clamp the exponent so pathological attempt counts neither wrap
    // through `as i32` nor overflow `powi` into NaN territory; anything
    // past ~2^1024 saturates at the cap regardless.
    let exp = (i64::from(attempt) - 1).clamp(-1, 1_024) as i32;
    let base = base_ms * 2f64.powi(exp);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in path {
        h = (h ^ n.0 as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ attempt as u64).wrapping_mul(0x0000_0100_0000_01b3);
    let jitter = 0.5 + netsim::keyed_u01(h);
    (base * jitter).min(cap_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exponential_doubles_then_caps() {
        let base = SimDuration::from_secs(60);
        let cap = SimDuration::from_hours(1);
        assert_eq!(exponential(base, 1, cap), SimDuration::from_secs(60));
        assert_eq!(exponential(base, 2, cap), SimDuration::from_secs(120));
        assert_eq!(exponential(base, 3, cap), SimDuration::from_secs(240));
        assert_eq!(exponential(base, 7, cap), cap); // 60·64 s > 1 h
        assert_eq!(exponential(base, 64, cap), cap);
        assert_eq!(exponential(base, u32::MAX, cap), cap);
    }

    #[test]
    fn exponential_treats_zero_attempts_as_first() {
        let base = SimDuration::from_secs(5);
        let cap = SimDuration::from_hours(1);
        assert_eq!(exponential(base, 0, cap), base);
        assert_eq!(exponential(base, 1, cap), base);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let path = [NodeId(3), NodeId(7), NodeId(9)];
        let a = jittered_ms(500.0, 8_000.0, &path, 2);
        let b = jittered_ms(500.0, 8_000.0, &path, 2);
        assert_eq!(a.to_bits(), b.to_bits());
        // attempt 2 ⇒ base 1000 ms, jitter ∈ [0.5, 1.5)
        assert!((500.0..1_500.0).contains(&a));
        // Different paths see different pauses.
        let c = jittered_ms(500.0, 8_000.0, &[NodeId(4), NodeId(7)], 2);
        assert_ne!(a.to_bits(), c.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// No attempt count panics or overflows, and the result never
        /// exceeds the cap.
        #[test]
        fn exponential_never_overflows(
            base_ns in 0u64..u64::MAX,
            attempts in 0u32..u32::MAX,
            cap_ns in 0u64..u64::MAX,
        ) {
            let got = exponential(
                SimDuration::from_nanos(base_ns),
                attempts,
                SimDuration::from_nanos(cap_ns),
            );
            prop_assert!(got.as_nanos() <= cap_ns);
        }

        /// Monotone in the attempt count until the cap flattens it.
        #[test]
        fn exponential_is_monotone(
            base_ns in 1u64..1_000_000_000_000u64,
            attempts in 0u32..10_000u32,
            cap_ns in 1u64..u64::MAX,
        ) {
            let base = SimDuration::from_nanos(base_ns);
            let cap = SimDuration::from_nanos(cap_ns);
            let lo = exponential(base, attempts, cap);
            let hi = exponential(base, attempts.saturating_add(1), cap);
            prop_assert!(lo.as_nanos() <= hi.as_nanos());
        }

        /// Huge attempt counts never panic the jittered variant either,
        /// and the cap always holds.
        #[test]
        fn jittered_respects_cap(
            base_ms in 0.0f64..1e6,
            cap_ms in 0.0f64..1e6,
            attempt in 0u32..u32::MAX,
            node in 0u32..1000u32,
        ) {
            let got = jittered_ms(base_ms, cap_ms, &[NodeId(node)], attempt);
            prop_assert!(got <= cap_ms);
            prop_assert!(got.is_finite());
        }
    }
}
