//! Fault injection for the event engine.
//!
//! A [`FaultPlan`] describes adverse conditions the simulator imposes on
//! an otherwise-healthy run: silent message loss, delay spikes, long
//! stream stalls, and node crash/reboot windows. The measurement stack
//! above (circuit timeouts, retries, checkpointed scans) exists to
//! survive exactly these, so the plan is designed for reproducible
//! experiments:
//!
//! * **Deterministic.** Fault decisions come from a SplitMix64-style
//!   keyed hash over `(plan seed, draw counter)` — the same generator
//!   family the underlay uses for congestion drift — never from the
//!   simulator's run RNG. Two runs with the same seed, plan, and call
//!   sequence inject byte-identical faults.
//! * **Strict no-op when disabled.** If every rate is zero and there are
//!   no crash windows, [`FaultPlan::is_enabled`] is false and the
//!   simulator takes the exact pre-fault code path: no draws, no state
//!   changes, bit-identical event streams and estimates.
//! * **Never wall-clock.** Everything is keyed on [`SimTime`].

use crate::sim::NodeId;
use crate::time::SimTime;
use std::cell::Cell;

/// The SplitMix64 finalizer.
pub(crate) fn mix64(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The top 53 bits of `h` as a uniform `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One uniform draw in `[0, 1)` from `key`, finalized SplitMix64-style:
/// the keyed-hash generator behind every decision that must stay off
/// the simulation RNG (fault plans, congestion drift, relay faults,
/// churn, retry jitter). Each caller folds its own seed and counter
/// into `key`.
pub fn keyed_u01(key: u64) -> f64 {
    unit(mix64(key))
}

/// A window during which a node is crashed: events addressed to it are
/// dropped and connections to it cannot be opened. `until == None`
/// means the node never comes back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    pub node: NodeId,
    pub from: SimTime,
    pub until: Option<SimTime>,
}

impl CrashWindow {
    pub fn covers(&self, node: NodeId, t: SimTime) -> bool {
        self.node == node && t >= self.from && self.until.is_none_or(|u| t < u)
    }
}

/// A deterministic fault-injection plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Probability a sent message is silently dropped.
    pub link_loss_prob: f64,
    /// Probability a message is delayed by an extra exponential spike.
    pub jitter_spike_prob: f64,
    /// Mean of the injected spike (ms).
    pub jitter_spike_mean_ms: f64,
    /// Probability a message stalls for a long, fixed period — the
    /// "stream hangs, then suddenly drains" failure mode.
    pub stall_prob: f64,
    /// Stall duration (ms).
    pub stall_ms: f64,
    crash_windows: Vec<CrashWindow>,
    /// Monotone draw counter (interior-mutable so read paths stay `&`).
    draws: Cell<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with a fault seed; configure rates via the `with_*`
    /// builders or field access.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    pub fn with_link_loss(mut self, prob: f64) -> FaultPlan {
        self.link_loss_prob = prob;
        self
    }

    pub fn with_jitter_spikes(mut self, prob: f64, mean_ms: f64) -> FaultPlan {
        self.jitter_spike_prob = prob;
        self.jitter_spike_mean_ms = mean_ms;
        self
    }

    pub fn with_stalls(mut self, prob: f64, stall_ms: f64) -> FaultPlan {
        self.stall_prob = prob;
        self.stall_ms = stall_ms;
        self
    }

    /// Adds a crash window at runtime (e.g. churn-driven departures).
    pub fn add_crash(&mut self, node: NodeId, from: SimTime, until: Option<SimTime>) {
        self.crash_windows.push(CrashWindow { node, from, until });
    }

    /// Removes all crash windows for `node` (the node "reboots" and
    /// future events reach it again).
    pub fn clear_crashes(&mut self, node: NodeId) {
        self.crash_windows.retain(|w| w.node != node);
    }

    pub fn crash_windows(&self) -> &[CrashWindow] {
        &self.crash_windows
    }

    /// True when the plan can inject anything at all. The simulator
    /// checks this before every fault hook, so a disabled plan is a
    /// strict no-op: no draws happen and event streams are bit-identical
    /// to a build without fault support.
    pub fn is_enabled(&self) -> bool {
        self.link_loss_prob > 0.0
            || (self.jitter_spike_prob > 0.0 && self.jitter_spike_mean_ms > 0.0)
            || (self.stall_prob > 0.0 && self.stall_ms > 0.0)
            || !self.crash_windows.is_empty()
    }

    /// Whether `node` is crashed at `t`.
    pub fn node_down(&self, node: NodeId, t: SimTime) -> bool {
        self.crash_windows.iter().any(|w| w.covers(node, t))
    }

    /// One uniform draw in `[0, 1)` from the keyed-hash stream.
    fn draw_u01(&self) -> f64 {
        let n = self.draws.get();
        self.draws.set(n + 1);
        keyed_u01(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(n),
        )
    }

    /// Whether to silently drop a message. Call only when enabled.
    pub(crate) fn drop_message(&self) -> bool {
        if self.link_loss_prob <= 0.0 {
            return false;
        }
        self.draw_u01() < self.link_loss_prob
    }

    /// Extra delay (ms) injected onto a surviving message: a possible
    /// exponential jitter spike plus a possible long stall.
    pub(crate) fn extra_delay_ms(&self) -> f64 {
        let mut extra = 0.0;
        if self.jitter_spike_prob > 0.0 && self.jitter_spike_mean_ms > 0.0 {
            let u = self.draw_u01();
            if u < self.jitter_spike_prob {
                let v = self.draw_u01().min(1.0 - 1e-12);
                extra += -(1.0 - v).ln() * self.jitter_spike_mean_ms;
            }
        }
        if self.stall_prob > 0.0 && self.stall_ms > 0.0 && self.draw_u01() < self.stall_prob {
            extra += self.stall_ms;
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn disabled_plan_is_disabled() {
        assert!(!FaultPlan::disabled().is_enabled());
        assert!(!FaultPlan::new(7).is_enabled());
        assert!(FaultPlan::new(7).with_link_loss(0.1).is_enabled());
        assert!(FaultPlan::new(7).with_stalls(0.1, 100.0).is_enabled());
        // Zero-rate knobs stay disabled.
        assert!(!FaultPlan::new(7).with_link_loss(0.0).is_enabled());
        assert!(!FaultPlan::new(7).with_stalls(0.5, 0.0).is_enabled());
    }

    #[test]
    fn crash_windows_cover_correct_interval() {
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let mut plan = FaultPlan::new(1);
        plan.add_crash(NodeId(3), t(10), Some(t(20)));
        assert!(plan.is_enabled());
        assert!(!plan.node_down(NodeId(3), t(9)));
        assert!(plan.node_down(NodeId(3), t(10)));
        assert!(plan.node_down(NodeId(3), t(19)));
        assert!(!plan.node_down(NodeId(3), t(20)));
        assert!(!plan.node_down(NodeId(4), t(15)));

        let mut forever = FaultPlan::new(1);
        forever.add_crash(NodeId(5), t(100), None);
        assert!(forever.node_down(NodeId(5), t(1_000_000)));
        assert!(!forever.node_down(NodeId(5), t(99)));
    }

    #[test]
    fn clear_crashes_reboots_node() {
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let mut plan = FaultPlan::new(1);
        plan.add_crash(NodeId(2), t(0), None);
        assert!(plan.node_down(NodeId(2), t(50)));
        plan.clear_crashes(NodeId(2));
        assert!(!plan.node_down(NodeId(2), t(50)));
    }

    #[test]
    fn draws_are_deterministic_per_seed() {
        let run = |seed| {
            let plan = FaultPlan::new(seed).with_link_loss(0.3);
            (0..64).map(|_| plan.drop_message()).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn loss_rate_is_roughly_honored() {
        let plan = FaultPlan::new(42).with_link_loss(0.25);
        let dropped = (0..10_000).filter(|_| plan.drop_message()).count();
        assert!((2000..3000).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn stalls_add_the_configured_delay() {
        let plan = FaultPlan::new(5).with_stalls(1.0, 750.0);
        let d = plan.extra_delay_ms();
        assert!(d >= 750.0);
    }
}
