//! Live SLO engine: windowed good/bad aggregation and burn-rate
//! breach detection in virtual time.
//!
//! A service-level objective here is a declarative [`SloSpec`]: a
//! name, an objective (the target fraction of *good* observations, in
//! parts-per-million), and a burn threshold (how fast the error
//! budget may be consumed before the SLO counts as breached, in
//! milli-multiples of the budget). The engine keeps one fixed ring of
//! virtual-time buckets per SLO ([`WindowSpec`]): each observation is
//! a `(good, bad)` increment at an instant, buckets older than the
//! window fall off as time advances, and [`SloEngine::evaluate`]
//! turns the windowed totals into a breach verdict.
//!
//! The burn-rate math is pure integer arithmetic so evaluation is
//! deterministic and the config types stay `Copy + Eq`. With
//! `objective_ppm` the target and `budget_ppm = 1_000_000 −
//! objective_ppm` the error budget, the window is breaching iff
//!
//! ```text
//! total > 0  and  bad · 1_000_000 · 1000 ≥ total · budget_ppm · burn_threshold_milli
//! ```
//!
//! i.e. the observed bad fraction is at least `burn_threshold_milli /
//! 1000` times the budget. A zero budget (objective 100%) breaches on
//! any bad observation; an empty window never breaches (no data is
//! not a violation — staleness of the *data* is its own SLO).
//!
//! Breach transitions are emitted as the registered
//! [`names::SLO_BREACH_BEGIN`]/[`names::SLO_BREACH_END`] span pair
//! with the SLO's name in a `slo` string field, and the windowed
//! totals are published as `slo.{name}.{good,bad,burn_milli}` gauges —
//! both deterministic under seed + config hash like everything else
//! in this crate.

use crate::{names, Obs, SpanId, Value};

/// Well-known SLO names used by the serving pipeline. The engine
/// itself is name-agnostic; these constants just keep the write side
/// (`oracle::pipeline`) and the read side (`ting-prof slo`) agreeing.
pub const SLO_COVERAGE: &str = "coverage";
pub const SLO_SHARD_PROGRESS: &str = "shard_progress";
pub const SLO_PUBLISH_LATENCY: &str = "publish_latency";
pub const SLO_STALENESS: &str = "staleness";

/// The shared window geometry: `buckets` ring slots of `bucket_ns`
/// virtual nanoseconds each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Width of one ring bucket in virtual nanoseconds (min 1).
    pub bucket_ns: u64,
    /// Number of ring buckets (min 1); the window spans
    /// `bucket_ns * buckets` nanoseconds.
    pub buckets: u32,
}

/// One declarative service-level objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloSpec {
    /// Name carried in the `slo` field of breach events and in the
    /// `slo.{name}.*` gauge family.
    pub name: &'static str,
    /// Target good fraction in parts-per-million (999_000 = 99.9%).
    /// The error budget is `1_000_000 - objective_ppm`.
    pub objective_ppm: u32,
    /// Burn-rate threshold in milli-multiples of the budget: 1000
    /// breaches exactly when the bad fraction reaches the budget,
    /// 2000 only at twice the budget, 500 at half of it.
    pub burn_threshold_milli: u32,
}

/// Windowed totals for one SLO at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTotals {
    pub good: u64,
    pub bad: u64,
    /// Burn rate in milli-multiples of the error budget, saturating;
    /// 0 when the window is empty.
    pub burn_milli: u64,
    pub breaching: bool,
}

#[derive(Debug)]
struct Window {
    spec: SloSpec,
    /// `(good, bad)` per ring slot, indexed by absolute bucket number
    /// modulo ring length.
    ring: Vec<(u64, u64)>,
    /// Absolute bucket number of the newest slot.
    head: u64,
    /// Open breach span, when the SLO is currently breaching.
    breach: Option<SpanId>,
}

impl Window {
    /// Moves the ring head forward to absolute bucket `abs`, zeroing
    /// every slot that rotates in. Time never moves backwards here;
    /// late observations fold into the oldest retained bucket instead.
    fn advance(&mut self, abs: u64) {
        if abs <= self.head {
            return;
        }
        let len = self.ring.len() as u64;
        let steps = (abs - self.head).min(len);
        for i in 1..=steps {
            let idx = ((self.head + i) % len) as usize;
            self.ring[idx] = (0, 0);
        }
        self.head = abs;
    }

    fn add(&mut self, abs: u64, good: u64, bad: u64) {
        self.advance(abs);
        let len = self.ring.len() as u64;
        let oldest = self.head.saturating_sub(len - 1);
        let slot = abs.max(oldest);
        let entry = &mut self.ring[(slot % len) as usize];
        entry.0 += good;
        entry.1 += bad;
    }

    fn totals(&self) -> (u64, u64) {
        self.ring
            .iter()
            .fold((0, 0), |(g, b), (wg, wb)| (g + wg, b + wb))
    }

    /// The integer burn-rate predicate from the module docs.
    fn breaching(&self, good: u64, bad: u64) -> bool {
        let total = good + bad;
        if total == 0 {
            return false;
        }
        let budget_ppm = 1_000_000 - u64::from(self.spec.objective_ppm.min(1_000_000));
        if budget_ppm == 0 {
            return bad > 0;
        }
        (bad as u128) * 1_000_000 * 1000
            >= (total as u128) * (budget_ppm as u128) * u128::from(self.spec.burn_threshold_milli)
    }

    /// Burn rate in milli-budgets, for the gauge: `(bad/total) /
    /// (budget_ppm/1e6) * 1000`, saturating at `u64::MAX`.
    fn burn_milli(&self, good: u64, bad: u64) -> u64 {
        let total = good + bad;
        if total == 0 || bad == 0 {
            return 0;
        }
        let budget_ppm = 1_000_000 - u64::from(self.spec.objective_ppm.min(1_000_000));
        if budget_ppm == 0 {
            return u64::MAX;
        }
        let num = (bad as u128) * 1_000_000 * 1000;
        let den = (total as u128) * (budget_ppm as u128);
        u64::try_from(num / den).unwrap_or(u64::MAX)
    }
}

/// The engine: a set of SLO windows sharing one geometry, fed by the
/// write path and evaluated once per pipeline tick.
#[derive(Debug)]
pub struct SloEngine {
    obs: Obs,
    bucket_ns: u64,
    windows: Vec<Window>,
}

impl SloEngine {
    pub fn new(obs: Obs, window: WindowSpec, specs: &[SloSpec]) -> SloEngine {
        SloEngine {
            obs,
            bucket_ns: window.bucket_ns.max(1),
            windows: specs
                .iter()
                .map(|spec| Window {
                    spec: *spec,
                    ring: vec![(0, 0); window.buckets.max(1) as usize],
                    head: 0,
                    breach: None,
                })
                .collect(),
        }
    }

    fn bucket(&self, t_ns: u64) -> u64 {
        t_ns / self.bucket_ns
    }

    /// Records `good`/`bad` observations for the named SLO at virtual
    /// instant `t_ns`. Unknown names are ignored (the write side may
    /// feed more signals than a given config tracks).
    pub fn observe(&mut self, name: &str, t_ns: u64, good: u64, bad: u64) {
        if good == 0 && bad == 0 {
            return;
        }
        let abs = self.bucket(t_ns);
        if let Some(w) = self.windows.iter_mut().find(|w| w.spec.name == name) {
            w.add(abs, good, bad);
        }
    }

    /// Advances every window to `t_ns`, refreshes the `slo.{name}.*`
    /// gauges, and emits a breach begin/end transition for every SLO
    /// whose verdict changed.
    pub fn evaluate(&mut self, t_ns: u64) {
        let abs = self.bucket(t_ns);
        for w in &mut self.windows {
            w.advance(abs);
            let (good, bad) = w.totals();
            let burn = w.burn_milli(good, bad);
            let name = w.spec.name;
            self.obs.set_gauge(
                &format!("slo.{name}.good"),
                i64::try_from(good).unwrap_or(i64::MAX),
            );
            self.obs.set_gauge(
                &format!("slo.{name}.bad"),
                i64::try_from(bad).unwrap_or(i64::MAX),
            );
            self.obs.set_gauge(
                &format!("slo.{name}.burn_milli"),
                i64::try_from(burn).unwrap_or(i64::MAX),
            );
            let fields = || {
                vec![
                    ("slo", Value::Str(name.to_owned())),
                    ("good", Value::U64(good)),
                    ("bad", Value::U64(bad)),
                    ("burn_milli", Value::U64(burn)),
                ]
            };
            match (w.breaching(good, bad), w.breach) {
                (true, None) => {
                    w.breach = Some(self.obs.span_begin(names::SLO_BREACH_BEGIN, t_ns, fields));
                }
                (false, Some(span)) => {
                    self.obs.span_end(names::SLO_BREACH_END, span, t_ns, fields);
                    w.breach = None;
                }
                _ => {}
            }
        }
    }

    /// The windowed totals and verdict for one SLO, as of the last
    /// `observe`/`evaluate` advance. `None` for unknown names.
    pub fn totals(&self, name: &str) -> Option<SloTotals> {
        self.windows.iter().find(|w| w.spec.name == name).map(|w| {
            let (good, bad) = w.totals();
            SloTotals {
                good,
                bad,
                burn_milli: w.burn_milli(good, bad),
                breaching: w.breach.is_some(),
            }
        })
    }

    /// True when the named SLO's last evaluation found it breaching.
    #[cfg(test)]
    fn is_breaching(&self, name: &str) -> bool {
        self.windows
            .iter()
            .any(|w| w.spec.name == name && w.breach.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsConfig;

    fn engine(objective_ppm: u32, burn_threshold_milli: u32) -> (SloEngine, Obs) {
        let obs = Obs::new(ObsConfig::Trace);
        let eng = SloEngine::new(
            obs.clone(),
            WindowSpec {
                bucket_ns: 100,
                buckets: 4,
            },
            &[SloSpec {
                name: "t",
                objective_ppm,
                burn_threshold_milli,
            }],
        );
        (eng, obs)
    }

    #[test]
    fn empty_window_never_breaches() {
        let (mut eng, obs) = engine(999_000, 1000);
        eng.evaluate(0);
        eng.evaluate(5_000);
        assert!(!eng.is_breaching("t"));
        assert!(obs.events().is_empty());
    }

    #[test]
    fn breach_begins_and_ends_as_the_window_slides() {
        // Objective 99% → budget 10_000 ppm; threshold 1000 → breach
        // at a 1% bad fraction.
        let (mut eng, obs) = engine(990_000, 1000);
        eng.observe("t", 50, 99, 1); // exactly 1% bad
        eng.evaluate(50);
        assert!(eng.is_breaching("t"));
        // Window is 4 buckets × 100ns; by t=450 the bad bucket fell off.
        eng.observe("t", 420, 10, 0);
        eng.evaluate(450);
        assert!(!eng.is_breaching("t"));
        let names: Vec<&str> = obs.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["slo.breach.begin", "slo.breach.end"]);
        let begin = &obs.events()[0];
        assert!(begin
            .fields
            .contains(&(("slo"), Value::Str("t".to_owned()))));
    }

    #[test]
    fn zero_budget_breaches_on_any_bad() {
        let (mut eng, _obs) = engine(1_000_000, 1000);
        eng.observe("t", 10, 1_000, 0);
        eng.evaluate(10);
        assert!(!eng.is_breaching("t"));
        eng.observe("t", 20, 0, 1);
        eng.evaluate(20);
        assert!(eng.is_breaching("t"));
        assert_eq!(eng.totals("t").unwrap().burn_milli, u64::MAX);
    }

    #[test]
    fn threshold_scales_the_budget() {
        // 2% bad against a 1% budget: burn 2000 milli. Threshold 3000
        // tolerates it; threshold 2000 does not.
        let (mut tolerant, _) = engine(990_000, 3000);
        tolerant.observe("t", 10, 98, 2);
        tolerant.evaluate(10);
        assert!(!tolerant.is_breaching("t"));
        assert_eq!(tolerant.totals("t").unwrap().burn_milli, 2000);

        let (mut strict, _) = engine(990_000, 2000);
        strict.observe("t", 10, 98, 2);
        strict.evaluate(10);
        assert!(strict.is_breaching("t"));
    }

    #[test]
    fn late_observations_fold_into_the_oldest_bucket() {
        let (mut eng, _) = engine(990_000, 1000);
        eng.evaluate(1_000); // head at bucket 10
        eng.observe("t", 0, 0, 5); // far in the past → oldest slot
        let t = eng.totals("t").unwrap();
        assert_eq!((t.good, t.bad), (0, 5));
        // The late entries expire with the oldest bucket, one step on.
        eng.evaluate(1_100);
        let t = eng.totals("t").unwrap();
        assert_eq!((t.good, t.bad), (0, 0));
    }

    #[test]
    fn gauges_track_windowed_totals() {
        let (mut eng, obs) = engine(990_000, 1000);
        eng.observe("t", 10, 7, 3);
        eng.evaluate(10);
        let doc = obs.document(&crate::ExportMeta {
            seed: 1,
            config_hash: crate::config_hash("slo-test"),
        });
        let gauges: Vec<(String, i64)> = doc.gauges;
        assert!(gauges.contains(&("slo.t.good".to_owned(), 7)));
        assert!(gauges.contains(&("slo.t.bad".to_owned(), 3)));
    }

    #[test]
    fn transition_sequence_is_deterministic() {
        let run = || {
            let (mut eng, obs) = engine(990_000, 1000);
            for i in 0..20u64 {
                let bad = u64::from(i % 7 == 0);
                eng.observe("t", i * 60, 9, bad);
                eng.evaluate(i * 60);
            }
            obs.events()
        };
        assert_eq!(run(), run());
    }
}
