//! Host-clock benchmark for the scan → publish → query path.
//!
//! Four workloads, each a whole campaign sized so a different stage
//! dominates; every workload reports every end-to-end metric. The
//! program under test is reached only through the crates' public
//! functions. See `README.md` beside this crate for the protocol.
//!
//! ```text
//! ting-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                   one workload, one JSON line (the driver's form)
//! ting-benchmark run   [--seed n] [--quick]     all four, every end-to-end metric
//! ting-benchmark trace [--seed n]               all four, every per-layer metric
//! ```

mod gen;
mod host;
mod layers;
mod model;
mod rep;
mod span;
mod spec;
mod stats;

use rep::{Mode, RepResult};
use spec::{Agg, EndToEnd, Spec, END_TO_END, PER_LAYER, REP_SECONDS, RUN_DELAY_LIMIT, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seed the committed numbers were taken with; 7 is the held-out seed
/// nobody tunes on (both are recorded in `README.md`).
const REPORTING_SEED: u64 = 2015;

/// Repetitions per workload of `run`; `run --quick` makes one.
const RUN_REPS: usize = 5;

/// Exact values of the first committed run, one
/// `<seed> <workload> <key> <value>` per line, for the reporting and
/// the held-out seed. `run` prints its own in the same form and fails
/// on a difference: a later commit changed what the program computes,
/// not only how fast.
const RECORDED_EXACT: &str = include_str!("../exact.txt");

/// The benchmark's own directory: journals and the trace go under its
/// `out/`, never outside the checkout.
fn out_dir() -> PathBuf {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    PathBuf::from(root).join("out")
}

fn trace_path() -> PathBuf {
    out_dir().join("trace.jsonl")
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} wants a whole number, got {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn spec(&self, quick: bool) -> Result<Spec, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        let spec = spec::workload(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {known:?}")
        })?;
        Ok(if quick { spec.quick() } else { spec })
    }
}

// ── Child processes ─────────────────────────────────────────────────

/// `rep`: one repetition in this process; the result goes to stdout in
/// wire form, spans (when traced) are appended to the trace file.
fn child_rep(args: &Args) -> Result<(), String> {
    let spec = args.spec(args.flag("--quick"))?;
    let seed = args.number("--seed", REPORTING_SEED)?;
    let mode = args
        .value("--mode")
        .and_then(Mode::parse)
        .ok_or("--mode plain|traced|metrics")?;
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("creating {}: {e}", out_dir().display()))?;
    let (mut result, recorder) = rep::run(spec, seed, mode, &out_dir());
    if recorder.is_enabled() {
        for (name, unit_ns, key) in [
            ("core.doc_render", 1e6, "layer.core.doc_render_ms"),
            ("core.doc_parse", 1e6, "layer.core.doc_parse_ms"),
            ("core.idle_round", 1e3, "layer.core.idle_round_us"),
            (
                "oracle.journal_append",
                1e6,
                "layer.oracle.journal_append_ms",
            ),
            ("oracle.journal_mark", 1e6, "layer.oracle.journal_mark_ms"),
            (
                "oracle.journal_recover",
                1e6,
                "layer.oracle.journal_recover_ms",
            ),
            (
                "oracle.snapshot_build",
                1e6,
                "layer.oracle.snapshot_build_ms",
            ),
            ("oracle.swap", 1e3, "layer.oracle.swap_us"),
        ] {
            let durations = recorder.durations(name);
            if !durations.is_empty() {
                result
                    .values
                    .insert(key.to_owned(), stats::median(&durations) / unit_ns);
            }
        }
        for name in [
            "core.take_delta",
            "oracle.offer",
            "core.doc_render",
            "oracle.journal_append",
            "oracle.snapshot_build",
            "oracle.swap",
            "oracle.journal_mark",
        ] {
            let durations = recorder.durations(name);
            let mean_ms = durations.iter().sum::<f64>() / durations.len().max(1) as f64 / 1e6;
            result.values.insert(format!("tile.{name}"), mean_ms);
        }
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(trace_path())
            .and_then(|mut f| f.write_all(recorder.to_jsonl(spec.name).as_bytes()))
            .map_err(|e| format!("writing {}: {e}", trace_path().display()))?;
    }
    print!("{}", result.to_wire());
    Ok(())
}

/// `layers`: the fixture-based unit costs, as `v` lines.
fn child_layers() {
    let mut result = RepResult::default();
    for (name, value) in layers::unit_costs() {
        result.values.insert(format!("layer.{name}"), value);
    }
    print!("{}", result.to_wire());
}

fn spawn(subcommand: &str, args: &[String]) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let output = Command::new(exe)
        .arg(subcommand)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!("repetition exited with {}", output.status));
    }
    RepResult::from_wire(&String::from_utf8_lossy(&output.stdout))
}

/// One repetition in a fresh process, with the noise guard: a
/// repetition that spent more than [`RUN_DELAY_LIMIT`] of its wall time
/// runnable-but-not-running is re-run once, and says so.
fn repetition(
    spec: &Spec,
    seed: u64,
    mode: Mode,
    quick: bool,
    label: &str,
) -> Result<RepResult, String> {
    let mut args = vec![
        "--workload".to_owned(),
        spec.name.to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--mode".to_owned(),
        mode.tag().to_owned(),
    ];
    if quick {
        args.push("--quick".to_owned());
    }
    let filesystem = host::filesystem_of(&out_dir());
    let mut rerun = false;
    loop {
        let r = spawn("rep", &args)?;
        let get = |k: &str| r.values.get(k).copied().unwrap_or(f64::NAN);
        let (wall, delay) = (get("wall_s"), get("run_delay_s"));
        let noisy = delay > RUN_DELAY_LIMIT * wall;
        eprintln!(
            "# {label} {} {}: wall {wall:.3} s, on-cpu {:.3} s, run-delay {delay:.3} s ({:.1}%), journal on {filesystem}{}{}",
            spec.name,
            mode.tag(),
            get("cpu_s"),
            100.0 * delay / wall,
            if rerun { " [re-run]" } else { "" },
            if noisy { " [run-delay above limit]" } else { "" },
        );
        if !noisy || rerun {
            let mut r = r;
            r.values
                .insert("noise.rerun".to_owned(), f64::from(u8::from(rerun)));
            r.values
                .insert("noise.kept_noisy".to_owned(), f64::from(u8::from(noisy)));
            return Ok(r);
        }
        rerun = true;
    }
}

// ── Reduction ───────────────────────────────────────────────────────

/// All repetitions of one workload.
#[derive(Default)]
struct Outcome {
    reps: Vec<RepResult>,
    /// Misses found while reducing (a repetition's own are in `reps`).
    errors: Vec<String>,
}

/// One reduced end-to-end metric.
struct Reduced {
    value: f64,
    /// What `value` summarises: repetitions, or operations.
    n: usize,
    /// Min–max over repetitions of the same statistic taken on one
    /// repetition alone: what the host did to it.
    lo: f64,
    hi: f64,
    /// The percentile over all executions pooled, host noise included
    /// (what a user of this host saw); `None` for per-repetition values.
    observed: Option<f64>,
    /// Percentile with fewer than ten operations beyond it.
    thin: bool,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum::<u64>() + self.errors.len() as u64
    }

    fn all_errors(&self) -> Vec<String> {
        let per_rep = self
            .reps
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.errors.iter().map(move |e| format!("rep {i}: {e}")));
        per_rep.chain(self.errors.iter().cloned()).collect()
    }

    fn correct(&self) -> bool {
        !self.reps.is_empty() && self.failed() == 0
    }

    /// Demands that everything declared exact repeats byte for byte.
    fn check_exact(&mut self) {
        let Some(first) = self.reps.first() else {
            self.errors.push("no repetition completed".into());
            return;
        };
        for (i, r) in self.reps.iter().enumerate().skip(1) {
            for (k, v) in &first.exact {
                if r.exact.get(k) != Some(v) {
                    self.errors.push(format!(
                        "exact value {k} differs between repetitions: {v:?} then {:?} (rep {i})",
                        r.exact.get(k)
                    ));
                }
            }
        }
    }

    /// A percentile with fewer than ten operations beyond it is a miss:
    /// the workloads are sized so that this cannot happen.
    fn check_percentiles(&mut self) {
        for m in &END_TO_END {
            let r = self.reduce(m);
            if r.thin {
                self.errors.push(format!(
                    "{} rests on {} operations: fewer than ten lie beyond the percentile",
                    m.name, r.n
                ));
            }
        }
    }

    /// Flags a series whose length differs between repetitions:
    /// identical work must produce the same operations.
    fn check_series(&mut self) {
        let Some(first) = self.reps.first() else {
            return;
        };
        for (i, r) in self.reps.iter().enumerate().skip(1) {
            for (k, v) in &first.series {
                let len = r.series.get(k).map_or(0, Vec::len);
                if len != v.len() {
                    self.errors.push(format!(
                        "series {k} has {} operations in repetition 0 and {len} in repetition {i}",
                        v.len()
                    ));
                }
            }
        }
    }

    fn reduce(&self, m: &EndToEnd) -> Reduced {
        let better = |a: f64, b: f64| {
            if m.higher_is_better {
                a.max(b)
            } else {
                a.min(b)
            }
        };
        let worst = if m.higher_is_better {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        let (value, n, per_rep, observed) = match m.agg {
            Agg::Median | Agg::Best => {
                let v: Vec<f64> = self
                    .reps
                    .iter()
                    .filter_map(|r| r.values.get(m.name).copied())
                    .collect();
                let value = if m.agg == Agg::Best && !v.is_empty() {
                    v.iter().copied().fold(worst, better)
                } else {
                    stats::median(&v)
                };
                (value, v.len(), v, None)
            }
            Agg::Ops { series, .. } | Agg::OpsMean { series } => {
                let stat = |v: &mut [f64]| match m.agg {
                    Agg::Ops { q, .. } => stats::quantile(stats::sorted(v), q),
                    _ => v.iter().sum::<f64>() / v.len() as f64,
                };
                let of = |r: &RepResult| r.series.get(series).cloned().unwrap_or_default();
                let mut all: Vec<Vec<f64>> = self.reps.iter().map(of).collect();
                let ops = all.iter().map(Vec::len).min().unwrap_or(0);
                let mut best: Vec<f64> = (0..ops)
                    .map(|i| all.iter().map(|s| s[i]).fold(worst, better))
                    .collect();
                let per_rep: Vec<f64> = all.iter_mut().map(|s| stat(s)).collect();
                let mut pooled: Vec<f64> = all.into_iter().flatten().collect();
                (stat(&mut best), ops, per_rep, Some(stat(&mut pooled)))
            }
        };
        Reduced {
            value,
            n,
            lo: per_rep.iter().copied().fold(f64::INFINITY, f64::min),
            hi: per_rep.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            observed,
            thin: matches!(m.agg, Agg::Ops { q, .. } if !stats::supports(n, q)),
        }
    }
}

/// Runs `reps` plain repetitions of each spec, round-robin across the
/// specs so a slow phase of the host falls on all of them alike.
fn measure(specs: &[Spec], seed: u64, reps: usize, quick: bool) -> Result<Vec<Outcome>, String> {
    let mut outcomes: Vec<Outcome> = specs.iter().map(|_| Outcome::default()).collect();
    for r in 0..reps {
        for (spec, outcome) in specs.iter().zip(&mut outcomes) {
            outcome.reps.push(repetition(
                spec,
                seed,
                Mode::Plain,
                quick,
                &format!("rep {r}"),
            )?);
        }
    }
    for outcome in &mut outcomes {
        outcome.check_exact();
        outcome.check_series();
        if !quick {
            outcome.check_percentiles();
        }
    }
    Ok(outcomes)
}

fn print_end_to_end(spec: &Spec, outcome: &Outcome) {
    let count = |key: &str| {
        outcome
            .reps
            .iter()
            .filter(|r| r.values.get(key) == Some(&1.0))
            .count()
    };
    println!(
        "\n{} — {} repetitions ({} re-run for run-delay, {} kept above the limit), {} operations attempted, {} failed",
        spec.name,
        outcome.reps.len(),
        count("noise.rerun"),
        count("noise.kept_noisy"),
        outcome.attempted(),
        outcome.failed()
    );
    println!("  why: {}", spec.why);
    println!(
        "  {:<20} {:>16} {:<4} {:>10} {:>10}  {:>16}  one repetition alone",
        "metric", "value", "unit", "better", "over", "all pooled"
    );
    for m in &END_TO_END {
        let r = outcome.reduce(m);
        let over = match m.agg {
            Agg::Median | Agg::Best => format!("{} reps", r.n),
            Agg::Ops { .. } | Agg::OpsMean { .. } => format!("{} ops", r.n),
        };
        println!(
            "  {:<20} {:>16.6} {:<4} {:>6}{:>3.0}% {:>10}  {:>16}  {:.6} .. {:.6}{}{}",
            m.name,
            r.value,
            m.unit,
            if m.higher_is_better {
                "high ±"
            } else {
                "low ±"
            },
            100.0 * m.bound,
            over,
            r.observed
                .map_or_else(|| "-".to_owned(), |o| format!("{o:.6}")),
            r.lo,
            r.hi,
            if m.exact { "  (exact)" } else { "" },
            if r.thin {
                "  (fewer than 10 operations beyond this percentile)"
            } else {
                ""
            },
        );
    }
    for e in outcome.all_errors() {
        println!("  MISS {e}");
    }
}

/// The workload's exact values, in the form of [`RECORDED_EXACT`]: for
/// comparing two commits by eye or by `diff`.
fn exact_lines(seed: u64, spec: &Spec, outcome: &Outcome) -> Vec<String> {
    let first = outcome.reps.first();
    let exact = first.into_iter().flat_map(|r| &r.exact);
    exact
        .map(|(k, v)| format!("{seed} {} {k} {v}", spec.name))
        .collect()
}

/// Holds the exact values against the committed ones, where the first
/// run recorded this seed and workload.
fn check_recorded(seed: u64, spec: &Spec, outcome: &mut Outcome) {
    let prefix = format!("{seed} {} ", spec.name);
    let recorded: Vec<&str> = RECORDED_EXACT
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .collect();
    let now = exact_lines(seed, spec, outcome);
    if !recorded.is_empty() && recorded != now {
        outcome.errors.push(format!(
            "exact values differ from the first committed run (benchmark/exact.txt): recorded {recorded:?}"
        ));
    }
}

// ── The traced run ──────────────────────────────────────────────────

/// Per-layer metrics of one workload: a plain, a traced and a metrics
/// repetition plus the fixture unit costs.
struct Traced {
    layer: BTreeMap<String, f64>,
    outcome: Outcome,
    /// Input of the human-readable publish tile.
    traced: RepResult,
}

fn trace_workload(spec: &Spec, seed: u64, unit_costs: &RepResult) -> Result<Traced, String> {
    let plain = repetition(spec, seed, Mode::Plain, false, "untraced")?;
    let traced = repetition(spec, seed, Mode::Traced, false, "traced")?;
    let metrics = repetition(spec, seed, Mode::Metrics, false, "metrics")?;
    let metrics_again = repetition(spec, seed, Mode::Metrics, false, "metrics")?;
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    for source in [unit_costs, &traced, &metrics] {
        for (k, v) in &source.values {
            if let Some(name) = k.strip_prefix("layer.") {
                layer.insert(name.to_owned(), *v);
            }
        }
    }
    let series_median =
        |key: &str| stats::median(traced.series.get(key).map_or(&[][..], Vec::as_slice));
    layer.insert(
        "oracle.publish_unattributed_ms".into(),
        series_median("publish_unattributed_ms"),
    );
    layer.insert(
        "oracle.journal_bytes_per_publish".into(),
        series_median("journal_bytes"),
    );
    layer.insert(
        "obs.metrics_overhead_pct".into(),
        // `obs` is off in the untraced and the traced repetition alike,
        // so each side has two executions of every round to take the
        // better of.
        overhead_pct(
            &[&metrics, &metrics_again],
            &[&plain, &traced],
            &[("round_pairs_per_s", true)],
        ),
    );
    layer.insert(
        "benchmark.trace_overhead_pct".into(),
        overhead_pct(
            &[&traced],
            &[&plain],
            &[("round_pairs_per_s", true), ("publish_ms", false)],
        ),
    );

    let mut outcome = Outcome {
        reps: vec![plain, traced.clone(), metrics, metrics_again],
        errors: Vec::new(),
    };
    outcome.check_exact();
    outcome.check_series();
    for (name, _) in PER_LAYER {
        if !layer.get(name).is_some_and(|v| v.is_finite()) {
            outcome
                .errors
                .push(format!("per-layer metric {name} was not measured"));
        }
    }
    Ok(Traced {
        layer,
        outcome,
        traced,
    })
}

/// Median, over the operations of the named series, of how much longer
/// an operation took in `with` than in `without` (identical work), in
/// percent; each side counts an operation at the best of its
/// repetitions. Rate series are inverted into times first.
fn overhead_pct(with: &[&RepResult], without: &[&RepResult], series: &[(&str, bool)]) -> f64 {
    let ratios: Vec<f64> = series
        .iter()
        .flat_map(|&(name, is_rate)| {
            let best = |side: &[&RepResult]| -> Vec<f64> {
                let all: Vec<&Vec<f64>> = side.iter().filter_map(|r| r.series.get(name)).collect();
                let ops = all.iter().map(|s| s.len()).min().unwrap_or(0);
                (0..ops)
                    .map(|i| {
                        let times = all.iter().map(|s| if is_rate { 1.0 / s[i] } else { s[i] });
                        times.fold(f64::INFINITY, f64::min)
                    })
                    .collect()
            };
            best(with)
                .into_iter()
                .zip(best(without))
                .map(|(w, wo)| w / wo)
        })
        .collect();
    100.0 * (stats::median(&ratios) - 1.0)
}

fn start_trace_file() -> Result<(), String> {
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(trace_path(), ""))
        .map_err(|e| format!("creating {}: {e}", trace_path().display()))
}

fn print_per_layer(spec: &Spec, t: &Traced) {
    println!("\n{} — per-layer metrics (traced run)", spec.name);
    for (name, unit) in PER_LAYER {
        println!(
            "  {:<40} {:>16.4} {unit}",
            name,
            t.layer.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    let l = |name: &str| t.layer.get(name).copied().unwrap_or(f64::NAN);

    // Scan path: exact count per pair × measured unit cost ÷ pair wall.
    let pairs_per_s = END_TO_END
        .iter()
        .find(|m| m.name == "pairs_per_s")
        .expect("a metric of the table");
    let pair_us = 1e6 / t.outcome.reduce(pairs_per_s).value;
    let hops = l("tor-sim.circuits_per_pair");
    let cells = l("tor-sim.cells_per_pair");
    let rows = [
        (
            "onion-crypto: ntor handshakes",
            hops * (l("onion-crypto.ntor_client_us") + l("onion-crypto.ntor_server_us")),
        ),
        (
            "tor-protocol: relay cell crypto",
            cells * l("tor-protocol.relay_forward_ns") / 1e3,
        ),
        (
            "netsim: event dispatch",
            l("netsim.events_per_pair") * l("netsim.event_ns") / 1e3,
        ),
    ];
    println!("  scan path, {pair_us:.0} us of wall per pair:");
    let mut named = 0.0;
    for (what, us) in rows {
        named += us;
        println!(
            "    {what:<34} {us:>10.0} us  {:>5.1}%",
            100.0 * us / pair_us
        );
    }
    println!(
        "    {:<34} {:>10.0} us  {:>5.1}%",
        "unattributed (tor-sim, core, harness)",
        pair_us - named,
        100.0 * (1.0 - named / pair_us)
    );

    // Publish path: per-publish means of the traced repetition, which
    // tile exactly (the unattributed part is defined per publish as
    // tick − replayed children; the medians above need not add up).
    let mean = |key: &str| t.traced.values.get(key).copied().unwrap_or(0.0);
    let series_mean = |key: &str| {
        let v = t.traced.series.get(key).map_or(&[][..], Vec::as_slice);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let publish = series_mean("publish_ms");
    let journaled = spec.feed != spec::Feed::Scan;
    let rows = [
        ("oracle.offer", true),
        ("core.doc_render", true),
        ("oracle.journal_append", journaled),
        ("oracle.snapshot_build", true),
        ("oracle.swap", true),
        ("oracle.journal_mark", journaled),
    ];
    println!("  publish path, {publish:.3} ms mean per publish (traced repetition):");
    let mut tiled = series_mean("publish_unattributed_ms");
    if journaled {
        // Only the synthetic feed drains a supervisor.
        let ms = mean("tile.core.take_delta");
        tiled += ms;
        println!(
            "    {:<34} {ms:>10.3} ms  {:>5.1}%",
            "core.take_delta",
            100.0 * ms / publish
        );
    }
    for (name, in_tick) in rows {
        let ms = mean(&format!("tile.{name}"));
        if in_tick {
            tiled += ms;
            println!(
                "    {name:<34} {ms:>10.3} ms  {:>5.1}%",
                100.0 * ms / publish
            );
        } else {
            println!(
                "    {name:<34} {ms:>10.3} ms  (replayed; a volatile tick has no journal step)"
            );
        }
    }
    println!(
        "    {:<34} {:>10.3} ms  {:>5.1}%",
        "oracle: unattributed",
        series_mean("publish_unattributed_ms"),
        100.0 * series_mean("publish_unattributed_ms") / publish
    );
    println!(
        "    parts sum to {tiled:.3} ms = {:.1}% of the mean publish",
        100.0 * tiled / publish
    );
    for e in t.outcome.all_errors() {
        println!("  MISS {e}");
    }
}

// ── Output for the driver ───────────────────────────────────────────

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The driver's form: one workload, one JSON object as the last line
/// of stdout. Everything else goes to stderr.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let spec = args.spec(false)?;
    let seed = args.number("--seed", REPORTING_SEED)?;
    let seconds = args.number("--seconds", RUN_REPS as u64 * REP_SECONDS)?;
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let (mut outcome, metrics): (Outcome, Vec<(&str, f64, &str)>) = if traced {
        start_trace_file()?;
        let unit_costs = spawn("layers", &[])?;
        let t = trace_workload(&spec, seed, &unit_costs)?;
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, t.layer.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        (t.outcome, metrics)
    } else {
        let reps = (seconds / REP_SECONDS).max(1) as usize;
        let outcome = measure(&[spec], seed, reps, false)?
            .pop()
            .expect("one spec, one outcome");
        let metrics = END_TO_END
            .iter()
            .map(|m| (m.name, outcome.reduce(m).value, m.unit))
            .collect();
        (outcome, metrics)
    };
    check_recorded(seed, &spec, &mut outcome);
    for e in outcome.all_errors() {
        eprintln!("MISS {e}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite || outcome.attempted() == 0 {
        return Err(
            "nothing was attempted or a metric came out non-finite; nothing to report".into(),
        );
    }
    // The driver reads the last line only; the exact values go before
    // it, so two commits' outputs can be compared to the last digit.
    for line in exact_lines(seed, &spec, &outcome) {
        println!("exact {line}");
    }
    println!(
        "{}",
        json_line(
            outcome.correct(),
            outcome.attempted(),
            outcome.failed(),
            &metrics
        )
    );
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `run`: every workload, every end-to-end metric, non-zero exit on
/// any correctness miss.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed", REPORTING_SEED)?;
    let quick = args.flag("--quick");
    let reps = if quick { 1 } else { RUN_REPS };
    let specs: Vec<Spec> = WORKLOADS
        .iter()
        .map(|w| if quick { w.quick() } else { *w })
        .collect();
    println!("ting-benchmark run: seed {seed}, {reps} repetitions per workload, closed loop, one load thread, {} CPUs{}",
        std::thread::available_parallelism().map_or(0, usize::from),
        if quick { ", quick sizes (checks only; the numbers mean nothing)" } else { "" });
    let mut outcomes = measure(&specs, seed, reps, quick)?;
    for (spec, outcome) in specs.iter().zip(&mut outcomes) {
        if !quick {
            check_recorded(seed, spec, outcome);
        }
        print_end_to_end(spec, outcome);
    }
    println!("\nexact values (seed, workload, key, value; compare with benchmark/exact.txt):");
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        for line in exact_lines(seed, spec, outcome) {
            println!("{line}");
        }
    }
    let ok = outcomes.iter().all(Outcome::correct);
    println!(
        "\n{}",
        if ok {
            "all correctness checks passed"
        } else {
            "CORRECTNESS CHECKS FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace`: every workload's per-layer metrics and attribution tables;
/// spans land in `out/trace.jsonl`.
fn trace_all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("--seed", REPORTING_SEED)?;
    start_trace_file()?;
    let unit_costs = spawn("layers", &[])?;
    let mut ok = true;
    for spec in &WORKLOADS {
        let t = trace_workload(spec, seed, &unit_costs)?;
        print_per_layer(spec, &t);
        ok &= t.outcome.correct();
    }
    println!("\nspans written to {}", trace_path().display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let subcommand = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let result = match subcommand.as_str() {
        "" => driver(&args),
        "run" => run_all(&args),
        "trace" => trace_all(&args),
        "rep" => child_rep(&args).map(|()| ExitCode::SUCCESS),
        "layers" => {
            child_layers();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown subcommand {other:?}; see benchmark/README.md"
        )),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ting-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let line = json_line(true, 10, 0, &[("a_b", 1.25, "ms"), ("c", 3.0, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 3, \"unit\": \"1/s\"}}}"
        );
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a metric of the table")
    }

    fn rep_with(series: &str, values: Vec<f64>) -> RepResult {
        let mut r = RepResult::default();
        r.series.insert(series.into(), values);
        r
    }

    #[test]
    fn each_operation_counts_at_its_best_execution() {
        // Operation i costs i ms; each repetition is slowed on a
        // different half. The reduction must see through both.
        let clean: Vec<f64> = (1..=30).map(f64::from).collect();
        let slowed = |from: usize, to: usize| {
            let mut v = clean.clone();
            v[from..to].iter_mut().for_each(|x| *x *= 1.5);
            v
        };
        let outcome = Outcome {
            reps: vec![
                rep_with("publish_ms", slowed(0, 15)),
                rep_with("publish_ms", slowed(15, 30)),
            ],
            errors: Vec::new(),
        };
        let p50 = outcome.reduce(metric("publish_ms_p50"));
        assert_eq!((p50.value, p50.n, p50.thin), (15.5, 30, false));
        assert!(
            p50.lo > 15.5 && p50.hi > 15.5,
            "either repetition alone reads high"
        );
        assert!(
            p50.observed.unwrap() > 15.5,
            "so does the pooled percentile"
        );
        // The mean sees through the slowed halves too: (1 + … + 30) / 30.
        let mean = outcome.reduce(metric("publish_ms_mean"));
        assert_eq!((mean.value, mean.n, mean.thin), (15.5, 30, false));
    }

    #[test]
    fn a_percentile_without_ten_operations_beyond_it_is_a_miss() {
        let groups: Vec<f64> = (1..=30).map(f64::from).collect();
        let mut outcome = Outcome {
            reps: vec![rep_with("knn_us", groups)],
            errors: Vec::new(),
        };
        assert!(!outcome.reduce(metric("knn_us_p50")).thin);
        assert!(
            outcome.reduce(metric("knn_us_p90")).thin,
            "30 operations leave only 3 beyond p90"
        );
        outcome.check_percentiles();
        // The other series are empty here, so their percentiles miss too.
        assert!(outcome.errors.iter().any(|e| e.starts_with("knn_us_p90 ")));
        assert!(!outcome.errors.iter().any(|e| e.starts_with("knn_us_p50 ")));
        assert!(!outcome.correct());
    }

    #[test]
    fn rates_take_the_highest_execution_and_setup_the_lowest() {
        let outcome = Outcome {
            reps: vec![
                rep_with("round_pairs_per_s", vec![100.0, 150.0, 90.0]),
                rep_with("round_pairs_per_s", vec![140.0, 100.0, 95.0]),
            ],
            errors: Vec::new(),
        };
        assert_eq!(outcome.reduce(metric("pairs_per_s")).value, 140.0);
        let mut reps = vec![
            RepResult::default(),
            RepResult::default(),
            RepResult::default(),
        ];
        for (r, s) in reps.iter_mut().zip([0.31, 0.29, 0.40]) {
            r.values.insert("setup_s".into(), s);
            r.values.insert("recover_ms_best".into(), s * 10.0);
            r.values.insert("peak_rss_mb".into(), s * 100.0);
        }
        let outcome = Outcome {
            reps,
            errors: Vec::new(),
        };
        assert_eq!(outcome.reduce(metric("setup_s")).value, 0.29);
        assert_eq!(outcome.reduce(metric("recover_ms_best")).value, 2.9);
        assert_eq!(outcome.reduce(metric("peak_rss_mb")).value, 31.0);
    }

    #[test]
    fn series_of_unequal_length_are_a_miss() {
        let mut outcome = Outcome {
            reps: vec![
                rep_with("knn_us", vec![1.0, 2.0]),
                rep_with("knn_us", vec![1.0]),
            ],
            errors: Vec::new(),
        };
        outcome.check_series();
        assert_eq!(outcome.errors.len(), 1);
    }

    #[test]
    fn exact_values_are_held_against_the_recorded_run() {
        let spec = spec::workload("scan_probe").expect("a workload of the table");
        let mut rep = RepResult {
            attempted: 1,
            ..RepResult::default()
        };
        for line in RECORDED_EXACT.lines() {
            if let Some((k, v)) = line
                .strip_prefix("2015 scan_probe ")
                .and_then(|rest| rest.split_once(' '))
            {
                rep.exact.insert(k.into(), v.into());
            }
        }
        assert!(
            !rep.exact.is_empty(),
            "exact.txt records the reporting seed"
        );
        let outcome_of = |rep: &RepResult| Outcome {
            reps: vec![rep.clone()],
            errors: Vec::new(),
        };
        let mut same = outcome_of(&rep);
        check_recorded(2015, &spec, &mut same);
        assert!(same.correct());
        rep.exact.insert("scan.virtual_ns".into(), "1".into());
        let mut changed = outcome_of(&rep);
        check_recorded(2015, &spec, &mut changed);
        assert!(!changed.correct());
        let mut unrecorded_seed = outcome_of(&rep);
        check_recorded(3, &spec, &mut unrecorded_seed);
        assert!(unrecorded_seed.correct());
    }

    #[test]
    fn exact_values_must_repeat() {
        let rep = |crc: &str| {
            let mut r = RepResult::default();
            r.exact.insert("publish.document".into(), crc.into());
            r.attempted = 1;
            r
        };
        let mut same = Outcome {
            reps: vec![rep("aa"), rep("aa")],
            errors: Vec::new(),
        };
        same.check_exact();
        assert!(same.correct());
        let mut differs = Outcome {
            reps: vec![rep("aa"), rep("ab")],
            errors: Vec::new(),
        };
        differs.check_exact();
        assert!(!differs.correct());
        assert_eq!(differs.failed(), 1);
    }
}
