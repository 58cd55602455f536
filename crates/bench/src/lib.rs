//! Shared machinery for the figure-regeneration binaries.
//!
//! Each `src/bin/figNN_*.rs` binary regenerates the data series behind
//! one figure of the paper, printing gnuplot-friendly columns plus a
//! summary comparing against the paper's reported numbers. Binaries
//! share the scenario builders, the pair-measurement loop, and a TSV
//! dataset cache (under `target/figdata/`) so related figures (3/4/7,
//! 11–17) don't re-measure the same networks.
//!
//! Every binary accepts environment-variable overrides so a quick smoke
//! run is possible without touching the paper-scale defaults; a value
//! that does not parse is an error (exit 2), not the default:
//!
//! | var              | meaning                             |
//! |------------------|-------------------------------------|
//! | `TING_SEED`      | scenario seed (default 2015)        |
//! | `TING_SAMPLES`   | Ting samples per circuit            |
//! | `TING_PAIRS`     | number of pairs to measure          |
//! | `TING_RELAYS`    | live-network relay population       |
//! | `TING_HOURS`     | duration of longitudinal runs       |
//! | `TING_RUNS`      | Monte-Carlo runs per configuration  |
//! | `TING_REPS`      | timed repetitions (`obs_overhead`)  |

// The workspace's one `unsafe` block is `onion-crypto`'s SHA-256 hardware
// kernel; nothing here may add a second.
#![forbid(unsafe_code)]

pub mod storm;

use netsim::{NodeId, SimDuration, SimTime};
use ting::{RttMatrix, Ting, TingConfig, TingMeasurement};
use tor_sim::{TorNetwork, TorNetworkBuilder};

/// Reads an integer environment override. A value that is set but does
/// not parse exits the process, naming the variable and the value: a
/// mistyped override must not run the experiment at its default.
pub fn env_usize(name: &str, default: usize) -> usize {
    env_u64(name, default as u64) as usize
}

/// [`env_usize`] for a `u64`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    let set = std::env::var(name);
    set.map_or(default, |value| parse_override(&format!("{name}="), &value))
}

/// Parses an override's value; one that does not parse exits 2 naming
/// where it was set (`VAR=` or `--flag `) and what it was.
pub(crate) fn parse_override(set_by: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{set_by}{value:?} is not a non-negative integer");
        std::process::exit(2)
    })
}

/// The scenario seed shared by every figure unless overridden.
pub fn seed() -> u64 {
    env_u64("TING_SEED", 2015)
}

/// The figdata cache directory (created on demand).
pub fn figdata_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("target/figdata");
    std::fs::create_dir_all(&dir).expect("create target/figdata");
    dir
}

/// One accuracy observation: a pair's Ting estimate vs its ping ground
/// truth (the Figs. 3/4/7 dataset).
#[derive(Debug, Clone, Copy)]
pub struct AccuracyPoint {
    pub estimate_ms: f64,
    pub truth_ms: f64,
}

impl AccuracyPoint {
    /// `Measured / Real`, the x-axis of Figs. 3, 4, 7.
    pub fn ratio(&self) -> f64 {
        self.estimate_ms / self.truth_ms
    }
}

/// Measures `pairs` with Ting (at `samples` per circuit) against
/// min-of-100-ping ground truth on the §4.1 testbed.
pub fn testbed_accuracy_dataset(samples: usize, pairs_limit: usize) -> Vec<AccuracyPoint> {
    let seed = seed();
    let cache = figdata_dir().join(format!("accuracy_s{seed}_k{samples}_p{pairs_limit}.tsv"));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        let pts: Vec<AccuracyPoint> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let mut f = l.split('\t');
                Some(AccuracyPoint {
                    estimate_ms: f.next()?.parse().ok()?,
                    truth_ms: f.next()?.parse().ok()?,
                })
            })
            .collect();
        if !pts.is_empty() {
            eprintln!("[bench] loaded cached accuracy dataset {}", cache.display());
            return pts;
        }
    }
    let probe = TorNetworkBuilder::testbed(seed).build();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    // The paper's "930 pairs" are the ordered pairs of 31 relays; Ting
    // (x, y) and (y, x) build different circuits, so both are measured.
    for &a in &probe.relays {
        for &b in &probe.relays {
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    pairs.truncate(pairs_limit);

    let results = measure_pairs(
        TorNetworkBuilder::testbed(seed).build(),
        &pairs,
        TingConfig::with_samples(samples),
    );
    let pts: Vec<AccuracyPoint> = results
        .into_iter()
        .map(|(truth, m)| AccuracyPoint {
            estimate_ms: m.estimate_ms(),
            truth_ms: truth,
        })
        .collect();
    let mut out = String::from("# estimate_ms\ttruth_ms\n");
    for p in &pts {
        out.push_str(&format!("{:.6}\t{:.6}\n", p.estimate_ms, p.truth_ms));
    }
    std::fs::write(&cache, out).expect("write accuracy cache");
    pts
}

/// Measures `pairs` one after another on `net`, freshly built by the
/// caller: in input order, `(ping ground truth, measurement)` per pair.
/// One network, one RNG stream — the dataset depends on the seed and
/// nothing else about the host.
fn measure_pairs(
    mut net: TorNetwork,
    pairs: &[(NodeId, NodeId)],
    config: TingConfig,
) -> Vec<(f64, TingMeasurement)> {
    let ting = Ting::new(config);
    let measure = |&(x, y): &(NodeId, NodeId)| {
        let truth = net.ping_min_rtt_ms(x, y, 100);
        let m = ting.measure_pair(&mut net, x, y).expect("pair measured");
        (truth, m)
    };
    pairs.iter().map(measure).collect()
}

/// Builds (or loads from the figdata cache) the §5 live-network
/// all-pairs matrix: `n` relays measured with `samples`-sample Ting.
/// The cache key includes every parameter, so changing an env override
/// re-measures.
pub fn live_matrix(n: usize, samples: usize) -> (TorNetwork, RttMatrix) {
    let seed = seed();
    let net = TorNetworkBuilder::live(seed, (n * 3).max(n + 10)).build();
    let nodes: Vec<NodeId> = net.relays.iter().copied().take(n).collect();
    let cache = figdata_dir().join(format!("matrix_s{seed}_n{n}_k{samples}.tsv"));
    if let Ok(text) = std::fs::read_to_string(&cache) {
        if let Ok(m) = RttMatrix::from_tsv(&text) {
            if m.nodes() == nodes.as_slice() && m.is_complete() {
                eprintln!("[bench] loaded cached matrix {}", cache.display());
                return (net, m);
            }
        }
    }

    let mut pair_list: Vec<(NodeId, NodeId)> = Vec::new();
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            pair_list.push((nodes[i], nodes[j]));
        }
    }
    eprintln!(
        "[bench] measuring {} pairs ({} samples/circuit)...",
        pair_list.len(),
        samples
    );
    let fresh = TorNetworkBuilder::live(seed, (n * 3).max(n + 10)).build();
    let results = measure_pairs(fresh, &pair_list, TingConfig::with_samples(samples));
    let mut matrix = RttMatrix::new(nodes);
    for ((a, b), (_, m)) in pair_list.iter().zip(results) {
        matrix.set(*a, *b, m.estimate_ms());
    }
    std::fs::write(&cache, matrix.to_tsv()).expect("write matrix cache");
    eprintln!("[bench] cached matrix at {}", cache.display());
    (net, matrix)
}

/// Prints a CDF as `x  F(x)` rows, downsampled to at most `max_rows`.
pub fn print_cdf(title: &str, values: &[f64], max_rows: usize) {
    let cdf = stats::EmpiricalCdf::new(values);
    println!("# {title}");
    println!("# x\tcdf");
    let pts = cdf.points();
    let step = (pts.len() / max_rows).max(1);
    for (i, (x, f)) in pts.iter().enumerate() {
        if i % step == 0 || i == pts.len() - 1 {
            println!("{x:.4}\t{f:.4}");
        }
    }
}

/// Advances a network's virtual clock to the given hour-of-run.
pub fn advance_to_hour(net: &mut TorNetwork, hour: u64) {
    net.sim
        .advance_to(SimTime::ZERO + SimDuration::from_hours(hour));
}
