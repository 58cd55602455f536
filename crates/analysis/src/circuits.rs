//! Longer circuits (§5.2.2, Figs. 16–17).
//!
//! For each circuit length ℓ ∈ 3..=10 the paper samples 10,000 random
//! ℓ-relay circuits from its 50-node matrix, bins their internal RTTs
//! into 50 ms buckets, and scales sampled counts up to the full
//! population `C(50, ℓ)` (Fig. 16). Fig. 17 then asks how *diverse* the
//! circuits in each (length, RTT-bin) class are: the median, over nodes,
//! of the probability that a node appears on a circuit in that class.

use netsim::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use stats::BinLayout;
use ting::RttMatrix;

/// Per-length binned series.
#[derive(Debug, Clone)]
pub struct LengthBinSeries {
    pub length: usize,
    /// Scaled estimate of circuits per RTT bin (Fig. 16's y-axis).
    pub scaled_counts: Vec<f64>,
    /// Median node-selection probability per bin (Fig. 17's y-axis);
    /// `None` for empty bins.
    pub median_node_prob: Vec<Option<f64>>,
    /// Bin centers in seconds.
    pub bin_centers_s: Vec<f64>,
}

/// The §5.2.2 analysis.
#[derive(Debug, Clone)]
pub struct CircuitLengthAnalysis {
    pub series: Vec<LengthBinSeries>,
    pub samples_per_length: usize,
}

/// `C(n, k)` as f64 (the paper's scaling factor).
pub fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut acc = 1.0f64;
    for i in 0..k {
        acc *= (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

impl CircuitLengthAnalysis {
    /// Runs the analysis over `matrix` for `lengths`, sampling
    /// `samples_per_length` circuits each. Bins span `[0, max_s)`
    /// seconds at 50 ms per bin, as in the paper.
    pub fn run<R: Rng + ?Sized>(
        matrix: &RttMatrix,
        lengths: impl IntoIterator<Item = usize>,
        samples_per_length: usize,
        max_s: f64,
        rng: &mut R,
    ) -> CircuitLengthAnalysis {
        assert!(matrix.is_complete(), "analysis needs all pairs");
        let nodes: Vec<NodeId> = matrix.nodes().to_vec();
        let n = nodes.len();
        let mut series = Vec::new();

        for length in lengths {
            assert!(length >= 2 && length <= n, "bad length {length}");
            let layout = BinLayout::with_bin_width(0.0, max_s, 0.05);
            let bins = layout.bins();
            let mut counts = vec![0u64; bins];
            // node_hits[bin][node index] = sampled circuits in this bin
            // containing the node.
            let mut node_hits = vec![vec![0u64; n]; bins];

            let mut pick_buf: Vec<usize> = (0..n).collect();
            for _ in 0..samples_per_length {
                // Random distinct relay sequence of `length` nodes.
                pick_buf.shuffle(rng);
                let circuit = &pick_buf[..length];
                let mut rtt_ms = 0.0;
                for w in circuit.windows(2) {
                    rtt_ms += matrix.get(nodes[w[0]], nodes[w[1]]).expect("complete");
                }
                let bin = layout.bin_of(rtt_ms / 1000.0);
                counts[bin] += 1;
                for &idx in circuit {
                    node_hits[bin][idx] += 1;
                }
            }

            // Scale sampled counts to the C(n, ℓ) population (Fig. 16).
            let population = choose(n, length);
            let scale = population / samples_per_length as f64;
            let scaled_counts: Vec<f64> = counts.iter().map(|&c| c as f64 * scale).collect();

            // Fig. 17: median over nodes of P(node on circuit | bin).
            let median_node_prob: Vec<Option<f64>> = (0..bins)
                .map(|b| {
                    if counts[b] == 0 {
                        return None;
                    }
                    let probs: Vec<f64> = (0..n)
                        .map(|i| node_hits[b][i] as f64 / counts[b] as f64)
                        .collect();
                    stats::median(&probs)
                })
                .collect();

            let bin_centers_s = (0..bins).map(|b| layout.bin_center(b)).collect();
            series.push(LengthBinSeries {
                length,
                scaled_counts,
                median_node_prob,
                bin_centers_s,
            });
        }

        CircuitLengthAnalysis {
            series,
            samples_per_length,
        }
    }

    /// Total scaled circuits with RTT inside `[lo_s, hi_s)` for one
    /// length — the paper's "order of magnitude more 4-hop circuits in
    /// 200–300 ms" comparison.
    pub fn circuits_in_range(&self, length: usize, lo_s: f64, hi_s: f64) -> f64 {
        let Some(s) = self.series.iter().find(|s| s.length == length) else {
            return 0.0;
        };
        s.bin_centers_s
            .iter()
            .zip(&s.scaled_counts)
            .filter(|(&c, _)| c >= lo_s && c < hi_s)
            .map(|(_, &v)| v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_matrix(n: u32, seed: u64) -> RttMatrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for i in 0..n as usize {
            for j in (i + 1)..n as usize {
                m.set(nodes[i], nodes[j], rng.gen_range(10.0..300.0));
            }
        }
        m
    }

    #[test]
    fn choose_matches_known_values() {
        assert_eq!(choose(50, 3), 19_600.0);
        assert_eq!(choose(5, 5), 1.0);
        assert_eq!(choose(5, 6), 0.0);
        assert!((choose(50, 10) - 1.0272278170e10).abs() / choose(50, 10) < 1e-6);
    }

    #[test]
    fn scaled_counts_sum_to_population() {
        let m = random_matrix(20, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let a = CircuitLengthAnalysis::run(&m, [3, 5], 2000, 3.0, &mut rng);
        for s in &a.series {
            let total: f64 = s.scaled_counts.iter().sum();
            let expect = choose(20, s.length);
            assert!(
                (total - expect).abs() / expect < 1e-9,
                "length {} total {total} expect {expect}",
                s.length
            );
        }
    }

    #[test]
    fn longer_circuits_shift_right() {
        let m = random_matrix(25, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let a = CircuitLengthAnalysis::run(&m, [3, 8], 4000, 5.0, &mut rng);
        // Mean binned RTT of 8-hop circuits exceeds 3-hop.
        let mean_of = |s: &LengthBinSeries| {
            let total: f64 = s.scaled_counts.iter().sum();
            s.bin_centers_s
                .iter()
                .zip(&s.scaled_counts)
                .map(|(&c, &v)| c * v)
                .sum::<f64>()
                / total
        };
        let m3 = mean_of(&a.series[0]);
        let m8 = mean_of(&a.series[1]);
        assert!(m8 > m3 * 2.0, "3-hop {m3}s vs 8-hop {m8}s");
    }

    #[test]
    fn more_longer_circuits_at_same_rtt() {
        // Fig. 16's key claim: in a mid-range RTT band there are orders
        // of magnitude more longer circuits (population scaling wins).
        let m = random_matrix(30, 5);
        let mut rng = SmallRng::seed_from_u64(6);
        let a = CircuitLengthAnalysis::run(&m, [3, 4], 20_000, 5.0, &mut rng);
        // Pick the band around the 3-hop median RTT.
        let s3 = &a.series[0];
        let peak_bin = s3
            .scaled_counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let lo = s3.bin_centers_s[peak_bin] - 0.075;
        let hi = s3.bin_centers_s[peak_bin] + 0.075;
        let c3 = a.circuits_in_range(3, lo, hi);
        let c4 = a.circuits_in_range(4, lo, hi);
        assert!(c4 > c3, "4-hop {c4} not more than 3-hop {c3} in band");
    }

    #[test]
    fn node_probabilities_bounded_and_average_to_l_over_n() {
        let m = random_matrix(20, 7);
        let mut rng = SmallRng::seed_from_u64(8);
        let a = CircuitLengthAnalysis::run(&m, [5], 5000, 5.0, &mut rng);
        let s = &a.series[0];
        for p in s.median_node_prob.iter().flatten() {
            assert!((0.0..=1.0).contains(p));
        }
        // Across all circuits (ignore binning): every circuit has 5 of
        // 20 nodes, so the *mean* probability is 0.25; medians per busy
        // bin should be in that neighbourhood.
        let busiest = s
            .scaled_counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let p = s.median_node_prob[busiest].unwrap();
        assert!(p > 0.05 && p < 0.5, "median prob {p}");
    }

    #[test]
    #[should_panic]
    fn length_beyond_population_rejected() {
        let m = random_matrix(5, 9);
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = CircuitLengthAnalysis::run(&m, [6], 10, 1.0, &mut rng);
    }
}
