//! Seeded input generators. The program under test sees only what
//! these produce; the same seed gives byte-identical inputs on every
//! host (no dependence on the vendored `rand` stand-in).

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, passes
/// BigCrush, and trivially reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

/// One independent stream per kind of input, so resizing one list
/// never changes another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    ScanPairs = 1,
    BaseMatrix = 2,
    Deltas = 3,
    Points = 4,
    Sources = 5,
    Detours = 6,
}

impl SplitMix64 {
    pub fn new(seed: u64, stream: Stream) -> SplitMix64 {
        let mut rng = SplitMix64(seed ^ (stream as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is
    /// below 2⁻⁴⁰).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A plausible RTT in `[1, 300)` ms carrying a full mantissa, like
    /// a real Eq. (4) estimate — the document's row width depends on it.
    pub fn rtt_ms(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + unit * 299.0
    }
}

/// Every unordered pair of `0..n` in `(i, j)` index order, `i < j`.
pub fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect()
}

/// `count` distinct pairs drawn uniformly (partial Fisher–Yates), in
/// draw order.
pub fn pair_subset(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<(usize, usize)> {
    let mut all = all_pairs(n);
    assert!(count <= all.len(), "subset larger than the pair space");
    for k in 0..count {
        let pick = k + rng.below(all.len() - k);
        all.swap(k, pick);
    }
    all.truncate(count);
    all
}

/// `count` ordered node pairs with distinct ends.
pub fn query_pairs(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<(usize, usize)> {
    (0..count)
        .map(|_| {
            let a = rng.below(n);
            let b = (a + 1 + rng.below(n - 1)) % n;
            (a, b)
        })
        .collect()
}

/// `count` draws from `pairs`, each in a random orientation — the
/// query lists of the sparse (scan-fed) workloads, where only scanned
/// pairs have an answer worth asking for.
pub fn queries_among(
    rng: &mut SplitMix64,
    pairs: &[(usize, usize)],
    count: usize,
) -> Vec<(usize, usize)> {
    (0..count)
        .map(|_| {
            let (a, b) = pairs[rng.below(pairs.len())];
            if rng.next_u64() & 1 == 0 {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed, Stream::Deltas);
            let subset = pair_subset(&mut r, 50, 64);
            let rtts: Vec<u64> = (0..64).map(|_| r.rtt_ms().to_bits()).collect();
            let mut q = SplitMix64::new(seed, Stream::Points);
            (subset, rtts, query_pairs(&mut q, 50, 1000))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn streams_are_independent() {
        let a = SplitMix64::new(7, Stream::Points).next_u64();
        let b = SplitMix64::new(7, Stream::Sources).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn subset_is_distinct_and_ordered_within_pair() {
        let mut r = SplitMix64::new(1, Stream::ScanPairs);
        let s = pair_subset(&mut r, 40, 120);
        let mut seen = s.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 120);
        assert!(s.iter().all(|&(i, j)| i < j && j < 40));
    }

    #[test]
    fn query_pairs_never_self() {
        let mut r = SplitMix64::new(3, Stream::Detours);
        assert!(query_pairs(&mut r, 5, 10_000)
            .iter()
            .all(|&(a, b)| a != b && a < 5 && b < 5));
    }

    #[test]
    fn rtt_in_range() {
        let mut r = SplitMix64::new(9, Stream::BaseMatrix);
        assert!((0..10_000)
            .map(|_| r.rtt_ms())
            .all(|v| (1.0..300.0).contains(&v)));
    }
}
