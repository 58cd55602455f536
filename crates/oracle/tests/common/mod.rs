//! Datasets shared by the oracle's integration tests.

use netsim::NodeId;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ting::RttMatrix;

/// A complete seeded `n`-relay matrix with planted triangle structure:
/// nodes on a plane (so most triangles are sane) plus multiplicative
/// inflation (so detours genuinely win for many pairs).
pub fn seeded_matrix(seed: u64, n: u32) -> RttMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let coords: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect();
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut m = RttMatrix::new(nodes.clone());
    for i in 0..n as usize {
        for j in (i + 1)..n as usize {
            let (dx, dy) = (coords[i].0 - coords[j].0, coords[i].1 - coords[j].1);
            let base = (dx * dx + dy * dy).sqrt() + 1.0;
            let inflation = rng.gen_range(1.0..3.0);
            m.set(nodes[i], nodes[j], base * inflation);
        }
    }
    m
}
