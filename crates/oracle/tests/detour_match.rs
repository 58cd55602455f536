//! The oracle's via-relay answers must bit-match the `analysis::tiv`
//! reference on a seeded 40-relay matrix: same via relay, same
//! combined RTT (compared as raw f64 bits), same direct path. The TIV
//! report is the research-grade implementation behind Figs. 14–15; the
//! oracle serves the same question at query time, and the two must
//! never drift.

use analysis::tiv::TivReport;
use netsim::NodeId;
use oracle::{Oracle, Snapshot};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use ting::RttMatrix;

/// A complete seeded 40-relay matrix with planted triangle structure:
/// nodes on a plane (so most triangles are sane) plus multiplicative
/// inflation (so detours genuinely win for many pairs).
fn seeded_matrix(seed: u64, n: u32) -> RttMatrix {
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

#[test]
fn oracle_detours_bit_match_the_tiv_reference() {
    let matrix = seeded_matrix(2015, 40);
    let report = TivReport::analyze(&matrix);
    assert_eq!(report.findings.len(), 40 * 39 / 2);
    assert!(
        report.violation_fraction() > 0.3,
        "scenario must actually contain TIVs, got {}",
        report.violation_fraction()
    );

    let oracle = Oracle::new(Snapshot::from_matrix(&matrix));
    for f in &report.findings {
        let d = oracle.reader().best_via(f.src, f.dst).unwrap();
        let via = d.via.expect("complete 40-relay matrix always has a via");
        assert_eq!(via.node, f.best_relay, "pair ({:?}, {:?})", f.src, f.dst);
        assert_eq!(
            via.rtt_ms.to_bits(),
            f.best_detour_ms.to_bits(),
            "pair ({:?}, {:?}): {} vs {}",
            f.src,
            f.dst,
            via.rtt_ms,
            f.best_detour_ms
        );
        assert_eq!(
            d.direct_ms.unwrap().to_bits(),
            f.direct_ms.to_bits(),
            "pair ({:?}, {:?})",
            f.src,
            f.dst
        );
        assert!(
            (d.savings_percent() - f.savings_percent()).abs() < 1e-12,
            "pair ({:?}, {:?})",
            f.src,
            f.dst
        );
    }
}

#[test]
fn detour_matches_reference_through_a_tsv_roundtrip() {
    // The serving path usually loads from the §4.6 cache file; the
    // round-trip through TSV must not perturb a single bit.
    let matrix = seeded_matrix(7, 40);
    let report = TivReport::analyze(&matrix);
    let oracle = Oracle::new(Snapshot::from_tsv(&matrix.to_tsv()).unwrap());
    for f in &report.findings {
        let d = oracle.reader().best_via(f.src, f.dst).unwrap();
        assert_eq!(d.via.unwrap().rtt_ms.to_bits(), f.best_detour_ms.to_bits());
        assert_eq!(d.via.unwrap().node, f.best_relay);
    }
}
