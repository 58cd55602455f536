//! The oracle's via-relay answers must bit-match two references on a
//! seeded 40-relay matrix: same via relay, same combined RTT (compared
//! as raw f64 bits), same direct path.
//!
//! - `analysis::tiv`, the research-grade report behind Figs. 14–15. It
//!   calls the same kernel (`RttMatrix::best_detour`) as the oracle, so
//!   this pins the two callers together, not the kernel.
//! - A scalar loop written here from the definition, which pins the
//!   kernel itself.

mod common;

use analysis::TivReport;
use common::seeded_matrix;
use netsim::NodeId;
use oracle::Snapshot;
use ting::RttMatrix;

/// The detour by its definition, independent of the kernel: every third
/// relay with both legs measured, in index order, a strictly lower sum
/// replacing the best.
fn scalar_best_via(m: &RttMatrix, x: NodeId, y: NodeId) -> Option<(NodeId, f64)> {
    let (i, j) = (m.index_of(x)?, m.index_of(y)?);
    let mut best: Option<(NodeId, f64)> = None;
    for v in (0..m.len() as u32).filter(|&v| v != i && v != j) {
        if let (Some(a), Some(b)) = (m.get_idx(i, v), m.get_idx(v, j)) {
            if best.is_none_or(|(_, ms)| a + b < ms) {
                best = Some((m.node(v), a + b));
            }
        }
    }
    best
}

/// The oracle's detour from every relay to every relay, the diagonal
/// included, equals the scalar loop's, bit for bit.
fn assert_detours_match_the_scalar_loop(matrix: &RttMatrix, snapshot: &Snapshot) {
    for &x in matrix.nodes() {
        for &y in matrix.nodes() {
            let got = snapshot.best_via(x, y).unwrap().via;
            let got = got.map(|v| (v.node, v.rtt_ms.to_bits()));
            let want = scalar_best_via(matrix, x, y).map(|(v, ms)| (v, ms.to_bits()));
            assert_eq!(got, want, "pair ({x:?}, {y:?})");
        }
    }
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

    let snapshot = Snapshot::from_matrix(&matrix);
    for f in &report.findings {
        let d = snapshot.best_via(f.src, f.dst).unwrap();
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
    }
    assert_detours_match_the_scalar_loop(&matrix, &snapshot);
}

#[test]
fn detour_matches_reference_through_a_tsv_roundtrip() {
    // The serving path usually loads from the §4.6 cache file; the
    // round-trip through TSV must not perturb a single bit.
    let matrix = seeded_matrix(7, 40);
    let report = TivReport::analyze(&matrix);
    let snapshot = Snapshot::from_matrix(&RttMatrix::from_tsv(&matrix.to_tsv()).unwrap());
    for f in &report.findings {
        let d = snapshot.best_via(f.src, f.dst).unwrap();
        assert_eq!(d.via.unwrap().rtt_ms.to_bits(), f.best_detour_ms.to_bits());
        assert_eq!(d.via.unwrap().node, f.best_relay);
    }
    assert_detours_match_the_scalar_loop(&matrix, &snapshot);
}
