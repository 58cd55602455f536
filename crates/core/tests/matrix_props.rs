//! Property tests for the RTT matrix and its TSV dataset format.
//!
//! §4.6's cacheable all-pairs dataset is only trustworthy if the cache
//! file is: `render ∘ parse == id` must hold exactly — including the
//! f64 payloads, which `to_tsv` prints via `{}` (shortest
//! representation that round-trips) — over arbitrary node sets and
//! coverage patterns. And since the scanner, the analyses and the
//! oracle all read the one [`RttMatrix`], every read method is held to
//! a `HashMap` model over random write histories. The detour kernel's
//! lane passes are held to a brute-force loop bit for bit: this file is
//! its independent reference.

use netsim::NodeId;
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::collections::HashMap;
use ting::matrix::ordered;
use ting::{RttMatrix, TSV_MAGIC};

/// Arbitrary node-id sets: spread across the u32 range, deduplicated.
fn node_set() -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec(any::<u32>(), 1..24).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(NodeId).collect()
    })
}

/// Finite f64 values drawn from raw bit patterns, so subnormals, huge
/// magnitudes, and awkward fractions all appear — not just round
/// decimals.
fn exact_f64s() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any::<u64>(), 0..64).prop_map(|bits| {
        bits.into_iter()
            .map(f64::from_bits)
            .map(|v| if v.is_finite() { v } else { 1.5 })
            .collect()
    })
}

/// Cell values that separate an exact detour kernel from a careless
/// one: signed zeros (the first via keeps its own zero's sign),
/// negatives, repeats, and legs near `f64::MAX` whose sums overflow to
/// `+∞` (or `−∞`, or cancel to 0).
const AWKWARD: [f64; 10] = [
    -0.0,
    0.0,
    -4.5,
    0.75,
    0.75,
    30.0,
    f64::MAX,
    f64::MAX * 0.75,
    f64::MAX * 0.5,
    -f64::MAX,
];

/// The detour by its definition: every `v ∉ {i, j}` with both legs
/// measured, in index order, a strictly lower sum replacing the best.
/// The first candidate is taken whatever its sum, so an overflowed `+∞`
/// stands when nothing finite exists.
fn brute_force_detour(
    n: usize,
    i: usize,
    j: usize,
    leg: impl Fn(usize, usize) -> Option<f64>,
) -> Option<(u32, f64)> {
    let mut best: Option<(u32, f64)> = None;
    for v in (0..n).filter(|&v| v != i && v != j) {
        if let (Some(x), Some(y)) = (leg(i, v), leg(j, v)) {
            if best.is_none_or(|(_, ms)| x + y < ms) {
                best = Some((v as u32, x + y));
            }
        }
    }
    best
}

proptest! {
    #[test]
    fn every_read_agrees_with_a_hash_map_model(
        n in 2usize..=12,
        // Few distinct values, so overwrites and detour ties both occur.
        writes in prop::collection::vec((0usize..12, 0usize..12, 0u32..24), 0..90),
    ) {
        // Descending ids: index order is not id order.
        let nodes: Vec<NodeId> = (0..n as u32).map(|i| NodeId(900 - 7 * i)).collect();
        let mut m = RttMatrix::new(nodes.clone());
        let mut model: HashMap<(NodeId, NodeId), f64> = HashMap::new();
        for (i, j, quarter_ms) in writes {
            let (a, b, v) = (nodes[i % n], nodes[j % n], f64::from(quarter_ms) * 0.25);
            if a == b {
                prop_assert!(m.try_set(a, b, v).is_err());
            } else {
                m.set(a, b, v);
                model.insert(ordered(a, b), v);
            }
        }
        let want = |i: usize, j: usize| match i == j {
            true => Some(0.0),
            false => model.get(&ordered(nodes[i], nodes[j])).copied(),
        };
        let bits = |v: Option<f64>| v.map(f64::to_bits);

        let mut pairs = Vec::new();
        for i in 0..n {
            prop_assert_eq!(m.index_of(nodes[i]), Some(i as u32));
            prop_assert_eq!(m.node(i as u32), nodes[i]);
            for j in 0..n {
                prop_assert_eq!(bits(m.get(nodes[i], nodes[j])), bits(want(i, j)));
                prop_assert_eq!(bits(m.get_idx(i as u32, j as u32)), bits(want(i, j)));
                let cell = m.row(i as u32)[j];
                prop_assert_eq!(cell.is_nan(), want(i, j).is_none());
                prop_assert_eq!(cell.to_bits(), m.row(j as u32)[i].to_bits());
                if let (true, Some(v)) = (i < j, want(i, j)) {
                    pairs.push((nodes[i], nodes[j], v));
                }
            }
        }
        prop_assert_eq!(m.get(nodes[0], NodeId(1)), None);
        prop_assert_eq!(m.pairs().collect::<Vec<_>>(), pairs);
        prop_assert_eq!(m.measured_pairs(), model.len());
        prop_assert_eq!(m.is_complete(), model.len() == n * (n - 1) / 2);
        prop_assert_eq!(&RttMatrix::from_tsv(&m.to_tsv()).expect("own rendering"), &m);

        // The detour kernel against brute force over the model; nothing
        // to route through when n = 2.
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let got = m.best_detour(i as u32, j as u32).map(|b| (b.via, b.rtt_ms));
                prop_assert_eq!(got, brute_force_detour(n, i, j, want));
                prop_assert!(n > 2 || got.is_none());
            }
        }
    }

    #[test]
    fn best_detour_is_the_brute_force_answer_bit_for_bit(
        n in 1usize..=40,
        density in 0u32..=4,
        seed in any::<u64>(),
    ) {
        // Up to five 8-lane chunks and a ragged tail; every (i, j) is
        // checked, so both endpoints fall on each side of every chunk
        // boundary, and i == j is asked too. `density` quarters of the
        // pairs are measured, and a dark relay measures none, so some
        // rows leave no finite candidate at all.
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let dark: Vec<bool> = (0..n).map(|_| rng.gen_range(0..6u32) == 0).collect();
        let mut m = RttMatrix::new(nodes.clone());
        let mut model: HashMap<(usize, usize), f64> = HashMap::new();
        for i in 0..n {
            for j in i + 1..n {
                if !dark[i] && !dark[j] && rng.gen_range(0..4u32) < density {
                    let v = AWKWARD[rng.gen_range(0..AWKWARD.len())];
                    m.set(nodes[i], nodes[j], v);
                    model.insert((i, j), v);
                }
            }
        }
        let want = |i: usize, j: usize| match i == j {
            true => Some(0.0),
            false => model.get(&ordered(i, j)).copied(),
        };
        let bits = |b: Option<(u32, f64)>| b.map(|(v, ms)| (v, ms.to_bits()));
        for i in 0..n {
            for j in 0..n {
                let got = m.best_detour(i as u32, j as u32).map(|b| (b.via, b.rtt_ms));
                let want = brute_force_detour(n, i, j, want);
                prop_assert_eq!(bits(got), bits(want), "n {}, ({}, {})", n, i, j);
            }
        }
    }

    #[test]
    fn tsv_roundtrip_is_identity(nodes in node_set(), values in exact_f64s()) {
        let mut m = RttMatrix::new(nodes.clone());
        // Fill an arbitrary prefix of the pair list with exact values.
        let mut vi = values.iter();
        'fill: for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                match vi.next() {
                    Some(&v) => m.set(a, b, v),
                    None => break 'fill,
                }
            }
        }
        let tsv = m.to_tsv();
        let back = RttMatrix::from_tsv(&tsv).expect("own rendering must parse");
        prop_assert_eq!(&back, &m);
        // And rendering the parsed matrix is a byte-level fixed point.
        prop_assert_eq!(back.to_tsv(), tsv);
    }

    #[test]
    fn tsv_parser_never_panics_on_arbitrary_text(text in "[a-z0-9\t\n #.:-]{0,200}") {
        // Errors are fine; aborts are not. (Pre-fix, a row naming an
        // unknown node panicked instead of erroring.)
        let _ = RttMatrix::from_tsv(&text);
    }

    #[test]
    fn tsv_corrupted_node_id_never_loads_silently(frac in 1u32..1000, denom in 1u32..100) {
        // A fractional id anywhere must fail the whole load — the
        // pre-fix parser truncated it through f64 and filed the row
        // under the wrong pair.
        let doc = format!(
            "{TSV_MAGIC}\n# nodes: 1 2 3\n1\t2\t10.5\n{frac}.{denom}\t3\t4.5\n"
        );
        prop_assert!(RttMatrix::from_tsv(&doc).is_err());
    }
}

#[test]
fn corruption_cases_for_each_error_path() {
    let good = format!("{TSV_MAGIC}\n# nodes: 1 2 3\n1\t2\t10.5\n2\t3\t4.25\n");
    assert!(RttMatrix::from_tsv(&good).is_ok());

    let cases: &[(&str, String)] = &[
        ("empty input", String::new()),
        ("wrong magic", good.replacen("v1", "v9", 1)),
        ("missing node list", format!("{TSV_MAGIC}\n")),
        (
            "malformed node list",
            good.replacen("# nodes:", "# relays:", 1),
        ),
        (
            "fractional header id",
            good.replacen("# nodes: 1 2 3", "# nodes: 1 2.5 3", 1),
        ),
        (
            "duplicate header id",
            good.replacen("# nodes: 1 2 3", "# nodes: 1 2 2", 1),
        ),
        (
            "unknown node in row",
            good.replacen("2\t3\t4.25", "2\t9\t4.25", 1),
        ),
        (
            "fractional row id",
            good.replacen("2\t3\t4.25", "2.5\t3\t4.25", 1),
        ),
        (
            "oversized row id",
            good.replacen("2\t3\t4.25", "5000000000\t3\t4.25", 1),
        ),
        ("missing rtt field", good.replacen("2\t3\t4.25", "2\t3", 1)),
        ("unparseable rtt", good.replacen("4.25", "fast", 1)),
        ("non-finite rtt", good.replacen("4.25", "nan", 1)),
    ];
    for (what, doc) in cases {
        assert!(
            RttMatrix::from_tsv(doc).is_err(),
            "{what}: corrupt document must be refused:\n{doc}"
        );
    }
}
