//! All-pairs RTT matrices.
//!
//! §4.6 argues Ting's measurements are stable enough that "taking
//! measurements with Ting infrequently and caching them is sufficient,
//! and thus permits obtaining a large dataset of RTTs between Tor
//! nodes." [`RttMatrix`] is that dataset: symmetric, indexed by relay,
//! serializable to TSV so experiment binaries can regenerate or reload
//! it, and the input to every §5 application.

use crate::orchestrator::{Ting, TingError};
use netsim::NodeId;
use std::collections::HashMap;
use std::fmt::Write as _;
use tor_sim::TorNetwork;

/// A symmetric all-pairs RTT dataset over a fixed relay set.
#[derive(Debug, Clone, PartialEq)]
pub struct RttMatrix {
    nodes: Vec<NodeId>,
    index: HashMap<NodeId, usize>,
    /// Row-major upper-triangular storage; `None` = unmeasured.
    rtt_ms: Vec<Option<f64>>,
}

/// The first line of the [`RttMatrix::to_tsv`] format. Loaders refuse
/// anything else: a missing or unknown version means the file is not a
/// dataset this code knows how to interpret, and silently parsing it
/// anyway is how corrupt caches are born.
pub const TSV_MAGIC: &str = "# ting all-pairs rtt matrix v1";

/// A pair in ascending order — the one key order every pair-keyed map
/// and table in the workspace uses.
pub fn ordered<T: Ord>(a: T, b: T) -> (T, T) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The slot of pair `(a, b)` in the row-major upper triangle (diagonal
/// included) over `n` nodes: [`RttMatrix`]'s storage order, and the
/// index every other per-pair table is laid out by.
pub fn tri_index(n: usize, a: usize, b: usize) -> usize {
    let (lo, hi) = ordered(a, b);
    lo * n - lo * (lo + 1) / 2 + hi
}

impl RttMatrix {
    /// Creates an empty matrix over `nodes`.
    ///
    /// # Panics
    /// Panics on duplicate nodes.
    pub fn new(nodes: Vec<NodeId>) -> RttMatrix {
        RttMatrix::try_new(nodes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor for load paths: duplicate nodes become an
    /// error instead of a panic.
    pub fn try_new(nodes: Vec<NodeId>) -> Result<RttMatrix, String> {
        let mut index = HashMap::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            if index.insert(*n, i).is_some() {
                return Err(format!("duplicate node {}", n.0));
            }
        }
        let n = nodes.len();
        Ok(RttMatrix {
            nodes,
            index,
            rtt_ms: vec![None; n * (n + 1) / 2],
        })
    }

    /// The relay set, in index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn tri_index(&self, a: usize, b: usize) -> usize {
        tri_index(self.nodes.len(), a, b)
    }

    /// Resolves a node to its dense index.
    pub fn index_of(&self, n: NodeId) -> Option<u32> {
        self.index.get(&n).map(|&i| i as u32)
    }

    /// Index-space lookup of an off-diagonal pair (symmetric); `None` =
    /// unmeasured.
    pub fn get_idx(&self, i: u32, j: u32) -> Option<f64> {
        self.rtt_ms[self.tri_index(i as usize, j as usize)]
    }

    /// Records a measurement (symmetric).
    ///
    /// # Panics
    /// Panics on a non-finite RTT or a node outside the matrix; load
    /// paths that cannot trust their input use [`RttMatrix::try_set`].
    pub fn set(&mut self, a: NodeId, b: NodeId, rtt_ms: f64) {
        self.try_set(a, b, rtt_ms).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`RttMatrix::set`]: unknown nodes and non-finite RTTs
    /// become errors instead of panics.
    pub fn try_set(&mut self, a: NodeId, b: NodeId, rtt_ms: f64) -> Result<(), String> {
        if !rtt_ms.is_finite() {
            return Err(format!("non-finite RTT {rtt_ms}"));
        }
        let lookup = |n: NodeId| -> Result<usize, String> {
            self.index
                .get(&n)
                .copied()
                .ok_or_else(|| format!("unknown node {}", n.0))
        };
        let (ia, ib) = (lookup(a)?, lookup(b)?);
        let idx = self.tri_index(ia, ib);
        self.rtt_ms[idx] = Some(rtt_ms);
        Ok(())
    }

    /// Looks up a pair (symmetric). The diagonal is implicitly 0.
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if a == b {
            return Some(0.0);
        }
        let (ia, ib) = (*self.index.get(&a)?, *self.index.get(&b)?);
        self.rtt_ms[self.tri_index(ia, ib)]
    }

    /// Iterates all measured off-diagonal pairs `(a, b, rtt)` with
    /// `a` before `b` in index order.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        let n = self.nodes.len();
        (0..n).flat_map(move |i| {
            ((i + 1)..n).filter_map(move |j| {
                self.rtt_ms[self.tri_index(i, j)].map(|v| (self.nodes[i], self.nodes[j], v))
            })
        })
    }

    /// Number of measured off-diagonal pairs.
    pub fn measured_pairs(&self) -> usize {
        self.pairs().count()
    }

    /// Whether every off-diagonal pair is measured.
    pub fn is_complete(&self) -> bool {
        self.measured_pairs() == self.len() * self.len().saturating_sub(1) / 2
    }

    /// The mean measured RTT — the `µ` of deanonymization Algorithm 1
    /// ("the average RTT across the entire all-pairs data").
    pub fn mean_rtt_ms(&self) -> Option<f64> {
        let (mut sum, mut n) = (0.0, 0usize);
        for (_, _, v) in self.pairs() {
            sum += v;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// All measured RTT values (for CDFs, Fig. 11).
    pub fn values(&self) -> Vec<f64> {
        self.pairs().map(|(_, _, v)| v).collect()
    }

    /// Serializes to a TSV document (`a b rtt_ms` per line, header with
    /// the node list) — the cacheable dataset §4.6 calls for.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str("# ting all-pairs rtt matrix v1\n");
        out.push_str("# nodes:");
        for n in &self.nodes {
            let _ = write!(out, " {}", n.0);
        }
        out.push('\n');
        for (a, b, v) in self.pairs() {
            // `{}` prints the shortest representation that parses back
            // to the identical f64, so save/load roundtrips exactly.
            let _ = writeln!(out, "{}\t{}\t{}", a.0, b.0, v);
        }
        out
    }

    /// Measures the full matrix over `nodes` with Ting, one pair at a
    /// time in index order. `progress` is called after each pair with
    /// `(done, total)` — pass `|_, _| {}` to ignore.
    pub fn measure(
        net: &mut TorNetwork,
        nodes: Vec<NodeId>,
        ting: &Ting,
        mut progress: impl FnMut(usize, usize),
    ) -> Result<RttMatrix, TingError> {
        let mut m = RttMatrix::new(nodes);
        let n = m.len();
        let total = n * n.saturating_sub(1) / 2;
        let mut done = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (m.nodes[i], m.nodes[j]);
                let measurement = ting.measure_pair(net, a, b)?;
                m.set(a, b, measurement.estimate_ms());
                done += 1;
                progress(done, total);
            }
        }
        Ok(m)
    }

    /// Parses the [`RttMatrix::to_tsv`] format.
    ///
    /// The loader is strict where it used to be forgiving, because a
    /// cached dataset that loads wrongly poisons every downstream
    /// application: the version line must match [`TSV_MAGIC`] exactly,
    /// node IDs must be integer `u32` tokens (no `f64` round-trip that
    /// would silently truncate `4.7` to node 4), and a data row naming
    /// a node absent from the header is an error, not a panic.
    pub fn from_tsv(text: &str) -> Result<RttMatrix, String> {
        let mut lines = text.lines();
        let magic = lines.next().ok_or("empty input")?;
        if magic.trim_end() != TSV_MAGIC {
            return Err(format!(
                "unsupported matrix header {magic:?} (expected {TSV_MAGIC:?})"
            ));
        }
        let nodes_line = lines.next().ok_or("missing node list")?;
        let nodes: Vec<NodeId> = nodes_line
            .strip_prefix("# nodes:")
            .ok_or_else(|| format!("line 2 is not a '# nodes:' list: {nodes_line:?}"))?
            .split_whitespace()
            .map(|t| {
                t.parse::<u32>()
                    .map(NodeId)
                    .map_err(|_| format!("line 2: invalid node id {t:?} (expected a u32)"))
            })
            .collect::<Result<_, _>>()?;
        let mut m = RttMatrix::try_new(nodes)?;
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let n = lineno + 3;
            let mut f = line.split('\t');
            let mut field = |what: &str| -> Result<&str, String> {
                f.next()
                    .ok_or_else(|| format!("line {n}: missing {what} field"))
            };
            let node = |t: &str| -> Result<NodeId, String> {
                t.parse::<u32>()
                    .map(NodeId)
                    .map_err(|_| format!("line {n}: invalid node id {t:?} (expected a u32)"))
            };
            let a = node(field("source node")?)?;
            let b = node(field("destination node")?)?;
            let v = field("rtt")?
                .parse::<f64>()
                .map_err(|e| format!("line {n}: invalid rtt: {e}"))?;
            m.try_set(a, b, v).map_err(|e| format!("line {n}: {e}"))?;
        }
        Ok(m)
    }

    /// Builds the compact index-addressed read view of this matrix.
    pub fn view(&self) -> RttView {
        let n = self.nodes.len();
        let mut rtt_ms = vec![f64::NAN; n * n];
        for i in 0..n {
            rtt_ms[i * n + i] = 0.0;
            for j in (i + 1)..n {
                if let Some(v) = self.rtt_ms[self.tri_index(i, j)] {
                    rtt_ms[i * n + j] = v;
                    rtt_ms[j * n + i] = v;
                }
            }
        }
        RttView {
            nodes: self.nodes.clone(),
            index: self.index.iter().map(|(n, &i)| (*n, i as u32)).collect(),
            rtt_ms,
        }
    }
}

/// A compact, immutable, index-addressed read view of an [`RttMatrix`].
///
/// Query services resolve `NodeId`s to dense indices once per request
/// and then work entirely in index space: a lookup is a multiply and a
/// load from a row-major `n × n` table (`NaN` = unmeasured, diagonal
/// 0), each node's distances are one contiguous [`RttView::row`] for
/// k-nearest scans, and the detour kernel streams two rows linearly —
/// no per-query `HashMap` hops anywhere on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct RttView {
    nodes: Vec<NodeId>,
    index: HashMap<NodeId, u32>,
    /// Row-major `n × n`; `NaN` = unmeasured, diagonal 0.
    rtt_ms: Vec<f64>,
}

/// The best single-relay detour the kernel found for one pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetourBest {
    /// Dense index of the via relay.
    pub via: u32,
    /// `R(s, via) + R(via, d)` in milliseconds.
    pub rtt_ms: f64,
}

impl RttView {
    /// The relay set, in index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Resolves a node to its dense index.
    pub fn index_of(&self, n: NodeId) -> Option<u32> {
        self.index.get(&n).copied()
    }

    /// The node at a dense index.
    pub fn node(&self, i: u32) -> NodeId {
        self.nodes[i as usize]
    }

    /// Index-space lookup; `None` = unmeasured. The diagonal is 0.
    #[inline]
    pub fn get_idx(&self, i: u32, j: u32) -> Option<f64> {
        let v = self.rtt_ms[i as usize * self.nodes.len() + j as usize];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Node-space lookup (resolves both IDs, then [`RttView::get_idx`]).
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let (i, j) = (self.index_of(a)?, self.index_of(b)?);
        self.get_idx(i, j)
    }

    /// Node `i`'s full distance row (`NaN` = unmeasured).
    #[inline]
    pub fn row(&self, i: u32) -> &[f64] {
        let n = self.nodes.len();
        &self.rtt_ms[i as usize * n..(i as usize + 1) * n]
    }

    /// Number of measured off-diagonal pairs.
    pub fn measured_pairs(&self) -> usize {
        let n = self.nodes.len();
        (0..n)
            .map(|i| {
                self.row(i as u32)[i + 1..]
                    .iter()
                    .filter(|v| !v.is_nan())
                    .count()
            })
            .sum()
    }

    /// The shared ShorTor/TIV detour kernel: the via relay minimizing
    /// `R(s, v) + R(v, d)` over every relay `v ∉ {s, d}` with both legs
    /// measured. Candidates are scanned in index order with a strict
    /// improvement test, so ties keep the lowest index — the same
    /// deterministic answer `analysis::tiv` has always produced.
    /// Returns `None` when no third relay has both legs measured.
    pub fn best_detour(&self, i: u32, j: u32) -> Option<DetourBest> {
        let (row_i, row_j) = (self.row(i), self.row(j));
        let mut best: Option<DetourBest> = None;
        for v in 0..self.nodes.len() as u32 {
            if v == i || v == j {
                continue;
            }
            // NaN legs propagate into a NaN sum, which fails the `<`
            // test — unmeasured candidates drop out for free.
            let detour = row_i[v as usize] + row_j[v as usize];
            if best.is_none_or(|b| detour < b.rtt_ms) && !detour.is_nan() {
                best = Some(DetourBest {
                    via: v,
                    rtt_ms: detour,
                });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn set_get_symmetric() {
        let mut m = RttMatrix::new(nodes(4));
        m.set(NodeId(1), NodeId(3), 42.5);
        assert_eq!(m.get(NodeId(1), NodeId(3)), Some(42.5));
        assert_eq!(m.get(NodeId(3), NodeId(1)), Some(42.5));
        assert_eq!(m.get(NodeId(0), NodeId(2)), None);
        assert_eq!(m.get(NodeId(2), NodeId(2)), Some(0.0));
    }

    #[test]
    fn completeness_tracking() {
        let mut m = RttMatrix::new(nodes(3));
        assert!(!m.is_complete());
        m.set(NodeId(0), NodeId(1), 1.0);
        m.set(NodeId(0), NodeId(2), 2.0);
        assert_eq!(m.measured_pairs(), 2);
        m.set(NodeId(1), NodeId(2), 3.0);
        assert!(m.is_complete());
        assert_eq!(m.mean_rtt_ms(), Some(2.0));
    }

    #[test]
    fn empty_matrix_is_complete_and_measures_nothing() {
        // Regression: both computed `len() * (len() - 1) / 2`, which on
        // an empty node list is `0usize - 1` — a debug-build panic.
        assert!(RttMatrix::new(vec![]).is_complete());
        let mut net = tor_sim::TorNetworkBuilder::testbed(1).build();
        let ting = Ting::new(crate::orchestrator::TingConfig::fast());
        let mut calls = 0;
        let m = RttMatrix::measure(&mut net, vec![], &ting, |_, _| calls += 1).unwrap();
        assert_eq!((m.measured_pairs(), calls), (0, 0));
    }

    #[test]
    fn pairs_iterate_upper_triangle_once() {
        let mut m = RttMatrix::new(nodes(3));
        m.set(NodeId(2), NodeId(0), 9.0); // reversed order on set
        let pairs: Vec<_> = m.pairs().collect();
        assert_eq!(pairs, vec![(NodeId(0), NodeId(2), 9.0)]);
    }

    #[test]
    fn tsv_roundtrip() {
        let mut m = RttMatrix::new(vec![NodeId(4), NodeId(7), NodeId(9)]);
        m.set(NodeId(4), NodeId(7), 12.25);
        m.set(NodeId(7), NodeId(9), 80.5);
        let tsv = m.to_tsv();
        let back = RttMatrix::from_tsv(&tsv).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn tsv_rejects_garbage() {
        assert!(RttMatrix::from_tsv("").is_err());
        assert!(RttMatrix::from_tsv("# x\n# nodes: 1 2\n1\tnope\t3").is_err());
    }

    #[test]
    fn overwrite_updates_value() {
        let mut m = RttMatrix::new(nodes(2));
        m.set(NodeId(0), NodeId(1), 5.0);
        m.set(NodeId(1), NodeId(0), 6.0);
        assert_eq!(m.get(NodeId(0), NodeId(1)), Some(6.0));
    }

    #[test]
    #[should_panic]
    fn duplicate_nodes_rejected() {
        let _ = RttMatrix::new(vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let mut m = RttMatrix::new(nodes(2));
        m.set(NodeId(0), NodeId(1), f64::NAN);
    }

    #[test]
    fn tsv_rejects_unknown_node_in_data_row() {
        // Regression: `from_tsv` used to panic in `set` (`self.index[&a]`)
        // when a data row named a node absent from the header.
        let doc = format!("{TSV_MAGIC}\n# nodes: 1 2\n1\t9\t3.5\n");
        let err = RttMatrix::from_tsv(&doc).expect_err("unknown node must be an error");
        assert!(err.contains("line 3"), "error must locate the row: {err}");
        assert!(
            err.contains("unknown node 9"),
            "error must name the node: {err}"
        );
    }

    #[test]
    fn tsv_rejects_non_integer_node_ids() {
        // Regression: node IDs were parsed through the shared `f64`
        // closure then truncated `as u32`, so `4.7` silently became
        // node 4 and the row loaded under the wrong pair.
        let doc = format!("{TSV_MAGIC}\n# nodes: 4 5\n4.7\t5\t3.5\n");
        let err = RttMatrix::from_tsv(&doc).expect_err("fractional id must be an error");
        assert!(err.contains("invalid node id \"4.7\""), "{err}");
        // IDs beyond u32 (where an f64 round-trip would also lose
        // precision past 2^53) are refused, not wrapped.
        let doc = format!("{TSV_MAGIC}\n# nodes: 4 5\n99999999999999999999\t5\t3.5\n");
        assert!(RttMatrix::from_tsv(&doc).is_err());
        let doc = format!("{TSV_MAGIC}\n# nodes: 4 5.5\n");
        assert!(
            RttMatrix::from_tsv(&doc).is_err(),
            "header ids are checked too"
        );
    }

    #[test]
    fn tsv_validates_the_magic_line() {
        // Regression: the magic line was read and discarded (`let
        // _magic`), so any garbage first line — or a future format
        // version — parsed as if it were v1.
        let err = RttMatrix::from_tsv("# ting all-pairs rtt matrix v2\n# nodes: 1 2\n")
            .expect_err("unknown versions must be refused");
        assert!(err.contains("unsupported matrix header"), "{err}");
        assert!(RttMatrix::from_tsv("hello\n# nodes: 1 2\n").is_err());
        // The real magic still parses.
        let doc = format!("{TSV_MAGIC}\n# nodes: 1 2\n1\t2\t3.5\n");
        let m = RttMatrix::from_tsv(&doc).unwrap();
        assert_eq!(m.get(NodeId(1), NodeId(2)), Some(3.5));
    }

    #[test]
    fn tsv_rejects_malformed_node_list_and_duplicates() {
        let doc = format!("{TSV_MAGIC}\n1 2\n");
        assert!(
            RttMatrix::from_tsv(&doc).is_err(),
            "missing '# nodes:' prefix"
        );
        let doc = format!("{TSV_MAGIC}\n# nodes: 1 2 1\n");
        let err = RttMatrix::from_tsv(&doc).expect_err("duplicate header node");
        assert!(err.contains("duplicate node 1"), "{err}");
    }

    #[test]
    fn tsv_rejects_non_finite_rtt() {
        // "inf" parses as a perfectly good f64; the matrix still must
        // not accept it.
        let doc = format!("{TSV_MAGIC}\n# nodes: 1 2\n1\t2\tinf\n");
        let err = RttMatrix::from_tsv(&doc).expect_err("non-finite rtt");
        assert!(
            err.contains("line 3") && err.contains("non-finite"),
            "{err}"
        );
    }

    #[test]
    fn try_set_reports_unknown_nodes_and_set_still_panics() {
        let mut m = RttMatrix::new(nodes(2));
        assert!(m.try_set(NodeId(0), NodeId(7), 1.0).is_err());
        assert!(m.try_set(NodeId(0), NodeId(1), f64::INFINITY).is_err());
        assert!(m.try_set(NodeId(0), NodeId(1), 1.5).is_ok());
        assert_eq!(m.get(NodeId(1), NodeId(0)), Some(1.5));
    }

    #[test]
    fn view_agrees_with_matrix() {
        let mut m = RttMatrix::new(nodes(5));
        m.set(NodeId(0), NodeId(1), 10.0);
        m.set(NodeId(3), NodeId(2), 4.25);
        m.set(NodeId(1), NodeId(4), 7.5);
        let v = m.view();
        assert_eq!(v.nodes(), m.nodes());
        assert_eq!(v.measured_pairs(), m.measured_pairs());
        for &a in m.nodes() {
            for &b in m.nodes() {
                assert_eq!(v.get(a, b), m.get(a, b), "({a:?}, {b:?})");
                let (i, j) = (v.index_of(a).unwrap(), v.index_of(b).unwrap());
                assert_eq!(v.get_idx(i, j), m.get(a, b));
            }
        }
        assert_eq!(v.index_of(NodeId(99)), None);
    }

    #[test]
    fn detour_kernel_finds_planted_violation_and_skips_unmeasured() {
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut m = RttMatrix::new(vec![a, b, c, d]);
        m.set(a, b, 100.0);
        m.set(a, c, 20.0);
        m.set(c, b, 20.0);
        // d has an unmeasured leg to b: it must not be a candidate for
        // (a, b) even though a–d is measured (and cheap).
        m.set(a, d, 1.0);
        let v = m.view();
        let best = v.best_detour(0, 1).expect("c has both legs");
        assert_eq!(best.via, 2);
        assert_eq!(best.rtt_ms, 40.0);

        // No third relay has both legs measured → no detour at all.
        let mut sparse = RttMatrix::new(nodes(3));
        sparse.set(NodeId(0), NodeId(1), 5.0);
        assert!(sparse.view().best_detour(0, 1).is_none());
    }

    #[test]
    fn values_match_pairs() {
        let mut m = RttMatrix::new(nodes(3));
        m.set(NodeId(0), NodeId(1), 1.0);
        m.set(NodeId(1), NodeId(2), 2.0);
        let mut v = m.values();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, vec![1.0, 2.0]);
    }
}
