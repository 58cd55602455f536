//! All-pairs RTT matrices.
//!
//! §4.6 argues Ting's measurements are stable enough that "taking
//! measurements with Ting infrequently and caching them is sufficient,
//! and thus permits obtaining a large dataset of RTTs between Tor
//! nodes." [`RttMatrix`] is that dataset: symmetric, indexed by relay,
//! serializable to TSV so experiment binaries can regenerate or reload
//! it, and the input to every §5 application.

use crate::checkpoint::{write_nodes_header, Doc, Row};
use crate::orchestrator::{Ting, TingError};
use netsim::NodeId;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use tor_sim::TorNetwork;

/// A symmetric all-pairs RTT dataset over a fixed relay set.
///
/// One row-major `n × n` table (`NaN` = unmeasured, diagonal 0) under
/// both the scanner that fills it and the query services that read it.
/// Readers resolve `NodeId`s to dense indices once per request and then
/// work in index space: a lookup is a multiply and a load, each node's
/// distances are one contiguous [`RttMatrix::row`] for k-nearest scans,
/// and the detour kernel streams two rows linearly — no per-query
/// `HashMap` hops on the hot path.
#[derive(Debug, Clone)]
pub struct RttMatrix {
    nodes: Vec<NodeId>,
    index: HashMap<NodeId, u32>,
    /// Row-major `n × n`, symmetric; `NaN` = unmeasured, diagonal 0.
    /// Clones share it until one of them is written, which copies it:
    /// a served snapshot and the dataset it was cut from hold one table
    /// until the dataset's next fold.
    rtt_ms: Arc<Vec<f64>>,
}

/// Equal node lists and bit-equal cells: unmeasured cells are `NaN`,
/// which `f64`'s own `==` would make unequal to themselves.
impl PartialEq for RttMatrix {
    fn eq(&self, other: &RttMatrix) -> bool {
        let mut cells = self.rtt_ms.iter().zip(other.rtt_ms.iter());
        self.nodes == other.nodes && cells.all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// The first line of the [`RttMatrix::to_tsv`] format. Loaders refuse
/// anything else: a missing or unknown version means the file is not a
/// dataset this code knows how to interpret, and silently parsing it
/// anyway is how corrupt caches are born.
pub(crate) const TSV_MAGIC: &str = "# ting all-pairs rtt matrix v1";

/// A pair in ascending order — the one key order every pair-keyed map
/// and table in the workspace uses.
pub(crate) fn ordered<T: Ord>(a: T, b: T) -> (T, T) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A map keyed by a pair of nodes (in `ordered` order, by
/// convention) under [`PairHasher`]: the per-pair instants and lineage
/// of a merged dataset, read once per cell on every publish.
pub(crate) type PairMap<V> = HashMap<(NodeId, NodeId), V, BuildHasherDefault<PairHasher>>;

/// The hasher of a node-pair-keyed map (the crate's `PairMap`, such as
/// [`MergeOutcome::measured_at`](crate::MergeOutcome::measured_at)):
/// the two `u32` ids packed into one word,
/// then MurmurHash3's 64-bit multiply-xorshift finalizer, so every
/// input bit reaches the bits the table probes with. Not keyed: the
/// keys are ids from the dataset's own node list, and the documents it
/// is parsed back from are this program's own sealed output.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 << 32) | u64::from(id);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// What a cell refuses whatever the matrix: the diagonal (fixed at 0)
/// and a non-finite RTT.
fn admits_idx(i: u32, j: u32, rtt_ms: f64) -> Result<(), String> {
    if !rtt_ms.is_finite() {
        return Err(format!("non-finite RTT {rtt_ms}"));
    }
    if i == j {
        return Err("pair of a node with itself".into());
    }
    Ok(())
}

/// Lanes of the detour kernel's first pass: eight independent running
/// minimums, which rustc keeps in vector registers on any target.
const LANES: usize = 8;

/// `b` when it is below `a`, else `a`: a NaN `b` never replaces.
fn min_of(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// Folds every `a[v] + b[v]` into the lane-wise running minimum. A sum
/// with an unmeasured (`NaN`) leg is `NaN` and drops out.
fn lane_min(lanes: &mut [f64; LANES], a: &[f64], b: &[f64]) {
    let (a, b) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = a.remainder().iter().zip(b.remainder());
    for (x, y) in a.zip(b) {
        for ((m, x), y) in lanes.iter_mut().zip(x).zip(y) {
            *m = min_of(*m, x + y);
        }
    }
    for (x, y) in tail {
        lanes[0] = min_of(lanes[0], x + y);
    }
}

/// The best single-relay detour the kernel found for one pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetourBest {
    /// Dense index of the via relay.
    pub via: u32,
    /// `R(s, via) + R(via, d)` in milliseconds.
    pub rtt_ms: f64,
}

impl RttMatrix {
    /// Creates an empty matrix over `nodes`.
    ///
    /// # Panics
    /// Panics on duplicate nodes.
    #[expect(
        clippy::panic,
        reason = "documented to panic on a node list built in code; data goes through `try_new`"
    )]
    pub fn new(nodes: Vec<NodeId>) -> RttMatrix {
        RttMatrix::try_new(nodes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor for load paths: duplicate nodes become an
    /// error instead of a panic.
    pub(crate) fn try_new(nodes: Vec<NodeId>) -> Result<RttMatrix, String> {
        let mut index = HashMap::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            if index.insert(*n, i as u32).is_some() {
                return Err(format!("duplicate node {}", n.0));
            }
        }
        let n = nodes.len();
        let mut rtt_ms = vec![f64::NAN; n * n];
        for i in 0..n {
            rtt_ms[i * n + i] = 0.0;
        }
        Ok(RttMatrix {
            nodes,
            index,
            rtt_ms: Arc::new(rtt_ms),
        })
    }

    /// The relay set, in index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The slot of the pair in cells `(i, j)` and `(j, i)` in a table
    /// that holds each pair once, row by row over the upper triangle,
    /// diagonal included (`queue::tri_index`'s order).
    #[inline]
    pub fn pair_slot(&self, i: u32, j: u32) -> usize {
        crate::queue::tri_index(self.len(), i as usize, j as usize)
    }

    /// Slots in such a table: `n(n + 1)/2` over `n` nodes.
    pub fn pair_slots(&self) -> usize {
        self.len() * (self.len() + 1) / 2
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

    /// Index-space lookup (symmetric); `None` = unmeasured. The
    /// diagonal is 0.
    #[inline]
    pub fn get_idx(&self, i: u32, j: u32) -> Option<f64> {
        let v = self.rtt_ms[i as usize * self.nodes.len() + j as usize];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Node-space lookup (resolves both IDs, then [`RttMatrix::get_idx`]).
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

    /// Records a measurement (symmetric).
    ///
    /// # Panics
    /// Panics on a non-finite RTT, a node outside the matrix or a pair
    /// of a node with itself; load paths that cannot trust their input
    /// use `RttMatrix::try_set`.
    #[expect(
        clippy::panic,
        reason = "documented to panic on a cell built in code; data goes through `try_set`"
    )]
    pub fn set(&mut self, a: NodeId, b: NodeId, rtt_ms: f64) {
        self.try_set(a, b, rtt_ms).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible [`RttMatrix::set`]: unknown nodes, non-finite RTTs and
    /// the diagonal (fixed at 0) become errors instead of panics. Returns
    /// the cell written, in index space.
    pub(crate) fn try_set(
        &mut self,
        a: NodeId,
        b: NodeId,
        rtt_ms: f64,
    ) -> Result<(u32, u32), String> {
        let (ia, ib) = self.admits(a, b, rtt_ms)?;
        self.set_idx(ia, ib, rtt_ms).map(|()| (ia, ib))
    }

    /// The cell [`RttMatrix::try_set`] would write, or its refusal —
    /// asked without writing.
    pub(crate) fn admits(&self, a: NodeId, b: NodeId, rtt_ms: f64) -> Result<(u32, u32), String> {
        let lookup = |n: NodeId| {
            self.index_of(n)
                .ok_or_else(|| format!("unknown node {}", n.0))
        };
        let (ia, ib) = (lookup(a)?, lookup(b)?);
        admits_idx(ia, ib, rtt_ms).map(|()| (ia, ib))
    }

    /// [`RttMatrix::try_set`] in index space.
    fn set_idx(&mut self, i: u32, j: u32, rtt_ms: f64) -> Result<(), String> {
        admits_idx(i, j, rtt_ms)?;
        let (i, j, n) = (i as usize, j as usize, self.nodes.len());
        let cells = Arc::make_mut(&mut self.rtt_ms);
        cells[i * n + j] = rtt_ms;
        cells[j * n + i] = rtt_ms;
        Ok(())
    }

    /// Reads a node-id field: the index of a node this matrix has.
    pub(crate) fn read_node(&self, row: &mut Row) -> Result<u32, String> {
        let id = row.field("node id")?;
        self.index_of(NodeId(id))
            .ok_or_else(|| row.err(&format!("unknown node {id}")))
    }

    /// Reads the two node-id fields of a pair row.
    pub(crate) fn read_pair(&self, row: &mut Row) -> Result<(u32, u32), String> {
        let (i, j) = (self.read_node(row)?, self.read_node(row)?);
        if i == j {
            return Err(row.err("pair of a node with itself"));
        }
        Ok((i, j))
    }

    /// Reads the `a b rtt` fields every measurement row starts with, in
    /// all three documents, into their cell: one row a pair.
    pub(crate) fn read_cell(&mut self, row: &mut Row) -> Result<(u32, u32), String> {
        let (i, j) = self.read_pair(row)?;
        let rtt = row.field("rtt")?;
        if self.get_idx(i, j).is_some() {
            return Err(row.err("a second row for the pair"));
        }
        self.set_idx(i, j, rtt).map_err(|e| row.err(&e))?;
        Ok((i, j))
    }

    /// Iterates all measured off-diagonal pairs `(a, b, rtt)` with
    /// `a` before `b` in index order.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.cells()
            .map(|(i, j, v)| (self.node(i), self.node(j), v))
    }

    /// [`RttMatrix::pairs`] in index space: every measured cell
    /// `(i, j, rtt)` with `i < j`, row by row.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        (0..self.nodes.len() as u32).flat_map(move |i| {
            let above = self.row(i).iter().zip(0..).skip(i as usize + 1);
            above
                .filter(|(v, _)| !v.is_nan())
                .map(move |(&v, j)| (i, j, v))
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

    /// The shared ShorTor/TIV detour kernel: the via relay minimizing
    /// `R(s, v) + R(v, d)` over every relay `v ∉ {s, d}` with both legs
    /// measured. Ties keep the lowest index — the same deterministic
    /// answer `analysis::tiv` has always produced. Returns `None` when
    /// no third relay has both legs measured.
    ///
    /// Two passes over the three spans `[0, lo)`, `(lo, hi)`, `(hi, n)`
    /// around the endpoints: a lane-wise minimum of the sums, then the
    /// first relay whose sum `==` it. That is the first strict minimum
    /// in index order, bit for bit: `==` equates ±0 and the second pass
    /// returns the first relay's own sum, and a sum that overflowed to
    /// `+∞` still wins when nothing finite exists.
    pub fn best_detour(&self, i: u32, j: u32) -> Option<DetourBest> {
        let (row_i, row_j) = (self.row(i), self.row(j));
        let (lo, hi) = ordered(i as usize, j as usize);
        let spans = [0..lo, (lo + 1).min(hi)..hi, hi + 1..row_i.len()];
        let mut lanes = [f64::INFINITY; LANES];
        for span in spans.clone() {
            lane_min(&mut lanes, &row_i[span.clone()], &row_j[span]);
        }
        let min = lanes.into_iter().fold(f64::INFINITY, min_of);
        spans.into_iter().find_map(|span| {
            let sums = row_i[span.clone()].iter().zip(&row_j[span.clone()]);
            let v = span.start + sums.map(|(a, b)| a + b).position(|s| s == min)?;
            Some(DetourBest {
                via: v as u32,
                rtt_ms: row_i[v] + row_j[v],
            })
        })
    }

    /// Serializes to a TSV document (`a b rtt_ms` per line, header with
    /// the node list) — the cacheable dataset §4.6 calls for.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(TSV_MAGIC);
        out.push('\n');
        write_nodes_header(&mut out, &self.nodes);
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

    /// Parses the [`RttMatrix::to_tsv`] format — strictly (DESIGN.md
    /// §19), because a cached dataset that loads wrongly poisons every
    /// downstream application: `TSV_MAGIC` exactly, `u32` node ids
    /// from the header, three fields a row, one row a pair.
    pub fn from_tsv(text: &str) -> Result<RttMatrix, String> {
        let mut doc = Doc::open(text, TSV_MAGIC, "matrix")?;
        let mut m = doc.nodes()?;
        for mut row in doc.rows() {
            m.read_cell(&mut row)?;
            row.end()?;
        }
        Ok(m)
    }
}

/// The detour kernel as it was before the lane passes: one branch per
/// candidate, in index order — what the two-pass kernel must equal.
#[cfg(test)]
mod reference {
    use super::{DetourBest, RttMatrix};

    pub fn best_detour(m: &RttMatrix, i: u32, j: u32) -> Option<DetourBest> {
        let (row_i, row_j) = (m.row(i), m.row(j));
        let mut best: Option<DetourBest> = None;
        for v in 0..m.len() as u32 {
            if v == i || v == j {
                continue;
            }
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
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn a_clone_keeps_its_cells_whichever_side_is_written() {
        let mut a = RttMatrix::new(nodes(3));
        a.set(NodeId(0), NodeId(1), 5.0);
        let mut b = a.clone();
        b.set(NodeId(1), NodeId(0), 7.0);
        let c = b.clone();
        b.set(NodeId(2), NodeId(1), 9.0);
        assert_eq!(a.get(NodeId(0), NodeId(1)), Some(5.0));
        assert_eq!(b.get(NodeId(0), NodeId(1)), Some(7.0));
        assert_eq!(
            (a.get(NodeId(1), NodeId(2)), c.get(NodeId(1), NodeId(2))),
            (None, None)
        );
        assert_eq!(b.get(NodeId(1), NodeId(2)), Some(9.0));
        assert_eq!(c.get(NodeId(1), NodeId(0)), Some(7.0));
    }

    /// Every ordered pair, the diagonal included, against the old loop
    /// with the sums compared as bits.
    fn assert_detours_match_reference(m: &RttMatrix) {
        let bits = |b: Option<DetourBest>| b.map(|b| (b.via, b.rtt_ms.to_bits()));
        for i in 0..m.len() as u32 {
            for j in 0..m.len() as u32 {
                let (got, want) = (m.best_detour(i, j), reference::best_detour(m, i, j));
                assert_eq!(bits(got), bits(want), "n {} ({i}, {j})", m.len());
            }
        }
    }

    #[test]
    fn detour_kernel_equals_the_scalar_loop_across_lane_boundaries() {
        // Cell values chosen to break a careless kernel: signed zeros
        // (first index keeps its own bits), negatives, and legs whose
        // sum overflows to ±∞ or cancels to 0.
        const AWKWARD: [f64; 9] = [
            -0.0,
            0.0,
            -2.5,
            1.0,
            1.0,
            f64::MAX,
            f64::MAX * 0.75,
            -f64::MAX,
            7.25,
        ];
        let mut rng = SmallRng::seed_from_u64(2015);
        for n in 0..=40u32 {
            for density in [0, 1, 3, 4] {
                let mut m = RttMatrix::new(nodes(n));
                for a in 0..n {
                    for b in a + 1..n {
                        if rng.gen_range(0..4u32) < density {
                            let v = AWKWARD[rng.gen_range(0..AWKWARD.len())];
                            m.set(NodeId(a), NodeId(b), v);
                        }
                    }
                }
                assert_detours_match_reference(&m);
            }
        }
        // Every leg at f64::MAX: each sum is +∞, and the first relay
        // still wins, as the scalar loop's `is_none_or` had it.
        let mut m = RttMatrix::new(nodes(19));
        for a in 0..19 {
            for b in a + 1..19 {
                m.set(NodeId(a), NodeId(b), f64::MAX);
            }
        }
        assert_eq!(
            m.best_detour(5, 11),
            Some(DetourBest {
                via: 0,
                rtt_ms: f64::INFINITY
            })
        );
        assert_detours_match_reference(&m);
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
        // Regression: the diagonal slot was writable, and afterwards
        // `get_idx(1, 1)` answered 5 where every reader takes 0.
        let err = m.try_set(NodeId(1), NodeId(1), 5.0).unwrap_err();
        assert_eq!(err, "pair of a node with itself");
        assert_eq!(m.get_idx(1, 1), Some(0.0));
        assert!(m.try_set(NodeId(0), NodeId(1), 1.5).is_ok());
        assert_eq!(m.get(NodeId(1), NodeId(0)), Some(1.5));
    }

    #[test]
    fn tsv_rejects_a_self_pair_row() {
        let doc = format!("{TSV_MAGIC}\n# nodes: 1 2\n1\t2\t3.5\n1\t1\t5\n");
        let err = RttMatrix::from_tsv(&doc).expect_err("self-pair row must be an error");
        assert!(
            err.contains("line 4") && err.contains("pair of a node with itself"),
            "{err}"
        );
    }

    #[test]
    fn the_diagonal_is_zero_in_both_address_spaces() {
        let m = RttMatrix::new(nodes(3));
        assert_eq!(m.get_idx(1, 1), Some(0.0));
        assert_eq!(m.get(NodeId(1), NodeId(1)), Some(0.0));
        assert_eq!(m.row(2)[2], 0.0);
        // Unknown nodes fail to resolve before the diagonal is looked at.
        assert_eq!(m.get(NodeId(9), NodeId(9)), None);
    }

    #[test]
    fn incomplete_matrices_compare_by_cell_bits() {
        // Unmeasured cells are NaN: a derived `PartialEq` would make
        // every incomplete matrix unequal to its own clone.
        let mut m = RttMatrix::new(nodes(3));
        m.set(NodeId(0), NodeId(1), 10.0);
        assert_eq!(m, m.clone());
        let mut other = m.clone();
        other.set(NodeId(0), NodeId(2), 10.0);
        assert_ne!(m, other);
        assert_ne!(m, RttMatrix::new(vec![NodeId(0), NodeId(1), NodeId(7)]));
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
        let best = m.best_detour(0, 1).expect("c has both legs");
        assert_eq!(best.via, 2);
        assert_eq!(best.rtt_ms, 40.0);

        // No third relay has both legs measured → no detour at all.
        let mut sparse = RttMatrix::new(nodes(3));
        sparse.set(NodeId(0), NodeId(1), 5.0);
        assert!(sparse.best_detour(0, 1).is_none());
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
