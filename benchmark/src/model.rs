//! The harness's own reference for what the pipeline must serve: a
//! last-write-wins table over pairs, a renderer for the merged-matrix
//! document, and brute-force answers to the three query families.
//! None of it calls the code under test except the CRC seal.

use netsim::NodeId;
use std::collections::HashMap;
use std::fmt::Write as _;
use ting::shard::MergeDelta;

/// One measured cell: value, measurement instant, producing shard and
/// scan round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub rtt_ms: f64,
    pub at_ns: u64,
    pub shard: u32,
    pub round: u64,
}

#[derive(Debug, Clone)]
pub struct Model {
    nodes: Vec<NodeId>,
    index: HashMap<NodeId, usize>,
    shards: usize,
    /// Dense `n × n`, both triangles filled.
    cells: Vec<Option<Cell>>,
    statuses: Vec<&'static str>,
}

impl Model {
    pub fn new(nodes: Vec<NodeId>, shards: usize) -> Model {
        let n = nodes.len();
        Model {
            index: nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect(),
            nodes,
            shards,
            cells: vec![None; n * n],
            statuses: vec!["live"; shards],
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn index_of(&self, node: NodeId) -> usize {
        self.index[&node]
    }

    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// Applies a delta in order: a later pair overwrites an earlier one.
    pub fn apply(&mut self, delta: &MergeDelta) {
        let n = self.len();
        for p in &delta.pairs {
            let (i, j) = (self.index[&p.a], self.index[&p.b]);
            let cell = Some(Cell {
                rtt_ms: p.rtt_ms,
                at_ns: p.measured_at.as_nanos(),
                shard: p.lineage.shard,
                round: p.lineage.round,
            });
            self.cells[i * n + j] = cell;
            self.cells[j * n + i] = cell;
        }
        self.statuses.clone_from(&delta.statuses);
    }

    pub fn cell(&self, i: usize, j: usize) -> Option<Cell> {
        self.cells[i * self.len() + j]
    }

    #[cfg(test)]
    pub fn measured_pairs(&self) -> usize {
        self.cells.iter().flatten().count() / 2
    }

    /// The sealed merged-matrix document a publish at `now_ns` must
    /// produce: header, one coverage row per shard (pairs assigned
    /// round-robin by their position in `(i, j)` index order), then one
    /// row per measured pair in index order.
    pub fn document(&self, now_ns: u64, staleness_ns: u64) -> String {
        let n = self.len();
        let mut out = String::from("# ting merged matrix v2\n# nodes:");
        for node in &self.nodes {
            let _ = write!(out, " {}", node.0);
        }
        let _ = writeln!(out, "\n# now_ns: {now_ns}");

        #[derive(Default, Clone)]
        struct Coverage {
            owned: usize,
            covered: usize,
            stale: usize,
            oldest: Option<u64>,
            newest: Option<u64>,
        }
        let mut coverage = vec![Coverage::default(); self.shards];
        let mut rows = String::new();
        let mut position = 0usize;
        for i in 0..n {
            for j in i + 1..n {
                let c = &mut coverage[position % self.shards];
                position += 1;
                c.owned += 1;
                let Some(cell) = self.cell(i, j) else {
                    continue;
                };
                c.covered += 1;
                if now_ns.saturating_sub(cell.at_ns) >= staleness_ns {
                    c.stale += 1;
                }
                c.oldest = Some(c.oldest.map_or(cell.at_ns, |o| o.min(cell.at_ns)));
                c.newest = Some(c.newest.map_or(cell.at_ns, |o| o.max(cell.at_ns)));
                let _ = writeln!(
                    rows,
                    "m\t{}\t{}\t{}\t{}\t{}\t{}",
                    self.nodes[i].0,
                    self.nodes[j].0,
                    cell.rtt_ms,
                    cell.at_ns,
                    cell.shard,
                    cell.round
                );
            }
        }
        let dash = |t: Option<u64>| t.map_or_else(|| "-".to_owned(), |t| t.to_string());
        for (k, c) in coverage.iter().enumerate() {
            let _ = writeln!(
                out,
                "s\t{k}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                self.statuses[k],
                c.owned,
                c.covered,
                c.stale,
                c.owned - c.covered,
                dash(c.oldest),
                dash(c.newest),
            );
        }
        out.push_str(&rows);
        ting::checkpoint::seal(out)
    }

    /// The `k` measured neighbours of `i`, ascending by RTT, index
    /// order breaking ties.
    pub fn k_nearest(&self, i: usize, k: usize) -> Vec<(usize, f64)> {
        let mut all: Vec<(usize, f64)> = (0..self.len())
            .filter(|&v| v != i)
            .filter_map(|v| self.cell(i, v).map(|c| (v, c.rtt_ms)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// The via relay minimising `R(i, v) + R(v, j)` over relays with
    /// both legs measured; the lowest index wins a tie.
    pub fn best_via(&self, i: usize, j: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for v in (0..self.len()).filter(|&v| v != i && v != j) {
            let (Some(a), Some(b)) = (self.cell(i, v), self.cell(v, j)) else {
                continue;
            };
            let sum = a.rtt_ms + b.rtt_ms;
            if best.is_none_or(|(_, s)| sum < s) {
                best = Some((v, sum));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use ting::obs::Lineage;
    use ting::shard::{parse_merged_document, DeltaPair};

    fn delta(pairs: &[(u32, u32, f64, u64)]) -> MergeDelta {
        MergeDelta {
            seq: 1,
            pairs: pairs
                .iter()
                .map(|&(a, b, rtt_ms, t)| DeltaPair {
                    a: NodeId(a),
                    b: NodeId(b),
                    rtt_ms,
                    measured_at: SimTime(t),
                    lineage: Lineage { shard: 1, round: t },
                })
                .collect(),
            statuses: vec!["live", "restarting"],
            now: SimTime(100),
        }
    }

    fn nodes(n: u32) -> Vec<NodeId> {
        (10..10 + n).map(NodeId).collect()
    }

    #[test]
    fn last_write_wins() {
        let mut m = Model::new(nodes(4), 2);
        m.apply(&delta(&[(10, 11, 5.0, 1), (11, 10, 7.5, 2)]));
        assert_eq!(m.cell(0, 1).unwrap().rtt_ms, 7.5);
        assert_eq!(m.cell(1, 0).unwrap().at_ns, 2);
        assert_eq!(m.measured_pairs(), 1);
    }

    #[test]
    fn document_parses_back_through_the_program() {
        let mut m = Model::new(nodes(4), 2);
        m.apply(&delta(&[
            (10, 11, 5.25, 1),
            (12, 13, 0.1 + 0.2, 90),
            (10, 13, 9.0, 40),
        ]));
        let doc = m.document(100, 50);
        let parsed = parse_merged_document(&doc).expect("the program accepts the model's document");
        assert_eq!(parsed.now_ns, 100);
        assert_eq!(parsed.matrix.get(NodeId(12), NodeId(13)), Some(0.1 + 0.2));
        assert_eq!(parsed.shards.len(), 2);
        // pairs in index order: (0,1)→s0 (0,2)→s1 (0,3)→s0 (1,2)→s1 (1,3)→s0 (2,3)→s1
        assert_eq!((parsed.shards[0].owned, parsed.shards[0].covered), (3, 2));
        assert_eq!(
            parsed.shards[0].stale, 2,
            "t=1 and t=40 are ≥ 50 ns old at 100"
        );
        assert_eq!((parsed.shards[1].covered, parsed.shards[1].stale), (1, 0));
        assert_eq!(parsed.shards[1].status, "restarting");
        assert_eq!(parsed.shards[0].oldest_ns, Some(1));
    }

    #[test]
    fn brute_force_queries() {
        let mut m = Model::new(nodes(4), 1);
        m.apply(&delta(&[
            (10, 11, 30.0, 1),
            (10, 12, 10.0, 1),
            (12, 11, 10.0, 1),
            (10, 13, 10.0, 1),
            (13, 11, 10.0, 1),
        ]));
        assert_eq!(m.k_nearest(0, 2), vec![(2, 10.0), (3, 10.0)]);
        assert_eq!(
            m.best_via(0, 1),
            Some((2, 20.0)),
            "lowest index wins the tie"
        );
        assert_eq!(m.best_via(2, 3), Some((0, 20.0)));
        assert_eq!(m.k_nearest(0, 9).len(), 3);
    }
}
