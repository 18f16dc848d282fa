//! The weighted undirected graph consumed by the partitioner.
//!
//! Every graph the partitioner sees — a KG's, the re-weighted CPS target,
//! each coarsening level — goes through one construction path: an edge list
//! normalised to `(min, max)` keys, put in key order by a stable linear
//! sort, merged key by key, and laid out as CSR. All of it is `O(nv + |E|)`
//! with no hashing.

use largeea_kg::KnowledgeGraph;

/// An undirected graph with vertex weights and `f64` edge weights, stored in
/// CSR form (each edge appears in both endpoint's adjacency, and every
/// adjacency is in ascending neighbour order).
///
/// Duplicate input edges are merged by summing weights, so a KG's parallel
/// triples naturally strengthen the tie between their endpoints — exactly
/// the signal METIS-CPS manipulates.
#[derive(Debug, Clone)]
pub struct PartGraph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    ewgt: Vec<f64>,
    vwgt: Vec<u64>,
}

/// One undirected edge `(u, v, weight)` with `u < v`.
pub(crate) type Edge = (u32, u32, f64);

/// Normalises `edges` to `u < v` keys (self-loops dropped), orders them by
/// key and merges equal keys into one edge each.
///
/// The order comes from a stable two-pass counting sort (by `v`, then by
/// `u`), so edges with the same key stay in input order and their weights
/// are summed in that order, starting from `+0.0`: the merged weight has the
/// bits that `0.0 + w₁ + w₂ + …` has when evaluated left to right over the
/// input. Adjacency order feeds the partitioner's tie-breaking and the
/// weights feed its gains, so both are part of the contract.
pub(crate) fn merge_edges(nv: usize, edges: impl IntoIterator<Item = Edge>) -> Vec<Edge> {
    let edges = edges.into_iter();
    let mut list: Vec<Edge> = Vec::with_capacity(edges.size_hint().0);
    for (u, v, w) in edges {
        assert!(
            (u as usize) < nv && (v as usize) < nv,
            "edge endpoint out of range"
        );
        if u != v {
            list.push(if u < v { (u, v, w) } else { (v, u, w) });
        }
    }
    let mut scratch = vec![(0, 0, 0.0); list.len()];
    let mut start = vec![0usize; nv + 1];
    counting_sort(&list, &mut scratch, &mut start, |e| e.1);
    counting_sort(&scratch, &mut list, &mut start, |e| e.0);

    let mut merged = 0usize; // list[..merged] holds the merged prefix
    let mut i = 0;
    while i < list.len() {
        let (u, v, _) = list[i];
        let mut sum = 0.0;
        while i < list.len() && (list[i].0, list[i].1) == (u, v) {
            sum += list[i].2;
            i += 1;
        }
        list[merged] = (u, v, sum);
        merged += 1;
    }
    list.truncate(merged);
    list
}

/// Stable counting sort of `src` into `dst` by `key` (all keys below
/// `start.len() - 1`); `start` is scratch.
fn counting_sort(src: &[Edge], dst: &mut [Edge], start: &mut [usize], key: impl Fn(&Edge) -> u32) {
    start.fill(0);
    for e in src {
        start[key(e) as usize + 1] += 1;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    for e in src {
        let slot = &mut start[key(e) as usize];
        dst[*slot] = *e;
        *slot += 1;
    }
}

impl PartGraph {
    /// Builds from an edge list over `nv` vertices with unit vertex weights.
    /// Edges are symmetrised and duplicates merged (weights summed in input
    /// order); self-loops are dropped (they never affect a cut).
    pub fn from_edges(nv: usize, edges: impl IntoIterator<Item = (u32, u32, f64)>) -> Self {
        Self::from_merged(nv, &merge_edges(nv, edges))
    }

    /// Lays out edges that are already what [`merge_edges`] returns — `u < v`
    /// keys, each once, in ascending key order — as CSR. Filling in key
    /// order leaves every adjacency in ascending neighbour order.
    pub(crate) fn from_merged(nv: usize, merged: &[Edge]) -> Self {
        debug_assert!(merged.iter().all(|e| e.0 < e.1 && (e.1 as usize) < nv));
        debug_assert!(merged
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut xadj = vec![0usize; nv + 1];
        for &(u, v, _) in merged {
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for v in 0..nv {
            xadj[v + 1] += xadj[v];
        }
        let mut cursor = xadj[..nv].to_vec();
        let mut adjncy = vec![0u32; 2 * merged.len()];
        let mut ewgt = vec![0.0f64; 2 * merged.len()];
        for &(u, v, w) in merged {
            for (from, to) in [(u, v), (v, u)] {
                let c = &mut cursor[from as usize];
                adjncy[*c] = to;
                ewgt[*c] = w;
                *c += 1;
            }
        }
        Self {
            xadj,
            adjncy,
            ewgt,
            vwgt: vec![1; nv],
        }
    }

    /// Builds the unit-weight partition graph of a KG (one edge per triple;
    /// parallel triples accumulate weight, matching the paper's
    /// `w(e_i, e_j) = 1` per edge convention).
    pub fn from_kg(kg: &KnowledgeGraph) -> Self {
        Self::from_edges(
            kg.num_entities(),
            kg.triples().iter().map(|t| (t.head.0, t.tail.0, 1.0)),
        )
    }

    /// Builds with explicit vertex weights.
    pub fn with_vertex_weights(mut self, vwgt: Vec<u64>) -> Self {
        assert_eq!(vwgt.len(), self.nv(), "vertex weight length mismatch");
        self.vwgt = vwgt;
        self
    }

    /// Number of vertices.
    pub fn nv(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges.
    pub fn ne(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vwgt(&self, v: u32) -> u64 {
        self.vwgt[v as usize]
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.ewgt[r].iter().copied())
    }

    /// Degree of `v` (distinct neighbours).
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_ewgt(&self) -> f64 {
        self.ewgt.iter().sum::<f64>() / 2.0
    }

    /// Every adjacency as `(neighbour, weight bits)`: with the vertex
    /// weights, what two graphs must share to be the same graph to the
    /// partitioner.
    #[cfg(test)]
    pub(crate) fn adjacency_bits(&self) -> Vec<Vec<(u32, u64)>> {
        (0..self.nv() as u32)
            .map(|v| self.neighbors(v).map(|(n, w)| (n, w.to_bits())).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::check::for_each_case;
    use std::collections::BTreeMap;

    /// The naive construction: sum every edge into a map keyed by
    /// `(min, max)`, then give each endpoint its entries in key order.
    fn adjacency_by_map(nv: usize, edges: &[Edge]) -> Vec<Vec<(u32, u64)>> {
        let mut merged: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for &(u, v, w) in edges {
            if u != v {
                *merged.entry((u.min(v), u.max(v))).or_insert(0.0) += w;
            }
        }
        let mut rows = vec![Vec::new(); nv];
        for ((u, v), w) in merged {
            rows[u as usize].push((v, w.to_bits()));
            rows[v as usize].push((u, w.to_bits()));
        }
        rows
    }

    #[test]
    fn from_edges_equals_the_map_reference_bit_for_bit() {
        for_each_case(0x6A_0001, 200, |rng| {
            let nv = rng.gen_range(1..60usize);
            let m = rng.gen_range(0..8 * nv);
            // few distinct endpoints, so keys repeat in both orientations
            // and self-loops occur; weights from tame to any bit pattern
            let span = rng.gen_range(1..=nv as u32);
            let kind = rng.gen_range(0..3u32);
            let edges: Vec<Edge> = (0..m)
                .map(|_| {
                    let w = match kind {
                        0 => rng.gen_range(0..4u32) as f64,
                        1 => [0.1, 0.2, 0.3, -0.0, 1e300, -1e300][rng.gen_range(0..6usize)],
                        _ => f64::from_bits(rng.next_u64()),
                    };
                    (rng.gen_range(0..span), rng.gen_range(0..span), w)
                })
                .collect();
            let g = PartGraph::from_edges(nv, edges.iter().copied());
            assert_eq!(g.adjacency_bits(), adjacency_by_map(nv, &edges));
        });
    }

    #[test]
    fn from_edges_symmetrises_and_merges() {
        let g = PartGraph::from_edges(3, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)]);
        assert_eq!(g.nv(), 3);
        assert_eq!(g.ne(), 2);
        let w01 = g.neighbors(0).find(|&(n, _)| n == 1).unwrap().1;
        assert_eq!(w01, 3.0);
        // symmetric view
        let w10 = g.neighbors(1).find(|&(n, _)| n == 0).unwrap().1;
        assert_eq!(w10, 3.0);
    }

    #[test]
    fn self_loops_dropped() {
        let g = PartGraph::from_edges(2, vec![(0, 0, 5.0), (0, 1, 1.0)]);
        assert_eq!(g.ne(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn from_kg_accumulates_parallel_triples() {
        let mut kg = KnowledgeGraph::new("EN");
        kg.add_triple_by_name("a", "r1", "b");
        kg.add_triple_by_name("a", "r2", "b");
        let g = PartGraph::from_kg(&kg);
        assert_eq!(g.ne(), 1);
        let w = g.neighbors(0).next().unwrap().1;
        assert_eq!(w, 2.0);
    }

    #[test]
    fn weights_default_to_unit() {
        let g = PartGraph::from_edges(4, vec![(0, 1, 1.0)]);
        assert_eq!(g.total_vwgt(), 4);
        assert_eq!(g.vwgt(3), 1);
    }

    #[test]
    fn total_ewgt_counts_each_edge_once() {
        let g = PartGraph::from_edges(3, vec![(0, 1, 2.0), (1, 2, 3.0)]);
        assert_eq!(g.total_ewgt(), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        PartGraph::from_edges(2, vec![(0, 5, 1.0)]);
    }
}
