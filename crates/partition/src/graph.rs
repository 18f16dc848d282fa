//! The weighted undirected graph consumed by the partitioner.
//!
//! Every graph the partitioner sees — a KG's, the re-weighted CPS target,
//! each coarsening level — goes through one construction path: an edge list
//! normalised to `(min, max)` keys, put in key order by a two-pass linear
//! sort, merged key by key, and laid out as CSR. All of it is `O(nv + |E|)`
//! with no hashing.
//!
//! Weights are integers, as METIS takes them: a KG edge weighs its triple
//! count, CPS's edges `w′` or `0`, and a coarse edge the sum of the fine
//! edges it contracts. Every sum the partitioner forms is therefore exact in
//! any order, and an input whose total edge weight fits in `u32` has every
//! coarse weight, cut and connectivity fit too — the input constructors
//! check that once (`check_fits`).

use largeea_kg::KnowledgeGraph;

/// An undirected graph with `u32` vertex and edge weights, stored in CSR
/// form (each edge appears in both endpoint's adjacency, and every adjacency
/// is in ascending neighbour order).
///
/// Duplicate input edges are merged by summing weights, so a KG's parallel
/// triples naturally strengthen the tie between their endpoints — exactly
/// the signal METIS-CPS manipulates.
#[derive(Debug, Clone)]
pub struct PartGraph {
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    ewgt: Vec<u32>,
    vwgt: Vec<u32>,
}

/// One undirected edge `(u, v, weight)` with `u < v`.
pub(crate) type Edge = (u32, u32, u32);

/// Refuses a graph whose total edge weight or adjacency length (`2·|E|`)
/// does not fit in `u32` — the width of every stored weight and offset.
/// What passes here cannot wrap later: every merged or coarse weight is the
/// sum of a subset of the edges, and coarse levels have no more edges than
/// their input.
pub(crate) fn check_fits(total_weight: u64, edges: usize) {
    assert!(
        total_weight <= u64::from(u32::MAX),
        "partition graph total edge weight {total_weight} exceeds u32::MAX ({})",
        u32::MAX
    );
    assert!(
        2 * edges as u64 <= u64::from(u32::MAX),
        "partition graph has {edges} edges; 2·|E| exceeds u32::MAX ({})",
        u32::MAX
    );
}

/// Normalises `edges` to `u < v` keys (self-loops dropped), orders them by
/// key and merges equal keys into one edge each, summing their weights.
///
/// The order comes from a two-pass counting sort (by `v`, then stably by
/// `u`). Adjacency order feeds the partitioner's tie-breaking, so ascending
/// key order is part of the contract; the weights are integers, so the order
/// in which a key's weights are summed is not.
pub(crate) fn merge_edges(nv: usize, edges: impl IntoIterator<Item = Edge>) -> Vec<Edge> {
    let edges = edges.into_iter();
    let mut list: Vec<Edge> = Vec::with_capacity(edges.size_hint().0);
    let mut total = 0u64;
    for (u, v, w) in edges {
        assert!(
            (u as usize) < nv && (v as usize) < nv,
            "edge endpoint out of range"
        );
        if u != v {
            total += u64::from(w);
            list.push(if u < v { (u, v, w) } else { (v, u, w) });
        }
    }
    check_fits(total, list.len());
    let mut scratch = vec![(0, 0, 0); list.len()];
    let mut start = vec![0usize; nv + 1];
    counting_sort(&list, &mut scratch, &mut start, |e| e.1);
    counting_sort(&scratch, &mut list, &mut start, |e| e.0);
    drop(scratch);

    let mut merged = 0usize; // list[..merged] holds the merged prefix
    let mut i = 0;
    while i < list.len() {
        let (u, v, _) = list[i];
        let mut sum = 0;
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
    /// Edges are symmetrised and duplicates merged (weights summed);
    /// self-loops are dropped (they never affect a cut).
    ///
    /// # Panics
    /// If an endpoint is out of range, or the total edge weight (self-loops
    /// aside) exceeds `u32::MAX`.
    pub fn from_edges(nv: usize, edges: impl IntoIterator<Item = (u32, u32, u32)>) -> Self {
        let merged = merge_edges(nv, edges);
        Self::from_merged(merged.iter().copied(), vec![1; nv])
    }

    /// Lays out edges that are already what [`merge_edges`] returns — `u < v`
    /// keys, each once, in ascending key order, within [`check_fits`] — as
    /// CSR over `vwgt.len()` vertices. Filling in key order leaves every
    /// adjacency in ascending neighbour order. `merged` is walked twice
    /// (degrees, then fill), so it may borrow from blocks nobody flattened.
    pub(crate) fn from_merged(merged: impl Iterator<Item = Edge> + Clone, vwgt: Vec<u32>) -> Self {
        let nv = vwgt.len();
        debug_assert!(merged.clone().all(|e| e.0 < e.1 && (e.1 as usize) < nv));
        debug_assert!(merged
            .clone()
            .zip(merged.clone().skip(1))
            .all(|(a, b)| (a.0, a.1) < (b.0, b.1)));
        let mut xadj = vec![0u32; nv + 1];
        for (u, v, _) in merged.clone() {
            xadj[u as usize + 1] += 1;
            xadj[v as usize + 1] += 1;
        }
        for v in 0..nv {
            xadj[v + 1] += xadj[v];
        }
        let mut cursor = xadj[..nv].to_vec();
        let mut adjncy = vec![0u32; xadj[nv] as usize];
        let mut ewgt = vec![0u32; xadj[nv] as usize];
        for (u, v, w) in merged {
            for (from, to) in [(u, v), (v, u)] {
                let c = &mut cursor[from as usize];
                adjncy[*c as usize] = to;
                ewgt[*c as usize] = w;
                *c += 1;
            }
        }
        Self {
            xadj,
            adjncy,
            ewgt,
            vwgt,
        }
    }

    /// Builds the unit-weight partition graph of a KG (one edge per triple;
    /// parallel triples accumulate weight, matching the paper's
    /// `w(e_i, e_j) = 1` per edge convention).
    pub fn from_kg(kg: &KnowledgeGraph) -> Self {
        Self::from_edges(
            kg.num_entities(),
            kg.triples().iter().map(|t| (t.head.0, t.tail.0, 1)),
        )
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
        u64::from(self.vwgt[v as usize])
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> u64 {
        self.vwgt.iter().map(|&w| u64::from(w)).sum()
    }

    /// `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let r = self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize;
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.ewgt[r].iter().copied())
    }

    /// Degree of `v` (distinct neighbours).
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.xadj[v as usize + 1] - self.xadj[v as usize]) as usize
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_ewgt(&self) -> u64 {
        self.ewgt.iter().map(|&w| u64::from(w)).sum::<u64>() / 2
    }

    /// Bytes the graph holds on the heap: offsets, adjacency, edge and
    /// vertex weights.
    pub(crate) fn heap_bytes(&self) -> usize {
        4 * (self.xadj.capacity()
            + self.adjncy.capacity()
            + self.ewgt.capacity()
            + self.vwgt.capacity())
    }

    /// Every adjacency as `(neighbour, weight)`: with the vertex weights,
    /// what two graphs must share to be the same graph to the partitioner.
    #[cfg(test)]
    pub(crate) fn adjacency(&self) -> Vec<Vec<(u32, u32)>> {
        (0..self.nv() as u32)
            .map(|v| self.neighbors(v).collect())
            .collect()
    }

    /// The graph with vertex weights `vwgt` in place of unit ones.
    #[cfg(test)]
    pub(crate) fn with_vertex_weights(mut self, vwgt: Vec<u32>) -> Self {
        assert_eq!(vwgt.len(), self.nv(), "vertex weight length mismatch");
        self.vwgt = vwgt;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::check::for_each_case;
    use std::collections::BTreeMap;

    /// The naive construction: sum every edge into a map keyed by
    /// `(min, max)`, then give each endpoint its entries in key order.
    fn adjacency_by_map(nv: usize, edges: &[Edge]) -> Vec<Vec<(u32, u32)>> {
        let mut merged: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for &(u, v, w) in edges {
            if u != v {
                *merged.entry((u.min(v), u.max(v))).or_insert(0) += w;
            }
        }
        let mut rows = vec![Vec::new(); nv];
        for ((u, v), w) in merged {
            rows[u as usize].push((v, w));
            rows[v as usize].push((u, w));
        }
        rows
    }

    #[test]
    fn from_edges_equals_the_map_reference() {
        for_each_case(0x6A_0001, 200, |rng| {
            let nv = rng.gen_range(1..60usize);
            let m = rng.gen_range(0..8 * nv);
            // few distinct endpoints, so keys repeat in both orientations
            // and self-loops occur; weights from zero to a share of u32
            let span = rng.gen_range(1..=nv as u32);
            let kind = rng.gen_range(0..3u32);
            let edges: Vec<Edge> = (0..m)
                .map(|_| {
                    let w = match kind {
                        0 => rng.gen_range(0..4u32),
                        1 => [0, 1, 1000][rng.gen_range(0..3usize)],
                        _ => rng.gen_range(0..=u32::MAX / (m as u32 + 1)),
                    };
                    (rng.gen_range(0..span), rng.gen_range(0..span), w)
                })
                .collect();
            let g = PartGraph::from_edges(nv, edges.iter().copied());
            assert_eq!(g.adjacency(), adjacency_by_map(nv, &edges));
        });
    }

    #[test]
    fn from_edges_symmetrises_and_merges() {
        let g = PartGraph::from_edges(3, vec![(0, 1, 1), (1, 0, 2), (1, 2, 1)]);
        assert_eq!(g.nv(), 3);
        assert_eq!(g.ne(), 2);
        let w01 = g.neighbors(0).find(|&(n, _)| n == 1).unwrap().1;
        assert_eq!(w01, 3);
        // symmetric view
        let w10 = g.neighbors(1).find(|&(n, _)| n == 0).unwrap().1;
        assert_eq!(w10, 3);
    }

    #[test]
    fn self_loops_dropped() {
        let g = PartGraph::from_edges(2, vec![(0, 0, 5), (0, 1, 1)]);
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
        assert_eq!(w, 2);
    }

    #[test]
    fn weights_default_to_unit() {
        let g = PartGraph::from_edges(4, vec![(0, 1, 1)]);
        assert_eq!(g.total_vwgt(), 4);
        assert_eq!(g.vwgt(3), 1);
    }

    #[test]
    fn total_ewgt_counts_each_edge_once() {
        let g = PartGraph::from_edges(3, vec![(0, 1, 2), (1, 2, 3)]);
        assert_eq!(g.total_ewgt(), 5);
    }

    #[test]
    fn a_total_weight_of_exactly_u32_max_is_accepted() {
        let g = PartGraph::from_edges(3, vec![(0, 1, u32::MAX - 1), (1, 2, 1), (2, 2, 7)]);
        assert_eq!(g.total_ewgt(), u64::from(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "total edge weight 4294967296 exceeds u32::MAX")]
    fn a_total_weight_past_u32_is_refused_not_wrapped() {
        // merged, the edge would weigh 0 in u32 arithmetic
        PartGraph::from_edges(2, vec![(0, 1, u32::MAX), (1, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        PartGraph::from_edges(2, vec![(0, 5, 1)]);
    }
}
