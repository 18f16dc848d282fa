//! Heavy-edge-matching coarsening (multilevel phase 1).
//!
//! Vertices are visited in a seeded random order; each unmatched vertex is
//! matched with its unmatched neighbour across the *heaviest positive* edge
//! (zero-weight edges — METIS-CPS phase 2's "release" edges — are never
//! contracted, so the partitioner stays free to cut them). Matched pairs
//! collapse into coarse vertices whose weight is the pair's sum; coarse edge
//! weights accumulate all fine edges between the clusters.
//!
//! A round is one pass over the adjacency for the matching and one for the
//! contraction, which writes the coarse graph's merged edges row by row —
//! `O(nv + |E|)` plus a sort of each coarse row's few neighbours, with no
//! edge list to sort again and nothing hashed.

use crate::graph::{Edge, PartGraph};
use largeea_common::obs::Recorder;
use largeea_common::pool::Pool;
use largeea_common::rng::{Rng, SliceRandom};

/// One coarsening step: the coarse graph and the fine→coarse vertex map.
#[derive(Debug)]
pub struct CoarseLevel {
    /// The coarsened graph.
    pub graph: PartGraph,
    /// `map[fine_vertex] = coarse_vertex`.
    pub map: Vec<u32>,
}

/// Runs one round of heavy-edge matching, producing the next-coarser level.
pub fn coarsen_once(g: &PartGraph, seed: u64) -> CoarseLevel {
    let nv = g.nv();
    let mut order: Vec<u32> = (0..nv as u32).collect();
    order.shuffle(&mut Rng::seed_from_u64(seed));

    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; nv];
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for (n, w) in g.neighbors(v) {
            if n != v
                && mate[n as usize] == UNMATCHED
                && w > 0.0
                && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((n, w));
            }
        }
        match best {
            Some((n, _)) => {
                mate[v as usize] = n;
                mate[n as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }

    // Assign coarse ids: one per matched pair / singleton, smallest fine id
    // decides, keeping the numbering deterministic. `members[c]` lists the
    // fine vertices of coarse vertex `c`, smaller id first (a singleton
    // twice).
    let mut map = vec![u32::MAX; nv];
    let mut members: Vec<(u32, u32)> = Vec::with_capacity(nv / 2 + 1);
    for v in 0..nv as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let m = mate[v as usize];
        map[v as usize] = members.len() as u32;
        map[m as usize] = members.len() as u32;
        members.push((v, m));
    }

    let vwgt = members
        .iter()
        .map(|&(v, m)| g.vwgt(v) + if m != v { g.vwgt(m) } else { 0 })
        .collect();

    // Contract straight into merged, key-ordered edges. The matching above
    // is inherently sequential (each decision depends on all earlier ones);
    // the contraction is not: coarse row `c` gathers the edges its members
    // send to higher-numbered coarse vertices — smaller fine id first, each
    // in adjacency order — then a stable sort by coarse neighbour and a
    // left-to-right sum per neighbour merge them. That is the order in which
    // a walk over the fine vertices would have emitted them, so each coarse
    // weight is the same `0.0 + w₁ + w₂ + …` for any thread count. Blocks of
    // rows concatenate in key order, which is what `from_merged` takes.
    let blocks = Pool::global().map_blocks(members.len(), 1024, |rows| {
        let mut out: Vec<Edge> = Vec::new();
        let mut row: Vec<(u32, f64)> = Vec::new();
        for c in rows {
            let (v, m) = members[c];
            row.clear();
            for fine in std::iter::once(v).chain((m != v).then_some(m)) {
                row.extend(
                    g.neighbors(fine)
                        .map(|(n, w)| (map[n as usize], w))
                        .filter(|&(cn, _)| cn as usize > c),
                );
            }
            row.sort_by_key(|&(cn, _)| cn);
            for &(cn, w) in &row {
                match out.last_mut() {
                    Some(last) if (last.0, last.1) == (c as u32, cn) => last.2 += w,
                    _ => out.push((c as u32, cn, 0.0 + w)),
                }
            }
        }
        out
    });
    let merged: Vec<Edge> = blocks.into_iter().flatten().collect();
    let graph = PartGraph::from_merged(members.len(), &merged).with_vertex_weights(vwgt);
    CoarseLevel { graph, map }
}

/// Coarsens repeatedly until the graph has at most `target_nv` vertices or
/// a round shrinks it by less than ~10 % (diminishing returns). Returns the
/// levels from finest to coarsest.
pub fn coarsen_to(g: &PartGraph, target_nv: usize, seed: u64) -> Vec<CoarseLevel> {
    coarsen_to_traced(g, target_nv, seed, &Recorder::disabled())
}

/// [`coarsen_to`] with telemetry: totals across rounds land in the
/// `coarsen.rounds` and `coarsen.edges_projected` counters (the latter
/// counts coarse edges built by the parallel graph projection).
pub fn coarsen_to_traced(
    g: &PartGraph,
    target_nv: usize,
    seed: u64,
    rec: &Recorder,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current_nv = g.nv();
    let mut round = 0u64;
    while current_nv > target_nv {
        let level = {
            let src = levels.last().map(|l| &l.graph).unwrap_or(g);
            coarsen_once(src, seed.wrapping_add(round))
        };
        let new_nv = level.graph.nv();
        rec.add("coarsen.rounds", 1);
        rec.add("coarsen.edges_projected", level.graph.ne() as u64);
        let shrunk_enough = (new_nv as f64) < current_nv as f64 * 0.9;
        levels.push(level);
        if !shrunk_enough {
            break;
        }
        current_nv = new_nv;
        round += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::check::for_each_case;

    fn ring(n: usize) -> PartGraph {
        PartGraph::from_edges(n, (0..n as u32).map(|i| (i, (i + 1) % n as u32, 1.0)))
    }

    /// The contraction as an edge list handed to `from_edges`: walk the fine
    /// vertices in order and emit each edge from its lower coarse endpoint.
    fn contract_by_edge_list(g: &PartGraph, map: &[u32]) -> PartGraph {
        let next = map.iter().max().map_or(0, |&c| c as usize + 1);
        let mut vwgt = vec![0u64; next];
        let mut edges = Vec::new();
        for v in 0..g.nv() as u32 {
            let cv = map[v as usize];
            vwgt[cv as usize] += g.vwgt(v);
            for (n, w) in g.neighbors(v) {
                if cv < map[n as usize] {
                    edges.push((cv, map[n as usize], w));
                }
            }
        }
        PartGraph::from_edges(next, edges).with_vertex_weights(vwgt)
    }

    #[test]
    fn contraction_equals_the_edge_list_reference_bit_for_bit() {
        for_each_case(0xC0A_0001, 100, |rng| {
            let nv = rng.gen_range(1..300usize);
            let m = rng.gen_range(0..6 * nv);
            let edges: Vec<(u32, u32, f64)> = (0..m)
                .map(|_| {
                    let w = [0.0, 0.1, 0.2, 0.3, 1.0, 1000.0][rng.gen_range(0..6usize)];
                    (rng.gen_range(0..nv as u32), rng.gen_range(0..nv as u32), w)
                })
                .collect();
            let vwgt = (0..nv).map(|_| rng.gen_range(1..9u64)).collect();
            let mut g = PartGraph::from_edges(nv, edges).with_vertex_weights(vwgt);
            // a few rounds, so coarse weights are themselves sums
            for round in 0..3 {
                let level = coarsen_once(&g, rng.next_u64());
                let reference = contract_by_edge_list(&g, &level.map);
                assert_eq!(
                    level.graph.adjacency_bits(),
                    reference.adjacency_bits(),
                    "round {round}"
                );
                for c in 0..reference.nv() as u32 {
                    assert_eq!(level.graph.vwgt(c), reference.vwgt(c), "round {round}");
                }
                g = level.graph;
            }
        });
    }

    #[test]
    fn coarsen_roughly_halves() {
        let g = ring(100);
        let lvl = coarsen_once(&g, 1);
        assert!(lvl.graph.nv() <= 60, "got {}", lvl.graph.nv());
        assert!(lvl.graph.nv() >= 50);
    }

    #[test]
    fn vertex_weights_conserved() {
        let g = ring(64);
        let lvl = coarsen_once(&g, 2);
        assert_eq!(lvl.graph.total_vwgt(), 64);
    }

    #[test]
    fn map_is_total_and_in_range() {
        let g = ring(33);
        let lvl = coarsen_once(&g, 3);
        for &c in &lvl.map {
            assert!((c as usize) < lvl.graph.nv());
        }
        assert_eq!(lvl.map.len(), 33);
    }

    #[test]
    fn heaviest_edge_preferred() {
        // 0-1 (w=10), 1-2 (w=1): vertex 1 must match 0 whenever 0 available
        let g = PartGraph::from_edges(3, vec![(0, 1, 10.0), (1, 2, 1.0)]);
        let lvl = coarsen_once(&g, 0);
        assert_eq!(lvl.map[0], lvl.map[1]);
        assert_ne!(lvl.map[1], lvl.map[2]);
    }

    #[test]
    fn zero_weight_edges_never_contracted() {
        let g = PartGraph::from_edges(2, vec![(0, 1, 0.0)]);
        let lvl = coarsen_once(&g, 0);
        assert_ne!(lvl.map[0], lvl.map[1]);
        assert_eq!(lvl.graph.nv(), 2);
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = ring(256);
        let levels = coarsen_to(&g, 20, 7);
        assert!(!levels.is_empty());
        let last = &levels.last().unwrap().graph;
        assert!(last.nv() <= 40, "coarsest has {} vertices", last.nv());
        assert_eq!(last.total_vwgt(), 256);
    }

    #[test]
    fn coarsen_isolated_vertices() {
        let g = PartGraph::from_edges(5, vec![(0, 1, 1.0)]);
        let lvl = coarsen_once(&g, 1);
        // isolated vertices stay as singletons
        assert_eq!(lvl.graph.nv(), 4);
        assert_eq!(lvl.graph.total_vwgt(), 5);
    }
}
