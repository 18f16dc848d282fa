//! Greedy k-way boundary refinement (multilevel phase 3).
//!
//! After each uncoarsening projection, boundary vertices are scanned and
//! moved to the adjacent partition with the highest positive gain, subject
//! to the balance constraint. A handful of passes recovers most of the cut
//! quality that projection loses.
//!
//! A pass walks the vertices in id order but looks only at the *dirty*
//! ones. What a look decides depends on the vertex's part, its neighbours'
//! parts and — only when some part offers a positive gain — the part
//! weights. So a vertex that was looked at and stayed is left alone until
//! it or a neighbour moves, unless the balance cap was all that held it
//! back; every look a full sweep would add ends in "stay". A later pass
//! costs the edges around what the last one moved.
//!
//! The first pass starts from a worklist the caller hands in. On the
//! coarsest level that is every vertex. After a projection it is the
//! members of the coarse vertices that had a neighbour in another part
//! ([`projected_boundary`]): a fine vertex whose coarse vertex was interior
//! has all its neighbours in its own part — its edges to other clusters are
//! edges of that coarse vertex — so a look at it ends in "stay".

use crate::graph::PartGraph;
use largeea_common::obs::{Level, Recorder};

/// The first-pass worklist after projecting `coarse_assignment` through
/// `map` (`map[fine] = coarse`): the fine vertices whose coarse vertex has a
/// neighbour in another part. `O(nv_coarse + |E_coarse| + nv_fine)`.
pub fn projected_boundary(coarse: &PartGraph, coarse_assignment: &[u32], map: &[u32]) -> Vec<bool> {
    let boundary: Vec<bool> = (0..coarse.nv() as u32)
        .map(|c| {
            let own = coarse_assignment[c as usize];
            coarse
                .neighbors(c)
                .any(|(n, _)| coarse_assignment[n as usize] != own)
        })
        .collect();
    map.iter().map(|&c| boundary[c as usize]).collect()
}

/// Refines `assignment` in place.
///
/// * `k` — number of parts;
/// * `max_part_weight` — hard balance cap per part;
/// * `passes` — maximum sweeps over the vertices (early-exits when a sweep
///   moves nothing);
/// * `first_pass` — the vertices the first pass looks at (module docs):
///   `vec![true; nv]`, or a [`projected_boundary`].
///
/// Each pass is a `refine_pass` span ([`Level::Trace`]) in `rec` with
/// `pass`/`moved`/`examined` fields, and the total lands in the
/// `partition.refine.moves` counter.
///
/// Returns the number of vertices moved in total.
pub fn refine_kway(
    g: &PartGraph,
    assignment: &mut [u32],
    k: usize,
    max_part_weight: u64,
    passes: usize,
    first_pass: Vec<bool>,
    rec: &Recorder,
) -> usize {
    assert_eq!(assignment.len(), g.nv(), "assignment length mismatch");
    assert_eq!(first_pass.len(), g.nv(), "worklist length mismatch");
    let mut part_weight = vec![0u64; k];
    for (v, &p) in assignment.iter().enumerate() {
        part_weight[p as usize] += g.vwgt(v as u32);
    }

    let mut total_moved = 0usize;
    // scratch: connectivity of the current vertex to each part, with a
    // touched-list so we don't clear the whole k-vector per vertex.
    let mut conn = vec![0u64; k];
    let mut touched: Vec<u32> = Vec::with_capacity(16);
    // the vertices whose next look may end in a move (module docs)
    let mut dirty = first_pass;

    for pass in 0..passes {
        let mut span = rec.span_at(Level::Trace, "refine_pass");
        let (mut moved, mut examined) = (0usize, 0usize);
        for v in 0..g.nv() as u32 {
            if !std::mem::take(&mut dirty[v as usize]) {
                continue;
            }
            examined += 1;
            let own = assignment[v as usize];
            // gather connectivity
            touched.clear();
            for (n, w) in g.neighbors(v) {
                let p = assignment[n as usize];
                if conn[p as usize] == 0 {
                    touched.push(p);
                }
                conn[p as usize] += u64::from(w);
            }
            let own_conn = conn[own as usize];
            let mut best: Option<(u32, u64)> = None;
            for &p in &touched {
                if p != own && conn[p as usize] > own_conn {
                    let gain = conn[p as usize] - own_conn;
                    if part_weight[p as usize] + g.vwgt(v) > max_part_weight {
                        // only the cap says no, and the cap can lift
                        dirty[v as usize] = true;
                    } else if best.is_none_or(|(_, bg)| gain > bg) {
                        best = Some((p, gain));
                    }
                }
            }
            if let Some((p, _)) = best {
                part_weight[own as usize] -= g.vwgt(v);
                part_weight[p as usize] += g.vwgt(v);
                assignment[v as usize] = p;
                moved += 1;
                dirty[v as usize] = true;
                for (n, _) in g.neighbors(v) {
                    dirty[n as usize] = true;
                }
            }
            for &p in &touched {
                conn[p as usize] = 0;
            }
        }
        span.field("pass", pass);
        span.field("moved", moved);
        span.field("examined", examined);
        total_moved += moved;
        if moved == 0 {
            break;
        }
    }
    rec.add("partition.refine.moves", total_moved as u64);
    total_moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::coarsen_once;
    use largeea_common::check::for_each_case;
    use largeea_common::obs::ObsConfig;

    /// The refinement this module had before the worklist: every pass looks
    /// at every vertex. Returns the moves of each pass.
    fn refine_sweep(
        g: &PartGraph,
        assignment: &mut [u32],
        k: usize,
        max_part_weight: u64,
        passes: usize,
    ) -> Vec<usize> {
        let mut part_weight = vec![0u64; k];
        for (v, &p) in assignment.iter().enumerate() {
            part_weight[p as usize] += g.vwgt(v as u32);
        }
        let mut conn = vec![0u64; k];
        let mut touched: Vec<u32> = Vec::new();
        let mut moves = Vec::new();
        for _ in 0..passes {
            let mut moved = 0usize;
            for v in 0..g.nv() as u32 {
                let own = assignment[v as usize];
                touched.clear();
                let mut is_boundary = false;
                for (n, w) in g.neighbors(v) {
                    let p = assignment[n as usize];
                    if conn[p as usize] == 0 {
                        touched.push(p);
                    }
                    conn[p as usize] += u64::from(w);
                    if p != own {
                        is_boundary = true;
                    }
                }
                if is_boundary {
                    let own_conn = conn[own as usize] as i64;
                    let mut best: Option<(u32, i64)> = None;
                    for &p in &touched {
                        if p == own {
                            continue;
                        }
                        let gain = conn[p as usize] as i64 - own_conn;
                        if gain > 0
                            && part_weight[p as usize] + g.vwgt(v) <= max_part_weight
                            && best.is_none_or(|(_, bg)| gain > bg)
                        {
                            best = Some((p, gain));
                        }
                    }
                    if let Some((p, _)) = best {
                        part_weight[own as usize] -= g.vwgt(v);
                        part_weight[p as usize] += g.vwgt(v);
                        assignment[v as usize] = p;
                        moved += 1;
                    }
                }
                for &p in &touched {
                    conn[p as usize] = 0;
                }
            }
            moves.push(moved);
            if moved == 0 {
                break;
            }
        }
        moves
    }

    fn all(g: &PartGraph) -> Vec<bool> {
        vec![true; g.nv()]
    }

    /// The vertices with a neighbour in another part.
    fn boundary(g: &PartGraph, a: &[u32]) -> Vec<bool> {
        (0..g.nv() as u32)
            .map(|v| g.neighbors(v).any(|(n, _)| a[n as usize] != a[v as usize]))
            .collect()
    }

    #[test]
    fn worklist_equals_the_full_sweep() {
        let part_weights = |g: &PartGraph, a: &[u32], k: usize| {
            let mut w = vec![0u64; k];
            for (v, &p) in a.iter().enumerate() {
                w[p as usize] += g.vwgt(v as u32);
            }
            w
        };
        for_each_case(0x5EE9, 300, |rng| {
            let nv = rng.gen_range(2..120usize);
            let k = rng.gen_range(2..=20usize);
            let weights = rng.gen_range(0..3u32);
            let ne = rng.gen_range(0..nv * 4);
            let edges: Vec<(u32, u32, u32)> = (0..ne)
                .map(|_| {
                    let w = match weights {
                        0 => rng.gen_range(1..5u32),
                        1 => [1, 2, 1000][rng.gen_range(0..3usize)],
                        _ => [0, 0, 1][rng.gen_range(0..3usize)],
                    };
                    let (a, b) = (rng.gen_range(0..nv as u32), rng.gen_range(0..nv as u32));
                    (a, b, w)
                })
                .filter(|&(a, b, _)| a != b)
                .collect();
            // mostly unit vertices, now and then one worth a good share of a part
            let heavy = (nv / k).max(2) as u32;
            let vwgt: Vec<u32> = (0..nv)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        rng.gen_range(2..=heavy)
                    } else {
                        1
                    }
                })
                .collect();
            let g = PartGraph::from_edges(nv, edges).with_vertex_weights(vwgt);
            // half the cases start from a random assignment and look at
            // everything first; half project a random assignment of a
            // coarser level and start from its boundary
            let projected = rng.gen_bool(0.5);
            let (start, first_pass) = if projected {
                let level = coarsen_once(&g, rng.next_u64());
                let coarse: Vec<u32> = (0..level.graph.nv())
                    .map(|_| rng.gen_range(0..k as u32))
                    .collect();
                let start: Vec<u32> = level.map.iter().map(|&c| coarse[c as usize]).collect();
                let first_pass = projected_boundary(&level.graph, &coarse, &level.map);
                (start, first_pass)
            } else {
                let start: Vec<u32> = (0..nv).map(|_| rng.gen_range(0..k as u32)).collect();
                (start, all(&g))
            };
            let fine_boundary = boundary(&g, &start);
            assert!(
                fine_boundary
                    .iter()
                    .zip(&first_pass)
                    .all(|(&b, &f)| !b || f),
                "the worklist misses a boundary vertex"
            );
            // from "nothing may grow" to "anything goes", so moves are
            // blocked, and unblocked once a neighbour leaves the full part
            let heaviest = *part_weights(&g, &start, k).iter().max().unwrap();
            let cap = rng.gen_range(heaviest.saturating_sub(2)..=heaviest + 3);
            let passes = rng.gen_range(1..12usize);

            let mut swept = start.clone();
            let sweep_moves = refine_sweep(&g, &mut swept, k, cap, passes);
            let rec = Recorder::new(ObsConfig::default());
            let mut listed = start.clone();
            let total = refine_kway(&g, &mut listed, k, cap, passes, first_pass.clone(), &rec);

            assert_eq!(listed, swept, "assignments");
            assert_eq!(part_weights(&g, &listed, k), part_weights(&g, &swept, k));
            let trace = rec.trace();
            let field = |key: &str| -> Vec<usize> {
                let passes = trace.spans.iter().filter(|s| s.name == "refine_pass");
                passes.map(|s| s.field_u64(key).unwrap() as usize).collect()
            };
            assert_eq!(field("moved"), sweep_moves, "moves of each pass");
            assert_eq!(total, sweep_moves.iter().sum::<usize>());
            assert_eq!(trace.counter("partition.refine.moves"), total as u64);
            assert!(field("examined").iter().all(|&e| e <= nv));
            if !projected {
                assert_eq!(
                    field("examined")[0],
                    nv,
                    "the first pass looks at everything"
                );
                return;
            }
            // pass 0 looks at the worklist and at what a move in the same
            // pass made dirty (the movers' neighbours), nothing else
            let mut after_one = start.clone();
            refine_sweep(&g, &mut after_one, k, cap, 1);
            let mut may_look = first_pass;
            for v in 0..nv {
                if after_one[v] != start[v] {
                    g.neighbors(v as u32)
                        .for_each(|(n, _)| may_look[n as usize] = true);
                }
            }
            let bound = may_look.iter().filter(|&&l| l).count();
            assert!(
                field("examined")[0] <= bound,
                "pass 0 examined {}, beyond the worklist and the movers' neighbours ({bound})",
                field("examined")[0]
            );
        });
    }

    #[test]
    fn a_move_only_the_cap_blocked_is_retried_when_the_cap_lifts() {
        // part 0 = {1, 2, 3, 6} is full (cap 4). 0 wants in: blocked. 3
        // wants out to part 1 and goes, in the same pass but after 0 was
        // looked at — and 3 is no neighbour of 0, so nothing around 0 moves.
        let glue = [(1, 2, 5), (1, 6, 5), (2, 6, 5), (4, 5, 5)];
        let pulls = [(0, 1, 1), (0, 2, 1), (3, 4, 1), (3, 5, 1)];
        let g = PartGraph::from_edges(7, glue.into_iter().chain(pulls));
        let mut a = vec![1, 0, 0, 0, 1, 1, 0];
        let rec = Recorder::new(ObsConfig::default());
        assert_eq!(refine_kway(&g, &mut a, 2, 4, 5, all(&g), &rec), 2);
        assert_eq!(a, vec![0, 0, 0, 1, 1, 1, 0]);
        let trace = rec.trace();
        let passes: Vec<(u64, u64)> = trace
            .spans
            .iter()
            .map(|s| {
                (
                    s.field_u64("moved").unwrap(),
                    s.field_u64("examined").unwrap(),
                )
            })
            .collect();
        // pass 1 looks at 0 again (blocked; it moves now, so 1 and 2 are
        // looked at behind it) and at 3, which moved; pass 2 only at 0
        assert_eq!(passes, [(1, 7), (1, 4), (0, 1)]);
        let mut swept = vec![1, 0, 0, 0, 1, 1, 0];
        assert_eq!(refine_sweep(&g, &mut swept, 2, 4, 5), [1, 1, 0]);
        assert_eq!(swept, a);
    }

    #[test]
    fn the_projected_worklist_holds_the_members_of_boundary_coarse_vertices() {
        // coarse path 0 - 1 - 2 in parts [0, 0, 1]: 1 and 2 are boundary
        let coarse = PartGraph::from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let map = [0, 0, 1, 1, 2, 2, 0];
        assert_eq!(
            projected_boundary(&coarse, &[0, 0, 1], &map),
            [false, false, true, true, true, true, false]
        );
        assert_eq!(projected_boundary(&coarse, &[1, 1, 1], &map), [false; 7]);
    }

    fn cut(g: &PartGraph, a: &[u32]) -> u64 {
        let mut c = 0;
        for v in 0..g.nv() as u32 {
            for (n, w) in g.neighbors(v) {
                if v < n && a[v as usize] != a[n as usize] {
                    c += u64::from(w);
                }
            }
        }
        c
    }

    #[test]
    fn refinement_fixes_a_misplaced_vertex() {
        // two triangles joined by a light edge; vertex 2 misassigned
        let g = PartGraph::from_edges(
            6,
            vec![
                (0, 1, 10),
                (1, 2, 10),
                (0, 2, 10),
                (3, 4, 10),
                (4, 5, 10),
                (3, 5, 10),
                (2, 3, 1),
            ],
        );
        let mut a = vec![0, 0, 1, 1, 1, 1]; // vertex 2 should be in part 0
        let moved = refine_kway(&g, &mut a, 2, 4, 4, all(&g), &Recorder::disabled());
        assert!(moved >= 1);
        assert_eq!(a, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(cut(&g, &a), 1);
    }

    #[test]
    fn refinement_never_worsens_cut() {
        let g = PartGraph::from_edges(
            8,
            (0..8u32).flat_map(|i| ((i + 1)..8).map(move |j| (i, j, (i + j) % 3 + 1))),
        );
        let mut a = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let before = cut(&g, &a);
        refine_kway(&g, &mut a, 2, 6, 5, all(&g), &Recorder::disabled());
        assert!(cut(&g, &a) <= before);
    }

    #[test]
    fn balance_cap_is_respected() {
        // star: center 0 pulls everything toward its own part, but cap stops it
        let g = PartGraph::from_edges(5, (1..5u32).map(|i| (0, i, 1)));
        let mut a = vec![0, 0, 1, 1, 1];
        refine_kway(&g, &mut a, 2, 3, 5, all(&g), &Recorder::disabled());
        let w0 = a.iter().filter(|&&p| p == 0).count();
        assert!(w0 <= 3);
    }

    #[test]
    fn empty_graph_is_noop() {
        let g = PartGraph::from_edges(0, Vec::<(u32, u32, u32)>::new());
        let mut a: Vec<u32> = vec![];
        assert_eq!(
            refine_kway(&g, &mut a, 2, 1, 3, Vec::new(), &Recorder::disabled()),
            0
        );
    }

    #[test]
    fn zero_weight_edges_exert_no_pull() {
        let g = PartGraph::from_edges(4, vec![(0, 1, 0), (2, 3, 1)]);
        let mut a = vec![0, 1, 1, 1];
        let moved = refine_kway(&g, &mut a, 2, 4, 3, all(&g), &Recorder::disabled());
        // no positive gain anywhere → nothing moves
        assert_eq!(moved, 0);
        assert_eq!(a, vec![0, 1, 1, 1]);
    }
}
