//! Initial partitioning of the coarsest graph (multilevel phase 2):
//! recursive bisection via greedy graph growing + Fiduccia–Mattheyses
//! refinement.
//!
//! Costs, for a bisection of `n` vertices with `m` edges among them: greedy
//! growing rescans the frontier per added vertex, `O(n²)` with a tiny
//! constant (under 2 ms at 5 000 vertices); an FM pass is `O(m · log n)` —
//! every vertex is scored once, and a move is picked from, and its
//! neighbours re-seated in, a candidate index in `log n` each
//! (`Candidates`). Coarsening can stall far above the `k · coarsen_factor`
//! vertices it aims for (the `coarsen` span's `stalled` field), so this
//! stage has to follow `m`, not `n²`: the selection it replaced scored every
//! unlocked vertex before every move, `O(n · m)` a pass.

use crate::graph::PartGraph;
use largeea_common::rng::Rng;
use std::cmp::Ordering;

/// Work counters of one [`initial_partition`] call (the `initial_partition`
/// span's `bisections` / `fm_passes` / `fm_moves` fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct InitialStats {
    /// Bisections run (subproblems with `k > 1` and at least two vertices).
    pub bisections: u64,
    /// FM passes over all bisections.
    pub fm_passes: u64,
    /// Single-vertex moves those passes made, rolled-back ones included.
    pub fm_moves: u64,
}

/// Recursively partitions `g` into `k` parts, returning one part id per
/// vertex. Intended for the *coarsest* graph; the module header says what it
/// costs when that graph is not small.
pub fn initial_partition(g: &PartGraph, k: usize, seed: u64) -> Vec<u32> {
    initial_partition_with_stats(g, k, seed).0
}

/// [`initial_partition`] plus its work counters.
pub(crate) fn initial_partition_with_stats(
    g: &PartGraph,
    k: usize,
    seed: u64,
) -> (Vec<u32>, InitialStats) {
    assert!(k >= 1, "k must be positive");
    let mut run = Bisector {
        g,
        local: vec![NOT_LOCAL; g.nv()],
        assignment: vec![0u32; g.nv()],
        stats: InitialStats::default(),
    };
    let all: Vec<u32> = (0..g.nv() as u32).collect();
    run.recurse(&all, k, 0, seed);
    (run.assignment, run.stats)
}

/// `local[v]` of a vertex outside the subproblem being bisected.
const NOT_LOCAL: u32 = u32::MAX;

/// What every bisection of one recursive partitioning shares.
struct Bisector<'a> {
    g: &'a PartGraph,
    /// Index of each vertex within the subproblem being bisected
    /// ([`NOT_LOCAL`] outside it): `bisect` sets its vertices' entries on
    /// entry and clears them on exit.
    local: Vec<u32>,
    assignment: Vec<u32>,
    stats: InitialStats,
}

impl Bisector<'_> {
    /// Splits `vertices` (ids into `g`) into `k` parts with ids starting at
    /// `part_offset`.
    fn recurse(&mut self, vertices: &[u32], k: usize, part_offset: u32, seed: u64) {
        if k == 1 || vertices.len() <= 1 {
            // With `k > 1` this is the degenerate case of more parts than
            // vertices: spread what we have.
            for (i, &v) in vertices.iter().enumerate() {
                self.assignment[v as usize] = part_offset + (i as u32 % k as u32);
            }
            return;
        }
        let k_left = k / 2;
        let k_right = k - k_left;
        let total: u64 = vertices.iter().map(|&v| self.g.vwgt(v)).sum();
        let target_left = (total as f64 * k_left as f64 / k as f64).round() as u64;

        let side = self.bisect(vertices, target_left, seed);
        let mut left = Vec::with_capacity(vertices.len());
        let mut right = Vec::with_capacity(vertices.len());
        for (&v, &is_left) in vertices.iter().zip(&side) {
            if is_left {
                left.push(v);
            } else {
                right.push(v);
            }
        }
        self.recurse(&left, k_left, part_offset, seed.wrapping_add(1));
        self.recurse(
            &right,
            k_right,
            part_offset + k_left as u32,
            seed.wrapping_add(2),
        );
    }

    /// Greedy graph growing on the sub-vertex-set, then FM refinement.
    /// Returns `true` for vertices placed on the left side.
    fn bisect(&mut self, vertices: &[u32], target_left: u64, seed: u64) -> Vec<bool> {
        let g = self.g;
        let n = vertices.len();
        for (i, &v) in vertices.iter().enumerate() {
            self.local[v as usize] = i as u32;
        }
        let local = &self.local[..];

        let mut rng = Rng::seed_from_u64(seed);
        let start = pseudo_peripheral(g, vertices, local, rng.gen_range(0..n));

        // Greedy growing: add the frontier vertex with maximum attachment.
        let mut in_left = vec![false; n];
        let mut attach = vec![0u64; n]; // edge weight into the region
        let mut visited = vec![false; n];
        let mut left_weight = 0u64;
        let mut current = Some(start);
        while left_weight < target_left {
            let u = match current.take() {
                Some(u) => u,
                None => {
                    // frontier selection: max attachment among unvisited
                    let mut best: Option<(usize, u64)> = None;
                    for i in 0..n {
                        if !visited[i] {
                            let better = match best {
                                None => true,
                                Some((_, bw)) => attach[i] > bw,
                            };
                            if better && (attach[i] > 0 || best.is_none()) {
                                best = Some((i, attach[i]));
                            }
                        }
                    }
                    match best {
                        Some((i, _)) => i,
                        None => break,
                    }
                }
            };
            visited[u] = true;
            in_left[u] = true;
            left_weight += g.vwgt(vertices[u]);
            for (nb, w) in g.neighbors(vertices[u]) {
                let li = local[nb as usize];
                if li != NOT_LOCAL && !visited[li as usize] {
                    attach[li as usize] += u64::from(w);
                }
            }
        }

        let (passes, moves) = fm_refine(g, vertices, local, &mut in_left, target_left);
        self.stats.bisections += 1;
        self.stats.fm_passes += passes;
        self.stats.fm_moves += moves;
        for &v in vertices {
            self.local[v as usize] = NOT_LOCAL;
        }
        in_left
    }
}

/// BFS twice from `start_idx` to find a pseudo-peripheral vertex (a vertex
/// roughly on the graph's boundary — good seeds for region growing).
fn pseudo_peripheral(g: &PartGraph, vertices: &[u32], local: &[u32], start_idx: usize) -> usize {
    let mut far = start_idx;
    for _ in 0..2 {
        let mut seen = vec![false; vertices.len()];
        let mut queue = std::collections::VecDeque::from([far]);
        seen[far] = true;
        let mut last = far;
        while let Some(u) = queue.pop_front() {
            last = u;
            for (nb, _) in g.neighbors(vertices[u]) {
                let li = local[nb as usize];
                if li != NOT_LOCAL && !seen[li as usize] {
                    seen[li as usize] = true;
                    queue.push_back(li as usize);
                }
            }
        }
        far = last;
    }
    far
}

/// One-sided FM: up to eight passes of single-vertex moves, each rolled back
/// to its best prefix, until a pass gains nothing. Returns the passes run and
/// the moves they made.
fn fm_refine(
    g: &PartGraph,
    vertices: &[u32],
    local: &[u32],
    in_left: &mut [bool],
    target_left: u64,
) -> (u64, u64) {
    if vertices.len() <= 2 {
        return (0, 0);
    }
    let mut fm = Fm::new(g, vertices, local, target_left);
    let (mut passes, mut moves) = (0, 0);
    for _ in 0..8 {
        let (improved, made) = fm.pass(in_left);
        passes += 1;
        moves += made as u64;
        if !improved {
            break;
        }
    }
    (passes, moves)
}

/// Balance tolerance of a bisection: ±max(5 % of the total, heaviest vertex).
fn balance_tolerance(g: &PartGraph, vertices: &[u32]) -> u64 {
    let total: u64 = vertices.iter().map(|&v| g.vwgt(v)).sum();
    let max_vwgt = vertices.iter().map(|&v| g.vwgt(v)).max().unwrap_or(1);
    ((total as f64 * 0.05) as u64).max(max_vwgt)
}

/// The weight of local vertex `u`'s edges into the other side and into its
/// own, over the subproblem's vertices.
fn cut_and_kept(
    g: &PartGraph,
    vertices: &[u32],
    local: &[u32],
    in_left: &[bool],
    u: usize,
) -> (u64, u64) {
    let mut external = 0;
    let mut internal = 0;
    for (nb, w) in g.neighbors(vertices[u]) {
        let li = local[nb as usize];
        if li == NOT_LOCAL {
            continue;
        }
        if in_left[li as usize] == in_left[u] {
            internal += u64::from(w);
        } else {
            external += u64::from(w);
        }
    }
    (external, internal)
}

/// No vertex: an empty slot of [`Candidates`].
const NONE: u32 = u32::MAX;

/// The better move of two: higher gain, then lower index — the vertex a scan
/// over `0..n` keeping the first strictly greater gain ends on.
fn better(gain: &[i64], a: u32, b: u32) -> u32 {
    if a == NONE || b == NONE {
        return a.min(b);
    }
    match gain[a as usize].cmp(&gain[b as usize]) {
        Ordering::Greater => a,
        Ordering::Less => b,
        Ordering::Equal => a.min(b),
    }
}

/// The movable vertices of one side of a bisection, as a tournament tree
/// whose leaves stand in ascending vertex-weight order. A move is feasible
/// exactly when the vertex weighs at most a cap that depends on the side and
/// the current imbalance, so "the best feasible move on this side" is the
/// best of a prefix of the leaves: `O(log n)`, whatever share of the side is
/// too heavy to move right now.
struct Candidates {
    /// `node[n + r]` is the leaf of weight rank `r` (a vertex or [`NONE`]);
    /// `node[i]` for `1 <= i < n` the better of `node[2i]` and `node[2i + 1]`.
    node: Vec<u32>,
}

impl Candidates {
    fn new(n: usize) -> Self {
        Self {
            node: vec![NONE; 2 * n],
        }
    }

    fn leaves(&self) -> usize {
        self.node.len() / 2
    }

    /// Refills the leaves from `leaf(rank)` and replays every match.
    fn rebuild(&mut self, gain: &[i64], leaf: impl Fn(usize) -> u32) {
        let n = self.leaves();
        for r in 0..n {
            self.node[n + r] = leaf(r);
        }
        for i in (1..n).rev() {
            self.node[i] = better(gain, self.node[2 * i], self.node[2 * i + 1]);
        }
    }

    /// Puts `u` (or [`NONE`]) on the leaf of rank `r` — also the way to
    /// re-seat a vertex whose gain changed — and replays its matches towards
    /// the root, stopping at the first one that some other vertex keeps
    /// winning: nothing above it can tell the difference.
    fn set(&mut self, gain: &[i64], r: usize, u: u32) {
        let mut i = self.leaves() + r;
        let changed = if u == NONE { self.node[i] } else { u };
        self.node[i] = u;
        while i > 1 {
            i /= 2;
            let winner = better(gain, self.node[2 * i], self.node[2 * i + 1]);
            if winner == self.node[i] && winner != changed {
                break;
            }
            self.node[i] = winner;
        }
    }

    /// The best vertex among the leaves of rank below `end`.
    fn best_below(&self, gain: &[i64], end: usize) -> u32 {
        let (mut lo, mut hi) = (self.leaves(), self.leaves() + end);
        let mut best = NONE;
        while lo < hi {
            if lo & 1 == 1 {
                best = better(gain, best, self.node[lo]);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                best = better(gain, best, self.node[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        best
    }
}

/// FM refinement of one bisection: the per-bisection constants and the
/// scratch every pass reuses.
struct Fm<'a> {
    g: &'a PartGraph,
    vertices: &'a [u32],
    local: &'a [u32],
    target_left: u64,
    tol: u64,
    /// Weight rank of each local vertex (ties by index), and the weights in
    /// rank order.
    rank: Vec<u32>,
    by_rank: Vec<u32>,
    weight_at_rank: Vec<u64>,
    /// Current gain of each unlocked vertex: its [`cut_and_kept`] weights'
    /// difference, cut minus kept.
    gain: Vec<i64>,
    locked: Vec<bool>,
    /// Unlocked vertices by the side they are on: `[right, left]`.
    side: [Candidates; 2],
    moves: Vec<u32>,
}

impl<'a> Fm<'a> {
    fn new(g: &'a PartGraph, vertices: &'a [u32], local: &'a [u32], target_left: u64) -> Self {
        let n = vertices.len();
        let mut by_rank: Vec<u32> = (0..n as u32).collect();
        by_rank.sort_unstable_by_key(|&u| (g.vwgt(vertices[u as usize]), u));
        let mut rank = vec![0u32; n];
        for (r, &u) in by_rank.iter().enumerate() {
            rank[u as usize] = r as u32;
        }
        Self {
            g,
            vertices,
            local,
            target_left,
            tol: balance_tolerance(g, vertices),
            rank,
            weight_at_rank: by_rank
                .iter()
                .map(|&u| g.vwgt(vertices[u as usize]))
                .collect(),
            by_rank,
            gain: vec![0; n],
            locked: vec![false; n],
            side: [Candidates::new(n), Candidates::new(n)],
            moves: Vec::with_capacity(n),
        }
    }

    /// One pass: every vertex moves at most once, each step taking the
    /// feasible unlocked vertex of highest gain (lowest index among equals);
    /// then everything after the best prefix is undone. Returns whether the
    /// pass gained anything, and how many moves it made.
    ///
    /// Every gain read here equals what a fresh [`cut_and_kept`] would give:
    /// a move of `u` changes the gains of `u`'s neighbours across a non-zero
    /// edge only, each by `w` moving between its cut and kept weight.
    fn pass(&mut self, in_left: &mut [bool]) -> (bool, usize) {
        let Self {
            g,
            vertices,
            local,
            target_left,
            tol,
            ..
        } = *self;
        let n = vertices.len();
        for u in 0..n {
            let (external, internal) = cut_and_kept(g, vertices, local, in_left, u);
            self.gain[u] = external as i64 - internal as i64;
        }
        self.locked.fill(false);
        for (is_left, side) in self.side.iter_mut().enumerate() {
            side.rebuild(&self.gain, |r| {
                let u = self.by_rank[r];
                if in_left[u as usize] as usize == is_left {
                    u
                } else {
                    NONE
                }
            });
        }
        let mut left_weight: u64 = (0..n)
            .filter(|&i| in_left[i])
            .map(|i| g.vwgt(vertices[i]))
            .sum();
        self.moves.clear();
        let mut cum_gain = 0i64;
        let mut best_gain = 0i64;
        let mut best_prefix = 0usize;

        for _ in 0..n {
            // A move may leave the left side off target by at most `limit`,
            // i.e. may not worsen the balance beyond the tolerance. Leaving
            // the left side takes `w` off `left_weight`, joining it adds `w`,
            // so each direction admits the weights up to a cap.
            let off = left_weight.abs_diff(target_left);
            let limit = tol.max(off);
            let caps = if left_weight >= target_left {
                [limit - off, limit + off]
            } else {
                [limit + off, limit - off]
            };
            let [from_right, from_left] = [0, 1].map(|s| {
                let end = self.weight_at_rank.partition_point(|&w| w <= caps[s]);
                self.side[s].best_below(&self.gain, end)
            });
            let u = better(&self.gain, from_right, from_left);
            if u == NONE {
                break;
            }
            let u = u as usize;
            let w = g.vwgt(vertices[u]);
            if in_left[u] {
                left_weight -= w;
            } else {
                left_weight += w;
            }
            self.side[in_left[u] as usize].set(&self.gain, self.rank[u] as usize, NONE);
            in_left[u] = !in_left[u];
            self.locked[u] = true;
            self.moves.push(u as u32);
            cum_gain += self.gain[u];
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_prefix = self.moves.len();
            }
            for (nb, w) in g.neighbors(vertices[u]) {
                let li = local[nb as usize];
                if li == NOT_LOCAL || self.locked[li as usize] || w == 0 {
                    continue;
                }
                let nb = li as usize;
                // `u` has just joined (kept += w, cut -= w) or left `nb`'s side
                let dw = 2 * i64::from(w);
                self.gain[nb] += if in_left[nb] == in_left[u] { -dw } else { dw };
                self.side[in_left[nb] as usize].set(&self.gain, self.rank[nb] as usize, li);
            }
        }
        // rollback past the best prefix
        for &u in &self.moves[best_prefix..] {
            in_left[u as usize] = !in_left[u as usize];
        }
        (best_gain > 0, self.moves.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::check::for_each_case;
    use largeea_common::rng::SliceRandom;

    /// Two dense clusters joined by one light edge — the canonical case.
    fn two_clusters() -> PartGraph {
        let mut edges = Vec::new();
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                edges.push((i, j, 10));
                edges.push((i + 6, j + 6, 10));
            }
        }
        edges.push((0, 6, 1));
        PartGraph::from_edges(12, edges)
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
    fn bisection_finds_the_weak_link() {
        let g = two_clusters();
        let a = initial_partition(&g, 2, 42);
        assert_eq!(cut(&g, &a), 1);
        // parts are the two cliques
        for i in 1..6 {
            assert_eq!(a[i], a[0]);
            assert_eq!(a[i + 6], a[6]);
        }
        assert_ne!(a[0], a[6]);
    }

    #[test]
    fn k_parts_cover_and_balance() {
        // ring of 40
        let g = PartGraph::from_edges(40, (0..40u32).map(|i| (i, (i + 1) % 40, 1)));
        for k in [2, 3, 4, 5] {
            let a = initial_partition(&g, k, 7);
            let mut sizes = vec![0u64; k];
            for &p in &a {
                assert!((p as usize) < k, "part id {p} out of range for k={k}");
                sizes[p as usize] += 1;
            }
            let ideal = 40.0 / k as f64;
            for (p, &s) in sizes.iter().enumerate() {
                assert!(
                    (s as f64) > 0.4 * ideal && (s as f64) < 1.9 * ideal,
                    "k={k} part {p} has size {s}"
                );
            }
        }
    }

    #[test]
    fn k1_is_trivial() {
        let g = two_clusters();
        let a = initial_partition(&g, 1, 0);
        assert!(a.iter().all(|&p| p == 0));
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = PartGraph::from_edges(6, vec![(0, 1, 1), (2, 3, 1), (4, 5, 1)]);
        let a = initial_partition(&g, 3, 9);
        let distinct: std::collections::BTreeSet<u32> = a.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn more_parts_than_vertices() {
        let g = PartGraph::from_edges(2, vec![(0, 1, 1)]);
        let a = initial_partition(&g, 4, 0);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&p| p < 4));
        assert_ne!(a[0], a[1]);
    }

    /// Cut weight saved by moving local vertex `u` to the other side.
    fn gain_of(g: &PartGraph, vertices: &[u32], local: &[u32], in_left: &[bool], u: usize) -> i64 {
        let (external, internal) = cut_and_kept(g, vertices, local, in_left, u);
        external as i64 - internal as i64
    }

    /// The selection FM used before the candidate index, kept as the oracle:
    /// before each move, scan every unlocked vertex, skip those the balance
    /// test rejects, score the rest from scratch and keep the first strictly
    /// greater gain.
    fn scan_pass(
        g: &PartGraph,
        vertices: &[u32],
        local: &[u32],
        in_left: &mut [bool],
        target_left: u64,
    ) -> bool {
        let n = vertices.len();
        let tol = balance_tolerance(g, vertices);
        let mut locked = vec![false; n];
        let mut left_weight: u64 = (0..n)
            .filter(|&i| in_left[i])
            .map(|i| g.vwgt(vertices[i]))
            .sum();
        let mut moves: Vec<usize> = Vec::new();
        let mut cum_gain = 0i64;
        let mut best_gain = 0i64;
        let mut best_prefix = 0usize;
        for _ in 0..n {
            let mut best: Option<(usize, i64)> = None;
            for u in 0..n {
                if locked[u] {
                    continue;
                }
                let w = g.vwgt(vertices[u]);
                let new_left = if in_left[u] {
                    left_weight - w
                } else {
                    left_weight + w
                };
                if new_left.abs_diff(target_left) > tol.max(left_weight.abs_diff(target_left)) {
                    continue; // would worsen balance beyond tolerance
                }
                let gain = gain_of(g, vertices, local, in_left, u);
                if best.is_none_or(|(_, bg)| gain > bg) {
                    best = Some((u, gain));
                }
            }
            let Some((u, gain)) = best else { break };
            let w = g.vwgt(vertices[u]);
            if in_left[u] {
                left_weight -= w;
            } else {
                left_weight += w;
            }
            in_left[u] = !in_left[u];
            locked[u] = true;
            moves.push(u);
            cum_gain += gain;
            if cum_gain > best_gain {
                best_gain = cum_gain;
                best_prefix = moves.len();
            }
        }
        for &u in &moves[best_prefix..] {
            in_left[u] = !in_left[u];
        }
        best_gain > 0
    }

    /// A random bisection problem: a graph, the ascending subset of its
    /// vertices being bisected, a starting side per vertex and a target.
    fn random_bisection(rng: &mut Rng) -> (PartGraph, Vec<u32>, Vec<bool>, u64) {
        let n = if rng.gen_bool(0.5) {
            rng.gen_range(2..40usize)
        } else {
            rng.gen_range(40..400usize)
        };
        // some vertices of the graph lie outside the subproblem
        let nv = n + rng.gen_range(0..n / 4 + 1);
        let mut vertices: Vec<u32> = (0..nv as u32).collect();
        vertices.shuffle(rng);
        vertices.truncate(n);
        vertices.sort_unstable();

        // edges stay inside one of `pieces` residue classes: disconnected
        // pieces when there are several
        let pieces = rng.gen_range(1..4u32);
        let zero_share = [0.0, 0.2, 0.6][rng.gen_range(0..3usize)];
        let m = rng.gen_range(0..6 * nv);
        let edges: Vec<(u32, u32, u32)> = (0..m)
            .map(|_| {
                let u = rng.gen_range(0..nv as u32);
                let v = rng.gen_range(0..nv as u32);
                let v = v - v % pieces + u % pieces;
                let w = if rng.gen_bool(zero_share) {
                    0
                } else if rng.gen_bool(0.05) {
                    1000
                } else {
                    rng.gen_range(1..6u32)
                };
                (u, v.min(nv as u32 - 1), w)
            })
            .collect();
        // unit-ish weights with a few vertices heavy enough to fail the
        // balance test from either side
        let heavy_share = [0.0, 0.02, 0.1][rng.gen_range(0..3usize)];
        let vwgt: Vec<u32> = (0..nv)
            .map(|_| {
                if rng.gen_bool(heavy_share) {
                    rng.gen_range(n as u32 / 8 + 1..n as u32 / 2 + 2)
                } else {
                    rng.gen_range(1..4u32)
                }
            })
            .collect();
        let g = PartGraph::from_edges(nv, edges).with_vertex_weights(vwgt);
        let total: u64 = vertices.iter().map(|&v| g.vwgt(v)).sum();
        let target_left = rng.gen_range(0..=total);
        let left_share = rng.gen_range(0.1f64..0.9);
        let in_left = (0..n).map(|_| rng.gen_bool(left_share)).collect();
        (g, vertices, in_left, target_left)
    }

    #[test]
    fn fm_pass_equals_the_scan_oracle_after_every_pass() {
        for_each_case(0x1F_A550, 300, |rng| {
            let (g, vertices, start, target_left) = random_bisection(rng);
            let mut local = vec![NOT_LOCAL; g.nv()];
            for (i, &v) in vertices.iter().enumerate() {
                local[v as usize] = i as u32;
            }
            let mut fm = Fm::new(&g, &vertices, &local, target_left);
            let (mut got, mut want) = (start.clone(), start);
            for pass in 0..8 {
                let (improved, _) = fm.pass(&mut got);
                let oracle_improved = scan_pass(&g, &vertices, &local, &mut want, target_left);
                assert_eq!(got, want, "sides differ after pass {pass}");
                assert_eq!(improved, oracle_improved, "pass {pass} verdict");
                if !improved {
                    break;
                }
            }
        });
    }

    #[test]
    fn zero_weight_edges_are_free_to_cut() {
        // a ring whose zero-weight edges split it into three weighted arcs
        let g = PartGraph::from_edges(
            6,
            vec![
                (0, 1, 0),
                (1, 2, 5),
                (2, 3, 0),
                (3, 4, 5),
                (4, 5, 0),
                (5, 0, 5),
            ],
        );
        let a = initial_partition(&g, 3, 1);
        assert!(a.iter().all(|&p| p < 3));
        assert_eq!(cut(&g, &a), 0, "{a:?}");
    }

    #[test]
    fn stats_count_bisections_passes_and_moves() {
        let g = two_clusters();
        let (a, stats) = initial_partition_with_stats(&g, 4, 42);
        assert_eq!(a, initial_partition(&g, 4, 42));
        assert_eq!(stats.bisections, 3);
        assert!(stats.fm_passes >= 3, "{stats:?}");
        assert!(stats.fm_moves >= stats.fm_passes, "{stats:?}");
    }
}
