//! The public multilevel k-way partitioning driver — the METIS substitute.

use crate::coarsen::coarsen_to;
use crate::graph::PartGraph;
use crate::initial::initial_partition_with_stats;
use crate::refine::{projected_boundary, refine_kway};
use largeea_common::obs::{Level, Recorder};

/// Configuration for [`partition_kway`].
#[derive(Debug, Clone, Copy)]
pub struct PartitionConfig {
    /// Number of parts `K`.
    pub k: usize,
    /// Allowed imbalance: each part's vertex weight may reach
    /// `imbalance · total/k`. METIS's default is 1.03; we default to 1.05.
    pub imbalance: f64,
    /// RNG seed (matching order, growing starts).
    pub seed: u64,
    /// Stop coarsening once the graph has at most `k · coarsen_factor`
    /// vertices.
    pub coarsen_factor: usize,
    /// Boundary-refinement sweeps per uncoarsening level.
    pub refine_passes: usize,
}

impl PartitionConfig {
    /// Sensible defaults for `k` parts.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            imbalance: 1.05,
            seed: 0x01A6_2EEA,
            coarsen_factor: 30,
            refine_passes: 4,
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the imbalance tolerance.
    pub fn with_imbalance(mut self, imbalance: f64) -> Self {
        assert!(imbalance >= 1.0, "imbalance must be >= 1.0");
        self.imbalance = imbalance;
        self
    }
}

/// A k-way partitioning result.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// `assignment[v]` = part id of vertex `v`, in `0..k`.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub k: usize,
}

impl Partitioning {
    /// The vertices of each part, in ascending order.
    pub fn parts(&self) -> Vec<Vec<u32>> {
        let mut parts = vec![Vec::new(); self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            parts[p as usize].push(v as u32);
        }
        parts
    }

    /// Vertex-weight of each part.
    pub fn part_weights(&self, g: &PartGraph) -> Vec<u64> {
        let mut w = vec![0u64; self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            w[p as usize] += g.vwgt(v as u32);
        }
        w
    }

    /// Ratio of the heaviest part to the ideal part weight (1.0 = perfect).
    pub fn balance(&self, g: &PartGraph) -> f64 {
        let total = g.total_vwgt();
        if total == 0 || self.k == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.k as f64;
        let max = self.part_weights(g).into_iter().max().unwrap_or(0);
        max as f64 / ideal
    }
}

/// Total weight of edges crossing parts (each undirected edge counted once),
/// an integer below 2³² and so exact as `f64`.
pub fn edge_cut(g: &PartGraph, assignment: &[u32]) -> f64 {
    let mut cut = 0u64;
    for v in 0..g.nv() as u32 {
        for (n, w) in g.neighbors(v) {
            if v < n && assignment[v as usize] != assignment[n as usize] {
                cut += u64::from(w);
            }
        }
    }
    cut as f64
}

/// Partitions `g` into `cfg.k` parts using the multilevel scheme:
/// heavy-edge-matching coarsening → recursive-bisection initial partition →
/// projection with greedy k-way boundary refinement at every level.
///
/// ```
/// use largeea_partition::{partition_kway, PartGraph, PartitionConfig};
///
/// // two triangles joined by one weak edge
/// let g = PartGraph::from_edges(6, vec![
///     (0, 1, 10), (1, 2, 10), (0, 2, 10),
///     (3, 4, 10), (4, 5, 10), (3, 5, 10),
///     (2, 3, 1),
/// ]);
/// let p = partition_kway(&g, &PartitionConfig::new(2));
/// assert_eq!(p.assignment[0], p.assignment[1]); // triangle stays together
/// assert_ne!(p.assignment[0], p.assignment[4]); // weak edge is cut
/// ```
pub fn partition_kway(g: &PartGraph, cfg: &PartitionConfig) -> Partitioning {
    partition_kway_traced(g, cfg, &Recorder::disabled())
}

/// [`partition_kway`] with telemetry: the whole call is a `partition_kway`
/// span ([`Level::Detail`]) with `k`/`nv` and — when the recorder is enabled
/// — final `edge_cut`/`balance` fields; coarsening (`levels`, `coarsest_nv`,
/// `stalled`), the initial partition (`nv`, `bisections`, `fm_passes`,
/// `fm_moves`) and each uncoarsening level get child spans, with refinement
/// sweeps nested under them as `refine_pass` spans. The `coarsen` span also
/// says what the levels hold: `level_edges` (their edges, summed) and
/// `level_bytes` (their graphs and maps on the heap).
pub fn partition_kway_traced(g: &PartGraph, cfg: &PartitionConfig, rec: &Recorder) -> Partitioning {
    let k = cfg.k;
    assert!(k >= 1, "k must be positive");
    let mut span = rec.span_at(Level::Detail, "partition_kway");
    span.field("k", k);
    span.field("nv", g.nv());
    if k == 1 {
        return Partitioning {
            assignment: vec![0; g.nv()],
            k,
        };
    }
    if g.nv() <= k {
        // Degenerate: one vertex per part (round-robin for the remainder).
        return Partitioning {
            assignment: (0..g.nv() as u32).map(|v| v % k as u32).collect(),
            k,
        };
    }

    let max_part_weight = ((g.total_vwgt() as f64 / k as f64) * cfg.imbalance).ceil() as u64;
    let target_nv = (k * cfg.coarsen_factor).max(64);
    let levels = {
        let mut s = rec.span_at(Level::Detail, "coarsen");
        let levels = coarsen_to(g, target_nv, cfg.seed, rec);
        let coarsest_nv = levels.last().map_or(g.nv(), |l| l.graph.nv());
        s.field("levels", levels.len());
        s.field("coarsest_nv", coarsest_nv);
        // stopped by the < 10 % shrink rule, short of `target_nv`: the
        // initial partitioner gets a larger graph than it was meant to
        s.field("stalled", coarsest_nv > target_nv);
        s.field(
            "level_edges",
            levels.iter().map(|l| l.graph.ne()).sum::<usize>(),
        );
        s.field(
            "level_bytes",
            levels.iter().map(|l| l.heap_bytes()).sum::<usize>(),
        );
        levels
    };

    // Initial partition at the coarsest level (or on g directly if no
    // coarsening happened).
    let coarsest = levels.last().map(|l| &l.graph).unwrap_or(g);
    let mut assignment = {
        let mut s = rec.span_at(Level::Detail, "initial_partition");
        let (mut assignment, stats) =
            initial_partition_with_stats(coarsest, k, cfg.seed.wrapping_add(97));
        s.field("nv", coarsest.nv());
        s.field("bisections", stats.bisections);
        s.field("fm_passes", stats.fm_passes);
        s.field("fm_moves", stats.fm_moves);
        let cap = ((coarsest.total_vwgt() as f64 / k as f64) * cfg.imbalance).ceil() as u64;
        refine_kway(
            coarsest,
            &mut assignment,
            k,
            cap,
            cfg.refine_passes * 2,
            vec![true; coarsest.nv()],
            rec,
        );
        assignment
    };

    // Uncoarsen: project through each level's map, refining as we go.
    for i in (0..levels.len()).rev() {
        let mut s = rec.span_at(Level::Trace, "uncoarsen_level");
        let fine_graph = if i == 0 { g } else { &levels[i - 1].graph };
        s.field("level", i);
        s.field("nv", fine_graph.nv());
        let map = &levels[i].map;
        let mut fine_assignment = vec![0u32; fine_graph.nv()];
        for (v, &c) in map.iter().enumerate() {
            fine_assignment[v] = assignment[c as usize];
        }
        let cap = ((fine_graph.total_vwgt() as f64 / k as f64) * cfg.imbalance).ceil() as u64;
        refine_kway(
            fine_graph,
            &mut fine_assignment,
            k,
            cap.max(max_part_weight),
            cfg.refine_passes,
            projected_boundary(&levels[i].graph, &assignment, map),
            rec,
        );
        assignment = fine_assignment;
    }

    let p = Partitioning { assignment, k };
    if rec.is_enabled() {
        // O(|E|) quality metrics — only worth computing when someone is
        // recording them.
        span.field("edge_cut", edge_cut(g, &p.assignment));
        span.field("balance", p.balance(g));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::rng::Rng;

    /// `c` clusters of `n` vertices each, dense inside, one weak edge between
    /// consecutive clusters.
    fn clustered(c: usize, n: usize, seed: u64) -> PartGraph {
        let mut rng = Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for ci in 0..c {
            let base = (ci * n) as u32;
            for i in 0..n as u32 {
                // ~4 random intra-cluster edges per vertex
                for _ in 0..4 {
                    let j = rng.gen_range(0..n as u32);
                    if i != j {
                        edges.push((base + i, base + j, 2));
                    }
                }
            }
            if ci + 1 < c {
                edges.push((base, base + n as u32, 1));
            }
        }
        PartGraph::from_edges(c * n, edges)
    }

    #[test]
    fn recovers_planted_clusters() {
        let g = clustered(4, 50, 3);
        let p = partition_kway(&g, &PartitionConfig::new(4));
        // the cut should be tiny relative to total weight
        let cut = edge_cut(&g, &p.assignment);
        assert!(
            cut <= 6.0,
            "cut {cut} too large; partitioner failed to find clusters"
        );
        assert!(p.balance(&g) <= 1.3, "balance {}", p.balance(&g));
    }

    #[test]
    fn all_vertices_assigned_in_range() {
        let g = clustered(3, 40, 5);
        let p = partition_kway(&g, &PartitionConfig::new(5));
        assert_eq!(p.assignment.len(), 120);
        assert!(p.assignment.iter().all(|&a| (a as usize) < 5));
        // every part non-empty for a well-connected graph
        let parts = p.parts();
        assert!(parts.iter().all(|pt| !pt.is_empty()));
    }

    #[test]
    fn k1_returns_single_part() {
        let g = clustered(2, 10, 1);
        let p = partition_kway(&g, &PartitionConfig::new(1));
        assert!(p.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn degenerate_more_parts_than_vertices() {
        let g = PartGraph::from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let p = partition_kway(&g, &PartitionConfig::new(8));
        assert_eq!(p.assignment.len(), 3);
        assert!(p.assignment.iter().all(|&a| a < 8));
    }

    #[test]
    fn respects_heavy_virtual_edges() {
        // Two clusters, but vertices 0 and 60 tied by a huge weight: they
        // must land together (this is CPS phase 1's mechanism).
        let mut g_edges = Vec::new();
        let mut rng = Rng::seed_from_u64(11);
        for c in 0..2 {
            let base = c * 60u32;
            for i in 0..60u32 {
                for _ in 0..4 {
                    let j = rng.gen_range(0..60u32);
                    if i != j {
                        g_edges.push((base + i, base + j, 1));
                    }
                }
            }
        }
        g_edges.push((0, 60, 10_000));
        let g = PartGraph::from_edges(120, g_edges);
        let p = partition_kway(&g, &PartitionConfig::new(2));
        assert_eq!(
            p.assignment[0], p.assignment[60],
            "heavy edge must not be cut"
        );
    }

    #[test]
    fn refinement_improves_or_preserves_cut() {
        // Ablation D1: boundary refinement must never lose to projection.
        let g = clustered(4, 40, 21);
        let mut no_refine = PartitionConfig::new(4);
        no_refine.refine_passes = 0;
        let with_refine = PartitionConfig::new(4);
        let cut_plain = edge_cut(&g, &partition_kway(&g, &no_refine).assignment);
        let cut_refined = edge_cut(&g, &partition_kway(&g, &with_refine).assignment);
        assert!(
            cut_refined <= cut_plain,
            "refined cut {cut_refined} worse than unrefined {cut_plain}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = clustered(3, 30, 9);
        let cfg = PartitionConfig::new(3).with_seed(123);
        let a = partition_kway(&g, &cfg);
        let b = partition_kway(&g, &cfg);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn traced_variant_matches_untraced_and_records_spans() {
        use largeea_common::obs::{ObsConfig, Recorder};
        let g = clustered(3, 40, 5);
        let cfg = PartitionConfig::new(3).with_seed(8);
        let plain = partition_kway(&g, &cfg);
        let rec = Recorder::new(ObsConfig::default());
        let traced = partition_kway_traced(&g, &cfg, &rec);
        assert_eq!(
            plain.assignment, traced.assignment,
            "tracing must not change results"
        );
        let t = rec.trace();
        let root = t.find("partition_kway").expect("root span");
        assert!(root.field("edge_cut").is_some());
        assert!(root.field("balance").is_some());
        let coarsen = t.find("coarsen").expect("coarsen span");
        assert!(coarsen.field("stalled").is_some());
        // each level edge sits in two adjacencies at 4 B + 4 B
        let level_edges = coarsen.field_u64("level_edges").unwrap();
        assert!(level_edges > 0);
        assert!(coarsen.field_u64("level_bytes").unwrap() >= 16 * level_edges);
        let initial = t.find("initial_partition").expect("initial span");
        assert_eq!(
            initial.field_u64("nv"),
            coarsen.field_u64("coarsest_nv"),
            "the initial partitioner sees the coarsest graph"
        );
        assert_eq!(initial.field_u64("bisections"), Some(2));
        assert!(initial.field_u64("fm_passes") >= Some(2));
        assert!(initial.field_u64("fm_moves").is_some());
        assert!(t.span_count("refine_pass") >= 1, "per-pass spans recorded");
        assert!(
            t.counters
                .iter()
                .any(|(k, _)| k == "partition.refine.moves"),
            "refine move counter registered (may be 0 on clean clusters)"
        );
        // uncoarsen levels nest under the root
        assert!(t.span_count("uncoarsen_level") >= 1);
    }

    #[test]
    fn edge_cut_of_uniform_assignment_is_zero() {
        let g = clustered(2, 20, 2);
        assert_eq!(edge_cut(&g, &[0; 40]), 0.0);
    }

    #[test]
    fn balance_metric_sane() {
        let g = clustered(2, 30, 4);
        let p = partition_kway(&g, &PartitionConfig::new(2));
        let b = p.balance(&g);
        assert!((1.0..=1.2).contains(&b), "balance {b}");
    }
}
