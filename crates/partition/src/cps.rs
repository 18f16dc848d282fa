//! METIS-CPS: the collaborative partition strategy (paper §2.2.1).
//!
//! Workflow:
//! 1. partition the source KG `G_s` into `K` parts with the multilevel
//!    partitioner;
//! 2. group the training seeds by source part — each group's target-side
//!    equivalents `L_t^i` *should* end up in one target part;
//! 3. re-weight the target KG's partition graph:
//!    - **Phase 1 (attract):** pick `q` pivot entities per group and add
//!      virtual star edges from each pivot to every other group member, then
//!      set every edge inside the group's connected subgraph `CG^i` to
//!      `w′ ≫ 1` — the partitioner will not cut such edges;
//!    - **Phase 2 (release):** zero the weight of every target edge whose
//!      endpoints belong to *different* seed groups — the partitioner is
//!      free to cut them;
//! 4. partition the re-weighted target graph;
//! 5. pair source parts with target parts by maximum seed overlap (greedy
//!    maximum matching on the co-occurrence counts).
//!
//! The virtual edges exist only inside the partition graph; the KG itself is
//! never modified.

use crate::batches::MiniBatches;
use crate::graph::{merge_edges, Edge, PartGraph};
use crate::kway::{partition_kway_traced, PartitionConfig};
use largeea_common::obs::{Level, Recorder};
use largeea_common::rng::Rng;
use largeea_kg::{AlignmentSeeds, KgPair, KnowledgeGraph};

/// Configuration for [`metis_cps`].
#[derive(Debug, Clone, Copy)]
pub struct CpsConfig {
    /// Number of mini-batches `K`.
    pub k: usize,
    /// Virtual/group edge weight `w′ ≫ 1`.
    pub virtual_edge_weight: f64,
    /// Number of pivot entities `q` per seed group (the paper uses 1).
    pub q: usize,
    /// RNG seed.
    pub seed: u64,
    /// Partitioner imbalance tolerance.
    pub imbalance: f64,
}

impl CpsConfig {
    /// Paper defaults for `k` batches: `q = 1`, `w′ = 1000`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            virtual_edge_weight: 1000.0,
            q: 1,
            seed: 0xC95,
            imbalance: 1.05,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn partition_config(&self) -> PartitionConfig {
        PartitionConfig::new(self.k)
            .with_seed(self.seed)
            .with_imbalance(self.imbalance)
    }
}

/// Runs METIS-CPS on `pair` with the given training seeds, producing `K`
/// mini-batches.
pub fn metis_cps(pair: &KgPair, seeds: &AlignmentSeeds, cfg: &CpsConfig) -> MiniBatches {
    metis_cps_traced(pair, seeds, cfg, &Recorder::disabled())
}

/// [`metis_cps`] with telemetry: child spans for the source-side partition,
/// the re-weighting step, and the target-side partition, plus
/// `cps.virtual_edges` / `cps.released_edges` counters for the two
/// re-weighting phases (star edges drawn, duplicates included; edges left
/// at weight 0).
pub fn metis_cps_traced(
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    cfg: &CpsConfig,
    rec: &Recorder,
) -> MiniBatches {
    assert!(cfg.k >= 1, "k must be positive");
    assert!(cfg.q >= 1, "q must be positive");

    // Step 1: partition the source KG.
    let source_part = {
        let _s = rec.span_at(Level::Detail, "cps_source_partition");
        let source_graph = PartGraph::from_kg(&pair.source);
        partition_kway_traced(&source_graph, &cfg.partition_config(), rec)
    };

    // Step 2: group targets of training seeds by source part.
    let mut groups = SeedGroups {
        of: vec![NO_GROUP; pair.target.num_entities()],
        members: vec![Vec::new(); cfg.k],
    };
    for &(s, t) in &seeds.train {
        let g = source_part.assignment[s.idx()];
        groups.of[t.idx()] = g;
        groups.members[g as usize].push(t.0);
    }

    // Step 3, phases 1 + 2: re-weight the target partition graph.
    let target_edges = {
        let mut span = rec.span_at(Level::Detail, "cps_reweight");
        let r = reweight_target(&pair.target, &groups, cfg);
        rec.add("cps.virtual_edges", r.virtual_edges);
        rec.add("cps.released_edges", r.released_edges);
        span.field("virtual_edges", r.virtual_edges);
        span.field("released_edges", r.released_edges);
        r.edges
    };

    // Step 4: partition the re-weighted target graph.
    let target_part = {
        let _s = rec.span_at(Level::Detail, "cps_target_partition");
        let target_graph = PartGraph::from_merged(pair.target.num_entities(), &target_edges);
        drop(target_edges); // 16 B an edge, dead weight while partitioning
        partition_kway_traced(
            &target_graph,
            &cfg.partition_config().with_seed(cfg.seed.wrapping_add(1)),
            rec,
        )
    };

    // Step 5: pair source parts with target parts by seed co-occurrence.
    let remap = match_parts(
        cfg.k,
        seeds.train.iter().map(|&(s, t)| {
            (
                source_part.assignment[s.idx()],
                target_part.assignment[t.idx()],
            )
        }),
    );
    let target_assignment: Vec<u32> = target_part
        .assignment
        .iter()
        .map(|&p| remap[p as usize])
        .collect();

    MiniBatches::from_assignments(
        pair,
        seeds,
        &source_part.assignment,
        &target_assignment,
        cfg.k,
    )
}

/// Salt decoupling the pivot-selection RNG from the partitioner RNG.
const PIVOT_RNG_SALT: u64 = 0x9D39_247E_3377_6D41;

/// `SeedGroups::of` of a target entity no training seed points at.
const NO_GROUP: u32 = u32::MAX;

/// The target entities of the training seeds, grouped by the source part of
/// their source entity.
struct SeedGroups {
    /// Seed-group id of each target entity ([`NO_GROUP`] = not a seed
    /// target). A target that occurs in several training pairs is listed in
    /// each pair's group and keeps the id of the last.
    of: Vec<u32>,
    /// The members of each group, in training-pair order.
    members: Vec<Vec<u32>>,
}

/// The re-weighted target graph as merged, key-ordered edges, with what the
/// two phases did.
struct Reweighted {
    edges: Vec<Edge>,
    /// Pivot star edges drawn in phase 1.
    virtual_edges: u64,
    /// Edges phase 2 zeroed.
    released_edges: u64,
}

/// CPS phases 1 and 2 over the target KG's edges, in one pass with no
/// hashing: an edge between two seed targets gets `w′` when they share a
/// group and `0` when they do not; every other edge keeps its triple count.
/// Then each group of two or more draws its pivots and each pivot's star is
/// added — the stars, sorted, merge into the key-ordered edges, and a star
/// edge the KG already has is that edge, which the pass has given the weight
/// the star would (both ends are seed targets).
fn reweight_target(target: &KnowledgeGraph, groups: &SeedGroups, cfg: &CpsConfig) -> Reweighted {
    let mut released_edges = 0u64;
    // `w′` inside a group; `0`, counted as released, between two groups
    let mut seed_edge_weight = |a: u32, b: u32| {
        if groups.of[a as usize] == groups.of[b as usize] {
            cfg.virtual_edge_weight
        } else {
            released_edges += 1;
            0.0
        }
    };

    let mut edges = merge_edges(
        target.num_entities(),
        target.triples().iter().map(|t| (t.head.0, t.tail.0, 1.0)),
    );
    for (a, b, w) in &mut edges {
        if groups.of[*a as usize] != NO_GROUP && groups.of[*b as usize] != NO_GROUP {
            *w = seed_edge_weight(*a, *b);
        }
    }

    let mut rng = Rng::seed_from_u64(cfg.seed ^ PIVOT_RNG_SALT);
    let mut virtual_edges = 0u64;
    let mut stars: Vec<(u32, u32)> = Vec::new();
    for members in groups.members.iter().filter(|m| m.len() >= 2) {
        for _ in 0..cfg.q.min(members.len()) {
            let pivot = members[rng.gen_range(0..members.len())];
            for &b in members.iter().filter(|&&b| b != pivot) {
                stars.push((pivot.min(b), pivot.max(b)));
                virtual_edges += 1;
            }
        }
    }
    stars.sort_unstable();
    stars.dedup();

    let mut merged = Vec::with_capacity(edges.len() + stars.len());
    let mut kg_edges = edges.into_iter().peekable();
    for (a, b) in stars {
        merged.extend(std::iter::from_fn(|| {
            kg_edges.next_if(|e| (e.0, e.1) < (a, b))
        }));
        if kg_edges.peek().is_none_or(|e| (e.0, e.1) != (a, b)) {
            merged.push((a, b, seed_edge_weight(a, b)));
        }
    }
    merged.extend(kg_edges);
    Reweighted {
        edges: merged,
        virtual_edges,
        released_edges,
    }
}

/// Greedy maximum matching of target parts onto source parts by descending
/// co-occurrence count. Unmatched target parts take the leftover source
/// part ids. Returns `remap[target_part] = batch (= source part) id`.
fn match_parts(k: usize, pairs: impl Iterator<Item = (u32, u32)>) -> Vec<u32> {
    let mut counts = vec![vec![0usize; k]; k]; // [source][target]
    for (s, t) in pairs {
        counts[s as usize][t as usize] += 1;
    }
    let mut entries: Vec<(usize, u32, u32)> = Vec::with_capacity(k * k);
    for (s, row) in counts.iter().enumerate() {
        for (t, &c) in row.iter().enumerate() {
            entries.push((c, s as u32, t as u32));
        }
    }
    entries.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut remap = vec![u32::MAX; k];
    let mut source_used = vec![false; k];
    for (_, s, t) in entries {
        if remap[t as usize] == u32::MAX && !source_used[s as usize] {
            remap[t as usize] = s;
            source_used[s as usize] = true;
        }
    }
    // leftovers (no seeds at all): assign remaining source ids in order
    let mut free: Vec<u32> = (0..k as u32)
        .filter(|&s| !source_used[s as usize])
        .collect();
    for slot in remap.iter_mut() {
        if *slot == u32::MAX {
            *slot = free
                .pop()
                .expect("one free source part per unmatched target part");
        }
    }
    remap
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::check::for_each_case;
    use largeea_kg::EntityId;
    use std::collections::BTreeMap;

    /// Builds a pair of KGs with `c` planted communities of size `n` where
    /// target community layout mirrors the source, plus cross edges.
    fn community_pair(c: usize, n: usize, seed: u64) -> (KgPair, AlignmentSeeds) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        let total = c * n;
        for i in 0..total {
            s.add_entity(&format!("s{i}"));
            t.add_entity(&format!("t{i}"));
        }
        let add_edges = |kg: &mut KnowledgeGraph, prefix: &str, rng: &mut Rng| {
            for ci in 0..c {
                let base = ci * n;
                for i in 0..n {
                    for _ in 0..3 {
                        let j = rng.gen_range(0..n);
                        if i != j {
                            kg.add_triple_by_name(
                                &format!("{prefix}{}", base + i),
                                "r",
                                &format!("{prefix}{}", base + j),
                            );
                        }
                    }
                }
                // one weak inter-community edge
                if ci + 1 < c {
                    kg.add_triple_by_name(
                        &format!("{prefix}{}", base),
                        "r",
                        &format!("{prefix}{}", base + n),
                    );
                }
            }
        };
        add_edges(&mut s, "s", &mut rng);
        add_edges(&mut t, "t", &mut rng);
        let alignment: Vec<_> = (0..total as u32)
            .map(|i| (EntityId(i), EntityId(i)))
            .collect();
        let pair = KgPair::new(s, t, alignment);
        let seeds = pair.split_seeds(0.2, seed);
        (pair, seeds)
    }

    /// Phases 1 and 2 as three loops over an edge map: every pair of group
    /// members probed for an existing edge, the stars inserted, then every
    /// edge between two groups zeroed.
    fn reweight_by_map(
        target: &KnowledgeGraph,
        groups: &SeedGroups,
        cfg: &CpsConfig,
    ) -> Reweighted {
        let key = |a: u32, b: u32| (a.min(b), a.max(b));
        let mut edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for t in target.triples() {
            if t.head != t.tail {
                *edges.entry(key(t.head.0, t.tail.0)).or_insert(0.0) += 1.0;
            }
        }
        let mut virtual_edges = 0u64;
        let mut rng = Rng::seed_from_u64(cfg.seed ^ PIVOT_RNG_SALT);
        for members in groups.members.iter().filter(|m| m.len() >= 2) {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    if let Some(w) = edges.get_mut(&key(a, b)) {
                        *w = cfg.virtual_edge_weight;
                    }
                }
            }
            for _ in 0..cfg.q.min(members.len()) {
                let pivot = members[rng.gen_range(0..members.len())];
                for &b in members.iter().filter(|&&b| b != pivot) {
                    edges.insert(key(pivot, b), cfg.virtual_edge_weight);
                    virtual_edges += 1;
                }
            }
        }
        let mut released_edges = 0u64;
        for (&(a, b), w) in edges.iter_mut() {
            let (ga, gb) = (groups.of[a as usize], groups.of[b as usize]);
            if ga != NO_GROUP && gb != NO_GROUP && ga != gb {
                *w = 0.0;
                released_edges += 1;
            }
        }
        Reweighted {
            edges: edges.into_iter().map(|((a, b), w)| (a, b, w)).collect(),
            virtual_edges,
            released_edges,
        }
    }

    #[test]
    fn one_pass_reweighting_equals_the_three_loop_reference() {
        for_each_case(0xC95_0001, 150, |rng| {
            let n = rng.gen_range(2..80usize);
            let mut target = KnowledgeGraph::new("FR");
            for i in 0..n {
                target.add_entity(&format!("t{i}"));
            }
            for _ in 0..rng.gen_range(0..5 * n) {
                let (h, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
                target.add_triple_by_name(&format!("t{h}"), "r", &format!("t{t}"));
            }
            // seed targets drawn with replacement: some occur in two
            // training pairs, in one group or in two
            let k = rng.gen_range(1..6usize);
            let mut groups = SeedGroups {
                of: vec![NO_GROUP; n],
                members: vec![Vec::new(); k],
            };
            for _ in 0..rng.gen_range(0..n) {
                let (t, g) = (rng.gen_range(0..n), rng.gen_range(0..k));
                groups.of[t] = g as u32;
                groups.members[g].push(t as u32);
            }
            for q in [1, 3] {
                let mut cfg = CpsConfig::new(k).with_seed(rng.next_u64());
                cfg.q = q;
                let got = reweight_target(&target, &groups, &cfg);
                let want = reweight_by_map(&target, &groups, &cfg);
                let bits = |r: &Reweighted| -> Vec<(u32, u32, u64)> {
                    r.edges.iter().map(|e| (e.0, e.1, e.2.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "q = {q}");
                assert_eq!(got.virtual_edges, want.virtual_edges, "q = {q}");
                assert_eq!(got.released_edges, want.released_edges, "q = {q}");
            }
        });
    }

    #[test]
    fn cps_keeps_most_seeds_together() {
        let (pair, seeds) = community_pair(3, 60, 5);
        let mb = metis_cps(&pair, &seeds, &CpsConfig::new(3));
        let r = mb.retention(&seeds);
        assert!(
            r.train > 0.8,
            "train retention {} too low for planted communities",
            r.train
        );
        assert!(r.test > 0.5, "test retention {} too low", r.test);
    }

    #[test]
    fn cps_batches_cover_all_entities() {
        let (pair, seeds) = community_pair(2, 40, 7);
        let mb = metis_cps(&pair, &seeds, &CpsConfig::new(2));
        let ns: usize = mb.batches.iter().map(|b| b.source_entities.len()).sum();
        let nt: usize = mb.batches.iter().map(|b| b.target_entities.len()).sum();
        assert_eq!(ns, pair.source.num_entities());
        assert_eq!(nt, pair.target.num_entities());
    }

    #[test]
    fn cps_beats_random_expectation() {
        let (pair, seeds) = community_pair(4, 40, 11);
        let mb = metis_cps(&pair, &seeds, &CpsConfig::new(4));
        let r = mb.retention(&seeds);
        // random assignment would co-locate ~1/k = 25 %
        assert!(r.total > 0.5, "total retention {}", r.total);
    }

    #[test]
    fn cps_with_k1_trivially_retains_everything() {
        let (pair, seeds) = community_pair(2, 20, 3);
        let mb = metis_cps(&pair, &seeds, &CpsConfig::new(1));
        let r = mb.retention(&seeds);
        assert_eq!(r.total, 1.0);
        assert_eq!(mb.edge_cut_rate(&pair), 0.0);
    }

    #[test]
    fn cps_handles_empty_seed_set() {
        let (pair, _) = community_pair(2, 30, 9);
        let empty = AlignmentSeeds::default();
        let mb = metis_cps(&pair, &empty, &CpsConfig::new(2));
        assert_eq!(mb.k(), 2);
    }

    #[test]
    fn cps_is_deterministic() {
        let (pair, seeds) = community_pair(2, 30, 13);
        let cfg = CpsConfig::new(2).with_seed(77);
        let a = metis_cps(&pair, &seeds, &cfg);
        let b = metis_cps(&pair, &seeds, &cfg);
        assert_eq!(a.source_membership, b.source_membership);
        assert_eq!(a.target_membership, b.target_membership);
    }

    #[test]
    fn match_parts_prefers_heavy_overlap() {
        // source part 0 overlaps target part 1 heavily and vice versa
        let pairs = vec![(0u32, 1u32), (0, 1), (0, 1), (1, 0), (1, 0), (0, 0)];
        let remap = match_parts(2, pairs.into_iter());
        assert_eq!(remap, vec![1, 0]); // target part 0 → batch 1, part 1 → batch 0
    }

    #[test]
    fn match_parts_fills_unmatched() {
        let remap = match_parts(3, std::iter::empty());
        let mut sorted = remap.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
