//! Property-based tests for the partitioning substrate.
//!
//! Randomized inputs come from `largeea::common::check::for_each_case`;
//! each test's leading seed constant pins its input stream (a failure
//! prints the case seed to replay).

use largeea::common::check::for_each_case;
use largeea::common::rng::Rng;
use largeea::data::Preset;
use largeea::kg::{EntityId, KgPair, KnowledgeGraph};
use largeea::partition::{
    edge_cut, metis_cps, partition_kway, vps, CpsConfig, PartGraph, PartitionConfig,
};
use largeea::text::hashing::fnv1a;

/// A random undirected graph as an edge list over `n` vertices
/// (10–119 vertices, `n..4n` weighted edges).
fn random_graph(rng: &mut Rng) -> (usize, Vec<(u32, u32, f64)>) {
    let n = rng.gen_range(10..120usize);
    let m = rng.gen_range(n..4 * n);
    let edges = (0..m)
        .map(|_| {
            (
                rng.gen_range(0..n as u32),
                rng.gen_range(0..n as u32),
                rng.gen_range(0.1f64..10.0),
            )
        })
        .collect();
    (n, edges)
}

#[test]
fn partition_is_a_total_cover() {
    for_each_case(0x9A701, 48, |rng| {
        let (n, edges) = random_graph(rng);
        let k = rng.gen_range(1..8usize);
        let g = PartGraph::from_edges(n, edges);
        let p = partition_kway(&g, &PartitionConfig::new(k));
        // every vertex assigned, every id in range
        assert_eq!(p.assignment.len(), n);
        assert!(p.assignment.iter().all(|&a| (a as usize) < k));
    });
}

#[test]
fn partition_balance_is_bounded() {
    for_each_case(0x9A702, 48, |rng| {
        let (n, edges) = random_graph(rng);
        let k = rng.gen_range(2..6usize);
        if n < 4 * k {
            return; // the property only speaks about non-degenerate sizes
        }
        let g = PartGraph::from_edges(n, edges);
        let p = partition_kway(&g, &PartitionConfig::new(k));
        // multilevel partitioning with tolerance 1.05 plus projection slack:
        // assert a loose but meaningful bound
        assert!(
            p.balance(&g) <= 2.0,
            "balance {} too poor for n={} k={}",
            p.balance(&g),
            n,
            k
        );
    });
}

#[test]
fn edge_cut_never_exceeds_total_weight() {
    for_each_case(0x9A703, 48, |rng| {
        let (n, edges) = random_graph(rng);
        let k = rng.gen_range(1..6usize);
        let g = PartGraph::from_edges(n, edges);
        let p = partition_kway(&g, &PartitionConfig::new(k));
        let cut = edge_cut(&g, &p.assignment);
        assert!(cut >= 0.0);
        assert!(cut <= g.total_ewgt() + 1e-9);
        if k == 1 {
            assert_eq!(cut, 0.0);
        }
    });
}

#[test]
fn same_seed_same_assignment() {
    for_each_case(0x9A704, 48, |rng| {
        let (n, edges) = random_graph(rng);
        let seed = rng.gen_range(0..1000u64);
        // determinism: same seed → same assignment
        let g = PartGraph::from_edges(n, edges);
        let cfg = PartitionConfig::new(3).with_seed(seed);
        let a = partition_kway(&g, &cfg);
        let b = partition_kway(&g, &cfg);
        assert_eq!(a.assignment, b.assignment);
    });
}

/// Builds a KG pair of `c` communities with `per` entities each.
fn community_pair(c: usize, per: usize, rng: &mut Rng) -> KgPair {
    let total = c * per;
    let mut s = KnowledgeGraph::new("EN");
    let mut t = KnowledgeGraph::new("FR");
    for i in 0..total {
        s.add_entity(&format!("s{i}"));
        t.add_entity(&format!("t{i}"));
    }
    for kg_idx in 0..2 {
        for ci in 0..c {
            let base = ci * per;
            for i in 0..per {
                for _ in 0..3 {
                    let j = rng.gen_range(0..per);
                    if i == j {
                        continue;
                    }
                    let (h, tl) = (base + i, base + j);
                    if kg_idx == 0 {
                        s.add_triple_by_name(&format!("s{h}"), "r", &format!("s{tl}"));
                    } else {
                        t.add_triple_by_name(&format!("t{h}"), "r", &format!("t{tl}"));
                    }
                }
            }
        }
    }
    let alignment = (0..total as u32)
        .map(|i| (EntityId(i), EntityId(i)))
        .collect();
    KgPair::new(s, t, alignment)
}

#[test]
fn cps_beats_vps_on_test_retention() {
    for_each_case(0x9A705, 12, |rng| {
        let seed = rng.gen_range(0..500u64);
        let pair = community_pair(3, 40, rng);
        let seeds = pair.split_seeds(0.2, seed);
        let cps = metis_cps(&pair, &seeds, &CpsConfig::new(3).with_seed(seed));
        let v = vps(&pair, &seeds, 3, seed);
        let (rc, rv) = (cps.retention(&seeds), v.retention(&seeds));
        // VPS keeps all training seeds by construction
        assert_eq!(rv.train, 1.0);
        // on community graphs CPS must keep clearly more test pairs together
        assert!(
            rc.test >= rv.test,
            "cps test retention {} < vps {}",
            rc.test,
            rv.test
        );
    });
}

#[test]
fn batches_partition_the_entity_sets() {
    for_each_case(0x9A706, 12, |rng| {
        let seed = rng.gen_range(0..500u64);
        let k = rng.gen_range(2..5usize);
        let pair = community_pair(2, 30, rng);
        let seeds = pair.split_seeds(0.3, seed);
        let mb = metis_cps(&pair, &seeds, &CpsConfig::new(k).with_seed(seed));
        let ns: usize = mb.batches.iter().map(|b| b.source_entities.len()).sum();
        let nt: usize = mb.batches.iter().map(|b| b.target_entities.len()).sum();
        assert_eq!(ns, pair.source.num_entities());
        assert_eq!(nt, pair.target.num_entities());
        // disjointness: every entity appears in exactly one batch
        assert!(mb.source_membership.iter().all(|m| m.len() == 1));
        assert!(mb.target_membership.iter().all(|m| m.len() == 1));
    });
}

#[test]
fn overlap_monotonically_recovers_retention() {
    for_each_case(0x9A707, 12, |rng| {
        let seed = rng.gen_range(0..200u64);
        let pair = community_pair(3, 25, rng);
        let seeds = pair.split_seeds(0.2, seed);
        let base = metis_cps(&pair, &seeds, &CpsConfig::new(3).with_seed(seed));
        let mut last = base.retention(&seeds).total;
        for d_ov in 2..=3 {
            let ov = base.overlapped(&pair, &seeds, d_ov);
            let r = ov.retention(&seeds).total;
            assert!(r >= last - 1e-12, "retention dropped at d_ov={d_ov}");
            last = r;
        }
    });
}

/// Both digests were computed on the commit before the priority-queue FM and
/// the hash-free graph builds: a partitioner optimisation may not move a
/// single assignment.
#[test]
fn cps_assignments_match_the_pinned_digests() {
    let pair = Preset::Dbp1mCi.spec(1.0).generate();
    let seeds = pair.split_seeds(0.2, 1);
    // FNV-1a over the source then the target batch id of every entity
    let got = [5, 20].map(|k| {
        let mb = metis_cps(&pair, &seeds, &CpsConfig::new(k));
        let bytes: Vec<u8> = mb
            .source_membership
            .iter()
            .chain(&mb.target_membership)
            .flat_map(|m| m[0].to_le_bytes())
            .collect();
        fnv1a(&bytes)
    });
    assert_eq!(
        got,
        [0x7ff0_3f1c_c2b7_0a84, 0xedf0_a5aa_e5c0_84db],
        "METIS-CPS assignments on dbp1m-ci moved (K = 5, 20): {got:#018x?}"
    );
}

/// The same digests at pool widths 1, 2 and 4: `LARGEEA_THREADS` is read
/// once per process, so each width re-runs the test above in a child.
#[test]
fn cps_digests_hold_at_pool_widths_1_2_4() {
    let exe = std::env::current_exe().expect("test executable path");
    for threads in ["1", "2", "4"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "cps_assignments_match_the_pinned_digests"])
            .env("LARGEEA_THREADS", threads)
            .output()
            .expect("re-running the digest test");
        assert!(
            out.status.success(),
            "LARGEEA_THREADS={threads}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
