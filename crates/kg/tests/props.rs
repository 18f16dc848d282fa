//! Property-based tests for the KG substrate.

use largeea_common::check::{for_each_case, string_from};
use largeea_common::rng::Rng;
use largeea_kg::{Adjacency, EntityId, Interner, KgPair, KnowledgeGraph, Triple};

#[test]
fn interner_ids_are_dense_and_stable() {
    for_each_case(0x4601, 96, |rng| {
        let count = rng.gen_range(1..40usize);
        let names: Vec<String> = (0..count)
            .map(|_| string_from(rng, "abcdefghijklmnopqrstuvwxyz", 1, 8))
            .collect();
        let mut it = Interner::new();
        let ids: Vec<u32> = names.iter().map(|n| it.intern(n)).collect();
        // re-interning returns the same ids
        for (n, &id) in names.iter().zip(&ids) {
            assert_eq!(it.intern(n), id);
            assert_eq!(it.get(n), Some(id));
            assert_eq!(it.resolve(id), n.as_str());
        }
        // ids are dense 0..len
        let mut distinct: Vec<u32> = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), it.len());
        assert_eq!(distinct.last().map(|&x| x as usize), Some(it.len() - 1));
    });
}

fn random_triples(rng: &mut Rng, n: u32, r: u32, max: usize) -> Vec<(u32, u32, u32)> {
    let count = rng.gen_range(0..max);
    (0..count)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..r),
                rng.gen_range(0..n),
            )
        })
        .collect()
}

#[test]
fn adjacency_degree_sum_is_conserved() {
    for_each_case(0x4602, 96, |rng| {
        let triples = random_triples(rng, 12, 3, 60);
        let ts: Vec<Triple> = triples
            .iter()
            .map(|&(h, r, t)| Triple::new(h, r, t))
            .collect();
        let adj = Adjacency::undirected(12, &ts);
        let degree_sum: usize = (0..12).map(|e| adj.degree(EntityId(e))).sum();
        let loops = ts.iter().filter(|t| t.is_loop()).count();
        assert_eq!(degree_sum, 2 * ts.len() - loops);
        // symmetry for non-loop edges
        for t in &ts {
            if !t.is_loop() {
                assert!(adj.neighbors(t.head).contains(&t.tail));
                assert!(adj.neighbors(t.tail).contains(&t.head));
            }
        }
    });
}

#[test]
fn split_seeds_partitions_for_every_ratio() {
    for_each_case(0x4603, 96, |rng| {
        let n = rng.gen_range(1..60usize);
        let ratio = rng.gen_range(0.0f64..1.0);
        let seed = rng.gen_range(0..10_000u64);
        let mut s = KnowledgeGraph::new("EN");
        let mut t = KnowledgeGraph::new("FR");
        let alignment: Vec<_> = (0..n)
            .map(|i| {
                (
                    s.add_entity(&format!("s{i}")),
                    t.add_entity(&format!("t{i}")),
                )
            })
            .collect();
        let pair = KgPair::new(s, t, alignment);
        let seeds = pair.split_seeds(ratio, seed);
        assert_eq!(seeds.len(), n);
        // no pair lost or duplicated
        let mut all: Vec<_> = seeds.train.iter().chain(&seeds.test).copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
        // ratio respected within rounding
        let expect = (n as f64 * ratio).round() as usize;
        assert_eq!(seeds.train.len(), expect.min(n));
    });
}
