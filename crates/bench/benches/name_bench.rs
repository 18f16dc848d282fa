//! Micro-benchmarks for the name channel's substrates.
//!
//! The costs behind Figure 4's SENS and STNS series: hash-encoder
//! throughput, segmented top-k search, MinHash signatures, LSH candidate
//! lookup, and Levenshtein distance.

use largeea_common::bench::Bench;
use largeea_data::Preset;
use largeea_sim::{segmented_topk, Metric};
use largeea_text::jaccard::shingles;
use largeea_text::{levenshtein, HashEncoder, LshIndex, MinHasher};

fn labels(n: usize) -> Vec<String> {
    let pair = Preset::Ids15kEnFr.spec(0.1).generate();
    owned(pair.source.labels().iter(), n)
}

fn owned<'a>(names: impl Iterator<Item = &'a str>, n: usize) -> Vec<String> {
    names.take(n).map(str::to_owned).collect()
}

fn bench_sens(bench: &mut Bench) {
    let names = labels(1000);
    let encoder = HashEncoder::new(128, 42);
    let mut group = bench.group("fig4_sens");
    group.bench_function("encode_batch_1000", |b| {
        b.iter(|| encoder.encode_batch(&names))
    });
    let emb = encoder.encode_batch(&names);
    for segments in [1usize, 4] {
        group.bench_function(format!("segmented_topk50_1000x1000/{segments}"), |b| {
            b.iter(|| segmented_topk(&emb, &emb, 50, Metric::Manhattan, segments))
        });
    }
    group.finish();
}

fn bench_stns(bench: &mut Bench) {
    let names = labels(1000);
    let hasher = MinHasher::new(128, 7);
    let mut group = bench.group("fig4_stns");
    group.bench_function("minhash_signatures_1000", |b| {
        b.iter(|| {
            names
                .iter()
                .map(|n| hasher.signature(&shingles(n, 3)))
                .collect::<Vec<_>>()
        })
    });
    let sigs: Vec<_> = names
        .iter()
        .map(|n| hasher.signature(&shingles(n, 3)))
        .collect();
    group.bench_function("lsh_build_and_query_1000", |b| {
        b.iter(|| {
            let mut idx = LshIndex::with_threshold(128, 0.5);
            for (i, s) in sigs.iter().enumerate() {
                idx.insert(i as u32, s);
            }
            sigs.iter().map(|s| idx.candidates(s).len()).sum::<usize>()
        })
    });
    group.bench_function("levenshtein_pairs_1000", |b| {
        b.iter(|| {
            names
                .iter()
                .zip(names.iter().rev())
                .map(|(a, z)| levenshtein(a, z))
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_topk_retention(bench: &mut Bench) {
    // Ablation D3: the φ = 50 retention knob's cost/memory trade-off.
    let names = labels(1000);
    let encoder = HashEncoder::new(128, 42);
    let emb = encoder.encode_batch(&names);
    let mut group = bench.group("ablation_d3_topk_phi");
    for k in [10usize, 50, 200] {
        group.bench_function(k, |b| {
            b.iter(|| segmented_topk(&emb, &emb, k, Metric::Manhattan, 4))
        });
    }
    group.finish();
}

fn bench_cold_scans(bench: &mut Bench) {
    // Exact scans whose collectors start empty: a batch's `M_s`, a
    // negatives resample, and one whole-side segment of the DBP1M@0.008
    // SENS scan, where every collector is cold for the whole scan.
    let pair = Preset::Dbp1mEnFr.spec(0.008).generate();
    let (source, target) = (pair.source.labels(), pair.target.labels());
    let mut group = bench.group("cold_topk_search");
    for (n_q, n_b, dim, k) in [
        (1924, 1397, 64, 50),
        (776, 945, 192, 17),
        (14655, 10639, 128, 50),
    ] {
        let encoder = HashEncoder::new(dim, 42);
        let q = encoder.encode_batch(&owned(source.iter(), n_q));
        let b = encoder.encode_batch(&owned(target.iter(), n_b));
        let shape = format!("{}x{}_dim{dim}_k{k}", q.rows(), b.rows());
        group.bench_function(shape, |bch| {
            bch.iter(|| largeea_sim::topk_search(&q, &b, k, Metric::Manhattan))
        });
    }
    group.finish();
}

fn main() {
    let mut bench = Bench::new().sample_size(10);
    bench_sens(&mut bench);
    bench_stns(&mut bench);
    bench_topk_retention(&mut bench);
    bench_cold_scans(&mut bench);
}
