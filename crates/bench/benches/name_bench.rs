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
    pair.source
        .labels()
        .iter()
        .take(n)
        .map(str::to_owned)
        .collect()
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

fn bench_ivf_vs_exact(bench: &mut Bench) {
    // The Faiss-substitute trade-off: exact brute force vs IVF probing.
    use largeea_sim::IvfIndex;
    let names = labels(1000);
    let encoder = HashEncoder::new(128, 42);
    let emb = encoder.encode_batch(&names);
    let mut group = bench.group("sens_ivf_vs_exact");
    group.bench_function("exact_1000x1000", |b| {
        b.iter(|| largeea_sim::topk_search(&emb, &emb, 50, Metric::Manhattan))
    });
    let idx = IvfIndex::build(emb.clone(), 16, 10, 7, Metric::Manhattan);
    for nprobe in [2usize, 8] {
        group.bench_function(format!("ivf_nprobe/{nprobe}"), |b| {
            b.iter(|| idx.search(&emb, 50, nprobe))
        });
    }
    group.finish();
}

fn main() {
    let mut bench = Bench::new().sample_size(10);
    bench_sens(&mut bench);
    bench_stns(&mut bench);
    bench_topk_retention(&mut bench);
    bench_ivf_vs_exact(&mut bench);
}
