//! Micro-benchmarks for mini-batch EA training.
//!
//! The cost behind Table 2/3's `Time` columns and Figure 4's "EA training"
//! series: one full training epoch (forward + backward + Adam) for each
//! model, plus the negative-sampling refresh.
//!
//! `train_epoch` is the op-level row for the step the pipeline runs: one
//! steady-state RREA epoch (forward, fused triplet loss, backward, Adam on
//! the trainer's recycled tape) on a fixed synthetic batch, reported as
//! epochs/s, bytes allocated per epoch and the bytes the tape retains.

use largeea_common::bench::Bench;
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_common::rng::Rng;
use largeea_data::Preset;
use largeea_kg::EntityId;
use largeea_models::negative::{sample_negatives, NegStrategy};
use largeea_models::{train, train_traced, BatchGraph, ModelKind, TrainConfig};
use largeea_partition::MiniBatches;

// Per-epoch `alloc.bytes` needs the instrumented allocator the `largeea`
// binary runs under.
#[global_allocator]
static ALLOC: largeea_common::alloc::CountingAlloc = largeea_common::alloc::CountingAlloc;

fn batch_graph() -> BatchGraph {
    let pair = Preset::Ids15kEnFr.spec(0.05).generate();
    let seeds = pair.split_seeds(0.2, 1);
    let mb = MiniBatches::from_assignments(
        &pair,
        &seeds,
        &vec![0; pair.source.num_entities()],
        &vec![0; pair.target.num_entities()],
        1,
    );
    BatchGraph::from_mini_batch(&pair, &mb.batches[0])
}

fn bench_epochs(bench: &mut Bench) {
    let bg = batch_graph();
    let mut group = bench.group("table2_training_epoch");
    for kind in [ModelKind::GcnAlign, ModelKind::Rrea] {
        group.bench_function(format!("{kind:?}_750pairs_1epoch"), |b| {
            b.iter(|| {
                let mut model = kind.build(&bg, 64, 3);
                let cfg = TrainConfig {
                    epochs: 1,
                    dim: 64,
                    ..TrainConfig::default()
                };
                train(model.as_mut(), &bg, &cfg)
            })
        });
    }
    group.finish();
}

fn bench_negative_sampling(bench: &mut Bench) {
    // Ablation D5: nearest-neighbour vs random negatives.
    let bg = batch_graph();
    let mut model = ModelKind::GcnAlign.build(&bg, 64, 5);
    let report = train(
        model.as_mut(),
        &bg,
        &TrainConfig {
            epochs: 1,
            dim: 64,
            ..TrainConfig::default()
        },
    );
    let mut group = bench.group("ablation_d5_negatives");
    for (label, strat) in [
        ("random", NegStrategy::Random),
        ("nearest", NegStrategy::Nearest),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| sample_negatives(&bg, &report.embeddings, 15, strat, 9))
        });
    }
    group.finish();
}

/// The fixed `train_epoch` batch: 1 000 + 1 000 entities, 4 000 triples
/// over 20 relations per side, 700 seed pairs.
fn synthetic_batch() -> BatchGraph {
    const SIDE: u32 = 1000;
    let mut rng = Rng::seed_from_u64(0x7E90C);
    let mut triples = Vec::new();
    for (offset, rel_offset) in [(0, 0), (SIDE, 20)] {
        for _ in 0..4000 {
            let head = offset + rng.gen_range(0..SIDE);
            let tail = offset + rng.gen_range(0..SIDE);
            triples.push((head, rel_offset + rng.gen_range(0..20u32), tail));
        }
    }
    BatchGraph {
        n_source: SIDE as usize,
        n_target: SIDE as usize,
        source_ids: (0..SIDE).map(EntityId).collect(),
        target_ids: (0..SIDE).map(EntityId).collect(),
        triples,
        num_relations: 40,
        train_pairs: (0..700).map(|i| (i, SIDE + i)).collect(),
    }
}

/// One steady-state RREA epoch (700 pairs × 15 negatives, dim 64): the
/// `epoch` spans of a traced `train` after epoch 0, which alone resamples
/// negatives and allocates the tape.
fn bench_train_epoch() {
    const EPOCHS: usize = 41;
    let bg = synthetic_batch();
    let cfg = TrainConfig {
        epochs: EPOCHS,
        dim: 64,
        neg_samples: 15,
        neg_refresh: EPOCHS,
        ..TrainConfig::default()
    };
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    let mut model = ModelKind::Rrea.build(&bg, cfg.dim, 3);
    let tape_bytes = train_traced(model.as_mut(), &bg, &cfg, &rec).tape_bytes;
    let trace = rec.trace();
    let steady = &trace.find("train_batch").expect("batch span").children[1..];
    let mut seconds: Vec<f64> = steady.iter().map(|e| e.seconds).collect();
    seconds.sort_by(f64::total_cmp);
    let median = seconds[seconds.len() / 2];
    // the median is the step's own odds and ends; the largest also holds
    // the recorder's span table doubling under one of the epoch's children
    let mut alloc_bytes: Vec<u64> = steady
        .iter()
        .map(|e| e.field_u64("alloc.bytes").expect("counting allocator"))
        .collect();
    alloc_bytes.sort_unstable();
    let per_s = 1.0 / median;
    println!(
        "\ntrain_epoch (rrea, 2000 entities, 700 pairs x 15 negatives, dim 64): \
         median {:.2} ms (min {:.2}, max {:.2}, {} epochs) = {per_s:.1} epochs/s, \
         {} B allocated per steady-state epoch (max {}), tape {tape_bytes} B",
        median * 1e3,
        seconds[0] * 1e3,
        seconds[seconds.len() - 1] * 1e3,
        seconds.len(),
        alloc_bytes[alloc_bytes.len() / 2],
        alloc_bytes[alloc_bytes.len() - 1],
    );
}

fn main() {
    let mut bench = Bench::new().sample_size(10);
    bench_epochs(&mut bench);
    bench_negative_sampling(&mut bench);
    bench_train_epoch();
}
