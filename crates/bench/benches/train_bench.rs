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
//!
//! `backward` times one epoch's `Tape::backward` at the mini-batch shapes
//! the reference runs train on — RREA on an IDS15K@0.3 METIS-CPS batch
//! (K = 5), GCN-Align on a DBP1M@0.008 one (K = 8) — and, on the RREA
//! batch, each fused node's backward alone (its value a leaf, `sum_all`
//! above it): the per-op rows of EXPERIMENTS.md's kernel notes.

use largeea_common::bench::Bench;
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_common::rng::Rng;
use largeea_core::structure_channel::{StructureChannel, StructureChannelConfig};
use largeea_data::Preset;
use largeea_kg::EntityId;
use largeea_models::negative::{sample_negatives, NegStrategy};
use largeea_models::{train, train_hooked, BatchGraph, ModelKind, TrainConfig};
use largeea_partition::MiniBatches;
use largeea_tensor::{IndexList, Matrix, Tape, Var};
use std::rc::Rc;

// Per-epoch `alloc.bytes` needs the counting allocator, which the harness
// library installs; naming the library links it in.
use largeea_bench as _;

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
    let quiet = Recorder::disabled();
    for (label, strat) in [
        ("random", NegStrategy::Random),
        ("nearest", NegStrategy::Nearest),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| sample_negatives(&bg, &report.embeddings, 15, strat, 9, &quiet))
        });
    }
    group.finish();
    // what the nearest search's pre-filter let through to f32, once
    let rec = Recorder::new(ObsConfig::default());
    sample_negatives(&bg, &report.embeddings, 15, NegStrategy::Nearest, 9, &rec);
    let trace = rec.trace();
    let (refined, scanned) = (
        trace.counter("negatives.refined_pairs"),
        trace.counter("negatives.scored_pairs"),
    );
    println!(
        "nearest negatives: {refined} of {scanned} pairs scored in f32 ({:.1} %)",
        100.0 * refined as f64 / scanned.max(1) as f64
    );
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
    let tape_bytes = train_hooked(model.as_mut(), &bg, &cfg, &rec, None).tape_bytes;
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

/// The METIS-CPS mini-batch with the most training pairs when `preset` at
/// `scale`, seeded at `ratio`, is split `k` ways.
fn cps_batch(preset: Preset, scale: f64, ratio: f64, k: usize) -> BatchGraph {
    let pair = preset.spec(scale).generate();
    let seeds = pair.split_seeds(ratio, 0x5EED);
    let channel = StructureChannel::new(StructureChannelConfig {
        k,
        ..StructureChannelConfig::default()
    });
    let batches = channel.make_batches(&pair, &seeds);
    let largest = batches.batches.iter().max_by_key(|b| b.train_pairs.len());
    BatchGraph::from_mini_batch(&pair, largest.expect("k >= 1"))
}

/// The four triplet lists the trainer builds from `negs`: each pair
/// repeated once per negative beside its corrupted target and source.
fn triplet_lists(bg: &BatchGraph, emb: &Matrix) -> [Rc<IndexList>; 4] {
    const N_NEG: usize = 15;
    let quiet = Recorder::disabled();
    let negs = sample_negatives(bg, emb, N_NEG, NegStrategy::Nearest, 9, &quiet);
    let mut lists: [Vec<u32>; 4] = Default::default();
    for (pi, &(s, t)) in bg.train_pairs.iter().enumerate() {
        lists[0].extend([s; N_NEG]);
        lists[1].extend([t; N_NEG]);
        lists[2].extend_from_slice(negs.corrupt_target(pi));
        lists[3].extend_from_slice(negs.corrupt_source(pi));
    }
    lists.map(|l| Rc::new(IndexList::new(l, bg.n_total())))
}

/// One epoch's graph of `kind` on `bg`, recorded up to the loss.
fn epoch_graph(kind: ModelKind, bg: &BatchGraph) -> (Tape, Var, [Rc<IndexList>; 4]) {
    let model = kind.build(bg, 64, 3);
    let mut tape = Tape::new();
    let fp = model.forward(&mut tape);
    let lists = triplet_lists(bg, tape.value(fp.embeddings));
    let [s, t, neg_t, neg_s] = lists.clone();
    let margin = TrainConfig::default().margin;
    let loss = tape.triplet_l1(fp.embeddings, s, t, neg_t, neg_s, margin);
    (tape, loss, lists)
}

/// A unit-normalised `rows × cols` matrix of seeded values.
fn unit_rows(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let mut m = Matrix::from_vec(rows, cols, data);
    m.l2_normalize_rows(1e-9);
    m
}

fn bench_backward(bench: &mut Bench) {
    let rrea_bg = cps_batch(Preset::Ids15kEnFr, 0.3, 0.8, 5);
    let gcn_bg = cps_batch(Preset::Dbp1mEnFr, 0.008, 0.8, 8);
    let (agg, _, rels, tails) = rrea_bg.messages();
    let n = rrea_bg.n_total();
    println!(
        "backward shapes: rrea {n} entities, {} messages, {} triplets; gcn {} entities, {} triplets",
        agg.mat.cols(),
        rrea_bg.train_pairs.len() * 15,
        gcn_bg.n_total(),
        gcn_bg.train_pairs.len() * 15,
    );
    let mut group = bench.group("backward");
    for (name, kind, bg) in [
        ("rrea_ids15k_k5_epoch", ModelKind::Rrea, &rrea_bg),
        ("gcn_dbp1m_k8_epoch", ModelKind::GcnAlign, &gcn_bg),
    ] {
        let (mut tape, loss, _) = epoch_graph(kind, bg);
        group.bench_function(name, |b| b.iter(|| tape.backward(loss)));
    }

    // RREA's three fused nodes alone, at the same batch's shapes
    let (_, _, lists) = epoch_graph(ModelKind::Rrea, &rrea_bg);
    let mut rng = Rng::seed_from_u64(0xBAC4);
    let (h0, r0) = (
        unit_rows(&mut rng, n, 64),
        unit_rows(&mut rng, 2 * rrea_bg.num_relations, 64),
    );
    let emb0 = unit_rows(&mut rng, n, 192);
    let (tails, rels) = (
        Rc::new(IndexList::new(tails, n)),
        Rc::new(IndexList::new(rels, r0.rows())),
    );
    let mut op = |name: &str, build: &dyn Fn(&mut Tape) -> Var| {
        let mut tape = Tape::new();
        let loss = build(&mut tape);
        group.bench_function(name, |b| b.iter(|| tape.backward(loss)));
    };
    op("triplet_l1", &|t| {
        let e = t.param(&emb0);
        let [s, tt, neg_t, neg_s] = lists.clone();
        t.triplet_l1(e, s, tt, neg_t, neg_s, 3.0)
    });
    op("reflect_aggregate", &|t| {
        let (h, r) = (t.param(&h0), t.param(&r0));
        let y = t.reflect_aggregate(&agg, h, r, Rc::clone(&tails), Rc::clone(&rels));
        t.sum_all(y)
    });
    op("l2_norm_rows_64", &|t| {
        let x = t.param(&h0);
        let y = t.l2_normalize_rows(&[x], 1e-9);
        t.sum_all(y)
    });
    op("l2_norm_rows_3x64", &|t| {
        let x = t.param(&h0);
        let y = t.l2_normalize_rows(&[x, x, x], 1e-9);
        t.sum_all(y)
    });
    group.finish();
}

fn main() {
    let mut bench = Bench::new().sample_size(10);
    bench_epochs(&mut bench);
    bench_negative_sampling(&mut bench);
    bench_train_epoch();
    bench_backward(&mut bench);
}
