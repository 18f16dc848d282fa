//! Every call the benchmark makes into the product's crates lives here, one
//! function per probe, so a refactor that renames a public function edits
//! this file and nothing else in the harness. In each family of twins the
//! probes bind to the base name (`run`, `segmented_topk`, `topk_search`,
//! `train`), never to a `*_traced` / `*_bounded` / `*_streamed` variant.
//!
//! A probe runs on the workload's own loaded [`KgPair`] and at the shapes
//! the workload's command produces. It opens a harness span around each
//! product call and records busy seconds, an exact work count, and the rate
//! the two give.

use crate::child::self_ticks;
use crate::spans::Spans;
use crate::workloads::{Family, Model, Workload};
use largeea_common::fsio;
use largeea_common::obs::Recorder;
use largeea_common::pool::Pool;
use largeea_core::{
    augment_seeds, evaluate, fuse, NameChannel, NameChannelConfig, SpillStore, StructureChannel,
    StructureChannelConfig,
};
use largeea_data::{generate_pair, PairGenConfig, Preset};
use largeea_kg::{io, AlignmentSeeds, KgPair};
use largeea_models::{train, BatchGraph, ModelKind, TrainConfig};
use largeea_partition::{
    edge_cut, metis_cps, partition_kway, CpsConfig, MiniBatches, PartGraph, PartitionConfig,
};
use largeea_sim::{segmented_topk, topk_search, Metric, SparseSimMatrix};
use largeea_tensor::{dot, Matrix};
use largeea_text::{batch, normalize_name, HashEncoder, LshIndex, MinHasher};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Per-layer metric values by name.
pub type Out = BTreeMap<&'static str, f64>;

/// A probe shorter than this is repeated until this much time is spent, and
/// its fastest call is reported.
const PROBE_BUDGET_S: f64 = 0.3;

/// `align --seed-ratio` and split seed, as `cmd_align` defaults them.
const SEED_RATIO: f64 = 0.2;
const SPLIT_SEED: u64 = 0x5EED;
/// `align --dim` default.
const TRAIN_DIM: usize = 64;

const MIB: f64 = 1024.0 * 1024.0;

/// Runs `f` inside one span until [`PROBE_BUDGET_S`] is spent (at least
/// once); returns the last result and the fastest call's seconds.
fn best_of<T>(spans: &mut Spans, name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
    spans
        .time(name, |_| {
            let started = Instant::now();
            let mut best = f64::INFINITY;
            loop {
                let call = Instant::now();
                let out = black_box(f());
                best = best.min(call.elapsed().as_secs_f64());
                if started.elapsed().as_secs_f64() >= PROBE_BUDGET_S {
                    return (out, best);
                }
            }
        })
        .0
}

fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// The pool width every probe and every child runs at.
pub fn pool_width() -> usize {
    Pool::global().threads()
}

/// The kernel instruction set the product dispatches to on this host.
pub fn isa_name() -> &'static str {
    largeea_tensor::active_isa().name()
}

/// The generator configuration of a run's `index`-th dataset. Dataset 0 is
/// the reference input, the same for every `--seed`: it keeps the preset's
/// built-in generator seed, and quality is pinned on it. Every later dataset
/// is a fresh draw: `--seed` and the index (times an odd constant) are
/// XOR-ed into that seed.
pub fn dataset_config(w: &Workload, seed: u64, index: u64) -> PairGenConfig {
    let preset = match w.family {
        Family::Ids15k => Preset::Ids15kEnFr,
        Family::Dbp1m => Preset::Dbp1mEnFr,
    };
    let mut cfg = preset.spec(w.scale).config;
    if index > 0 {
        cfg.seed ^= seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    cfg
}

/// Set-up's product half: generates the dataset and saves it as OpenEA
/// files under `dir`.
pub fn generate_dataset(cfg: &PairGenConfig, dir: &Path) -> Result<(), String> {
    io::save_pair(&generate_pair(cfg), dir).map_err(|e| format!("saving {}: {e}", dir.display()))
}

/// `data` and `kg` layers: generate, save, and load back. Returns the pair
/// as the CLI sees it (ids follow file order, not generation order).
pub fn data_and_kg(
    spans: &mut Spans,
    cfg: &PairGenConfig,
    dir: &Path,
    out: &mut Out,
) -> Result<KgPair, String> {
    let (generated, generate_s) = best_of(spans, "data.generate_pair", || generate_pair(cfg));
    let entities = generated.source.num_entities() + generated.target.num_entities();
    out.insert("data.generate_s", generate_s);
    out.insert("data.entities_per_s", rate(entities as f64, generate_s));

    let (saved, save_s) = best_of(spans, "kg.save_pair", || io::save_pair(&generated, dir));
    saved.map_err(|e| format!("saving {}: {e}", dir.display()))?;
    out.insert("kg.save_s", save_s);

    let (loaded, load_s) = best_of(spans, "kg.load_pair", || io::load_pair(dir, "SRC", "TGT"));
    let pair = loaded.map_err(|e| format!("loading {}: {e}", dir.display()))?;
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry.and_then(|e| e.metadata());
        bytes += meta.map_err(|e| format!("{}: {e}", dir.display()))?.len();
    }
    out.insert("kg.load_s", load_s);
    out.insert("kg.load_mib_s", rate(bytes as f64 / MIB, load_s));
    Ok(pair)
}

/// The train/test split `align` and `partition` make by default.
pub fn default_split(pair: &KgPair) -> AlignmentSeeds {
    pair.split_seeds(SEED_RATIO, SPLIT_SEED)
}

fn model_kind(model: Model) -> ModelKind {
    match model {
        Model::Rrea => ModelKind::Rrea,
        Model::Gcn => ModelKind::GcnAlign,
    }
}

fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        dim: TRAIN_DIM,
        ..TrainConfig::default()
    }
}

/// What the composed `align` pipeline hands to the probes underneath it.
pub struct Composed {
    pub hits1_pct: f64,
    pub m_n: SparseSimMatrix,
    pub batches: MiniBatches,
}

/// The `align` pipeline composed from channel-level public calls with the
/// configuration `cmd_align` builds from the workload's flags, so its
/// Hits@1 can be checked against the CLI's. `make_batches` runs once on its
/// own (to be timed) and once more inside `StructureChannel::run`.
pub fn compose_align(
    spans: &mut Spans,
    pair: &KgPair,
    model: Model,
    k: usize,
    epochs: usize,
    unsupervised: bool,
    out: &mut Out,
) -> Composed {
    let (composed, composed_s) = spans.time("core.composed", |spans| {
        let seeds = if unsupervised {
            AlignmentSeeds {
                train: vec![],
                test: pair.alignment.clone(),
            }
        } else {
            default_split(pair)
        };
        let (name, name_s) = spans.time("core.name_channel", |_| {
            NameChannel::new(NameChannelConfig::default()).run(&pair.source, &pair.target)
        });
        let (augmented, augment_s) = spans.time("core.augment_seeds", |_| {
            augment_seeds(&seeds, &name.m_n, &pair.alignment)
        });
        let channel = StructureChannel::new(StructureChannelConfig {
            k,
            model: model_kind(model),
            train: train_config(epochs),
            ..StructureChannelConfig::default()
        });
        let (batches, batches_s) = spans.time("core.make_batches", |_| {
            channel.make_batches(pair, &augmented.seeds)
        });
        let (structure, structure_s) = spans.time("core.structure_channel", |_| {
            channel.run(pair, &augmented.seeds)
        });
        let (fused, fuse_s) = spans.time("core.fuse", |_| fuse(&structure.m_s, &name.m_n));
        let (eval, eval_s) = spans.time("core.evaluate", |_| evaluate(&fused, &seeds.test));
        out.insert("core.name_channel_s", name_s);
        out.insert("core.augment_s", augment_s);
        out.insert("core.pseudo_seeds", augmented.generated as f64);
        out.insert("core.pseudo_seed_acc_pct", 100.0 * augmented.accuracy);
        out.insert("core.make_batches_s", batches_s);
        out.insert("core.structure_channel_s", structure_s);
        out.insert("core.fuse_s", fuse_s);
        out.insert("core.eval_s", eval_s);
        out.insert("core.composed_hits1_pct", eval.hits1);
        Composed {
            hits1_pct: eval.hits1,
            m_n: name.m_n,
            batches,
        }
    });
    out.insert("core.composed_s", composed_s);
    composed
}

/// What the composed `partition` command reports, as the CLI prints it.
pub struct ComposedPartition {
    pub retention_total_pct: f64,
    pub edge_cut_rate: f64,
}

/// The `partition` command composed from public calls: the default seed
/// split and `StructureChannel::make_batches` with METIS-CPS.
pub fn compose_partition(
    spans: &mut Spans,
    pair: &KgPair,
    k: usize,
    out: &mut Out,
) -> (AlignmentSeeds, ComposedPartition) {
    let ((seeds, batches, batches_s), composed_s) = spans.time("core.composed", |spans| {
        let seeds = default_split(pair);
        let channel = StructureChannel::new(StructureChannelConfig {
            k,
            ..StructureChannelConfig::default()
        });
        let (batches, batches_s) =
            spans.time("core.make_batches", |_| channel.make_batches(pair, &seeds));
        (seeds, batches, batches_s)
    });
    out.insert("core.make_batches_s", batches_s);
    out.insert("core.composed_s", composed_s);
    let composed = ComposedPartition {
        retention_total_pct: 100.0 * batches.retention(&seeds).total,
        edge_cut_rate: batches.edge_cut_rate(pair),
    };
    (seeds, composed)
}

/// `text` layer over both sides' labels with the name channel's default
/// configuration. Returns the two embedding matrices for the `simsearch`
/// probe.
pub fn text(spans: &mut Spans, pair: &KgPair, out: &mut Out) -> (Matrix, Matrix) {
    /// Candidate pairs scored by the Levenshtein probe, at most.
    const MAX_PAIRS: usize = 500_000;
    let cfg = NameChannelConfig::default();
    let (source, target) = (pair.source.labels(), pair.target.labels());
    let names = (source.len() + target.len()) as f64;

    let encoder = HashEncoder::new(cfg.dim, cfg.seed);
    let ((emb_s, emb_t), encode_s) = best_of(spans, "text.encode_batch", || {
        (encoder.encode_batch(source), encoder.encode_batch(target))
    });
    out.insert("text.encode_s", encode_s);
    out.insert("text.encode_names_per_s", rate(names, encode_s));

    let norm_s: Vec<String> = source.iter().map(|l| normalize_name(l)).collect();
    let norm_t: Vec<String> = target.iter().map(|l| normalize_name(l)).collect();
    let hasher = MinHasher::new(cfg.minhash_perms, cfg.seed);
    let ((sigs_s, sigs_t), minhash_s) = best_of(spans, "text.minhash_signatures", || {
        (
            batch::minhash_signatures(&hasher, &norm_s, cfg.shingle_k),
            batch::minhash_signatures(&hasher, &norm_t, cfg.shingle_k),
        )
    });
    out.insert("text.minhash_s", minhash_s);
    out.insert("text.minhash_names_per_s", rate(names, minhash_s));

    let (candidates, lsh_s) = best_of(spans, "text.lsh_insert_candidates", || {
        let mut index = LshIndex::with_threshold(cfg.minhash_perms, cfg.theta);
        for (i, sig) in sigs_t.iter().enumerate() {
            index.insert(i as u32, sig);
        }
        sigs_s
            .iter()
            .map(|sig| index.candidates(sig))
            .collect::<Vec<_>>()
    });
    let found: usize = candidates.iter().map(Vec::len).sum();
    out.insert("text.lsh_s", lsh_s);
    out.insert("text.lsh_candidates", found as f64);

    let pairs: Vec<(&str, &str)> = candidates
        .iter()
        .enumerate()
        .flat_map(|(s, cands)| {
            let norm_s = &norm_s;
            let norm_t = &norm_t;
            cands
                .iter()
                .map(move |&t| (norm_s[s].as_str(), norm_t[t as usize].as_str()))
        })
        .take(MAX_PAIRS)
        .collect();
    let (_, levenshtein_s) = best_of(spans, "text.levenshtein_similarities", || {
        batch::levenshtein_similarities(&pairs)
    });
    out.insert("text.levenshtein_s", levenshtein_s);
    out.insert(
        "text.levenshtein_pairs_per_s",
        rate(pairs.len() as f64, levenshtein_s),
    );
    (emb_s, emb_t)
}

/// `tensor.dot_gflops`: the dot kernel on two L1-resident vectors, one
/// thread — the ceiling the exact scan can reach per thread on this host.
pub fn dot_peak(spans: &mut Spans, out: &mut Out) -> f64 {
    const LEN: usize = 1024;
    const CALLS: usize = 20_000;
    let a: Vec<f32> = (0..LEN).map(|i| (i % 7) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..LEN).map(|i| (i % 5) as f32 * 0.5).collect();
    let (_, seconds) = best_of(spans, "tensor.dot", || {
        let mut acc = 0.0f32;
        for _ in 0..CALLS {
            acc += dot(black_box(&a), black_box(&b));
        }
        acc
    });
    let gflops = rate((2 * LEN * CALLS) as f64 / 1e9, seconds);
    out.insert("tensor.dot_gflops", gflops);
    gflops
}

/// `simsearch` layer: the SENS scan with the first quarter of the source
/// rows of `text`'s embeddings as queries against every target row, one mini-batch's structure
/// top-k, and the sparse-matrix operations fusion and decoding use.
pub fn simsearch(
    spans: &mut Spans,
    (emb_s, emb_t): &(Matrix, Matrix),
    m_n: &SparseSimMatrix,
    batch_graph: &BatchGraph,
    batch_embeddings: &Matrix,
    dot_gflops: f64,
    out: &mut Out,
) {
    let cfg = NameChannelConfig::default();
    let quarter: Vec<u32> = (0..(emb_s.rows() / 4).max(1) as u32).collect();
    let queries = emb_s.gather_rows(&quarter);
    let (_, topk_s) = best_of(spans, "simsearch.segmented_topk", || {
        segmented_topk(&queries, emb_t, cfg.top_k, Metric::Manhattan, cfg.segments)
    });
    let pairs = (queries.rows() * emb_t.rows()) as f64;
    // one subtract and one accumulate per dimension of each scored pair
    let gflops = rate(pairs * 2.0 * cfg.dim as f64 / 1e9, topk_s);
    out.insert("simsearch.topk_s", topk_s);
    out.insert("simsearch.topk_pairs", pairs);
    out.insert("simsearch.topk_pairs_per_s", rate(pairs, topk_s));
    out.insert("simsearch.topk_gflops", gflops);
    out.insert(
        "simsearch.topk_pct_of_dot_peak",
        100.0 * rate(gflops, dot_gflops * pool_width() as f64),
    );

    let src = batch_embeddings.gather_rows(&batch_graph.source_locals());
    let tgt = batch_embeddings.gather_rows(&batch_graph.target_locals());
    let top_k = StructureChannelConfig::default().top_k;
    let (_, batch_s) = best_of(spans, "simsearch.topk_search", || {
        topk_search(&src, &tgt, top_k, Metric::Manhattan)
    });
    out.insert("simsearch.topk_batch_s", batch_s);

    let (_, sparse_s) = best_of(spans, "simsearch.sparse_ops", || {
        let mut sum = m_n.scaled_add(m_n, cfg.gamma);
        sum.normalize_rows_minmax();
        (sum.mutual_top1().len(), sum.greedy_one_to_one().len())
    });
    out.insert("simsearch.sparse_ops_s", sparse_s);
}

/// `models` layer: lower, build and train the largest mini-batch (the one
/// that sets the structure channel's peak) with the workload's model,
/// dimension and epochs, as the structure channel does.
/// Returns the batch graph and its trained embeddings for the probes that
/// run at the same shape.
pub fn models(
    spans: &mut Spans,
    pair: &KgPair,
    batches: &MiniBatches,
    model: Model,
    epochs: usize,
    out: &mut Out,
) -> Result<(BatchGraph, Matrix), String> {
    let largest = batches
        .batches
        .iter()
        .max_by_key(|b| b.source_entities.len() + b.target_entities.len())
        .ok_or("the partitioner made no mini-batch")?;
    let before = self_ticks()?;
    let ((graph, report), train_s) = spans.time("models.train", |_| {
        let graph = BatchGraph::from_mini_batch(pair, largest);
        let seed = StructureChannelConfig::default().seed ^ largest.index as u64;
        let mut built = model_kind(model).build(&graph, TRAIN_DIM, seed);
        let report = train(built.as_mut(), &graph, &train_config(epochs));
        (graph, report)
    });
    let after = self_ticks()?;
    let user = (after.utime - before.utime) as f64;
    let sys = (after.stime - before.stime) as f64;
    out.insert("models.train_s", train_s);
    out.insert("models.epochs_per_s", rate(epochs as f64, train_s));
    out.insert("models.train_sys_share", rate(sys, user + sys));
    Ok((graph, report.embeddings))
}

/// `tensor` layer at the largest mini-batch's training shape: the dense
/// projection (`n × dim` by `dim × dim`) and the adjacency product.
pub fn tensor(spans: &mut Spans, graph: &BatchGraph, out: &mut Out) {
    let n = graph.n_total();
    let x = Matrix::from_fn(n, TRAIN_DIM, |r, c| {
        ((r * 31 + c * 7) % 13) as f32 * 0.1 - 0.6
    });
    let w = Matrix::from_fn(TRAIN_DIM, TRAIN_DIM, |r, c| {
        ((r + 3 * c) % 11) as f32 * 0.05
    });
    let (_, matmul_s) = best_of(spans, "tensor.matmul", || x.matmul(&w));
    out.insert(
        "tensor.matmul_gflops",
        rate((2 * n * TRAIN_DIM * TRAIN_DIM) as f64 / 1e9, matmul_s),
    );
    let adjacency = &graph.adjacency().mat;
    let (_, spmm_s) = best_of(spans, "tensor.spmm", || adjacency.spmm(&x));
    out.insert(
        "tensor.spmm_nnz_per_s",
        rate(adjacency.nnz() as f64, spmm_s),
    );
}

/// `partition` layer: METIS-CPS over the pair, and the plain multilevel
/// k-way partitioner over the target graph.
pub fn partition(
    spans: &mut Spans,
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    k: usize,
    out: &mut Out,
) {
    // the seed the structure channel partitions with, so this call does the
    // work `make_batches` does in the composed pipeline
    let cps = CpsConfig::new(k).with_seed(StructureChannelConfig::default().seed);
    let (batches, cps_s) = best_of(spans, "partition.metis_cps", || {
        metis_cps(pair, seeds, &cps)
    });
    let triples = (pair.source.num_triples() + pair.target.num_triples()) as f64;
    out.insert("partition.cps_s", cps_s);
    out.insert("partition.cps_triples_per_s", rate(triples, cps_s));
    out.insert(
        "partition.cps_retention_pct",
        100.0 * batches.retention(seeds).total,
    );
    out.insert("partition.cps_edge_cut_rate", batches.edge_cut_rate(pair));

    let graph = PartGraph::from_kg(&pair.target);
    let (parts, kway_s) = best_of(spans, "partition.partition_kway", || {
        partition_kway(&graph, &PartitionConfig::new(k))
    });
    out.insert("partition.kway_s", kway_s);
    out.insert(
        "partition.kway_edges_per_s",
        rate(graph.ne() as f64, kway_s),
    );
    out.insert(
        "partition.kway_edge_cut",
        edge_cut(&graph, &parts.assignment),
    );
}

/// `core.spill_*`: one SENS-segment-shaped matrix through the spill store.
pub fn spill(spans: &mut Spans, pair: &KgPair, dir: &Path, out: &mut Out) -> Result<(), String> {
    let cfg = NameChannelConfig::default();
    let rows = pair.source.num_entities().div_ceil(cfg.segments).max(1);
    let segment = Matrix::from_fn(rows, cfg.dim, |r, c| ((r + c) % 17) as f32 * 0.125);
    let mib = segment.nbytes() as f64 / MIB;
    let rec = Recorder::disabled();
    let mut store = SpillStore::create(dir).map_err(|e| format!("spill store: {e}"))?;
    let (wrote, write_s) = best_of(spans, "core.spill_put_matrix", || {
        store.put_matrix("probe.segment", &segment, &rec)
    });
    wrote.map_err(|e| format!("spill write: {e}"))?;
    let (read, read_s) = best_of(spans, "core.spill_get_matrix", || {
        store.get_matrix("probe.segment", &rec)
    });
    if read.map_err(|e| format!("spill read: {e}"))? != segment {
        return Err("the spill store returned a different matrix".to_owned());
    }
    store.remove("probe.segment");
    out.insert("core.spill_write_mib_s", rate(mib, write_s));
    out.insert("core.spill_read_mib_s", rate(mib, read_s));
    Ok(())
}

/// `common` layer: an empty pool job at the pinned width, and the framed
/// atomic write and read checkpoints use.
pub fn common(spans: &mut Spans, dir: &Path, out: &mut Out) -> Result<(), String> {
    const DISPATCHES: usize = 10_000;
    const PAYLOAD: usize = 8 << 20;
    let pool = Pool::global();
    let width = pool.threads();
    let ((), dispatch_s) = best_of(spans, "common.pool_run", || {
        for _ in 0..DISPATCHES {
            pool.run(width, |task| {
                black_box(task);
            });
        }
    });
    out.insert(
        "common.pool_dispatch_us",
        1e6 * dispatch_s / DISPATCHES as f64,
    );

    let payload: Vec<u8> = (0..PAYLOAD).map(|i| (i * 31 % 251) as u8).collect();
    let path = dir.join("fsio.probe");
    let (wrote, write_s) = best_of(spans, "common.fsio_write_framed_atomic", || {
        fsio::write_framed_atomic(&path, &payload, "benchmark.fsio")
    });
    wrote.map_err(|e| format!("framed write: {e}"))?;
    let (read, read_s) = best_of(spans, "common.fsio_read_framed", || {
        fsio::read_framed(&path)
    });
    if read.map_err(|e| format!("framed read: {e}"))? != payload {
        return Err("the framed file read back differently".to_owned());
    }
    let _ = std::fs::remove_file(&path);
    let mib = PAYLOAD as f64 / MIB;
    out.insert("common.fsio_write_mib_s", rate(mib, write_s));
    out.insert("common.fsio_read_mib_s", rate(mib, read_s));
    Ok(())
}
