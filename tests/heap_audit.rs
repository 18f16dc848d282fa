//! The measured memory ledger end to end (DESIGN.md §S0.8, §S0.5): this
//! facade test binary runs under the instrumented allocator `src/lib.rs`
//! installs, so library-level runs really measure heap peaks and a budget
//! sees every allocation, declared or not; the CLI tests drive the
//! `largeea` binary's admission points and `trace heap`'s rendering.

use largeea::common::alloc::{thread_live, worker_kept_bytes};
use largeea::common::fmt_bytes;
use largeea::common::obs::{Level, ObsConfig, Recorder, Trace};
use largeea::common::pool::Pool;
use largeea::core::pipeline::{
    ExecOptions, LargeEa, LargeEaConfig, RunCtx, RunError, MEASURED_HEAP_PEAK,
};
use largeea::core::structure_channel::StructureChannelConfig;
use largeea::core::MemBudget;
use largeea::core::{NameChannel, NameChannelConfig};
use largeea::data::Preset;
use largeea::kg::{io, KnowledgeGraph};
use largeea::models::baselines::whole_graph;
use largeea::models::negative::{sample_negatives, NegStrategy};
use largeea::models::scoring::fill_similarity;
use largeea::models::{train, train_hooked, BatchGraph, EaModel, ModelKind, TrainConfig};
use largeea::partition::coarsen::coarsen_to;
use largeea::partition::{metis_cps, partition_kway_traced, CpsConfig, PartGraph, PartitionConfig};
use largeea::sim::resident_bytes;
use largeea::tensor::{IndexList, Matrix, Tape};
use largeea::text::batch::minhash_signatures_in;
use largeea::text::{LshIndex, MinHasher};
use std::path::{Path, PathBuf};
use std::process::Command;

fn quick_config() -> LargeEaConfig {
    LargeEaConfig {
        structure: StructureChannelConfig {
            k: 2,
            model: ModelKind::GcnAlign,
            train: TrainConfig {
                epochs: 8,
                dim: 16,
                ..TrainConfig::default()
            },
            top_k: 10,
            ..StructureChannelConfig::default()
        },
        ..LargeEaConfig::default()
    }
}

#[test]
fn library_level_run_reports_a_measured_peak() {
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 42);
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    let report = LargeEa::new(quick_config())
        .run_exec(&pair, &seeds, 1, &rec, &ExecOptions::default())
        .unwrap();
    let measured = report
        .trace
        .gauge(MEASURED_HEAP_PEAK)
        .expect("instrumented process reports a measured peak");
    assert!(measured > 0.0);

    // The heap-enabled recorder attributed allocations to spans: the trace
    // carries alloc.* fields on the pipeline span.
    let root = &report.trace.spans[0];
    assert_eq!(root.name, "pipeline");
    let bytes = root
        .field_u64("alloc.bytes")
        .expect("pipeline span has alloc.bytes");
    assert!(bytes > 0);
    assert!(root.field_u64("alloc.count").is_some());
    assert!(root.field_u64("alloc.peak").is_some());
    // And the measured (whole-run) peak covers the span-attributed one.
    assert!(measured >= root.field_u64("alloc.peak").unwrap() as f64);
}

/// One ledger: a budget counts what the allocator counts, so an allocation
/// that no code declares still refuses the next admission. (`with_capacity`
/// counts its bytes without touching the pages.)
#[test]
fn an_undeclared_allocation_refuses_the_next_admission() {
    const BUDGET: usize = 64 << 20;
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let run = |hold: usize| {
        let rec = Recorder::new(ObsConfig::default());
        let mut ctx = RunCtx {
            budget: MemBudget::open(Some(BUDGET)),
            ..RunCtx::in_memory(&rec)
        };
        let held: Vec<u8> = Vec::with_capacity(hold);
        let out = NameChannel::new(NameChannelConfig::default()).run_in(
            &pair.source,
            &pair.target,
            &mut ctx,
        );
        drop(held);
        out
    };
    run(0).expect("a few hundred names fit in 64 MiB");
    match run(BUDGET) {
        Err(RunError::Budget(b)) => {
            assert_eq!(b.label, "stns", "the channel's first admission point");
            assert!(b.live >= BUDGET, "live {} misses the held bytes", b.live);
            assert_eq!(b.budget, BUDGET);
        }
        other => panic!("expected a budget refusal, got {other:?}"),
    }
}

/// The churn gate: the trainer records every epoch on one recycled tape,
/// so once epoch 0 has allocated the step's buffers, an epoch that does
/// not resample negatives may allocate only odds and ends (the per-epoch
/// `Vec`s of parameter handles, span fields). A change that brings
/// per-epoch buffer churn back fails here, not in a profile months later.
#[test]
fn epochs_after_the_first_allocate_a_sliver_of_epoch_zero() {
    let pair = Preset::Ids15kEnFr.spec(0.02).generate();
    let seeds = pair.split_seeds(0.3, 42);
    let bg = whole_graph(&pair, &seeds);
    let cfg = TrainConfig {
        epochs: 8,
        dim: 32,
        ..TrainConfig::default()
    };
    for kind in [ModelKind::GcnAlign, ModelKind::Rrea] {
        let rec = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        let mut model = kind.build(&bg, cfg.dim, 3);
        train_hooked(model.as_mut(), &bg, &cfg, &rec, None);
        let trace = rec.trace();
        let epochs = &trace.find("train_batch").expect("batch span").children;
        assert_eq!(epochs.len(), cfg.epochs);
        let bytes = |e: usize| {
            epochs[e]
                .field_u64("alloc.bytes")
                .expect("heap attribution")
        };
        let first = bytes(0);
        assert!(
            first > 100_000,
            "{kind:?}: epoch 0 allocated only {first} B"
        );
        for e in (1..cfg.epochs).filter(|e| e % cfg.neg_refresh != 0) {
            assert!(
                bytes(e) * 20 <= first,
                "{kind:?}: epoch {e} allocated {} B against epoch 0's {first} B",
                bytes(e)
            );
        }
    }
}

/// A batch of `2 · side` entities with `triples` triples on each side (a
/// fixed pseudo-random draw) and every third entity a training pair.
fn synthetic_batch(side: u32, triples: u32) -> BatchGraph {
    let draw = |i: u32, salt: u32| (i.wrapping_mul(2_654_435_761).rotate_left(salt) >> 7) % side;
    let one_side =
        |offset: u32| (0..triples).map(move |i| (offset + draw(i, 3), i % 7, offset + draw(i, 11)));
    BatchGraph {
        n_source: side as usize,
        n_target: side as usize,
        source_ids: (0..side).map(largeea::kg::EntityId).collect(),
        target_ids: (0..side).map(largeea::kg::EntityId).collect(),
        triples: one_side(0).chain(one_side(side)).collect(),
        num_relations: 7,
        train_pairs: (0..side).step_by(3).map(|i| (i, side + i)).collect(),
    }
}

/// Bytes of the node values one training step records (forward and
/// alignment loss): a tape that has run no backward pass holds nothing
/// else.
fn step_value_bytes(model: &dyn EaModel, bg: &BatchGraph, cfg: &TrainConfig) -> usize {
    let mut tape = Tape::new();
    let fp = model.forward(&mut tape);
    let zeros = vec![0u32; bg.train_pairs.len() * cfg.neg_samples];
    let rows = std::rc::Rc::new(IndexList::new(zeros, bg.n_total()));
    let [s, t, neg_t, neg_s] = [(); 4].map(|()| rows.clone());
    tape.triplet_l1(fp.embeddings, s, t, neg_t, neg_s, cfg.margin);
    tape.nbytes()
}

/// The lease gate: gradients are leased from the tape's free list while
/// they are live and RREA's hop never materialises its messages, so (a) a
/// message costs the tape its two `x·r` scalars, not rows of `dim` floats,
/// and (b) a whole `train_batch` peaks at the step's values plus a handful
/// of embedding-sized buffers — the gradients live at once, Adam's two
/// moments — not at a second copy of every value
/// (11, 9 and 12 such buffers with one gradient per node), nor at a
/// concatenation RREA's output normalisation reads in place, four triplet
/// gradients where one suffices, copies of the sides the negative sampler
/// searches or a copy of the embeddings handed back (7, 6 and 9 buffers
/// before those went). (b) runs where a side has as many triples as
/// entities.
#[test]
fn a_training_step_holds_live_gradients_not_one_per_node() {
    let cfg = TrainConfig {
        epochs: 3,
        dim: 32,
        neg_samples: 5,
        ..TrainConfig::default()
    };
    let tape_bytes = |bg: &BatchGraph| {
        let mut model = ModelKind::Rrea.build(bg, cfg.dim, 3);
        train(model.as_mut(), bg, &cfg).tape_bytes
    };
    let (sparse, dense) = (synthetic_batch(600, 2_400), synthetic_batch(600, 4_800));
    let added_messages = 2 * (dense.triples.len() - sparse.triples.len());
    let grown = tape_bytes(&dense) - tape_bytes(&sparse);
    assert!(
        grown <= 16 * added_messages,
        "RREA's tape grew {grown} B for {added_messages} more messages"
    );

    let bg = synthetic_batch(600, 600);
    let handful = [(ModelKind::GcnAlign, 6), (ModelKind::Rrea, 4)];
    for (kind, buffers) in handful {
        let rec = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        let mut model = kind.build(&bg, cfg.dim, 3);
        let values = step_value_bytes(model.as_ref(), &bg, &cfg) as u64;
        let report = train_hooked(model.as_mut(), &bg, &cfg, &rec, None);
        let trace = rec.trace();
        let batch = trace.find("train_batch").expect("batch span");
        let peak = batch.field_u64("alloc.peak").expect("heap attribution");
        let embedding = report.embeddings.nbytes() as u64;
        assert!(
            peak <= values + buffers * embedding,
            "{kind:?}: train_batch peaked at {peak} B over {values} B of values \
             ({buffers} buffers of {embedding} B allowed)"
        );
    }
}

/// Bytes a Manhattan top-k search of `queries` against `base` rows of
/// `dim` floats holds beyond its inputs: both sides' u8 sketches and slacks,
/// one `k`-entry collector per query and the `k` sorted hits it returns.
fn search_bytes(queries: usize, base: usize, dim: usize, k: usize) -> u64 {
    let sketch = dim.next_multiple_of(32) + 4;
    let per_query = (k + 1) * 8 + 32 + k * 8 + 24;
    ((queries + base) * sketch + queries * per_query) as u64
}

/// The in-place gate: the negative sampler and the batch scorer search the
/// two sides of a batch as row ranges of its embeddings, so neither holds
/// an `n_side × dim` copy of a side — the negatives span peaks at the
/// anchors it gathers, the searches' sketches and collectors, and the
/// triplet lists (grouped) it hands the loss; the topk span at its search
/// and the block it fills. A side copy is 384 B per entity here, against
/// a sketch of 100.
#[test]
fn the_negative_sampler_and_the_batch_scorer_copy_no_side() {
    let bg = synthetic_batch(600, 1_200);
    let cfg = TrainConfig {
        epochs: 6,
        dim: 32,
        neg_samples: 5,
        ..TrainConfig::default()
    };
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    let mut model = ModelKind::Rrea.build(&bg, cfg.dim, 3);
    let report = train_hooked(model.as_mut(), &bg, &cfg, &rec, None);
    let dim = report.embeddings.cols();
    let (pairs, n) = (bg.train_pairs.len(), bg.n_total());

    // one side's anchors and search at a time, the first search's hits
    // held through the second; the negatives (and a copy as the pool's
    // blocks are joined) and the four grouped lists
    let k = cfg.neg_samples + 2;
    let anchors = pairs * dim * 4;
    let first_hits = pairs * (k * 8 + 24);
    let negatives = 2 * 2 * pairs * (24 + cfg.neg_samples * 4);
    let rows = pairs * cfg.neg_samples;
    let triplets = 4 * (2 * rows + n + 1) * 4;
    let held = anchors + first_hits + negatives + triplets + (16 << 10);
    let allowed = search_bytes(pairs, bg.n_source.max(bg.n_target), dim, k) + held as u64;
    let trace = rec.trace();
    let epochs = &trace.find("train_batch").expect("batch span").children;
    let resamples: Vec<u64> = epochs
        .iter()
        .flat_map(|e| e.children.iter().filter(|c| c.name == "negatives"))
        .map(|s| s.field_u64("alloc.peak").expect("heap attribution"))
        .collect();
    assert_eq!(resamples.len(), 2, "resampled at epochs 0 and 5");
    for peak in resamples {
        assert!(
            peak <= allowed,
            "negatives peaked at {peak} B, {allowed} B allowed ({n} entities of {dim} floats)"
        );
    }

    let top_k = 10;
    let span = rec.span_at(Level::Detail, "topk");
    let shape = (bg.n_source, bg.n_target);
    let block = fill_similarity(&bg, &report.embeddings, top_k, shape, &rec);
    drop(span);
    assert_eq!(block.nnz(), bg.n_source * top_k);
    let filled = (bg.n_source * (top_k * 8 + 32)) as u64;
    let allowed = search_bytes(bg.n_source, bg.n_target, dim, top_k) + filled + (16 << 10);
    let trace = rec.trace();
    let peak = trace
        .find("topk")
        .expect("topk span")
        .field_u64("alloc.peak")
        .unwrap();
    assert!(
        peak <= allowed,
        "topk peaked at {peak} B, {allowed} B allowed ({n} entities of {dim} floats)"
    );
}

/// The block gate: a batch's similarity block holds the batch's rows, so
/// the `topk` span that fills it peaks at the same bytes whether the whole
/// matrix has as many rows as the batch or a thousand times more. A block
/// that sized itself by the whole matrix (an empty row header for every
/// global row) would cost 24 B for each of those 600 000 rows.
#[test]
fn a_batch_block_holds_its_rows() {
    let bg = synthetic_batch(600, 1_200);
    let emb = Matrix::from_fn(bg.n_total(), 32, |r, c| {
        ((r * 31 + c * 17) % 97) as f32 * 0.01
    });
    let peak = |n_rows: usize| {
        let rec = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        let span = rec.span_at(Level::Detail, "topk");
        let block = fill_similarity(&bg, &emb, 10, (n_rows, bg.n_target), &rec);
        drop(span);
        assert_eq!(block.rows().count(), bg.n_source);
        let trace = rec.trace();
        let topk = trace.find("topk").expect("topk span");
        topk.field_u64("alloc.peak").expect("heap attribution")
    };
    let (own, wide) = (peak(bg.n_source), peak(1_000 * bg.n_source));
    assert!(
        wide <= own + (4 << 10),
        "a block of {} rows peaked at {wide} B in a 1000× taller matrix, {own} B in its own",
        bg.n_source
    );
}

/// The segment gate: SENS encodes each segment when the search loads it,
/// so with the memory backing the `sens` span holds one query and one base
/// segment and the scan's sketches — `resident_bytes`, what it admits —
/// plus the query rows' collectors, not every segment of both sides (here
/// 600 KiB more).
#[test]
fn sens_holds_one_segment_pair_in_ram() {
    let mut s = KnowledgeGraph::new("EN");
    let mut t = KnowledgeGraph::new("FR");
    for i in 0..800 {
        s.add_entity_with_label(&format!("en/{i}"), &format!("Concept {i} of the source"));
        t.add_entity_with_label(&format!("fr/{i}"), &format!("Notion {i} de la cible"));
    }
    let cfg = NameChannelConfig {
        segments: 4,
        ..NameChannelConfig::default()
    };
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    NameChannel::new(cfg)
        .run_in(&s, &t, &mut RunCtx::in_memory(&rec))
        .unwrap();
    let trace = rec.trace();
    let sens = trace.find("sens").expect("sens span");
    let peak = sens.field_u64("alloc.peak").expect("heap attribution");
    let (n_q, n_b) = (s.num_entities(), t.num_entities());
    let resident = resident_bytes(n_q, n_b, cfg.dim, cfg.segments);
    let collectors = n_q * (cfg.top_k + 1) * 8;
    let allowed = (resident + collectors + (64 << 10)) as u64;
    assert!(
        peak <= allowed,
        "sens peaked at {peak} B, {allowed} B allowed ({resident} B resident)"
    );
    let encodes = sens.children.iter().filter(|c| c.name == "encode");
    let rows: u64 = encodes
        .map(|c| c.field_u64("rows").expect("encode rows"))
        .sum();
    // every base segment once, the query side once per base segment
    assert_eq!(rows, (n_b + cfg.segments * n_q) as u64);
}

/// This file's in-process gates measure heap through the global pool, whose
/// width is read once per process, and the width-1 inline paths of
/// `common::pool` allocate differently from the pooled ones: the same gates
/// at width 1, in one child.
#[test]
fn in_process_heap_gates_hold_at_width_1() {
    let tests = [
        "library_level_run_reports_a_measured_peak",
        "an_undeclared_allocation_refuses_the_next_admission",
        "epochs_after_the_first_allocate_a_sliver_of_epoch_zero",
        "a_training_step_holds_live_gradients_not_one_per_node",
        "the_negative_sampler_and_the_batch_scorer_copy_no_side",
        "a_batch_block_holds_its_rows",
        "sens_holds_one_segment_pair_in_ram",
        "the_stns_sketch_allocates_per_entity_not_per_bucket",
        "coarsening_holds_its_levels_at_integer_width",
    ];
    let out = Command::new(std::env::current_exe().unwrap())
        .args(tests)
        .arg("--exact")
        .env("LARGEEA_THREADS", "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let passed = format!("test result: ok. {} passed", tests.len());
    assert!(out.status.success() && stdout.contains(&passed), "{stdout}");
}

const KEPT_CHILD: &str = "LARGEEA_TEST_KEPT_CHILD";

/// The arena gate (DESIGN.md §S0.6): a pool task on a spawned worker
/// returns its results through memory the caller allocated, so the STNS
/// signatures and a negative resample leave nothing behind in a worker's
/// malloc arena — while a task that hands back what it allocated is
/// counted. The negative sampler runs on the global pool, so the test
/// reruns itself in a child at width 2.
#[test]
fn pool_workers_keep_nothing_they_allocate() {
    if std::env::var_os(KEPT_CHILD).is_none() {
        let out = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "pool_workers_keep_nothing_they_allocate"])
            .env("LARGEEA_THREADS", "2")
            .env(KEPT_CHILD, "1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        return;
    }
    assert_eq!(Pool::global().threads(), 2);
    let pool = Pool::new(2);
    let names: Vec<String> = (0..4_000).map(|i| format!("entity name {i}")).collect();
    let hasher = MinHasher::new(128, 7);
    let before = worker_kept_bytes();
    let sigs = minhash_signatures_in(&hasher, &names, 3, &pool);
    assert_eq!(worker_kept_bytes() - before, 0, "the signatures");
    assert_eq!(sigs.len(), names.len());

    let bg = synthetic_batch(600, 1_200);
    let emb = Matrix::from_fn(bg.n_total(), 32, |r, c| {
        ((r * 13 + c * 7) % 89) as f32 * 0.01
    });
    let before = worker_kept_bytes();
    let negs = sample_negatives(&bg, &emb, 5, NegStrategy::Nearest, 3, &Recorder::disabled());
    assert_eq!(worker_kept_bytes() - before, 0, "a negative resample");
    assert_eq!(negs.per_pair(), 5);

    // the count is live: blocks allocated on a worker and handed back are
    // kept (a slow task makes sure the worker takes some)
    let before = worker_kept_bytes();
    let blocks = pool.map_blocks(8, 1, |r| {
        std::thread::sleep(std::time::Duration::from_millis(2));
        vec![0u8; 4096 * r.len()]
    });
    assert_eq!(blocks.len(), 8);
    assert!(
        worker_kept_bytes() > before,
        "returned blocks went uncounted"
    );
}

/// The `dbp1m-ci` files, saved once per test under `tag`.
fn dbp1m_ci_files(tag: &str) -> PathBuf {
    let dir = tempdir(tag).join("data");
    io::save_pair(&Preset::Dbp1mCi.spec(1.0).generate(), &dir).unwrap();
    dir
}

/// The load-and-partition arena gate (DESIGN.md §S0.6): the loader and the
/// partitioner run their stages on the calling thread, so a load followed
/// by METIS-CPS (two `partition_kway` runs) leaves nothing in a worker's
/// malloc arena. Reruns itself in a child at width 2, as
/// `pool_workers_keep_nothing_they_allocate` does.
#[test]
fn a_load_and_a_partition_keep_nothing_on_workers() {
    if std::env::var_os(KEPT_CHILD).is_none() {
        let out = Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "a_load_and_a_partition_keep_nothing_on_workers"])
            .env("LARGEEA_THREADS", "2")
            .env(KEPT_CHILD, "1")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        return;
    }
    assert_eq!(Pool::global().threads(), 2);
    let data = dbp1m_ci_files("kept_load");
    let before = worker_kept_bytes();
    let pair = io::load_pair(&data, "S", "T").unwrap();
    let seeds = pair.split_seeds(0.2, 7);
    let batches = metis_cps(&pair, &seeds, &CpsConfig::new(20));
    assert_eq!(
        worker_kept_bytes() - before,
        0,
        "the load and the partition"
    );
    assert_eq!(batches.k(), 20);
    std::fs::remove_dir_all(data.parent().unwrap()).ok();
}

/// The KG gate (DESIGN.md §S1): a loaded pair holds each key, and each
/// label that is not its key, as bytes in one arena per side. What it keeps
/// live is its name, that text, 4 B of offsets an entity for each arena,
/// 12 B a triple, 8 B a link and the lookup tables; the relation names are
/// the same again. The load makes a number of allocations that grows with
/// the logarithm of its files (buffers doubling), not one per line.
#[test]
fn a_loaded_pair_holds_its_names_as_bytes_once() {
    let data = dbp1m_ci_files("kg_bytes");
    let live0 = thread_live();
    let pair = io::load_pair(&data, "S", "T").unwrap();
    let held = (thread_live() - live0) as usize;
    // a table of 8 B slots at most 3/4 full with one more key, 16 at least
    let table = |n: usize| 8 * (4 * (n + 1)).div_ceil(3).next_power_of_two().max(16);
    let side = |kg: &KnowledgeGraph| {
        let keys: usize = kg.entity_ids().map(|e| kg.entity_key(e).len()).sum();
        let labelled = kg
            .entity_ids()
            .any(|e| kg.entity_key(e) != kg.entity_label(e));
        let labels = if labelled { kg.labels().text_len() } else { 0 };
        let relations: usize = (0..kg.num_relations() as u32)
            .map(|r| kg.relation_name(largeea::kg::RelationId(r)).len() + 4)
            .sum();
        kg.name().len()
            + keys
            + labels
            + 8 * kg.num_entities()
            + 12 * kg.num_triples()
            + relations
            + table(kg.num_entities())
            + table(kg.num_relations())
    };
    let allowed = side(&pair.source) + side(&pair.target) + 8 * pair.alignment.len();
    assert!(
        held <= allowed,
        "the loaded pair holds {held} B, its data {allowed} B"
    );
    // the same load again, traced
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    io::load_pair_traced(&data, "S", "T", &rec).unwrap();
    let trace = rec.trace();
    let load = trace.find("load").expect("load span");
    let count = load.field_u64("alloc.count").unwrap();
    assert!(count <= 400, "the load made {count} allocations");
    let label_bytes = load.field_u64("label_bytes").unwrap();
    assert!(label_bytes as usize >= pair.source.labels().text_len());
    std::fs::remove_dir_all(data.parent().unwrap()).ok();
}

/// The sketch gate: STNS keeps one signature per target entity and an LSH
/// index of flat arrays beside them — `perms · 8` bytes of signature and at
/// most `bands · 32 + 8` of index per entity, in a number of allocations
/// that does not grow with the number of buckets. A change that brings a
/// per-bucket allocation back fails here.
#[test]
fn the_stns_sketch_allocates_per_entity_not_per_bucket() {
    let pair = Preset::Ids15kEnFr.spec(0.05).generate();
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    let cfg = NameChannelConfig::default();
    NameChannel::new(cfg)
        .run_in(&pair.source, &pair.target, &mut RunCtx::in_memory(&rec))
        .unwrap();
    let trace = rec.trace();
    let stns = trace.find("stns").expect("stns span");
    let sketch = stns
        .children
        .iter()
        .find(|s| s.name == "sketch")
        .expect("sketch span under stns");
    let n_t = pair.target.num_entities() as u64;
    let (bands, _) = LshIndex::with_threshold(cfg.minhash_perms, cfg.theta).layout();
    let per_entity = (cfg.minhash_perms * 8 + bands * 48) as u64;
    let peak = sketch.field_u64("alloc.peak").expect("heap attribution");
    assert!(
        peak <= n_t * per_entity + (64 << 10),
        "sketch peaked at {peak} B for {n_t} target entities ({per_entity} B each allowed)"
    );
    let count = sketch.field_u64("alloc.count").unwrap();
    assert!(
        count <= 6 * n_t + 256,
        "sketch made {count} allocations for {n_t} target entities"
    );
}

/// The coarsening gate: the multilevel hierarchy is stored at METIS's
/// integer width — a `u32` neighbour and a `u32` weight per adjacency entry
/// — so the `coarsen` span peaks at no more than 10 B per entry of its
/// levels (each undirected edge counts twice), offsets, vertex weights,
/// fine-to-coarse maps and the contraction's scratch included. `f64`
/// weights and offsets measure about 13 B.
#[test]
fn coarsening_holds_its_levels_at_integer_width() {
    let pair = Preset::Dbp1mEnFr.spec(0.01).generate();
    let g = PartGraph::from_kg(&pair.source);
    let cfg = PartitionConfig::new(20);
    let target_nv = (cfg.k * cfg.coarsen_factor).max(64);
    let entries: usize = coarsen_to(&g, target_nv, cfg.seed, &Recorder::disabled())
        .iter()
        .map(|l| 2 * l.graph.ne())
        .sum();
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    partition_kway_traced(&g, &cfg, &rec);
    let trace = rec.trace();
    let coarsen = trace.find("coarsen").expect("coarsen span");
    let peak = coarsen.field_u64("alloc.peak").expect("heap attribution");
    let per_entry = peak as f64 / entries as f64;
    assert!(
        per_entry <= 10.0,
        "coarsen peaked at {peak} B for {entries} level adjacency entries ({per_entry:.2} B each)"
    );
    assert_eq!(
        coarsen.field_u64("level_edges"),
        Some(entries as u64 / 2),
        "the span's level_edges"
    );
    assert!(coarsen.field_u64("level_bytes").unwrap() <= peak);
}

// --- CLI ------------------------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_largeea"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_heapaudit_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_data(dir: &Path, scale: &str) -> PathBuf {
    let data = dir.join("data");
    let out = bin()
        .args([
            "generate",
            "--preset",
            "ids15k-en-fr",
            "--scale",
            scale,
            "--out",
        ])
        .arg(&data)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    data
}

fn align(data: &Path, extra: &[&str], threads: &str) -> std::process::Output {
    bin()
        .args(["align", "--data"])
        .arg(data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "6", "--dim", "16"])
        .args(extra)
        .env("LARGEEA_THREADS", threads)
        .output()
        .unwrap()
}

/// The `--k` gate: target parts pair with source parts through the part
/// pairs the seeds produce, never a `K × K` table, so beyond the graphs
/// `partition` holds O(K): its root span peaks within 8 MB at K = 2000 of
/// its peak at K = 20 (a dense table of counts measured ≈96 MB more).
#[test]
fn partition_memory_follows_k_not_k_squared() {
    let data = dbp1m_ci_files("k_sweep");
    let peak = |k: &str| {
        let path = data.with_file_name(format!("k{k}.json"));
        let out = bin()
            .args(["partition", "--data"])
            .arg(&data)
            .args(["--k", k, "--trace-out"])
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace = Trace::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let root = trace.find("partition").expect("partition span");
        root.field_u64("alloc.peak").expect("heap attribution")
    };
    let (small, large) = (peak("20"), peak("2000"));
    assert!(
        large <= small + (8 << 20),
        "partition peaked at {large} B for K = 2000, {small} B for K = 20"
    );
    std::fs::remove_dir_all(data.parent().unwrap()).ok();
}

/// An impossible budget is refused at one admission point whatever the pool
/// width: live bytes are read on the calling thread after pool credits.
/// 512-d training makes a batch's Adam state the largest request, so the
/// refusal comes after the name channel, with its output and the batch's
/// model live.
#[test]
fn an_impossible_budget_refuses_at_one_admission_point_at_any_width() {
    let dir = tempdir("widths");
    let data = generate_data(&dir, "0.01");
    let refusals: Vec<String> = ["1", "2", "4"]
        .iter()
        .map(|threads| {
            let out = bin()
                .args(["align", "--data"])
                .arg(&data)
                .args([
                    "--model", "gcn", "--k", "2", "--epochs", "2", "--dim", "512",
                ])
                .args(["--mem-budget", "1M"])
                .env("LARGEEA_THREADS", threads)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(3), "{stderr}");
            // the admission point and its request: `at "<label>": <size> requested`
            let (_, rest) = stderr
                .split_once("memory budget exceeded at ")
                .unwrap_or_else(|| panic!("no admission point named: {stderr}"));
            rest.split(" requested").next().unwrap().to_owned()
        })
        .collect();
    assert!(refusals[0].starts_with("\"train\""), "{refusals:?}");
    assert!(refusals.iter().all(|r| *r == refusals[0]), "{refusals:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_heap_profile_is_byte_stable_across_same_seed_runs() {
    let dir = tempdir("cli");
    let data = generate_data(&dir, "0.01");
    let trace = dir.join("run_a.json");
    // one thread: which span a pooled allocation lands in is then fixed
    let traced = |path: &Path| {
        let out = align(&data, &["--trace-out", path.to_str().unwrap()], "1");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    traced(&trace);

    // The passing run's trace drives `trace heap`: tree, top table, and
    // byte-stable output.
    let render = |trace: &Path, extra: &[&str]| {
        let mut cmd = bin();
        cmd.args(["trace", "heap"]).arg(trace).args(extra);
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let heap = |extra: &[&str]| render(&trace, extra);
    let tree = heap(&[]);
    assert!(tree.contains("pipeline"), "{tree}");
    assert!(tree.contains("top "), "{tree}");
    assert!(tree.contains("by self bytes"), "{tree}");
    assert_eq!(tree, heap(&[]), "trace heap must be byte-stable");

    // A second same-seed run attributes the same bytes to the same spans:
    // every rendering of the profile repeats across runs, not only across
    // renderings of one file (paths of one length: a span that builds a
    // path from an argument counts its bytes).
    let again = dir.join("run_b.json");
    traced(&again);
    assert_eq!(tree, render(&again, &[]));
    std::fs::remove_dir_all(&dir).ok();
}

/// A bounded run that passes prints its measured peak — the run window's,
/// `heap.measured.peak_bytes` — in the line scripts parse, and that peak is
/// within the budget it was admitted against.
#[test]
fn a_bounded_run_prints_a_measured_peak_within_its_budget() {
    let dir = tempdir("bounded");
    let data = generate_data(&dir, "0.01");
    let (spill, trace) = (dir.join("spill"), dir.join("run.json"));
    let out = align(
        &data,
        &[
            "--mem-budget",
            "16M",
            "--spill-dir",
            spill.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ],
        "2",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = Trace::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let peak = trace.gauge(MEASURED_HEAP_PEAK).expect("measured") as usize;
    assert!(peak > 0 && peak <= 16 << 20, "measured peak {peak} B");
    let line = format!(
        "tracked peak {} (budget {})",
        fmt_bytes(peak),
        fmt_bytes(16 << 20)
    );
    assert!(
        stdout.lines().any(|l| l == line),
        "{line:?} not in {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The decode gate: `align`'s tail runs under spans, and the greedy decode
/// keeps a heap entry per row and a flag per column — not a sorted copy of
/// every entry of the fused matrix (12 B each).
#[test]
fn the_cli_tail_is_spanned_and_the_decode_allocates_per_row_not_per_entry() {
    let dir = tempdir("tail");
    let data = generate_data(&dir, "0.05");
    let trace_path = dir.join("run.json");
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "6", "--dim", "16"])
        .arg("--out")
        .arg(dir.join("links.tsv"))
        .arg("--sim-out")
        .arg(dir.join("fused.sim"))
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = Trace::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let decode = trace.find("decode").expect("decode span");
    let field = |key: &str| {
        decode
            .field_u64(key)
            .unwrap_or_else(|| panic!("decode.{key}"))
    };
    let (rows, cols, entries) = (field("rows"), field("cols"), field("entries"));
    assert!(
        entries > 20 * (rows + cols),
        "a fused matrix this sparse ({entries} entries) would not tell the two decodes apart"
    );
    let peak = field("alloc.peak");
    assert!(
        peak <= 48 * (rows + cols) + (64 << 10),
        "decode peaked at {peak} B for {rows} rows, {cols} columns, {entries} entries"
    );
    let write = trace.find("write_outputs").expect("write_outputs span");
    assert!(write.field_u64("alloc.bytes").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_heap_renders_a_handcrafted_profile_deterministically() {
    let dir = tempdir("golden");
    let path = dir.join("t.json");
    // pipeline allocated 10240 in 10 allocs; train and fusion account for
    // 6144 + 2048 of it, leaving 2048 self bytes on pipeline.
    std::fs::write(
        &path,
        concat!(
            r#"{"version":2,"spans":[{"name":"pipeline","seconds":1.0,"#,
            r#""fields":{"alloc.bytes":10240,"alloc.count":10,"alloc.peak":8192},"children":["#,
            r#"{"name":"train","seconds":0.5,"fields":{"alloc.bytes":6144,"alloc.count":6,"alloc.peak":4096},"children":[]},"#,
            r#"{"name":"fusion","seconds":0.2,"fields":{"alloc.bytes":2048,"alloc.count":2,"alloc.peak":2048},"children":[]}"#,
            r#"]}],"counters":{},"gauges":{},"histograms":{},"samples":[]}"#,
        ),
    )
    .unwrap();

    let out = bin().args(["trace", "heap"]).arg(&path).output().unwrap();
    assert!(out.status.success());
    // tree: cumulative and self bytes per span, human units; top table by
    // self bytes, train (6K) first and the 2K tie in name order
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            "  span                                         cum      self     allocs     peak  share\n",
            "  pipeline                                  10.0K     2.0K         10     8.0K 100.0%\n",
            "    train                                    6.0K     6.0K          6     4.0K  60.0%\n",
            "    fusion                                   2.0K     2.0K          2     2.0K  20.0%\n",
            "\n",
            "top 3 span(s) by self bytes:\n",
            "  span                                        self       cum     allocs     peak\n",
            "  train                                       6.0K      6.0K          6     4.0K\n",
            "  fusion                                      2.0K      2.0K          2     2.0K\n",
            "  pipeline                                    2.0K     10.0K         10     8.0K\n",
        )
    );

    // A trace without alloc fields is a clean, typed failure.
    let bare = dir.join("bare.json");
    std::fs::write(
        &bare,
        r#"{"version":2,"spans":[{"name":"pipeline","seconds":1.0,"fields":{},"children":[]}],"counters":{},"gauges":{},"histograms":{},"samples":[]}"#,
    )
    .unwrap();
    let out = bin().args(["trace", "heap"]).arg(&bare).output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no allocation data"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
