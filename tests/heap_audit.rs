//! The `--mem-audit` loop end to end (DESIGN.md §S0.10): this facade test
//! binary runs under the instrumented allocator `src/lib.rs` installs, so
//! library-level runs really measure heap peaks; the CLI tests drive the
//! `largeea` binary, including the deliberate-leak hook that must make the
//! audit fail with the typed error, and `trace heap`'s rendering.

use largeea::common::obs::{ObsConfig, Recorder, Trace};
use largeea::core::mem::MemAuditError;
use largeea::core::pipeline::{ExecOptions, LargeEa, LargeEaConfig, RunCtx, RunError};
use largeea::core::structure_channel::StructureChannelConfig;
use largeea::core::{NameChannel, NameChannelConfig};
use largeea::data::Preset;
use largeea::models::baselines::whole_graph;
use largeea::models::{train, train_traced, BatchGraph, EaModel, ModelKind, TrainConfig};
use largeea::tensor::Tape;
use largeea::text::LshIndex;
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
fn library_level_audit_passes_and_reports_a_measured_peak() {
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 42);
    let rec = Recorder::new(ObsConfig {
        heap: true,
        ..ObsConfig::default()
    });
    let exec = ExecOptions {
        mem_audit: true,
        ..ExecOptions::default()
    };
    let report = LargeEa::new(quick_config())
        .run_exec(&pair, &seeds, 1, &rec, &exec)
        .expect("tracked and measured peaks must reconcile on an in-RAM run");
    let measured = report
        .measured_heap_peak_bytes
        .expect("instrumented process reports a measured peak");
    assert!(measured > 0);
    assert!(
        report.tracked_peak_bytes > 0,
        "the pipeline charges its big buffers"
    );

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
    assert!(measured as u64 >= root.field_u64("alloc.peak").unwrap());
}

#[test]
fn audit_failure_surfaces_as_a_typed_error_under_the_leak_hook() {
    // The leak hook is read from the environment inside run_exec, so this
    // must stay a subprocess concern for the CLI; at the library level we
    // simulate the same drift by auditing a tracker against an impossible
    // measured peak.
    let tracker = largeea::core::MemTracker::new();
    let err = tracker
        .audit(1 << 30)
        .expect_err("1 GiB measured against empty books must fail");
    match err {
        MemAuditError::Untracked {
            tracked, measured, ..
        } => {
            assert_eq!(tracked, 0);
            assert_eq!(measured, 1 << 30);
        }
        other => panic!("wrong variant: {other}"),
    }
    // ...and the pipeline wraps it in RunError::Audit (exercised via the
    // typed conversion the run path uses).
    let run_err: RunError = err.into();
    assert!(matches!(
        run_err,
        RunError::Audit(MemAuditError::Untracked { .. })
    ));
    assert!(run_err.to_string().contains("mem-audit"));
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
    for kind in [ModelKind::GcnAlign, ModelKind::Rrea, ModelKind::MTransE] {
        let rec = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        let mut model = kind.build(&bg, cfg.dim, 3);
        train_traced(model.as_mut(), &bg, &cfg, &rec);
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

/// Bytes of the node values one training step records (forward, alignment
/// loss, auxiliary loss): a tape that has run no backward pass holds
/// nothing else.
fn step_value_bytes(model: &dyn EaModel, bg: &BatchGraph, cfg: &TrainConfig) -> usize {
    let mut tape = Tape::new();
    let fp = model.forward(&mut tape);
    let rows = std::rc::Rc::new(vec![0u32; bg.train_pairs.len() * cfg.neg_samples]);
    let [s, t, neg_t, neg_s] = [(); 4].map(|()| rows.clone());
    tape.triplet_l1(fp.embeddings, s, t, neg_t, neg_s, cfg.margin);
    model.auxiliary_loss(&mut tape, &fp.params, 0);
    tape.nbytes()
}

/// The lease gate: gradients are leased from the tape's free list while
/// they are live and RREA's hop never materialises its messages, so (a) a
/// message costs the tape its two `x·r` scalars, not rows of `dim` floats,
/// and (b) a whole `train_batch` peaks at the step's values plus a handful
/// of embedding-sized buffers — the gradients live at once, Adam's two
/// moments, the returned embeddings, the negative sampler's scan — not at a
/// second copy of every value (11, 9 and 12 such buffers with one gradient
/// per node). (b) runs where a side has as many triples as entities, so
/// MTransE's triple-sized buffers are embedding-sized too.
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
    let handful = [
        (ModelKind::GcnAlign, 7),
        (ModelKind::Rrea, 6),
        (ModelKind::MTransE, 9),
    ];
    for (kind, buffers) in handful {
        let rec = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        let mut model = kind.build(&bg, cfg.dim, 3);
        let values = step_value_bytes(model.as_ref(), &bg, &cfg) as u64;
        let report = train_traced(model.as_mut(), &bg, &cfg, &rec);
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

fn align_audit(data: &Path, trace: Option<&Path>, leak: Option<u64>) -> std::process::Output {
    let mut cmd = bin();
    cmd.args(["align", "--data"])
        .arg(data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "6", "--dim", "16"])
        .arg("--mem-audit");
    if let Some(path) = trace {
        cmd.arg("--trace-out").arg(path);
    }
    if let Some(bytes) = leak {
        cmd.env("LARGEEA_HEAP_LEAK", bytes.to_string());
    }
    // one thread: which span a pooled allocation lands in is then fixed
    cmd.env("LARGEEA_THREADS", "1").output().unwrap()
}

#[test]
fn cli_mem_audit_passes_and_a_deliberate_leak_fails_it() {
    let dir = tempdir("cli");
    let data = generate_data(&dir, "0.01");
    let trace = dir.join("run_a.json");

    let ok = align_audit(&data, Some(&trace), None);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(
        ok.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(stdout.contains("mem-audit OK: tracked peak"), "{stdout}");

    // An un-charged 256 MiB reservation blows past ratio × tracked + slack
    // on this tiny workload: the audit must fail with the typed message,
    // not a panic and not a silent pass.
    let leaked = align_audit(&data, None, Some(1 << 28));
    assert!(
        !leaked.status.success(),
        "the leak hook must fail the audit"
    );
    let stderr = String::from_utf8_lossy(&leaked.stderr);
    assert!(
        stderr.contains("mem-audit: measured heap peak"),
        "expected the Untracked audit error, got: {stderr}"
    );
    assert!(stderr.contains("missing its MemTracker charge"), "{stderr}");

    // The passing run's trace drives `trace heap`: tree, top table, and
    // byte-stable output.
    let render = |sub: &str, trace: &Path, extra: &[&str]| {
        let mut cmd = bin();
        cmd.args(["trace", sub]).arg(trace).args(extra);
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let heap = |extra: &[&str]| render("heap", &trace, extra);
    let tree = heap(&[]);
    assert!(tree.contains("pipeline"), "{tree}");
    assert!(tree.contains("top "), "{tree}");
    assert!(tree.contains("by self bytes"), "{tree}");
    assert_eq!(tree, heap(&[]), "trace heap must be byte-stable");
    let folded = heap(&["--folded"]);
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("pipeline;") && l.rsplit_once(' ').is_some()),
        "{folded}"
    );
    for line in folded.lines() {
        let (_, bytes) = line.rsplit_once(' ').expect("folded line has a value");
        bytes.parse::<u64>().expect("self bytes are integers");
    }

    // A second same-seed run attributes the same bytes to the same spans:
    // every rendering of the profile repeats across runs, not only across
    // renderings of one file (paths of one length: the process-wide heap
    // gauges count the argument strings too).
    let again = dir.join("run_b.json");
    assert!(align_audit(&data, Some(&again), None).status.success());
    assert_eq!(tree, render("heap", &again, &[]));
    assert_eq!(folded, render("heap", &again, &["--folded"]));
    let expo = render("expo", &trace, &[]);
    assert!(expo.contains("\nlargeea_heap_live "), "{expo}");
    assert_eq!(expo, render("expo", &again, &[]));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bounded_run_passes_the_audit_with_its_sketches_on_the_books() {
    // Out of core the name channel streams segments and keeps the scan's
    // u8 sketches beside them; both are charged (the name channel's own
    // tests pin the bytes), and measured and tracked peaks still reconcile.
    let dir = tempdir("bounded");
    let data = generate_data(&dir, "0.01");
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "6", "--dim", "16"])
        .args(["--mem-budget", "16M", "--mem-audit", "--spill-dir"])
        .arg(dir.join("spill"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("mem-audit OK: tracked peak"), "{stdout}");
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
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    // tree: cumulative and self bytes per span, human units
    assert!(text.contains("pipeline"), "{text}");
    assert!(text.contains("10.0K"), "cumulative bytes in {text}");
    assert!(text.contains("6.0K"), "train cumulative in {text}");
    // top table sorted by self bytes: train (6K) first
    let top = text.find("by self bytes").expect("top table header");
    let train = text[top..].find("train").expect("train in top table");
    let pipe = text[top..].find("pipeline").expect("pipeline in top table");
    assert!(
        train < pipe,
        "train (6K self) must outrank pipeline:\n{text}"
    );

    let folded = bin()
        .args(["trace", "heap", "--folded"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(folded.status.success());
    let folded = String::from_utf8_lossy(&folded.stdout).into_owned();
    assert_eq!(
        folded,
        "pipeline 2048\npipeline;fusion 2048\npipeline;train 6144\n"
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
