//! Shared plumbing for the experiment harness.
//!
//! One runnable binary per paper table/figure lives in `src/bin/`; this
//! library holds the pieces they share: simple `--flag value` argument
//! parsing, dataset construction at harness scales, and runners that turn a
//! configured pipeline into the paper's table rows.
//!
//! Default scales are chosen so every binary finishes on a laptop CPU in
//! minutes; the shape claims being reproduced (who wins, by roughly what
//! factor) are scale-stable. Pass `--scale <f>` to any binary to override.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// The counting allocator, installed once for every binary and bench that
// links this library: Table 6's memory columns are the channels' measured
// `alloc.peak`, and `train_bench` reports bytes allocated per epoch. (The
// attribute is safe code; the audited `unsafe impl` lives in
// `largeea_common::alloc`.)
#[global_allocator]
static ALLOC: largeea_common::alloc::CountingAlloc = largeea_common::alloc::CountingAlloc;

use largeea_common::json::ToJson;
use largeea_common::obs::{Recorder, Trace};
use largeea_core::pipeline::{ExecOptions, LargeEa, LargeEaConfig, PIPELINE_SPAN};
use largeea_core::report::MethodRow;
use largeea_core::structure_channel::{Partitioner, StructureChannelConfig};
use largeea_core::NameChannelConfig;
use largeea_data::{DatasetSpec, Preset};
use largeea_kg::{AlignmentSeeds, KgPair};
use largeea_models::{ModelKind, TrainConfig};
use largeea_text::HashEncoder;

/// Reads `--<name> <value>` from the process arguments.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    arg_str(name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--{name} expects a number, got {v:?}"))
    })
}

/// Reads `--<name> <value>` as an integer.
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg_str(name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}"))
    })
}

/// Reads `--<name> <value>` as a raw string.
pub fn arg_str(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Writes `trace` to `<dir>/<tag>.trace.json` when the binary was invoked
/// with `--trace-dir <dir>`; a no-op otherwise. Every harness binary can
/// therefore ship its per-run observability artifact without new flags of
/// its own.
pub fn maybe_write_trace(tag: &str, trace: &largeea_common::obs::Trace) {
    let Some(dir) = arg_str("trace-dir") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("{tag}.trace.json"));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    std::fs::write(&path, trace.to_json_string())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("[trace] {tag} → {}", path.display());
}

/// Harness default scales per benchmark family (fractions of Table 1).
pub fn default_scale(preset: Preset) -> f64 {
    match preset {
        Preset::Ids15kEnFr | Preset::Ids15kEnDe => 0.10, // 1 500 pairs
        Preset::Ids100kEnFr | Preset::Ids100kEnDe => 0.02, // 2 000 pairs
        Preset::Dbp1mEnFr | Preset::Dbp1mEnDe => 0.012,  // 12 000 pairs + unknowns
        Preset::Dbp1mCi => 1.0, // already CI-sized (4 000 pairs + unknowns)
    }
}

/// Builds `preset` at the `--scale`-overridable harness scale, split 20/80.
pub fn make_dataset(
    preset: Preset,
    scale_override: Option<f64>,
) -> (DatasetSpec, KgPair, AlignmentSeeds) {
    let scale = scale_override.unwrap_or_else(|| arg_f64("scale", default_scale(preset)));
    let spec = preset.spec(scale);
    let pair = spec.generate();
    let seeds = pair.split_seeds(arg_f64("seed-ratio", 0.2), 0x5EED);
    (spec, pair, seeds)
}

/// The harness training configuration (smaller than production defaults so
/// table binaries stay fast; override with `--epochs`/`--dim`).
pub fn harness_train_config() -> TrainConfig {
    TrainConfig {
        epochs: arg_usize("epochs", 50),
        dim: arg_usize("dim", 64),
        ..TrainConfig::default()
    }
}

/// Direction label like `"EN→FR"`.
pub fn direction_label(pair: &KgPair) -> String {
    format!("{}→{}", pair.source.name(), pair.target.name())
}

/// Builds the LargeEA pipeline config for one variant.
pub fn largeea_config(model: ModelKind, k: usize) -> LargeEaConfig {
    LargeEaConfig {
        structure: StructureChannelConfig {
            k,
            partitioner: Partitioner::MetisCps,
            model,
            train: harness_train_config(),
            top_k: 50,
            ..StructureChannelConfig::default()
        },
        name: NameChannelConfig::default(),
        use_structure: true,
        use_name: true,
        use_augmentation: true,
        csls_k: None,
    }
}

/// Table 6's memory for one run: the larger of the `name_channel` and
/// `structure_channel` spans' measured `alloc.peak` (0 for a span that is
/// missing or was recorded without heap attribution).
pub fn channel_peak_bytes(trace: &Trace) -> usize {
    ["name_channel", "structure_channel"]
        .iter()
        .filter_map(|name| trace.find(name)?.field_u64("alloc.peak"))
        .max()
        .unwrap_or(0) as usize
}

/// Runs one LargeEA variant and renders the paper's table row.
pub fn largeea_variant_row(
    dataset: &str,
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    model: ModelKind,
    k: usize,
) -> MethodRow {
    let rec = Recorder::from_env();
    let report = LargeEa::new(largeea_config(model, k))
        .run_exec(pair, seeds, 1, &rec, &ExecOptions::default())
        .expect("default exec options: no RunError has a source");
    let method = format!("LargeEA-{}", model.short_name());
    maybe_write_trace(&format!("{dataset}.{method}"), &report.trace);
    MethodRow::new(
        dataset,
        method,
        direction_label(pair),
        report.eval,
        report.trace.total_seconds(PIPELINE_SPAN),
        channel_peak_bytes(&report.trace),
    )
}

/// Runs the five competitor baselines of Table 2 on `pair` and renders
/// their rows. `name_dim` is the semantic-embedding size shared by the
/// name-aware baselines.
pub fn baseline_rows(
    dataset: &str,
    pair: &KgPair,
    seeds: &AlignmentSeeds,
    top_k: usize,
) -> Vec<MethodRow> {
    use largeea_models::baselines as bl;
    let cfg = harness_train_config();
    let dir = direction_label(pair);
    let encoder = HashEncoder::new(cfg.dim, 0xBA5E);
    let name_s = encoder.encode_batch(pair.source.labels());
    let name_t = encoder.encode_batch(pair.target.labels());
    // BERT-INT's big encoder: a wider embedding (768-d like BERT base)
    let bert_encoder = HashEncoder::new(768, 0xBE27);
    let bert_s = bert_encoder.encode_batch(pair.source.labels());
    let bert_t = bert_encoder.encode_batch(pair.target.labels());

    let mut rows = Vec::new();
    let mut push = |name: &str, r: bl::BaselineResult| {
        let eval = largeea_core::evaluate(&r.sim, &seeds.test);
        rows.push(MethodRow::new(
            dataset,
            name,
            dir.clone(),
            eval,
            r.seconds,
            r.peak_bytes,
        ));
    };
    push("GCNAlign", bl::gcn_align_full(pair, seeds, &cfg, top_k));
    push(
        "MultiKE-lite",
        bl::multike_lite(pair, seeds, &name_s, &name_t, &cfg, top_k),
    );
    push(
        "RDGCN-lite",
        bl::rdgcn_lite(pair, seeds, &name_s, &name_t, &cfg, top_k),
    );
    push("RREA", bl::rrea_full(pair, seeds, &cfg, top_k));
    push(
        "BERT-INT-lite",
        bl::bert_int_lite(pair, seeds, &bert_s, &bert_t, &cfg, top_k),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scales_are_small() {
        for p in Preset::all() {
            let s = default_scale(p);
            assert!(s > 0.0 && s <= 0.2);
        }
    }

    #[test]
    fn make_dataset_generates_consistent_split() {
        let (spec, pair, seeds) = make_dataset(Preset::Ids15kEnFr, Some(0.01));
        assert_eq!(spec.preset, Preset::Ids15kEnFr);
        assert_eq!(seeds.len(), pair.alignment.len());
        assert!(seeds.train.len() < seeds.test.len());
    }

    #[test]
    fn direction_labels() {
        let (_, pair, _) = make_dataset(Preset::Ids15kEnDe, Some(0.01));
        assert_eq!(direction_label(&pair), "EN→DE");
        assert_eq!(direction_label(&pair.reversed()), "DE→EN");
    }
}
