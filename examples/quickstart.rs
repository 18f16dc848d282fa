//! Quickstart: align two synthetic cross-lingual KGs with LargeEA.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a scaled-down IDS15K(EN-FR)-shaped benchmark, runs the full
//! two-channel pipeline (METIS-CPS mini-batches + RREA structure channel,
//! NFF name channel, data augmentation, fusion) and prints the paper's
//! headline metrics.

use largeea::core::pipeline::{
    LargeEa, LargeEaConfig, PIPELINE_SPAN, PSEUDO_SEEDS, PSEUDO_SEED_ACCURACY,
};
use largeea::core::structure_channel::StructureChannelConfig;
use largeea::data::Preset;
use largeea::models::{ModelKind, TrainConfig};

fn main() {
    // 1. Data: 2 % of IDS15K(EN-FR) — 300 aligned entities, ~950 triples.
    let spec = Preset::Ids15kEnFr.spec(0.02);
    let pair = spec.generate();
    let seeds = pair.split_seeds(0.2, 42); // the paper's 20 % training split
    println!(
        "dataset: {} — |E_s|={}, |E_t|={}, |T_s|={}, |T_t|={}, seeds={}",
        spec.preset.name(),
        pair.source.num_entities(),
        pair.target.num_entities(),
        pair.source.num_triples(),
        pair.target.num_triples(),
        seeds.train.len(),
    );

    // 2. Configure LargeEA-R with K = 2 mini-batches.
    let cfg = LargeEaConfig {
        structure: StructureChannelConfig {
            k: 2,
            model: ModelKind::Rrea,
            train: TrainConfig {
                epochs: 50,
                dim: 64,
                ..TrainConfig::default()
            },
            ..StructureChannelConfig::default()
        },
        ..LargeEaConfig::default()
    };

    // 3. Run and report: accuracy is on the report, every other number of
    // the run in its trace.
    let report = LargeEa::new(cfg).run(&pair, &seeds);
    let trace = &report.trace;
    println!(
        "pseudo seeds from data augmentation: {} ({:.1}% correct)",
        trace.counter(PSEUDO_SEEDS),
        100.0 * trace.gauge(PSEUDO_SEED_ACCURACY).unwrap_or(0.0)
    );
    println!(
        "H@1 = {:.1}%  H@5 = {:.1}%  MRR = {:.2}  ({} test pairs, {:.1}s)",
        report.eval.hits1,
        report.eval.hits5,
        report.eval.mrr,
        report.eval.evaluated,
        trace.total_seconds(PIPELINE_SPAN)
    );
    assert!(report.eval.hits1 > 30.0, "quickstart should align well");
}
