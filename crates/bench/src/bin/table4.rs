//! Table 4 + §3.5 case study: *unsupervised* EA on DBP1M.
//!
//! No seed alignment is given (train ratio 0); the name-based data
//! augmentation generates all supervision. The harness prints the pseudo
//! seed counts and their accuracy (the paper reports 528 040 / 476 527
//! seeds at 93.86 % / 93.85 % on the full-scale datasets) alongside the EA
//! rows.
//!
//! Flags: `--scale <f>`, `--epochs <n>`, `--dim <n>`, `--k <n>`.

use largeea_bench::{arg_usize, channel_peak_bytes, direction_label, largeea_config};
use largeea_common::obs::Recorder;
use largeea_core::pipeline::{
    ExecOptions, LargeEa, PIPELINE_SPAN, PSEUDO_SEEDS, PSEUDO_SEED_ACCURACY,
};
use largeea_core::report::{print_table, MethodRow};
use largeea_data::Preset;
use largeea_kg::AlignmentSeeds;
use largeea_models::ModelKind;

fn main() {
    for preset in [Preset::Dbp1mEnFr, Preset::Dbp1mEnDe] {
        let scale = largeea_bench::arg_f64("scale", largeea_bench::default_scale(preset));
        let pair = preset.spec(scale).generate();
        // unsupervised: everything is test
        let seeds = AlignmentSeeds {
            train: vec![],
            test: pair.alignment.clone(),
        };
        let k = arg_usize("k", preset.default_k());
        let reversed = pair.reversed();
        let seeds_rev = AlignmentSeeds {
            train: vec![],
            test: reversed.alignment.clone(),
        };

        let mut rows: Vec<MethodRow> = Vec::new();
        for model in [ModelKind::GcnAlign, ModelKind::Rrea] {
            for (p, s) in [(&pair, &seeds), (&reversed, &seeds_rev)] {
                let report = LargeEa::new(largeea_config(model, k))
                    .run_exec(p, s, 1, &Recorder::from_env(), &ExecOptions::default())
                    .expect("default exec options: no RunError has a source");
                let trace = &report.trace;
                println!(
                    "[DA] {} {}: generated {} pseudo seeds, accuracy {:.2}%",
                    preset.name(),
                    direction_label(p),
                    trace.counter(PSEUDO_SEEDS),
                    100.0 * trace.gauge(PSEUDO_SEED_ACCURACY).unwrap_or(0.0)
                );
                rows.push(MethodRow::new(
                    preset.name(),
                    format!("LargeEA-{} (unsup.)", model.short_name()),
                    direction_label(p),
                    report.eval,
                    trace.total_seconds(PIPELINE_SPAN),
                    channel_peak_bytes(trace),
                ));
            }
        }
        print_table(&format!("Table 4 — unsupervised {}", preset.name()), &rows);
    }
}
