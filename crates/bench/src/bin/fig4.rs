//! Figure 4: scalability analysis vs data size.
//!
//! Measures the running time of the four LargeEA components — SENS and
//! STNS (name channel), METIS-CPS and EA training (structure channel) — on
//! a geometric sweep of dataset scales. The paper's claim: each component
//! grows roughly linearly with data size.
//!
//! Flags: `--base <f>` (smallest scale, default 0.002), `--steps <n>`
//! (default 4, doubling each step), `--epochs <n>`, `--trace-dir <dir>`
//! (write one `fig4.scale-*.trace.json` per sweep step).

use largeea_bench::{arg_f64, arg_usize, harness_train_config, maybe_write_trace};
use largeea_common::obs::Recorder;
use largeea_core::report::{print_series, Series};
use largeea_core::structure_channel::{Partitioner, StructureChannel, StructureChannelConfig};
use largeea_core::{NameChannel, NameChannelConfig, RunCtx};
use largeea_data::Preset;
use largeea_models::ModelKind;

fn main() {
    let base = arg_f64("base", 0.002);
    let steps = arg_usize("steps", 4);
    let preset = Preset::Dbp1mEnFr;

    let mut xs = Vec::new();
    let mut sens = Vec::new();
    let mut stns = Vec::new();
    let mut cps = Vec::new();
    let mut training = Vec::new();
    for step in 0..steps {
        let scale = base * (1 << step) as f64;
        let pair = preset.spec(scale).generate();
        let seeds = pair.split_seeds(0.2, 0x5EED);
        let entities = (pair.source.num_entities() + pair.target.num_entities()) as f64;
        eprintln!("[fig4] scale {scale}: {entities} entities");

        let rec = Recorder::from_env();
        let mut ctx = RunCtx::in_memory(&rec);
        NameChannel::new(NameChannelConfig::default())
            .run_in(&pair.source, &pair.target, &mut ctx)
            .expect("in-memory context: no RunError has a source");
        let sc = StructureChannel::new(StructureChannelConfig {
            k: preset.default_k(),
            partitioner: Partitioner::MetisCps,
            model: ModelKind::GcnAlign,
            train: harness_train_config(),
            top_k: 50,
            ..StructureChannelConfig::default()
        });
        sc.run_in(&pair, &seeds, &mut ctx)
            .expect("in-memory context: no RunError has a source");
        let trace = rec.trace();
        maybe_write_trace(&format!("fig4.scale-{scale}"), &trace);

        xs.push(entities);
        sens.push(trace.total_seconds("sens"));
        stns.push(trace.total_seconds("stns"));
        cps.push(trace.total_seconds("partition"));
        training.push(trace.total_seconds("train"));
    }

    let series = vec![
        Series {
            label: "SENS".into(),
            x: xs.clone(),
            y: sens,
        },
        Series {
            label: "STNS".into(),
            x: xs.clone(),
            y: stns,
        },
        Series {
            label: "METIS-CPS".into(),
            x: xs.clone(),
            y: cps,
        },
        Series {
            label: "EA training".into(),
            x: xs,
            y: training,
        },
    ];
    print_series(
        "Figure 4 — scalability vs data size (DBP1M EN-FR family)",
        "total entities",
        "seconds",
        &series,
    );
}
