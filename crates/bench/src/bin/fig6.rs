//! Figure 6: METIS-CPS performance vs seed-alignment ratio.
//!
//! Sweeps the seed ratio from 10 % to 50 % and reports the *structure
//! channel only* H@1 and running time for METIS-CPS, VPS and no partition
//! (`w/o p.`).
//!
//! Reproduced claims: H@1 grows with seeds for every strategy; METIS-CPS
//! dominates VPS throughout; no-partition is the accuracy ceiling but costs
//! the most training time, while VPS is cheapest to *generate*.
//!
//! Flags: `--scale <f>` (default 0.1 of IDS15K), `--epochs <n>`, `--dim <n>`.

use largeea_bench::{arg_f64, harness_train_config};
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_core::report::{print_series, Series};
use largeea_core::structure_channel::{Partitioner, StructureChannel, StructureChannelConfig};
use largeea_core::{evaluate, RunCtx};
use largeea_data::Preset;
use largeea_models::ModelKind;

fn main() {
    let preset = Preset::Ids15kEnFr;
    let scale = arg_f64("scale", 0.1);
    let pair = preset.spec(scale).generate();
    let strategies = [
        ("METIS-CPS", Partitioner::MetisCps),
        ("VPS", Partitioner::Vps),
        ("w/o p.", Partitioner::None),
    ];

    let ratios = [0.1, 0.2, 0.3, 0.4, 0.5];
    let mut acc: Vec<Series> = strategies
        .iter()
        .map(|(l, _)| Series {
            label: (*l).into(),
            x: Vec::new(),
            y: Vec::new(),
        })
        .collect();
    let mut time: Vec<Series> = acc.clone();

    for &ratio in &ratios {
        let seeds = pair.split_seeds(ratio, 0x5EED);
        for (si, (label, partitioner)) in strategies.iter().enumerate() {
            let cfg = StructureChannelConfig {
                k: preset.default_k(),
                partitioner: *partitioner,
                model: ModelKind::Rrea,
                train: harness_train_config(),
                top_k: 50,
                ..StructureChannelConfig::default()
            };
            let rec = Recorder::new(ObsConfig::default());
            let out = StructureChannel::new(cfg)
                .run_in(&pair, &seeds, &mut RunCtx::in_memory(&rec))
                .expect("in-memory context: no RunError has a source");
            let eval = evaluate(&out.m_s, &seeds.test);
            let trace = rec.trace();
            let (partition, train) = (
                trace.total_seconds("partition"),
                trace.total_seconds("train"),
            );
            eprintln!(
                "[fig6] ratio {ratio} {label}: H@1 {:.1}, partition {partition:.2}s, train {train:.2}s",
                eval.hits1
            );
            acc[si].x.push(ratio);
            acc[si].y.push(eval.hits1);
            time[si].x.push(ratio);
            time[si].y.push(partition + train);
        }
    }
    print_series(
        "Figure 6(a/b) — structure-channel H@1 vs seed ratio (IDS15K EN-FR)",
        "seed ratio",
        "H@1 %",
        &acc,
    );
    print_series(
        "Figure 6(c/d) — structure-channel running time vs seed ratio",
        "seed ratio",
        "seconds",
        &time,
    );
}
