//! Ablation sweeps for the design knobs DESIGN.md calls out (D2–D5):
//! accuracy as a function of each choice, on one IDS15K-shaped dataset.
//!
//! - **D2** — CPS pivot count `q` (paper fixes q = 1);
//! - **D3** — top-k retention φ (paper: 50);
//! - **D4** — string-similarity fusion weight γ (paper: 0.05);
//! - **D5** — negative-sampling strategy (nearest vs random).
//!
//! Flags: `--scale <f>` (default 0.05), `--epochs <n>` (default 40).

use largeea_bench::{arg_f64, arg_usize};
use largeea_common::obs::{ObsConfig, Recorder};
use largeea_core::evaluate;
use largeea_core::pipeline::{ExecOptions, LargeEa, LargeEaConfig};
use largeea_core::report::{print_series, Series};
use largeea_core::structure_channel::{Partitioner, StructureChannel, StructureChannelConfig};
use largeea_core::{NameChannel, NameChannelConfig};
use largeea_data::Preset;
use largeea_models::negative::NegStrategy;
use largeea_models::{ModelKind, TrainConfig};
use largeea_partition::{metis_cps, CpsConfig};

fn main() {
    let scale = arg_f64("scale", 0.05);
    let epochs = arg_usize("epochs", 40);
    let pair = Preset::Ids15kEnFr.spec(scale).generate();
    let seeds = pair.split_seeds(0.2, 0x5EED);
    let train = TrainConfig {
        epochs,
        dim: 64,
        ..TrainConfig::default()
    };

    // --- D2: CPS pivot count q -------------------------------------------
    let mut d2 = Series {
        label: "test retention %".into(),
        x: vec![],
        y: vec![],
    };
    for q in [1usize, 2, 4, 8] {
        let mut cfg = CpsConfig::new(5);
        cfg.q = q;
        let batches = metis_cps(&pair, &seeds, &cfg);
        d2.x.push(q as f64);
        d2.y.push(100.0 * batches.retention(&seeds).test);
    }
    print_series(
        "Ablation D2 — CPS pivots q (paper: q=1 suffices)",
        "q",
        "test retention %",
        &[d2],
    );

    // --- D3: top-k retention φ — the accuracy/memory trade-off -------------
    // H@1 saturates immediately (it needs only rank 1); the knob buys
    // candidate recall (H@5, MRR) against sparse-matrix memory.
    let mut d3_h5 = Series {
        label: "H@5 %".into(),
        x: vec![],
        y: vec![],
    };
    let mut d3_kb = Series {
        label: "M_n KiB".into(),
        x: vec![],
        y: vec![],
    };
    for top_k in [1usize, 5, 50, 150] {
        let nc = NameChannel::new(NameChannelConfig {
            top_k,
            ..NameChannelConfig::default()
        });
        let out = nc.run(&pair.source, &pair.target);
        let e = evaluate(&out.m_n, &seeds.test);
        d3_h5.x.push(top_k as f64);
        d3_h5.y.push(e.hits5);
        d3_kb.x.push(top_k as f64);
        d3_kb.y.push(out.m_n.nbytes() as f64 / 1024.0);
    }
    print_series(
        "Ablation D3 — retained top-k φ (paper: 50)",
        "φ",
        "H@5 % / KiB",
        &[d3_h5, d3_kb],
    );

    // --- D4: fusion weight γ ------------------------------------------------
    let mut d4 = Series {
        label: "name-channel MRR".into(),
        x: vec![],
        y: vec![],
    };
    for gamma in [0.0f32, 0.05, 0.2, 1.0] {
        let nc = NameChannel::new(NameChannelConfig {
            gamma,
            ..NameChannelConfig::default()
        });
        let out = nc.run(&pair.source, &pair.target);
        d4.x.push(gamma as f64);
        d4.y.push(evaluate(&out.m_n, &seeds.test).mrr);
    }
    print_series(
        "Ablation D4 — string fusion weight γ (paper: 0.05)",
        "γ",
        "MRR",
        &[d4],
    );

    // --- D5: negative sampling strategy ------------------------------------
    let mut d5 = Series {
        label: "structure-channel H@1".into(),
        x: vec![],
        y: vec![],
    };
    for (xi, strat) in [(0.0, NegStrategy::Random), (1.0, NegStrategy::Nearest)] {
        let cfg = StructureChannelConfig {
            k: 2,
            partitioner: Partitioner::MetisCps,
            model: ModelKind::Rrea,
            train: TrainConfig {
                neg_strategy: strat,
                ..train
            },
            top_k: 50,
            ..StructureChannelConfig::default()
        };
        let out = StructureChannel::new(cfg).run(&pair, &seeds);
        d5.x.push(xi);
        d5.y.push(evaluate(&out.m_s, &seeds.test).hits1);
        eprintln!("[D5] {strat:?}: H@1 {:.1}", out.final_loss);
    }
    print_series(
        "Ablation D5 — negatives (x=0 random, x=1 nearest; paper/RREA: nearest)",
        "strategy",
        "H@1 %",
        &[d5],
    );

    // --- bonus: iterative self-training rounds ------------------------------
    let mut rounds_series = Series {
        label: "fused H@1".into(),
        x: vec![],
        y: vec![],
    };
    for rounds in [1usize, 2, 3] {
        let cfg = LargeEaConfig {
            structure: StructureChannelConfig {
                k: 2,
                model: ModelKind::GcnAlign,
                train,
                ..StructureChannelConfig::default()
            },
            ..LargeEaConfig::default()
        };
        let rec = Recorder::new(ObsConfig::default());
        let report = LargeEa::new(cfg)
            .run_exec(&pair, &seeds, rounds, &rec, &ExecOptions::default())
            .expect("default exec options: no RunError has a source");
        rounds_series.x.push(rounds as f64);
        rounds_series.y.push(report.eval.hits1);
    }
    print_series(
        "Extension — bootstrapping rounds (BootEA-style)",
        "rounds",
        "H@1 %",
        &[rounds_series],
    );
}
