//! Post-hoc analysis of an alignment run: which channel earns the hits,
//! and how accuracy varies with entity degree.
//!
//! ```sh
//! cargo run --release --example error_analysis
//! ```
//!
//! The paper's Figure 5 shows channel ablations in aggregate; this example
//! decomposes a single run pair-by-pair — the view you need when deciding
//! whether to invest in better structure (more seeds, bigger K budget) or
//! better names (cleaner labels) for *your* data.

use largeea::core::accuracy_by_degree;
use largeea::core::pipeline::{LargeEa, LargeEaConfig};
use largeea::core::structure_channel::StructureChannelConfig;
use largeea::data::Preset;
use largeea::models::{ModelKind, TrainConfig};

fn main() {
    let pair = Preset::Ids15kEnFr.spec(0.03).generate();
    let seeds = pair.split_seeds(0.2, 11);
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
    let report = LargeEa::new(cfg).run(&pair, &seeds);
    println!(
        "overall: H@1 {:.1}%  H@5 {:.1}%  over {} test pairs\n",
        report.eval.hits1, report.eval.hits5, report.eval.evaluated
    );

    println!("H@1 by source-entity degree (tail entities are the hard part):");
    for b in accuracy_by_degree(&pair, &report.sim, &seeds.test) {
        if b.pairs > 0 {
            println!(
                "  degree {:>5}: {:>4} pairs, H@1 {:>5.1}%",
                b.bucket, b.pairs, b.hits1
            );
        }
    }

    let a = report.attribution.expect("both channels ran");
    println!("\nchannel attribution over the test pairs:");
    println!("  solved by both channels alone : {}", a.both);
    println!("  structure channel only        : {}", a.structure_only);
    println!("  name channel only             : {}", a.name_only);
    println!("  neither alone                 : {}", a.neither);
    println!("  fused matrix correct          : {}", a.fused_correct);
    println!("  rescued by fusion             : {}", a.fusion_rescued);
    println!("  broken by fusion              : {}", a.fusion_broke);

    assert!(a.fused_correct > 0, "expected some correct alignments");
}
