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
//! better names (cleaner labels) for *your* data. Every number is read from
//! the run's trace, the same `eval.*` and `fusion.*` metrics
//! `largeea trace summarize` prints for a `--trace-out` file.

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
    let trace = &report.trace;
    println!(
        "overall: H@1 {:.1}%  H@5 {:.1}%  over {} test pairs\n",
        report.eval.hits1, report.eval.hits5, report.eval.evaluated
    );

    println!("H@1 by source-entity degree (tail entities are the hard part):");
    for bucket in ["0-1", "2-3", "4-7", "8-15", "16+"] {
        let pairs = trace.counter(&format!("eval.degree.{bucket}.pairs"));
        if pairs > 0 {
            let hits1 = trace.gauge(&format!("eval.degree.{bucket}.hits1"));
            println!(
                "  degree {bucket:>5}: {pairs:>4} pairs, H@1 {:>5.1}%",
                hits1.expect("recorded beside its pair count")
            );
        }
    }

    let fusion = |what: &str| trace.counter(&format!("fusion.{what}"));
    println!("\nchannel attribution over the test pairs:");
    println!("  solved by both channels alone : {}", fusion("both"));
    println!(
        "  structure channel only        : {}",
        fusion("structure_only")
    );
    println!("  name channel only             : {}", fusion("name_only"));
    println!("  neither alone                 : {}", fusion("neither"));
    println!("  rescued by fusion             : {}", fusion("rescued"));
    println!("  broken by fusion              : {}", fusion("broke"));

    let solved: u64 = ["both", "structure_only", "name_only", "neither"]
        .map(fusion)
        .iter()
        .sum();
    assert_eq!(solved, report.eval.evaluated as u64, "both channels ran");
}
