//! Unsupervised EA (paper §3.5): align two KGs with *zero* seed alignment.
//!
//! ```sh
//! cargo run --release --example unsupervised_alignment
//! ```
//!
//! Real-world EA rarely comes with labelled seed pairs. LargeEA's
//! name-based data augmentation bootstraps supervision by taking entity
//! pairs that are *mutually* each other's most name-similar counterpart
//! (cycle consistency) as pseudo seeds, then trains the structure channel
//! on those. This example runs that mode on a DBP1M-shaped dataset and
//! compares it against the supervised run — the paper's finding is that the
//! two land within a point of each other.

use largeea::core::pipeline::{LargeEa, LargeEaConfig, PSEUDO_SEEDS, PSEUDO_SEED_ACCURACY};
use largeea::core::structure_channel::StructureChannelConfig;
use largeea::data::Preset;
use largeea::kg::AlignmentSeeds;
use largeea::models::{ModelKind, TrainConfig};

fn config() -> LargeEaConfig {
    LargeEaConfig {
        structure: StructureChannelConfig {
            k: 4,
            model: ModelKind::GcnAlign,
            train: TrainConfig {
                epochs: 40,
                dim: 64,
                ..TrainConfig::default()
            },
            ..StructureChannelConfig::default()
        },
        ..LargeEaConfig::default()
    }
}

fn main() {
    let pair = Preset::Dbp1mEnFr.spec(0.002).generate();
    println!(
        "DBP1M-shaped pair: |E_s|={} (incl. unknowns), |E_t|={}, ground truth={}",
        pair.source.num_entities(),
        pair.target.num_entities(),
        pair.alignment.len()
    );

    // Supervised: 20 % real seeds.
    let supervised_seeds = pair.split_seeds(0.2, 7);
    let supervised = LargeEa::new(config()).run(&pair, &supervised_seeds);

    // Unsupervised: no seeds at all — DA must produce every training pair.
    let unsupervised_seeds = AlignmentSeeds {
        train: vec![],
        test: pair.alignment.clone(),
    };
    let unsupervised = LargeEa::new(config()).run(&pair, &unsupervised_seeds);

    let pseudo_seeds = unsupervised.trace.counter(PSEUDO_SEEDS);
    let pseudo_accuracy = unsupervised
        .trace
        .gauge(PSEUDO_SEED_ACCURACY)
        .unwrap_or(0.0);
    println!(
        "supervised   : H@1 = {:.1}%  H@5 = {:.1}%  MRR = {:.2}",
        supervised.eval.hits1, supervised.eval.hits5, supervised.eval.mrr
    );
    println!(
        "unsupervised : H@1 = {:.1}%  H@5 = {:.1}%  MRR = {:.2}  \
         (DA generated {} pseudo seeds at {:.1}% accuracy)",
        unsupervised.eval.hits1,
        unsupervised.eval.hits5,
        unsupervised.eval.mrr,
        pseudo_seeds,
        100.0 * pseudo_accuracy
    );
    assert!(
        pseudo_accuracy > 0.7,
        "pseudo seeds should be mostly correct"
    );
}
