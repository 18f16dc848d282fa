//! End-to-end integration tests: the full LargeEA pipeline through the
//! public facade, exactly as a downstream user would drive it.

use largeea::core::pipeline::{LargeEa, LargeEaConfig};
use largeea::core::structure_channel::{Partitioner, StructureChannelConfig};
use largeea::data::Preset;
use largeea::kg::AlignmentSeeds;
use largeea::models::{ModelKind, TrainConfig};

/// Asserts a fixed-seed run's Hits@1 lands on its pin, within the
/// tolerance `benchmark/expected.json` gives its pinned qualities (±0.5
/// points). Every input is seeded, so the value only moves when the answer
/// does — which a change then has to say, before → after.
fn assert_pinned(what: &str, hits1: f64, pinned: f64) {
    assert!(
        (hits1 - pinned).abs() <= 0.5,
        "{what}: H@1 = {hits1}, pinned at {pinned} ± 0.5"
    );
}

fn quick_config(k: usize, model: ModelKind) -> LargeEaConfig {
    LargeEaConfig {
        structure: StructureChannelConfig {
            k,
            model,
            train: TrainConfig {
                epochs: 25,
                dim: 32,
                ..TrainConfig::default()
            },
            top_k: 10,
            ..StructureChannelConfig::default()
        },
        ..LargeEaConfig::default()
    }
}

#[test]
fn supervised_pipeline_aligns_ids_shaped_data() {
    let pair = Preset::Ids15kEnFr.spec(0.02).generate();
    let seeds = pair.split_seeds(0.2, 11);
    let report = LargeEa::new(quick_config(2, ModelKind::GcnAlign)).run(&pair, &seeds);
    assert_pinned("IDS15K EN-FR GCN", report.eval.hits1, 92.08);
    assert!(report.eval.hits5 >= report.eval.hits1);
    assert!(report.eval.mrr > 0.5);
    assert_eq!(report.eval.evaluated, seeds.test.len());
}

#[test]
fn unsupervised_matches_supervised_within_margin() {
    // The paper's §3.5 claim: DA-generated seeds are good enough that the
    // unsupervised run lands near the supervised one.
    let pair = Preset::Ids15kEnDe.spec(0.02).generate();
    let supervised_seeds = pair.split_seeds(0.2, 3);
    let unsupervised_seeds = AlignmentSeeds {
        train: vec![],
        test: pair.alignment.clone(),
    };
    let cfg = quick_config(2, ModelKind::GcnAlign);
    let supervised = LargeEa::new(cfg).run(&pair, &supervised_seeds);
    let unsupervised = LargeEa::new(cfg).run(&pair, &unsupervised_seeds);
    assert!(unsupervised.pseudo_seeds > 0);
    assert!(
        unsupervised.eval.hits1 > supervised.eval.hits1 - 15.0,
        "unsupervised {} far below supervised {}",
        unsupervised.eval.hits1,
        supervised.eval.hits1
    );
}

#[test]
fn both_models_work_end_to_end() {
    let pair = Preset::Ids15kEnFr.spec(0.015).generate();
    let seeds = pair.split_seeds(0.3, 5);
    for (model, pinned) in [(ModelKind::GcnAlign, 93.63), (ModelKind::Rrea, 94.27)] {
        let report = LargeEa::new(quick_config(2, model)).run(&pair, &seeds);
        assert_pinned(&format!("{model:?}"), report.eval.hits1, pinned);
    }
}

#[test]
fn pipeline_is_deterministic() {
    let pair = Preset::Ids15kEnFr.spec(0.01).generate();
    let seeds = pair.split_seeds(0.2, 9);
    let cfg = quick_config(2, ModelKind::GcnAlign);
    let a = LargeEa::new(cfg).run(&pair, &seeds);
    let b = LargeEa::new(cfg).run(&pair, &seeds);
    assert_eq!(a.eval.hits1, b.eval.hits1);
    assert_eq!(a.pseudo_seeds, b.pseudo_seeds);
}

#[test]
fn ablations_order_sanely() {
    // name channel is the strong signal on name-rich synthetic data;
    // random guessing is the floor
    let pair = Preset::Ids15kEnFr.spec(0.02).generate();
    let seeds = pair.split_seeds(0.2, 13);
    let full = LargeEa::new(quick_config(2, ModelKind::GcnAlign)).run(&pair, &seeds);
    let name_only = LargeEa::new(LargeEaConfig {
        use_structure: false,
        ..quick_config(2, ModelKind::GcnAlign)
    })
    .run(&pair, &seeds);
    let structure_only = LargeEa::new(LargeEaConfig {
        use_name: false,
        use_augmentation: false,
        ..quick_config(2, ModelKind::GcnAlign)
    })
    .run(&pair, &seeds);
    assert!(full.eval.hits1 >= structure_only.eval.hits1);
    assert!(name_only.eval.hits1 > 2.0 * structure_only.eval.hits1.max(1.0) / 2.0);
    // fusion should not fall far below the stronger channel
    assert!(full.eval.hits1 >= name_only.eval.hits1 - 10.0);
}

#[test]
fn partitioner_choice_affects_structure_channel_only() {
    let pair = Preset::Ids15kEnFr.spec(0.015).generate();
    let seeds = pair.split_seeds(0.3, 17);
    let mut vps_cfg = quick_config(3, ModelKind::GcnAlign);
    vps_cfg.structure.partitioner = Partitioner::Vps;
    vps_cfg.use_name = false;
    vps_cfg.use_augmentation = false;
    let mut cps_cfg = quick_config(3, ModelKind::GcnAlign);
    cps_cfg.use_name = false;
    cps_cfg.use_augmentation = false;

    let vps_run = LargeEa::new(vps_cfg).run(&pair, &seeds);
    let cps_run = LargeEa::new(cps_cfg).run(&pair, &seeds);
    let (rv, rc) = (
        vps_run.retention.expect("structure ran"),
        cps_run.retention.expect("structure ran"),
    );
    assert!(
        rc.test > rv.test,
        "CPS test retention {} should beat VPS {}",
        rc.test,
        rv.test
    );
    assert!(cps_run.edge_cut_rate < vps_run.edge_cut_rate);
}

#[test]
fn dbp1m_shape_with_unknown_entities_runs() {
    let pair = Preset::Dbp1mEnFr.spec(0.001).generate();
    assert!(pair.source.num_entities() > pair.alignment.len());
    let seeds = pair.split_seeds(0.2, 21);
    let report = LargeEa::new(quick_config(4, ModelKind::GcnAlign)).run(&pair, &seeds);
    // unknown entities make this harder, but the pipeline must stay sound
    assert_pinned("DBP1M EN-FR GCN", report.eval.hits1, 72.88);
    assert!(report.edge_cut_rate >= 0.0 && report.edge_cut_rate <= 1.0);
}
