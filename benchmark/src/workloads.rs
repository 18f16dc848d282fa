//! The benchmark's fixed tables: the four workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics. `BENCHMARK.json`
//! is generated from these tables (`--emit-manifest`), and a unit test
//! keeps the committed file equal to them.

use largeea_common::json::Json;

/// Which dataset family a workload's input is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// IDS15K(EN-FR): every entity has a counterpart.
    Ids15k,
    /// DBP1M(EN-FR): asymmetric sides with unknown entities.
    Dbp1m,
}

/// Which structure-channel model an `align` workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Rrea,
    Gcn,
}

impl Model {
    pub fn flag(self) -> &'static str {
        match self {
            Model::Rrea => "rrea",
            Model::Gcn => "gcn",
        }
    }
}

/// The `largeea` command a workload times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// `largeea align --model … --k … --epochs … [--unsupervised]
    /// [--mem-budget …]`.
    Align {
        model: Model,
        k: usize,
        epochs: usize,
        unsupervised: bool,
        /// `--mem-budget` in MiB; the run then streams and spills.
        mem_budget_mib: Option<usize>,
    },
    /// `largeea partition --k … --strategy cps`.
    Partition { k: usize },
}

/// One workload: an input recipe, a command, and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Name of the input recipe (and of its directories); workloads with
    /// the same recipe get the same files for the same seed.
    pub dataset: &'static str,
    pub family: Family,
    pub scale: f64,
    pub command: Command,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ids15k-rrea-unsup",
        why: "Training-dominated: unsupervised RREA, the paper's headline variant, so models/tensor/augment carry the run and simsearch carries little.",
        dataset: "ids15k",
        family: Family::Ids15k,
        scale: 0.3,
        command: Command::Align {
            model: Model::Rrea,
            k: 5,
            epochs: 6,
            unsupervised: true,
            mem_budget_mib: None,
        },
    },
    Workload {
        name: "dbp1m-name",
        why: "Name-channel-dominated: the quadratic exact SENS scan over asymmetric sides with unknown entities; supervised GCN-Align, the opposite split from ids15k-rrea-unsup.",
        dataset: "dbp1m-name",
        family: Family::Dbp1m,
        scale: 0.008,
        command: Command::Align {
            model: Model::Gcn,
            k: 8,
            epochs: 5,
            unsupervised: false,
            mem_budget_mib: None,
        },
    },
    Workload {
        name: "dbp1m-name-bounded",
        why: "The dbp1m-name files under --mem-budget: streamed top-k, spilled segments, in-place fusion; shows a change that trades the in-RAM path against the out-of-core one.",
        dataset: "dbp1m-name",
        family: Family::Dbp1m,
        scale: 0.008,
        command: Command::Align {
            model: Model::Gcn,
            k: 8,
            epochs: 5,
            unsupervised: false,
            mem_budget_mib: Some(24),
        },
    },
    Workload {
        name: "dbp1m-partition",
        why: "METIS-CPS alone at the paper's DBP1M K=20: partitioning is under 5% of every align workload, so only this one shows a partitioner change.",
        dataset: "dbp1m-partition",
        family: Family::Dbp1m,
        scale: 0.025,
        command: Command::Partition { k: 20 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 28;

/// An end-to-end metric: what a user of the CLI sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "entities_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "quality_pct",
        unit: "%",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "quality_aux_pct",
        unit: "%",
        better: "higher",
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: name, unit, and which way is better.
pub type PerLayer = (&'static str, &'static str, &'static str);

pub const PER_LAYER: [PerLayer; 51] = [
    ("data.generate_s", "s", "lower"),
    ("data.entities_per_s", "1/s", "higher"),
    ("kg.save_s", "s", "lower"),
    ("kg.load_s", "s", "lower"),
    ("kg.load_mib_s", "MiB/s", "higher"),
    ("text.encode_s", "s", "lower"),
    ("text.encode_names_per_s", "1/s", "higher"),
    ("text.minhash_s", "s", "lower"),
    ("text.minhash_names_per_s", "1/s", "higher"),
    ("text.lsh_s", "s", "lower"),
    ("text.lsh_candidates", "count", "lower"),
    ("text.levenshtein_s", "s", "lower"),
    ("text.levenshtein_pairs_per_s", "1/s", "higher"),
    ("simsearch.topk_s", "s", "lower"),
    ("simsearch.topk_pairs", "count", "lower"),
    ("simsearch.topk_pairs_per_s", "1/s", "higher"),
    ("simsearch.topk_gflops", "GFLOP/s", "higher"),
    ("simsearch.topk_pct_of_dot_peak", "%", "higher"),
    ("simsearch.topk_batch_s", "s", "lower"),
    ("simsearch.sparse_ops_s", "s", "lower"),
    ("tensor.dot_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("tensor.spmm_nnz_per_s", "1/s", "higher"),
    ("models.train_s", "s", "lower"),
    ("models.epochs_per_s", "1/s", "higher"),
    ("models.train_sys_share", "ratio", "lower"),
    ("partition.cps_s", "s", "lower"),
    ("partition.cps_triples_per_s", "1/s", "higher"),
    ("partition.cps_retention_pct", "%", "higher"),
    ("partition.cps_edge_cut_rate", "ratio", "lower"),
    ("partition.kway_s", "s", "lower"),
    ("partition.kway_edges_per_s", "1/s", "higher"),
    ("partition.kway_edge_cut", "count", "lower"),
    ("core.name_channel_s", "s", "lower"),
    ("core.augment_s", "s", "lower"),
    ("core.pseudo_seeds", "count", "higher"),
    ("core.pseudo_seed_acc_pct", "%", "higher"),
    ("core.make_batches_s", "s", "lower"),
    ("core.structure_channel_s", "s", "lower"),
    ("core.fuse_s", "s", "lower"),
    ("core.eval_s", "s", "lower"),
    ("core.composed_s", "s", "lower"),
    ("core.composed_hits1_pct", "%", "higher"),
    ("core.spill_write_mib_s", "MiB/s", "higher"),
    ("core.spill_read_mib_s", "MiB/s", "higher"),
    ("common.pool_dispatch_us", "us", "lower"),
    ("common.fsio_write_mib_s", "MiB/s", "higher"),
    ("common.fsio_read_mib_s", "MiB/s", "higher"),
    ("cli.outside_pipeline_s", "s", "lower"),
    ("probe.composed_vs_e2e_pct", "%", "lower"),
    ("host.stream_gib_s", "GiB/s", "higher"),
];

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.to_owned());
    Json::obj([
        ("command", Json::Arr(vec![s("bash"), s("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Json::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj([("name", s(name)), ("unit", s(unit)), ("better", s(better))])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let committed = largeea_common::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest());
        // and what the harness emits survives the product's own parser
        assert_eq!(
            largeea_common::json::parse(&manifest().dump()).unwrap(),
            manifest()
        );
    }
}
