//! Derived per-stage throughputs — the rates `largeea trace summarize`
//! prints under the wall-clock tree.
//!
//! Raw span seconds answer "where did the time go"; throughputs answer
//! "was the time *well spent*", and unlike seconds they are comparable
//! across input scales: a partitioner coarsening 2× the triples in 2× the
//! time is the same machine doing the same work. Each definition pairs a
//! work-unit source (a counter or a span count) with the stage whose
//! summed wall-clock pays for it:
//!
//! | name | work units | ÷ stage |
//! |------|------------|---------|
//! | `partition.triples_per_sec` | `partition.input_triples` counter (triples coarsened + partitioned) | `partition` |
//! | `topk.pairs_per_sec` | `topk.scored_pairs` counter (similarity pairs scored into `M_s`) | `topk` |
//! | `train.epochs_per_sec` | number of `epoch` spans | `train` |
//! | `stns.lev_pairs_per_sec` | `stns.levenshtein_pairs` counter | `stns` |
//! | `sens.encodes_per_sec` | number of `encode` spans | `sens` |
//!
//! Beside the rates, [`filter_pass_pcts`] derives what share of the pairs a
//! top-k scan was handed its u8 pre-filter could not rule out and the scan
//! scored in f32 (DESIGN.md §S0.11): `sens.filter_pass_pct` from
//! `sens.refined_pairs` / `sens.candidates_scored`, `topk.filter_pass_pct`
//! from `topk.refined_pairs` / `topk.scored_pairs`.
//!
//! The definitions live here — next to the pipeline that records the
//! counters — so the trace CLI, the baseline reporter and any future
//! dashboard all derive identical numbers from the same trace.

use largeea_common::obs::Trace;

/// One derived rate: `count` work units over `seconds` of stage time.
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// Stable metric name, e.g. `"train.epochs_per_sec"`.
    pub name: &'static str,
    /// The span whose summed duration is the denominator.
    pub stage: &'static str,
    /// Work-unit label for display, e.g. `"epochs"`.
    pub unit: &'static str,
    /// Work units performed (counter value or span count).
    pub count: f64,
    /// Summed wall-clock seconds of the stage.
    pub seconds: f64,
    /// `count / seconds`.
    pub per_sec: f64,
}

/// How a [`Throughput`]'s numerator is measured.
enum Work {
    /// A monotonic counter's value.
    Counter(&'static str),
    /// How many spans of this name were recorded.
    Spans(&'static str),
}

/// The table of definitions (module docs); order is display order.
const DEFINITIONS: &[(&str, Work, &str, &str)] = &[
    (
        "partition.triples_per_sec",
        Work::Counter("partition.input_triples"),
        "partition",
        "triples",
    ),
    (
        "topk.pairs_per_sec",
        Work::Counter("topk.scored_pairs"),
        "topk",
        "pairs",
    ),
    (
        "train.epochs_per_sec",
        Work::Spans("epoch"),
        "train",
        "epochs",
    ),
    (
        "stns.lev_pairs_per_sec",
        Work::Counter("stns.levenshtein_pairs"),
        "stns",
        "pairs",
    ),
    (
        "sens.encodes_per_sec",
        Work::Spans("encode"),
        "sens",
        "encodes",
    ),
];

/// Computes every derived throughput the trace has evidence for.
///
/// A definition is skipped (not reported as 0 or ∞) when its stage never
/// ran (`seconds == 0`, e.g. a name-only ablation has no `partition`
/// span) or when no work units were recorded — partial traces from
/// `largeea partition` or single-channel ablations yield exactly the rates
/// they measured.
///
/// ```
/// use largeea_common::obs::{ObsConfig, Recorder};
/// use largeea_core::throughput::derived_throughputs;
///
/// let rec = Recorder::new(ObsConfig::default());
/// {
///     let _train = rec.span("train");
///     for _ in 0..10 {
///         drop(rec.span_at(largeea_common::obs::Level::Trace, "epoch"));
///     }
/// }
/// let tp = derived_throughputs(&rec.trace());
/// let epochs = tp.iter().find(|t| t.name == "train.epochs_per_sec").unwrap();
/// assert_eq!(epochs.count, 10.0);
/// assert!(epochs.per_sec > 0.0);
/// ```
pub fn derived_throughputs(trace: &Trace) -> Vec<Throughput> {
    DEFINITIONS
        .iter()
        .filter_map(|(name, work, stage, unit)| {
            let count = match work {
                Work::Counter(c) => trace.counter(c) as f64,
                Work::Spans(s) => trace.span_count(s) as f64,
            };
            let seconds = trace.total_seconds(stage);
            if count == 0.0 || seconds <= 0.0 {
                return None;
            }
            Some(Throughput {
                name,
                stage,
                unit,
                count,
                seconds,
                per_sec: count / seconds,
            })
        })
        .collect()
}

/// `(name, percent, pairs scored in f32, pairs scanned)` for each scan the
/// trace counted pairs of (module docs); a scan that never ran is skipped.
pub fn filter_pass_pcts(trace: &Trace) -> Vec<(String, f64, u64, u64)> {
    let scans = [
        ("sens", "sens.candidates_scored"),
        ("topk", "topk.scored_pairs"),
    ];
    let pass = |(scan, scanned): (&str, &str)| {
        let refined = trace.counter(&format!("{scan}.refined_pairs"));
        let scanned = trace.counter(scanned);
        let pct = 100.0 * refined as f64 / scanned as f64;
        (scanned > 0).then(|| (format!("{scan}.filter_pass_pct"), pct, refined, scanned))
    };
    scans.into_iter().filter_map(pass).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::obs::{Level, ObsConfig, Recorder};

    /// A trace shaped like a real pipeline run, with deterministic seconds.
    fn synthetic_trace() -> Trace {
        let rec = Recorder::new(ObsConfig::default());
        {
            let _p = rec.span("pipeline");
            {
                let _part = rec.span("partition");
                rec.add("partition.input_triples", 5_000);
            }
            {
                let _train = rec.span("train");
                for _ in 0..4 {
                    drop(rec.span_at(Level::Trace, "epoch"));
                }
                drop(rec.span_at(Level::Detail, "topk"));
                rec.add("topk.scored_pairs", 2_000);
            }
        }
        // pin every span to 0.5 s so the rates are exact
        rec.trace().map_seconds(|_| 0.5)
    }

    #[test]
    fn rates_divide_work_by_stage_seconds() {
        let tp = derived_throughputs(&synthetic_trace());
        let by_name = |n: &str| tp.iter().find(|t| t.name == n).cloned();

        let part = by_name("partition.triples_per_sec").unwrap();
        assert_eq!(
            (part.count, part.seconds, part.per_sec),
            (5_000.0, 0.5, 10_000.0)
        );

        let topk = by_name("topk.pairs_per_sec").unwrap();
        assert_eq!((topk.count, topk.per_sec), (2_000.0, 4_000.0));

        let epochs = by_name("train.epochs_per_sec").unwrap();
        assert_eq!(
            (epochs.count, epochs.seconds, epochs.per_sec),
            (4.0, 0.5, 8.0)
        );
    }

    #[test]
    fn stages_without_evidence_are_skipped() {
        let tp = derived_throughputs(&synthetic_trace());
        // no stns/sens spans in the synthetic trace → no name-channel rates
        assert!(tp.iter().all(|t| t.stage != "stns" && t.stage != "sens"));
        // …and an empty trace derives nothing at all
        assert!(derived_throughputs(&Trace::default()).is_empty());
    }

    #[test]
    fn filter_pass_pct_is_refined_over_scanned() {
        let rec = Recorder::new(ObsConfig::default());
        rec.add("sens.candidates_scored", 4_000);
        rec.add("sens.refined_pairs", 150);
        assert_eq!(
            filter_pass_pcts(&rec.trace()),
            vec![("sens.filter_pass_pct".to_owned(), 3.75, 150, 4_000)]
        );
        assert!(filter_pass_pcts(&Trace::default()).is_empty());
    }

    #[test]
    fn counter_without_stage_time_is_skipped() {
        let rec = Recorder::new(ObsConfig::default());
        rec.add("partition.input_triples", 100); // counter but no span
        assert!(derived_throughputs(&rec.trace()).is_empty(), "no ∞ rates");
    }

    #[test]
    fn full_pipeline_trace_yields_all_structure_rates() {
        use crate::pipeline::{LargeEa, LargeEaConfig};
        use crate::structure_channel::StructureChannelConfig;
        use largeea_data::Preset;
        use largeea_models::{ModelKind, TrainConfig};

        let pair = Preset::Ids15kEnFr.spec(0.01).generate();
        let seeds = pair.split_seeds(0.2, 9);
        let cfg = LargeEaConfig {
            structure: StructureChannelConfig {
                k: 2,
                model: ModelKind::GcnAlign,
                train: TrainConfig {
                    epochs: 10,
                    dim: 16,
                    ..Default::default()
                },
                top_k: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = LargeEa::new(cfg).run(&pair, &seeds);
        let tp = derived_throughputs(&report.trace);
        for name in [
            "partition.triples_per_sec",
            "topk.pairs_per_sec",
            "train.epochs_per_sec",
            "stns.lev_pairs_per_sec",
            "sens.encodes_per_sec",
        ] {
            let t = tp.iter().find(|t| t.name == name).unwrap_or_else(|| {
                panic!(
                    "missing throughput {name}; have {:?}",
                    tp.iter().map(|t| t.name).collect::<Vec<_>>()
                )
            });
            assert!(t.per_sec > 0.0 && t.per_sec.is_finite(), "{name}");
        }
    }
}
