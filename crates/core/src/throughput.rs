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
//! | `stns.lev_pairs_per_sec` | `stns.levenshtein_pairs` counter | `score` (STNS's two passes over source rows, not the target's sketch and index) |
//! | `sens.encodes_per_sec` | the `encode` spans' `rows` fields (names encoded, each loader call's segment) | `encode` (the encoding itself, not the scan the whole `sens` span also holds) |
//! | `kg.load_mib_per_sec` | the `load` spans' `bytes` field, in MiB (input files read and parsed) | `load` |
//!
//! Beside the rates, [`filter_pass_pcts`] derives what share of the pairs a
//! top-k scan was handed its u8 pre-filter could not rule out and the scan
//! scored in f32 (DESIGN.md §S0.11): `sens.filter_pass_pct` from
//! `sens.refined_pairs` / `sens.candidates_scored`, `topk.filter_pass_pct`
//! from `topk.refined_pairs` / `topk.scored_pairs`, and
//! `negatives.filter_pass_pct` from the negative sampler's
//! `negatives.refined_pairs` / `negatives.scored_pairs`. And
//! [`attribution_coverage`] says how much of the run the tree explains: the
//! share of the roots' wall-clock that lies inside leaf spans, the rest
//! being self time of spans that have children — work no leaf names.
//!
//! The definitions live here — next to the pipeline that records the
//! counters — so the trace CLI and any future dashboard derive identical
//! numbers from the same trace.

use largeea_common::obs::{Trace, TraceSpan};

/// One derived rate: `count` work units over `seconds` of stage time.
#[derive(Debug, Clone, PartialEq)]
pub struct Throughput {
    /// Stable metric name, e.g. `"train.epochs_per_sec"`.
    pub name: &'static str,
    /// The span whose summed duration is the denominator.
    pub stage: &'static str,
    /// Work-unit label for display, e.g. `"epochs"`.
    pub unit: &'static str,
    /// Work units performed (counter value, span count or summed field).
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
    /// A field of every span of this name, summed.
    Field(&'static str, &'static str),
    /// The stage's spans' `bytes` fields, summed, in MiB.
    MibOfStage,
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
        "score",
        "pairs",
    ),
    (
        "sens.encodes_per_sec",
        Work::Field("encode", "rows"),
        "encode",
        "names",
    ),
    ("kg.load_mib_per_sec", Work::MibOfStage, "load", "MiB"),
];

/// Sums field `key` over every span named `name`.
fn field_sum(spans: &[TraceSpan], name: &str, key: &str) -> u64 {
    let own = |s: &TraceSpan| match s.name == name {
        true => s.field_u64(key).unwrap_or(0),
        false => 0,
    };
    let below = |s: &TraceSpan| field_sum(&s.children, name, key);
    spans.iter().map(|s| own(s) + below(s)).sum()
}

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
                Work::Field(s, f) => field_sum(&trace.spans, s, f) as f64,
                Work::MibOfStage => {
                    field_sum(&trace.spans, stage, "bytes") as f64 / (1u64 << 20) as f64
                }
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
        ("negatives", "negatives.scored_pairs"),
    ];
    let pass = |(scan, scanned): (&str, &str)| {
        let refined = trace.counter(&format!("{scan}.refined_pairs"));
        let scanned = trace.counter(scanned);
        let pct = 100.0 * refined as f64 / scanned as f64;
        (scanned > 0).then(|| (format!("{scan}.filter_pass_pct"), pct, refined, scanned))
    };
    scans.into_iter().filter_map(pass).collect()
}

/// How much of a trace's wall-clock its leaf spans account for.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// Summed wall-clock seconds of the root spans.
    pub root_seconds: f64,
    /// Of those, seconds that are self time of spans with children.
    pub parent_self_seconds: f64,
    /// The span with children holding the most self time, and how much.
    pub largest: Option<(String, f64)>,
}

impl Coverage {
    /// Percent of the root wall-clock inside leaf spans.
    pub fn pct(&self) -> f64 {
        100.0 * (1.0 - self.parent_self_seconds / self.root_seconds)
    }
}

/// The attribution coverage of `trace` (module docs); `None` for a trace
/// without timed spans. Same-name spans pool their self time, as they pool
/// their rows in `trace summarize`.
pub fn attribution_coverage(trace: &Trace) -> Option<Coverage> {
    fn walk(spans: &[TraceSpan], into: &mut Vec<(String, f64)>) {
        for s in spans.iter().filter(|s| !s.children.is_empty()) {
            match into.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, secs)) => *secs += s.self_seconds(),
                None => into.push((s.name.clone(), s.self_seconds())),
            }
            walk(&s.children, into);
        }
    }
    let root_seconds: f64 = trace.spans.iter().map(|s| s.seconds).sum();
    let mut parents = Vec::new();
    walk(&trace.spans, &mut parents);
    (root_seconds > 0.0).then(|| Coverage {
        root_seconds,
        parent_self_seconds: parents.iter().map(|(_, secs)| secs).sum(),
        // first-seen wins a tie, so the report repeats byte for byte
        largest: parents
            .into_iter()
            .reduce(|a, b| if b.1 > a.1 { b } else { a }),
    })
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

        // Levenshtein pairs are paid for by the `score` span alone, not by
        // the whole `stns` span that also sketches and indexes the target
        let rec = Recorder::new(ObsConfig::default());
        {
            let _stns = rec.span("stns");
            drop(rec.span_at(Level::Detail, "sketch"));
            drop(rec.span_at(Level::Detail, "score"));
            rec.add("stns.levenshtein_pairs", 600);
        }
        let mut n = 0;
        // depth-first: stns, sketch, score
        let secs = [3.0, 1.0, 1.5];
        let trace = rec.trace().map_seconds(|_| {
            n += 1;
            secs[n - 1]
        });
        let tp = derived_throughputs(&trace);
        let lev = tp.iter().find(|t| t.name == "stns.lev_pairs_per_sec");
        let lev = lev.map(|t| (t.stage, t.count, t.seconds, t.per_sec));
        assert_eq!(lev, Some(("score", 600.0, 1.5, 400.0)));

        // encoded names are paid for by the `encode` spans alone, not by
        // the whole `sens` span that also scans
        let rec = Recorder::new(ObsConfig::default());
        {
            let _sens = rec.span("sens");
            for rows in [300u64, 500] {
                rec.span_at(Level::Detail, "encode").field("rows", rows);
            }
            drop(rec.span_at(Level::Detail, "sens_block"));
        }
        let mut n = 0;
        // depth-first: sens, encode, encode, sens_block
        let secs = [4.0, 0.5, 1.5, 2.0];
        let trace = rec.trace().map_seconds(|_| {
            n += 1;
            secs[n - 1]
        });
        let tp = derived_throughputs(&trace);
        let enc = tp.iter().find(|t| t.name == "sens.encodes_per_sec");
        let enc = enc.map(|t| (t.stage, t.count, t.seconds, t.per_sec));
        assert_eq!(enc, Some(("encode", 800.0, 2.0, 400.0)));
    }

    #[test]
    fn stages_without_evidence_are_skipped() {
        let tp = derived_throughputs(&synthetic_trace());
        // no score/encode spans in the synthetic trace → no name-channel rates
        assert!(tp.iter().all(|t| t.stage != "score" && t.stage != "encode"));
        // …and an empty trace derives nothing at all
        assert!(derived_throughputs(&Trace::default()).is_empty());
    }

    #[test]
    fn filter_pass_pct_is_refined_over_scanned() {
        let rec = Recorder::new(ObsConfig::default());
        rec.add("sens.candidates_scored", 4_000);
        rec.add("sens.refined_pairs", 150);
        rec.add("negatives.scored_pairs", 800);
        rec.add("negatives.refined_pairs", 152);
        assert_eq!(
            filter_pass_pcts(&rec.trace()),
            vec![
                ("sens.filter_pass_pct".to_owned(), 3.75, 150, 4_000),
                ("negatives.filter_pass_pct".to_owned(), 19.0, 152, 800)
            ]
        );
        assert!(filter_pass_pcts(&Trace::default()).is_empty());
    }

    #[test]
    fn load_rate_is_the_load_spans_bytes_in_mib() {
        let rec = Recorder::new(ObsConfig::default());
        for bytes in [3u64 << 20, 1 << 20] {
            rec.span("load").field("bytes", bytes);
        }
        drop(rec.span("load")); // a load that recorded no bytes adds time only
        let tp = derived_throughputs(&rec.trace().map_seconds(|_| 0.5));
        assert_eq!(tp.len(), 1);
        let load = (tp[0].name, tp[0].count, tp[0].seconds, tp[0].per_sec);
        assert_eq!(load, ("kg.load_mib_per_sec", 4.0, 1.5, 4.0 / 1.5));
    }

    #[test]
    fn coverage_is_the_share_of_root_wall_inside_leaf_spans() {
        // every span pinned to 2 s: pipeline's two children and train's
        // five cover more than their parent (clamped to no self time)
        let trace = synthetic_trace().map_seconds(|_| 2.0);
        let cov = attribution_coverage(&trace).unwrap();
        assert_eq!((cov.root_seconds, cov.parent_self_seconds), (2.0, 0.0));
        assert_eq!(cov.pct(), 100.0);

        // parents longer than their children: the difference is their own
        let rec = Recorder::new(ObsConfig::default());
        {
            let _root = rec.span("root");
            for _ in 0..2 {
                let _stage = rec.span("stage");
                drop(rec.span("leaf"));
            }
            drop(rec.span("bare leaf"));
        }
        let mut n = 0;
        // depth-first: root, stage, leaf, stage, leaf, bare leaf
        let secs = [10.0, 3.0, 1.0, 3.0, 2.0, 1.0];
        let trace = rec.trace().map_seconds(|_| {
            n += 1;
            secs[n - 1]
        });
        let cov = attribution_coverage(&trace).unwrap();
        // root: 10 − 3 − 3 − 1 = 3; the stages: (3 − 1) + (3 − 2) = 3
        assert_eq!((cov.root_seconds, cov.parent_self_seconds), (10.0, 6.0));
        assert_eq!(cov.largest, Some(("root".to_owned(), 3.0)));
        assert!((cov.pct() - 40.0).abs() < 1e-9);
        assert_eq!(attribution_coverage(&Trace::default()), None);
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
