//! Perf baselines: per-stage medians distilled from repeated traced runs.
//!
//! A single trace answers "where did this run spend its time"; a
//! *baseline* remembers what those numbers should be, so a later run can
//! be gated against it (`largeea trace check --baseline BENCH_pipeline.json`).
//! The on-disk format is schema-tagged JSON:
//!
//! ```json
//! {"schema":"largeea-bench-baseline","version":1,
//!  "config":{"preset":"ids15k-en-fr","scale":"0.01"},
//!  "repeats":5,
//!  "stages":{"partition":{"median_seconds":0.02,"min_seconds":0.018,"max_seconds":0.03}},
//!  "counters":{"cps.virtual_edges":42}}
//! ```
//!
//! Stage statistics are medians over the repeats — robust to one noisy
//! run — and `check` allows a caller-chosen percentage over the median
//! plus a small absolute slack, because scheduler noise on a sub-10ms
//! stage can easily double it. Counters carry no clock: the pipeline is
//! deterministic for fixed seeds, so they must match **exactly**; a
//! counter drift means the computation changed, not the machine.

use largeea_common::json::{Json, ParseError, ToJson};
use largeea_common::obs::{Trace, TraceSpan};

/// Median/min/max of one stage's summed wall-clock over the repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStat {
    /// Median across repeats of `Trace::total_seconds(stage)`.
    pub median_seconds: f64,
    /// Fastest repeat.
    pub min_seconds: f64,
    /// Slowest repeat.
    pub max_seconds: f64,
}

impl From<largeea_common::bench::Measurement> for StageStat {
    /// A micro-benchmark's per-iteration nanoseconds as a stage's seconds.
    fn from(m: largeea_common::bench::Measurement) -> Self {
        Self {
            median_seconds: m.median_ns * 1e-9,
            min_seconds: m.min_ns * 1e-9,
            max_seconds: m.max_ns * 1e-9,
        }
    }
}

/// A perf baseline: stage time budgets plus exact expected counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Free-form description of what produced it (preset, scale, k, …).
    pub config: Vec<(String, String)>,
    /// How many traced runs the statistics summarise.
    pub repeats: usize,
    /// Per-stage statistics, sorted by stage name.
    pub stages: Vec<(String, StageStat)>,
    /// Exact counter values (deterministic for fixed seeds), sorted.
    pub counters: Vec<(String, u64)>,
}

/// Absolute slack added on top of the percentage budget in
/// [`Baseline::check`]: below this scale a stage's duration is scheduler
/// noise, not signal.
pub const ABS_SLACK_SECONDS: f64 = 0.025;

/// `config` entries describing the parallel substrate a baseline was
/// measured under: `threads` (the global pool's width, i.e. what
/// `LARGEEA_THREADS` resolved to) and `host_parallelism` (what the OS
/// reports). Counters are thread-invariant by construction, but stage
/// *medians* are not — recording the width makes a baseline taken on one
/// machine legible on another.
pub fn thread_config() -> Vec<(String, String)> {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        (
            "threads".to_owned(),
            largeea_common::pool::Pool::global().threads().to_string(),
        ),
        ("host_parallelism".to_owned(), host.to_string()),
        (
            "kernel_isa".to_owned(),
            largeea_tensor::active_isa().name().to_owned(),
        ),
    ]
}

fn collect_span_names(spans: &[TraceSpan], into: &mut Vec<String>) {
    for s in spans {
        into.push(s.name.clone());
        collect_span_names(&s.children, into);
    }
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

impl Baseline {
    /// Distils `traces` (≥ 1 repeats of the *same* deterministic run) into
    /// a baseline. Stage set and counters are taken from the first trace;
    /// returns `Err` if any repeat's counters disagree — that means the
    /// runs weren't actually identical and the baseline would be garbage.
    pub fn from_traces(
        config: Vec<(String, String)>,
        traces: &[Trace],
    ) -> Result<Baseline, String> {
        let first = traces.first().ok_or("no traces to summarise")?;
        for (i, t) in traces.iter().enumerate().skip(1) {
            if t.counters != first.counters {
                return Err(format!(
                    "repeat {i} produced different counters than repeat 0; \
                     runs are not deterministic"
                ));
            }
        }
        let mut names = Vec::new();
        collect_span_names(&first.spans, &mut names);
        names.sort();
        names.dedup();
        let stages = names
            .into_iter()
            .map(|name| {
                let mut secs: Vec<f64> = traces.iter().map(|t| t.total_seconds(&name)).collect();
                secs.sort_by(f64::total_cmp);
                let stat = StageStat {
                    median_seconds: median(&secs),
                    min_seconds: secs[0],
                    max_seconds: secs[secs.len() - 1],
                };
                (name, stat)
            })
            .collect();
        Ok(Baseline {
            config,
            repeats: traces.len(),
            stages,
            counters: first.counters.clone(),
        })
    }

    /// Checks `trace` against the baseline. Every baseline stage must run
    /// within `median × (1 + tolerance_pct/100) + `[`ABS_SLACK_SECONDS`],
    /// and every baseline counter must match exactly. Returns the list of
    /// violations — empty means the run is within budget.
    pub fn check(&self, trace: &Trace, tolerance_pct: f64) -> Vec<String> {
        let mut violations = Vec::new();
        for (name, stat) in &self.stages {
            let budget = stat.median_seconds * (1.0 + tolerance_pct / 100.0) + ABS_SLACK_SECONDS;
            let got = trace.total_seconds(name);
            if got > budget {
                violations.push(format!(
                    "stage {name}: {got:.4}s exceeds budget {budget:.4}s \
                     (median {:.4}s + {tolerance_pct}% + {ABS_SLACK_SECONDS}s slack)",
                    stat.median_seconds
                ));
            }
        }
        for (name, expected) in &self.counters {
            let got = trace.counter(name);
            if got != *expected {
                violations.push(format!(
                    "counter {name}: {got} != baseline {expected} (counters must match exactly)"
                ));
            }
        }
        violations
    }

    /// Sets (replaces or appends) one `config` entry.
    pub fn set_config(&mut self, key: &str, value: String) {
        match self.config.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.config.push((key.to_owned(), value)),
        }
    }

    /// Sets (replaces or inserts) one stage's statistics, keeping `stages`
    /// sorted by name.
    pub fn set_stage(&mut self, name: &str, stat: StageStat) {
        match self.stages.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = stat,
            None => self.stages.push((name.to_owned(), stat)),
        }
        self.stages.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Applies `edit` to the baseline file at `path` — how the op-level
    /// benches (`kernel_bench`, `train_bench`) merge their rows into the
    /// `BENCH_pipeline.json` that `bench_pipeline` wrote. Panics with the
    /// path on an unreadable, unparsable or unwritable file (bench
    /// binaries have no better way to fail).
    pub fn edit_file(path: &str, edit: impl FnOnce(&mut Baseline)) {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let mut baseline = Baseline::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
        edit(&mut baseline);
        let mut doc = baseline.to_json_string();
        doc.push('\n');
        std::fs::write(path, doc).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }

    /// Parses the on-disk JSON form (inverse of [`ToJson`]).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let json = largeea_common::json::parse(text).map_err(|e: ParseError| e.to_string())?;
        Self::from_json(&json)
    }

    /// Builds a baseline from an already-parsed [`Json`] document.
    pub fn from_json(json: &Json) -> Result<Baseline, String> {
        let bad = |what: &str| format!("invalid baseline: {what}");
        let obj = json.as_obj().ok_or_else(|| bad("root must be an object"))?;
        let schema = json.get("schema").and_then(Json::as_str);
        if schema != Some("largeea-bench-baseline") {
            return Err(bad(&format!(
                "schema tag {schema:?}, want \"largeea-bench-baseline\""
            )));
        }
        if json.get("version").and_then(Json::as_u64) != Some(1) {
            return Err(bad("unsupported version (want 1)"));
        }
        let _ = obj; // shape validated via typed getters below
        let config = json
            .get("config")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("missing config object"))?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_owned()))
                    .ok_or_else(|| bad(&format!("config.{k} must be a string")))
            })
            .collect::<Result<_, _>>()?;
        let repeats = json
            .get("repeats")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("missing repeats"))? as usize;
        let stages = json
            .get("stages")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("missing stages object"))?
            .iter()
            .map(|(name, v)| {
                let field = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad(&format!("stages.{name}.{key} must be a number")))
                };
                Ok((
                    name.clone(),
                    StageStat {
                        median_seconds: field("median_seconds")?,
                        min_seconds: field("min_seconds")?,
                        max_seconds: field("max_seconds")?,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        let counters = json
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("missing counters object"))?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| bad(&format!("counters.{k} must be unsigned")))
            })
            .collect::<Result<_, _>>()?;
        Ok(Baseline {
            config,
            repeats,
            stages,
            counters,
        })
    }
}

impl ToJson for Baseline {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::Str("largeea-bench-baseline".into())),
            ("version", Json::UInt(1)),
            (
                "config",
                Json::obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::Str(v.clone()))),
                ),
            ),
            ("repeats", Json::UInt(self.repeats as u64)),
            (
                "stages",
                Json::obj(self.stages.iter().map(|(name, s)| {
                    (
                        name.as_str(),
                        Json::obj([
                            ("median_seconds", s.median_seconds.to_json()),
                            ("min_seconds", s.min_seconds.to_json()),
                            ("max_seconds", s.max_seconds.to_json()),
                        ]),
                    )
                })),
            ),
            (
                "counters",
                Json::obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::UInt(*v))),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use largeea_common::obs::{ObsConfig, Recorder};

    /// Three repeats of the "same" run with pinned, distinct clock readings.
    fn repeats() -> Vec<Trace> {
        [0.10, 0.30, 0.20]
            .iter()
            .map(|&s| {
                let rec = Recorder::new(ObsConfig::default());
                {
                    let _p = rec.span("pipeline");
                    let _q = rec.span("partition");
                    rec.add("cps.virtual_edges", 42);
                }
                rec.trace().map_seconds(|_| s)
            })
            .collect()
    }

    fn cfg() -> Vec<(String, String)> {
        vec![("preset".into(), "ids15k-en-fr".into())]
    }

    #[test]
    fn medians_are_robust_to_one_slow_repeat() {
        let b = Baseline::from_traces(cfg(), &repeats()).unwrap();
        assert_eq!(b.repeats, 3);
        let (_, part) = b.stages.iter().find(|(n, _)| n == "partition").unwrap();
        assert_eq!(part.median_seconds, 0.20);
        assert_eq!((part.min_seconds, part.max_seconds), (0.10, 0.30));
        assert_eq!(b.counters, vec![("cps.virtual_edges".to_owned(), 42)]);
    }

    #[test]
    fn non_deterministic_counters_are_rejected() {
        let mut ts = repeats();
        ts[1].counters[0].1 = 43;
        let err = Baseline::from_traces(cfg(), &ts).unwrap_err();
        assert!(err.contains("not deterministic"), "{err}");
        assert!(Baseline::from_traces(cfg(), &[]).is_err());
    }

    #[test]
    fn check_passes_within_budget_and_flags_regressions() {
        let b = Baseline::from_traces(cfg(), &repeats()).unwrap();
        let ok = repeats().remove(2); // 0.20s == median
        assert!(b.check(&ok, 10.0).is_empty());

        // 3× the median blows a 10% budget even with the absolute slack
        let slow = ok.map_seconds(|s| s * 3.0);
        let violations = b.check(&slow, 10.0);
        assert!(
            violations.iter().any(|v| v.contains("stage partition")),
            "{violations:?}"
        );

        // counter drift is flagged even when timings are fine
        let mut drifted = repeats().remove(2);
        drifted.counters[0].1 = 41;
        let violations = b.check(&drifted, 1000.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("counter cps.virtual_edges"));
    }

    #[test]
    fn tiny_stages_are_absorbed_by_absolute_slack() {
        let fast: Vec<Trace> = repeats()
            .into_iter()
            .map(|t| t.map_seconds(|_| 0.001))
            .collect();
        let b = Baseline::from_traces(cfg(), &fast).unwrap();
        // 10× on a 1ms stage is still inside the 25ms absolute slack
        let noisy = fast[0].map_seconds(|s| s * 10.0);
        assert!(b.check(&noisy, 0.0).is_empty());
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let b = Baseline::from_traces(cfg(), &repeats()).unwrap();
        let text = b.to_json_string();
        assert!(text.starts_with(r#"{"schema":"largeea-bench-baseline","version":1"#));
        assert_eq!(Baseline::parse(&text).unwrap(), b);
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        for (text, needle) in [
            ("[]", "object"),
            (r#"{"schema":"nope","version":1}"#, "schema tag"),
            (
                r#"{"schema":"largeea-bench-baseline","version":2}"#,
                "version",
            ),
            (
                r#"{"schema":"largeea-bench-baseline","version":1,"config":{},"repeats":1,"stages":{"a":{"median_seconds":"x"}},"counters":{}}"#,
                "median_seconds",
            ),
            (
                r#"{"schema":"largeea-bench-baseline","version":1,"config":{},"repeats":1,"stages":{},"counters":{"c":-1}}"#,
                "unsigned",
            ),
        ] {
            let err = Baseline::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text} → {err}");
        }
    }
}
