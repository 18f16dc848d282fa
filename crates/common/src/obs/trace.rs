//! The exported trace artifact: span tree + metric tables, JSON-serialisable.
//!
//! A [`Trace`] is the immutable snapshot a [`Recorder`](super::Recorder)
//! produces: everything a run measured, in one value. It serialises through
//! the in-tree [`ToJson`] machinery (schema below, pinned by a golden test)
//! and renders as a human-readable tree for terminal inspection.
//!
//! ## JSON schema (version 2)
//!
//! ```json
//! {
//!   "version": 2,
//!   "spans": [
//!     {"name": "...", "seconds": 0.0, "fields": {"k": v, ...},
//!      "children": [ ...same shape... ]}
//!   ],
//!   "counters": {"name": 0, ...},
//!   "gauges": {"name": 0.0, ...},
//!   "histograms": {"name": {"count": 0, "sum": 0.0, "min": 0.0,
//!                           "max": 0.0, "p50": 0.0, "p95": 0.0}, ...},
//!   "samples": [
//!     {"tick": 0, "seconds": 0.0, "counters": {...}, "gauges": {...},
//!      "histograms": {...same summary shape...}}
//!   ]
//! }
//! ```
//!
//! `"samples"` is the live-telemetry sample ring (see
//! [`Sample`](super::Sample)), oldest first; empty when sampling was off.
//! Any other `"version"` is a typed parse error.
//!
//! Heap attribution (DESIGN.md §S0.10) extends the schema *additively*,
//! with no version bump: recorded spans may carry `alloc.bytes` /
//! `alloc.count` / `alloc.peak` fields (allocation traffic, allocation
//! count and peak net live-byte growth attributed to the span), the gauge
//! table may carry `heap.*` entries, and samples may carry `heap.live` /
//! `heap.peak` / `mem.rss` gauge columns. Readers that don't know these
//! names skip them — old traces and old readers both keep working.
//!
//! Spans keep chronological order; fields keep attachment order; metric
//! tables are sorted by name (they come out of `BTreeMap`s). Downstream
//! tooling (trace diffing, EXPERIMENTS.md regeneration) can rely on all
//! three orderings.

use super::sample::Sample;
use super::{FieldValue, HistogramSummary};
use crate::json::{Json, ToJson};

/// One completed (or still-open, `seconds = 0.0`) span in a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span name, as passed to `Recorder::span_at`.
    pub name: String,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
    /// `key = value` fields, in attachment order.
    pub fields: Vec<(String, FieldValue)>,
    /// Child spans, in open order.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// Looks up a field value by key (first match wins).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// [`TraceSpan::field`] coerced to `u64` across the numeric
    /// [`FieldValue`] forms — a JSON round-trip may deliver `U64`, `I64`
    /// or `F64` for the same logical quantity. `None` when the field is
    /// absent, non-numeric, or negative. (What `trace heap` reads the
    /// `alloc.*` fields through.)
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            FieldValue::F64(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Wall-clock seconds spent in this span *excluding* its children —
    /// the "self time" flame graphs and summaries attribute to a frame.
    /// Clamped at zero (children overlapping from other threads can sum
    /// past the parent's wall-clock).
    pub fn self_seconds(&self) -> f64 {
        let children: f64 = self.children.iter().map(|c| c.seconds).sum();
        (self.seconds - children).max(0.0)
    }

    fn for_each(&self, f: &mut impl FnMut(&TraceSpan)) {
        f(self);
        for c in &self.children {
            c.for_each(f);
        }
    }

    fn map_seconds_mut(&mut self, f: &mut impl FnMut(f64) -> f64) {
        self.seconds = f(self.seconds);
        for c in &mut self.children {
            c.map_seconds_mut(f);
        }
    }
}

impl ToJson for FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(v) => Json::UInt(*v),
            FieldValue::I64(v) => Json::Int(*v),
            FieldValue::F64(v) => Json::Float(*v),
            FieldValue::Bool(v) => Json::Bool(*v),
            FieldValue::Str(v) => Json::Str(v.clone()),
        }
    }
}

impl ToJson for TraceSpan {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("seconds", self.seconds.to_json()),
            (
                "fields",
                Json::obj(self.fields.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            ("children", self.children.to_json()),
        ])
    }
}

/// Snapshot of everything a [`Recorder`](super::Recorder) measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Top-level spans, in open order.
    pub spans: Vec<TraceSpan>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges (last-write or peak), sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Live-telemetry samples, oldest first (empty unless the run had a
    /// sampler enabled — see [`Sample`]).
    pub samples: Vec<Sample>,
}

/// Shorthand for ingestion errors: a path-like context plus the problem.
pub(super) fn bad(ctx: &str, what: &str) -> String {
    format!("invalid trace: {ctx}: {what}")
}

/// Parses the `"counters"` table of `owner` (a trace root or a sample).
pub(super) fn parse_counter_table(owner: &Json, ctx: &str) -> Result<Vec<(String, u64)>, String> {
    owner
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or_else(|| bad(ctx, "missing object \"counters\""))?
        .iter()
        .map(|(k, v)| {
            let v = v
                .as_u64()
                .ok_or_else(|| bad(&format!("counter {k:?}"), "expected an unsigned integer"))?;
            Ok((k.clone(), v))
        })
        .collect()
}

/// Parses the `"gauges"` table of `owner` (a trace root or a sample).
pub(super) fn parse_gauge_table(owner: &Json, ctx: &str) -> Result<Vec<(String, f64)>, String> {
    owner
        .get("gauges")
        .and_then(Json::as_obj)
        .ok_or_else(|| bad(ctx, "missing object \"gauges\""))?
        .iter()
        .map(|(k, v)| {
            let v = v
                .as_f64()
                .ok_or_else(|| bad(&format!("gauge {k:?}"), "expected a number"))?;
            Ok((k.clone(), v))
        })
        .collect()
}

/// Parses the `"histograms"` table of `owner` (a trace root or a sample).
pub(super) fn parse_histogram_table(
    owner: &Json,
    ctx: &str,
) -> Result<Vec<(String, HistogramSummary)>, String> {
    owner
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or_else(|| bad(ctx, "missing object \"histograms\""))?
        .iter()
        .map(|(k, v)| Ok((k.clone(), HistogramSummary::from_json(v, k)?)))
        .collect()
}

impl FieldValue {
    fn from_json(j: &Json, key: &str) -> Result<FieldValue, String> {
        Ok(match j {
            Json::UInt(v) => FieldValue::U64(*v),
            Json::Int(v) => FieldValue::I64(*v),
            Json::Float(v) => FieldValue::F64(*v),
            Json::Bool(v) => FieldValue::Bool(*v),
            Json::Str(v) => FieldValue::Str(v.clone()),
            _ => return Err(bad(&format!("field {key:?}"), "expected a scalar value")),
        })
    }
}

impl TraceSpan {
    fn from_json(j: &Json) -> Result<TraceSpan, String> {
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("span", "missing string \"name\""))?
            .to_owned();
        let seconds = j
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(&name, "missing number \"seconds\""))?;
        let fields = j
            .get("fields")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad(&name, "missing object \"fields\""))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), FieldValue::from_json(v, k)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let children = j
            .get("children")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(&name, "missing array \"children\""))?
            .iter()
            .map(TraceSpan::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(TraceSpan {
            name,
            seconds,
            fields,
            children,
        })
    }
}

impl HistogramSummary {
    pub(super) fn from_json(j: &Json, name: &str) -> Result<HistogramSummary, String> {
        let num = |key: &str| {
            j.get(key).and_then(Json::as_f64).ok_or_else(|| {
                bad(
                    &format!("histogram {name:?}"),
                    &format!("missing number {key:?}"),
                )
            })
        };
        Ok(HistogramSummary {
            count: j
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("histogram {name:?}"), "missing integer \"count\""))?,
            sum: num("sum")?,
            min: num("min")?,
            max: num("max")?,
            p50: num("p50")?,
            p95: num("p95")?,
        })
    }
}

impl Trace {
    /// Parses the JSON text a `--trace-out` run (or [`Trace::to_json_string`])
    /// produced back into a typed trace — the read half of the schema
    /// contract. `Trace → JSON → Trace` is the identity (property-tested),
    /// so traces can be written, shipped, and diffed losslessly.
    pub fn parse(text: &str) -> Result<Trace, String> {
        let json = crate::json::parse(text).map_err(|e| e.to_string())?;
        Trace::from_json(&json)
    }

    /// Builds a trace from an already-parsed [`Json`] tree (see
    /// [`Trace::parse`]). Accepts `"version": 2` only; unknown extra keys
    /// are ignored so older readers keep working across additive schema
    /// growth.
    pub fn from_json(json: &Json) -> Result<Trace, String> {
        let version = json
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("root", "missing integer \"version\""))?;
        if version != 2 {
            return Err(bad(
                "root",
                &format!("unsupported schema version {version}"),
            ));
        }
        let spans = json
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("root", "missing array \"spans\""))?
            .iter()
            .map(TraceSpan::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let counters = parse_counter_table(json, "root")?;
        let gauges = parse_gauge_table(json, "root")?;
        let histograms = parse_histogram_table(json, "root")?;
        let samples = json
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("root", "missing array \"samples\""))?
            .iter()
            .map(Sample::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Trace {
            spans,
            counters,
            gauges,
            histograms,
            samples,
        })
    }

    /// The value of counter `name` (`0` if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The summary of histogram `name`, if any observations were recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// The first span named `name`, searching depth-first.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        fn dfs<'a>(spans: &'a [TraceSpan], name: &str) -> Option<&'a TraceSpan> {
            for s in spans {
                if s.name == name {
                    return Some(s);
                }
                if let Some(hit) = dfs(&s.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        dfs(&self.spans, name)
    }

    /// Sums the `seconds` of every span named `name`, anywhere in the tree,
    /// in chronological depth-first order. This is how pipeline reports
    /// derive their `*_seconds` fields from the trace: a stage that runs
    /// once per bootstrap round contributes each round's span, summed in
    /// the same order the rounds executed.
    pub fn total_seconds(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for s in &self.spans {
            s.for_each(&mut |sp| {
                if sp.name == name {
                    total += sp.seconds;
                }
            });
        }
        total
    }

    /// Number of spans named `name`, anywhere in the tree.
    pub fn span_count(&self, name: &str) -> usize {
        let mut n = 0;
        for s in &self.spans {
            s.for_each(&mut |sp| {
                if sp.name == name {
                    n += 1;
                }
            });
        }
        n
    }

    /// Total number of spans anywhere in the tree.
    pub fn span_count_total(&self) -> usize {
        let mut n = 0;
        for s in &self.spans {
            s.for_each(&mut |_| n += 1);
        }
        n
    }

    /// Returns a copy with every span's `seconds` passed through `f`.
    /// Diff/golden tooling uses this to normalise away wall-clock noise
    /// (e.g. `map_seconds(|_| 0.0)`) before comparing traces.
    pub fn map_seconds(&self, mut f: impl FnMut(f64) -> f64) -> Trace {
        let mut t = self.clone();
        for s in &mut t.spans {
            s.map_seconds_mut(&mut f);
        }
        t
    }

    /// Renders the span tree (plus metric tables) as indented
    /// human-readable text — the terminal companion to the JSON export.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        fn render(s: &TraceSpan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} {:.4}s", s.name, s.seconds));
            for (k, v) in &s.fields {
                out.push_str(&format!(" {k}={v}"));
            }
            out.push('\n');
            for c in &s.children {
                render(c, depth + 1, out);
            }
        }
        for s in &self.spans {
            render(s, 0, &mut out);
        }
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} = {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "hist {k}: count={} sum={} min={} max={} p50={} p95={}\n",
                h.count, h.sum, h.min, h.max, h.p50, h.p95
            ));
        }
        out
    }
}

impl ToJson for Trace {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::UInt(2)),
            ("spans", self.spans.to_json()),
            (
                "counters",
                Json::obj(self.counters.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            (
                "histograms",
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json())),
                ),
            ),
            ("samples", self.samples.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ObsConfig, Recorder};
    use super::*;

    fn sample_trace() -> Trace {
        let rec = Recorder::new(ObsConfig::default());
        {
            let mut outer = rec.span("pipeline");
            outer.field("rounds", 1u64);
            outer.field("strategy", "cps");
            {
                let mut inner = rec.span("partition");
                inner.field("balance", 1.02f64);
            }
        }
        rec.add("cps.virtual_edges", 42);
        rec.gauge("mem.peak_bytes", 1024.0);
        for v in [0.5, 2.0, 8.0] {
            rec.observe("train.epoch_loss", v);
        }
        rec.trace()
    }

    /// The golden test for the trace schema: span nesting, field ordering,
    /// histogram summary keys. Downstream tooling parses this exact shape —
    /// change it only with a version bump.
    #[test]
    fn golden_json_schema() {
        let t = sample_trace().map_seconds(|_| 0.25);
        let expected = concat!(
            r#"{"version":2,"#,
            r#""spans":[{"name":"pipeline","seconds":0.25,"#,
            r#""fields":{"rounds":1,"strategy":"cps"},"#,
            r#""children":[{"name":"partition","seconds":0.25,"#,
            r#""fields":{"balance":1.02},"children":[]}]}],"#,
            r#""counters":{"cps.virtual_edges":42},"#,
            r#""gauges":{"mem.peak_bytes":1024.0},"#,
            r#""histograms":{"train.epoch_loss":{"count":3,"sum":10.5,"#,
            r#""min":0.5,"max":8.0,"p50":4.0,"p95":8.0}},"#,
            r#""samples":[]}"#,
        );
        assert_eq!(t.to_json_string(), expected);
    }

    #[test]
    fn empty_trace_serialises() {
        assert_eq!(
            Trace::default().to_json_string(),
            r#"{"version":2,"spans":[],"counters":{},"gauges":{},"histograms":{},"samples":[]}"#
        );
    }

    #[test]
    fn lookup_helpers() {
        let t = sample_trace();
        assert_eq!(t.counter("cps.virtual_edges"), 42);
        assert_eq!(t.counter("missing"), 0);
        assert_eq!(t.gauge("mem.peak_bytes"), Some(1024.0));
        assert_eq!(t.gauge("missing"), None);
        assert_eq!(t.histogram("train.epoch_loss").unwrap().count, 3);
        assert!(t.histogram("missing").is_none());
        let p = t.find("partition").unwrap();
        assert_eq!(p.field("balance"), Some(&FieldValue::F64(1.02)));
        assert!(p.field("missing").is_none());
        assert!(t.find("missing").is_none());
        assert_eq!(t.span_count("partition"), 1);
        assert_eq!(t.span_count("missing"), 0);
    }

    #[test]
    fn total_seconds_sums_all_occurrences() {
        let rec = Recorder::new(ObsConfig::default());
        for _ in 0..3 {
            drop(rec.span("round"));
        }
        let t = rec.trace().map_seconds(|_| 1.5);
        assert_eq!(t.total_seconds("round"), 4.5);
        assert_eq!(t.span_count("round"), 3);
        assert_eq!(t.total_seconds("missing"), 0.0);
    }

    #[test]
    fn parse_inverts_to_json_string() {
        let t = sample_trace().map_seconds(|_| 0.25);
        let text = t.to_json_string();
        let back = Trace::parse(&text).expect("round-trip parse");
        assert_eq!(back, t, "Trace → JSON → Trace must be the identity");
        // and the re-dump is byte-identical (canonical forms all the way)
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn parse_accepts_empty_trace() {
        let t = Trace::parse(
            r#"{"version":2,"spans":[],"counters":{},"gauges":{},"histograms":{},"samples":[]}"#,
        )
        .unwrap();
        assert_eq!(t, Trace::default());
    }

    #[test]
    fn samples_round_trip_through_json() {
        let mut t = sample_trace().map_seconds(|_| 0.25);
        t.samples = vec![Sample {
            tick: 8,
            seconds: 0.5,
            counters: vec![("cps.virtual_edges".to_owned(), 40)],
            gauges: vec![("mem.peak_bytes".to_owned(), 512.0)],
            histograms: vec![(
                "train.epoch_loss".to_owned(),
                HistogramSummary {
                    count: 2,
                    sum: 2.5,
                    min: 0.5,
                    max: 2.0,
                    p50: 2.0,
                    p95: 2.0,
                },
            )],
        }];
        let text = t.to_json_string();
        let back = Trace::parse(&text).expect("round-trip parse");
        assert_eq!(back, t);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn parse_rejects_wrong_version_and_shape() {
        for (text, needle) in [
            ("[]", "version"),
            (
                r#"{"version":3,"spans":[],"counters":{},"gauges":{},"histograms":{},"samples":[]}"#,
                "version 3",
            ),
            (
                r#"{"version":1,"spans":[],"counters":{},"gauges":{},"histograms":{}}"#,
                "unsupported schema version 1",
            ),
            (
                r#"{"version":2,"spans":[],"counters":{},"gauges":{},"histograms":{}}"#,
                "samples",
            ),
            (
                r#"{"version":2,"spans":[],"counters":{},"gauges":{},"histograms":{},"samples":[{"seconds":0.0,"counters":{},"gauges":{},"histograms":{}}]}"#,
                "tick",
            ),
            (
                r#"{"version":2,"counters":{},"gauges":{},"histograms":{},"samples":[]}"#,
                "spans",
            ),
            (
                r#"{"version":2,"spans":[{"seconds":0.0,"fields":{},"children":[]}],"counters":{},"gauges":{},"histograms":{},"samples":[]}"#,
                "name",
            ),
            (
                r#"{"version":2,"spans":[],"counters":{"c":-1},"gauges":{},"histograms":{},"samples":[]}"#,
                "unsigned",
            ),
            (
                r#"{"version":2,"spans":[],"counters":{},"gauges":{"g":"x"},"histograms":{},"samples":[]}"#,
                "number",
            ),
            (
                r#"{"version":2,"spans":[],"counters":{},"gauges":{},"histograms":{"h":{"count":1}},"samples":[]}"#,
                "sum",
            ),
            ("{not json", "parse error"),
        ] {
            let err = Trace::parse(text).unwrap_err();
            assert!(err.contains(needle), "error {err:?} lacks {needle:?}");
        }
    }

    #[test]
    fn parse_ignores_unknown_extra_keys() {
        let t = Trace::parse(
            r#"{"version":2,"future":"stuff","spans":[],"counters":{},"gauges":{},"histograms":{},"samples":[]}"#,
        )
        .unwrap();
        assert_eq!(t, Trace::default());
    }

    #[test]
    fn self_seconds_excludes_children() {
        let t = sample_trace().map_seconds(|_| 0.25);
        let pipeline = t.find("pipeline").unwrap();
        // pipeline 0.25s with one 0.25s child → zero self time
        assert_eq!(pipeline.self_seconds(), 0.0);
        assert_eq!(t.find("partition").unwrap().self_seconds(), 0.25);
    }

    #[test]
    fn render_tree_is_indented() {
        let text = sample_trace().map_seconds(|_| 0.25).render_tree();
        assert!(text.contains("pipeline 0.2500s rounds=1 strategy=cps"));
        assert!(text.contains("\n  partition 0.2500s balance=1.02"));
        assert!(text.contains("counter cps.virtual_edges = 42"));
        assert!(text.contains("hist train.epoch_loss: count=3"));
    }
}
