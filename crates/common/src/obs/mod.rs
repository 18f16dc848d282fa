//! In-tree tracing & metrics — the measurement substrate (DESIGN.md §S0.5).
//!
//! The paper's entire evaluation is observability: Figure 4 decomposes
//! wall-clock into SENS/STNS/partition/training, Table 6 reports per-channel
//! peak memory, and Figure 5 ablates stages. This module provides the
//! telemetry those experiments run on, hermetically (zero dependencies,
//! like the rest of `largeea-common`):
//!
//! - **Spans** — hierarchical, wall-clock-timed regions with `key=value`
//!   fields, recorded into a thread-safe [`Recorder`] via RAII
//!   [`SpanGuard`]s. Nesting follows the per-thread call structure.
//! - **Metrics** — monotonic counters and last-write/max gauges.
//! - **Trace export** — [`Recorder::trace`] snapshots everything into a
//!   [`Trace`]: a JSON-serialisable span tree plus metric tables (using the
//!   `ToJson` machinery from [`crate::json`]).
//!
//! ## Enabled vs disabled
//!
//! A [`Recorder`] is either *enabled* (holds shared state, records spans
//! and metrics) or *disabled* ([`Recorder::disabled`] — a `None` handle).
//! Every instrumentation entry point early-returns on a disabled recorder
//! without reading the clock, so un-traced hot paths pay one branch and
//! nothing else. Instrumented library functions keep their original
//! signatures by delegating to a `_traced` variant with
//! `&Recorder::disabled()`.
//!
//! ## Verbosity
//!
//! Spans of every [`Level`] above `Off` are stored. One per-level gate,
//! [`ObsConfig::echo`], prints a live line to stderr for each span at or
//! below it as the span closes (default: [`Level::Off`]). The
//! `LARGEEA_LOG` env var sets it (`off` | `stage` | `detail` | `trace`) via
//! [`ObsConfig::from_env`]; `LARGEEA_LOG=stage` is how a run in progress is
//! watched.
//!
//! ```
//! use largeea_common::obs::{Level, ObsConfig, Recorder};
//!
//! let rec = Recorder::new(ObsConfig::default());
//! {
//!     let mut outer = rec.span("pipeline");
//!     outer.field("rounds", 1u64);
//!     let inner = rec.span_at(Level::Detail, "partition");
//!     inner.finish(); // explicit close
//! } // `outer` closes on drop
//! rec.add("cps.virtual_edges", 42);
//! let trace = rec.trace();
//! assert_eq!(trace.spans[0].name, "pipeline");
//! assert_eq!(trace.counter("cps.virtual_edges"), 42);
//! ```

mod trace;

pub use trace::{Trace, TraceSpan};

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// Span verbosity levels, coarse to fine.
///
/// Instrumentation sites pick the level that matches their granularity:
/// pipeline stages are `Stage`, sub-stage phases (one partition call, one
/// mini-batch) are `Detail`, per-iteration work (a training epoch, a
/// refinement pass, a similarity block) is `Trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing.
    Off,
    /// Pipeline stages (SENS, STNS, partition, training).
    Stage,
    /// Sub-stage phases: one partitioner invocation, one mini-batch.
    Detail,
    /// Innermost repetition: epochs, refinement passes, similarity blocks.
    Trace,
}

impl Level {
    /// Parses a level name as accepted by `LARGEEA_LOG`
    /// (case-insensitive: `off`/`0`, `stage`/`1`, `detail`/`2`,
    /// `trace`/`3`). Unknown strings parse as `None`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "0" => Some(Level::Off),
            "stage" | "1" => Some(Level::Stage),
            "detail" | "2" => Some(Level::Detail),
            "trace" | "3" => Some(Level::Trace),
            _ => None,
        }
    }

    /// [`Level::parse`] for environment input: an unknown value warns once
    /// to stderr (a typo'd `LARGEEA_LOG=verbose` should not silently
    /// swallow the echo the user asked for) and falls back to
    /// [`Level::Off`].
    pub fn parse_env(s: &str) -> Level {
        Level::parse(s).unwrap_or_else(|| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "[obs] warning: unknown LARGEEA_LOG value {s:?}; \
                     echo disabled (expected off|stage|detail|trace or 0|1|2|3)"
                );
            });
            Level::Off
        })
    }
}

/// Recorder configuration: what gets echoed live, and whether spans carry
/// heap attribution.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Spans at or below this level print one line to stderr on close.
    pub echo: Level,
    /// Attribute heap allocations to spans (`alloc.bytes` / `alloc.count`
    /// / `alloc.peak` fields). Off
    /// by default: the fields only carry meaning when
    /// [`crate::alloc::CountingAlloc`] is the process's global allocator,
    /// and always-on fields would perturb traces of processes without it.
    pub heap: bool,
}

impl Default for ObsConfig {
    /// Echo nothing — the right configuration for library use, where the
    /// caller inspects the [`Trace`] afterwards.
    fn default() -> Self {
        Self {
            echo: Level::Off,
            heap: false,
        }
    }
}

impl ObsConfig {
    /// The default configuration with the echo gate taken from the
    /// `LARGEEA_LOG` environment variable (`off` when unset; an invalid
    /// value warns once to stderr and disables the echo — see
    /// [`Level::parse_env`]), and heap attribution switched on when the
    /// instrumented allocator is installed in this process.
    pub fn from_env() -> Self {
        let echo = std::env::var("LARGEEA_LOG")
            .ok()
            .map_or(Level::Off, |v| Level::parse_env(&v));
        Self {
            echo,
            heap: crate::alloc::is_instrumented(),
        }
    }
}

/// One span field value. Constructed via `From` conversions so call sites
/// read `span.field("k", 5usize)`.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes, indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rates, losses, seconds).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (strategy names, labels).
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! field_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::U64(v as u64) }
        }
    )*};
}
field_from_uint!(u8, u16, u32, u64, usize);

macro_rules! field_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::I64(v as i64) }
        }
    )*};
}
field_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for FieldValue {
    fn from(v: f64) -> FieldValue {
        FieldValue::F64(v)
    }
}

impl From<f32> for FieldValue {
    fn from(v: f32) -> FieldValue {
        FieldValue::F64(v as f64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One recorded span in the recorder's arena.
#[derive(Debug)]
struct SpanData {
    name: String,
    level: Level,
    depth: usize,
    fields: Vec<(String, FieldValue)>,
    children: Vec<usize>,
    seconds: f64,
}

/// The recorder's mutable state, behind one mutex.
#[derive(Debug, Default)]
struct State {
    /// Arena of all recorded spans, in open order (= chronological).
    spans: Vec<SpanData>,
    /// Indices of top-level spans.
    roots: Vec<usize>,
    /// Per-thread stack of open span indices — nesting follows the call
    /// structure of the thread that opened the span.
    stacks: HashMap<ThreadId, Vec<usize>>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

/// Builds a [`Trace`] snapshot of `st`.
fn build_trace(st: &State) -> Trace {
    fn build(st: &State, idx: usize) -> TraceSpan {
        let s = &st.spans[idx];
        TraceSpan {
            name: s.name.clone(),
            seconds: s.seconds,
            fields: s.fields.clone(),
            children: s.children.iter().map(|&c| build(st, c)).collect(),
        }
    }
    Trace {
        spans: st.roots.iter().map(|&r| build(st, r)).collect(),
        counters: st.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        gauges: st.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
    }
}

#[derive(Debug)]
struct Inner {
    cfg: ObsConfig,
    state: Mutex<State>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        // A poisoned lock means a panic mid-record; the telemetry itself is
        // still structurally sound, so keep going.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Thread-safe telemetry sink: a span tree plus counters and gauges.
/// Cloning is cheap (an `Arc` handle); all clones feed the same
/// trace. See the [module docs](self) for the enabled/disabled contract.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// An enabled recorder with configuration `cfg`.
    pub fn new(cfg: ObsConfig) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                cfg,
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// An enabled recorder configured from the environment
    /// ([`ObsConfig::from_env`]).
    pub fn from_env() -> Recorder {
        Recorder::new(ObsConfig::from_env())
    }

    /// The no-op recorder: every operation early-returns without touching
    /// the clock. Construction is free (no allocation).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this recorder records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a [`Level::Stage`] span named `name`. See [`Recorder::span_at`].
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_at(Level::Stage, name)
    }

    /// Opens a span at `level` named `name`, timed from now until the
    /// returned guard is dropped or [`SpanGuard::finish`]ed. The span nests
    /// under the innermost span currently open *on this thread*. A
    /// [`Level::Off`] span is not recorded.
    pub fn span_at(&self, level: Level, name: &str) -> SpanGuard {
        let Some(inner) = self.inner.as_ref().filter(|_| level != Level::Off) else {
            return SpanGuard {
                open: None,
                heap: None,
            };
        };
        let idx = {
            let mut st = inner.lock();
            let idx = st.spans.len();
            let stack = st.stacks.entry(std::thread::current().id()).or_default();
            let parent = stack.last().copied();
            stack.push(idx);
            let depth = match parent {
                Some(p) => st.spans[p].depth + 1,
                None => 0,
            };
            st.spans.push(SpanData {
                name: name.to_owned(),
                level,
                depth,
                fields: Vec::new(),
                children: Vec::new(),
                seconds: 0.0,
            });
            match parent {
                Some(p) => st.spans[p].children.push(idx),
                None => st.roots.push(idx),
            }
            idx
        };
        // The heap window opens *after* the state lock above is released:
        // the span's own bookkeeping (arena push, stack entry) is recorder
        // overhead, not workload allocation, and stays outside the window.
        let heap = inner.cfg.heap.then(crate::alloc::span_open);
        SpanGuard {
            open: Some((Arc::clone(inner), idx, Instant::now())),
            heap,
        }
    }

    /// Adds `n` to the monotonic counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            *st.counters.entry(name.to_owned()).or_insert(0) += n;
        }
    }

    /// Sets the gauge `name` to `v` (last write wins).
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            st.gauges.insert(name.to_owned(), v);
        }
    }

    /// Raises the gauge `name` to `v` if `v` is larger (peak semantics —
    /// what `heap.peak` and `train.tape_bytes` are recorded with).
    pub fn gauge_max(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            let g = st
                .gauges
                .entry(name.to_owned())
                .or_insert(f64::NEG_INFINITY);
            if v > *g {
                *g = v;
            }
        }
    }

    /// Snapshots everything recorded so far into a [`Trace`]. Open spans
    /// appear with `seconds = 0.0`; root spans keep chronological order.
    pub fn trace(&self) -> Trace {
        let Some(inner) = &self.inner else {
            return Trace::default();
        };
        let st = inner.lock();
        build_trace(&st)
    }

    /// Whether heap attribution is on for this recorder (see
    /// [`ObsConfig::heap`]). `false` on a disabled recorder.
    pub fn heap_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.cfg.heap)
    }
}

/// RAII guard for an open span (see [`Recorder::span_at`]).
///
/// Dropping the guard closes the span with its elapsed wall-clock time;
/// [`SpanGuard::finish`] does the same at a point the caller names. The
/// seconds live in the trace only: callers read them back with
/// [`Trace::total_seconds`].
#[derive(Debug)]
pub struct SpanGuard {
    /// The recorder, the span's arena index and its start, while a recorded
    /// span is open; `None` once closed or when nothing records it.
    open: Option<(Arc<Inner>, usize, Instant)>,
    /// Open allocation window, present when [`ObsConfig::heap`] is set for
    /// a recorded span. Closed first thing in [`SpanGuard::close`] so the
    /// recorder's own close-path allocations never land in the span.
    heap: Option<crate::alloc::SpanAllocHandle>,
}

impl SpanGuard {
    /// Attaches a `key = value` field to the span. No-op on unrecorded
    /// spans.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some((inner, idx, _)) = &self.open {
            let mut st = inner.lock();
            st.spans[*idx].fields.push((key.to_owned(), value.into()));
        }
    }

    /// Closes the span now.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        // Close the allocation window before anything else on this path
        // allocates (field strings, echo lines): the delta must
        // cover the workload between open and close, nothing of ours.
        let alloc_delta = self.heap.take().and_then(crate::alloc::span_close);
        let Some((inner, idx, start)) = self.open.take() else {
            return;
        };
        let seconds = start.elapsed().as_secs_f64();
        let mut st = inner.lock();
        st.spans[idx].seconds = seconds;
        if let Some(d) = alloc_delta {
            let fields = &mut st.spans[idx].fields;
            fields.push(("alloc.bytes".to_owned(), FieldValue::U64(d.bytes)));
            fields.push(("alloc.count".to_owned(), FieldValue::U64(d.count)));
            fields.push(("alloc.peak".to_owned(), FieldValue::U64(d.peak_bytes)));
        }
        // Pop this span from its thread's open stack. Guards are
        // expected to close in LIFO order per thread; a guard moved
        // across threads or closed out of order is removed wherever it
        // sits so later spans still nest correctly.
        if let Some(stack) = st.stacks.get_mut(&std::thread::current().id()) {
            if stack.last() == Some(&idx) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&i| i == idx) {
                stack.remove(pos);
            }
        }
        let span = &st.spans[idx];
        if span.level <= inner.cfg.echo {
            let indent = "  ".repeat(span.depth);
            let mut line = format!("[obs] {indent}{} {seconds:.4}s", span.name);
            for (k, v) in &span.fields {
                line.push_str(&format!(" {k}={v}"));
            }
            eprintln!("{line}");
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let mut g = rec.span("nothing");
        g.field("k", 1u64);
        g.finish();
        rec.add("c", 5);
        rec.gauge("g", 1.0);
        let t = rec.trace();
        assert!(t.spans.is_empty());
        assert!(t.counters.is_empty());
    }

    #[test]
    fn spans_nest_by_call_structure() {
        let rec = Recorder::new(ObsConfig::default());
        {
            let _a = rec.span("a");
            {
                let _b = rec.span_at(Level::Detail, "b");
                let _c = rec.span_at(Level::Trace, "c");
            }
            let _d = rec.span_at(Level::Detail, "d");
        }
        let _e = rec.span("e");
        drop(_e);
        let t = rec.trace();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "a");
        assert_eq!(t.spans[0].children.len(), 2);
        assert_eq!(t.spans[0].children[0].name, "b");
        assert_eq!(t.spans[0].children[0].children[0].name, "c");
        assert_eq!(t.spans[0].children[1].name, "d");
        assert_eq!(t.spans[1].name, "e");
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let rec = Recorder::new(ObsConfig::default());
        rec.add("c", 2);
        rec.add("c", 3);
        rec.gauge("g", 7.0);
        rec.gauge("g", 4.0);
        rec.gauge_max("m", 10.0);
        rec.gauge_max("m", 6.0);
        let t = rec.trace();
        assert_eq!(t.counter("c"), 5);
        assert_eq!(t.gauge("g"), Some(4.0), "gauge is last-write");
        assert_eq!(t.gauge("m"), Some(10.0), "gauge_max keeps the peak");
    }

    #[test]
    fn clones_share_one_trace() {
        let rec = Recorder::new(ObsConfig::default());
        let clone = rec.clone();
        clone.add("shared", 1);
        drop(rec.span("from_original"));
        let t = clone.trace();
        assert_eq!(t.counter("shared"), 1);
        assert_eq!(t.spans[0].name, "from_original");
    }

    #[test]
    fn recording_is_thread_safe() {
        let rec = Recorder::new(ObsConfig::default());
        std::thread::scope(|s| {
            for i in 0..4 {
                let rec = rec.clone();
                s.spawn(move || {
                    let mut g = rec.span_at(Level::Trace, &format!("t{i}"));
                    g.field("i", i as u64);
                    rec.add("threads", 1);
                });
            }
        });
        let t = rec.trace();
        assert_eq!(t.counter("threads"), 4);
        // each thread had its own stack → four roots
        assert_eq!(t.spans.len(), 4);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("trace"), Some(Level::Trace));
        assert_eq!(Level::parse("STAGE"), Some(Level::Stage));
        assert_eq!(Level::parse("2"), Some(Level::Detail));
        assert_eq!(Level::parse("0"), Some(Level::Off));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Stage < Level::Detail && Level::Detail < Level::Trace);
    }

    #[test]
    fn heap_config_adds_alloc_fields_to_recorded_spans() {
        let rec = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        assert!(rec.heap_enabled());
        drop(rec.span("s"));
        let t = rec.trace();
        let names: Vec<&str> = t.spans[0].fields.iter().map(|(k, _)| k.as_str()).collect();
        // The window machinery runs even without the instrumented
        // allocator installed (this test binary doesn't install it) — the
        // fields are then present with zero values.
        assert_eq!(names, ["alloc.bytes", "alloc.count", "alloc.peak"]);
        for (_, v) in &t.spans[0].fields {
            assert!(matches!(v, FieldValue::U64(_)));
        }
    }

    #[test]
    fn heap_off_by_default_leaves_spans_unchanged() {
        let rec = Recorder::new(ObsConfig::default());
        assert!(!rec.heap_enabled());
        assert!(!Recorder::disabled().heap_enabled());
        drop(rec.span("s"));
        let t = rec.trace();
        assert!(
            t.spans[0].fields.is_empty(),
            "no alloc.* fields unless heap attribution is opted into"
        );
    }

    #[test]
    fn parse_env_falls_back_to_off_on_unknown_values() {
        // known values pass through…
        assert_eq!(Level::parse_env("detail"), Level::Detail);
        assert_eq!(Level::parse_env("3"), Level::Trace);
        // …unknown ones warn (once) and disable the echo instead of
        // silently ignoring the variable
        assert_eq!(Level::parse_env("verbose"), Level::Off);
        assert_eq!(Level::parse_env(""), Level::Off);
        assert_eq!(Level::parse_env("Trace!"), Level::Off);
    }
}
