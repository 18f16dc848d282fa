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
//! - **Metrics** — monotonic counters, last-write/max gauges, and
//!   fixed-bucket [`Histogram`]s with `p50`/`p95`/`max` summaries.
//! - **Trace export** — [`Recorder::trace`] snapshots everything into a
//!   [`Trace`]: a JSON-serialisable span tree plus metric tables (using the
//!   `ToJson` machinery from [`crate::json`]) and a human-readable tree
//!   printer.
//! - **Live telemetry** (DESIGN.md §S0.9) — [`Recorder::enable_live`] turns
//!   on a tick-driven sampler: every recorded span exit (and every explicit
//!   [`Recorder::live_tick`]) advances a tick counter, every
//!   [`LiveConfig::every`]-th tick captures a [`Sample`] of the metric
//!   tables into a bounded [`SampleRing`], and — when a snapshot directory
//!   is configured — atomically rewrites `<dir>/live.trace.json` with the
//!   partial trace so a long run can be watched mid-flight
//!   (`largeea trace tail`). Deterministic by tick-count, not wall-clock;
//!   no extra threads.
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
//! Two independent gates, both per-[`Level`] ([`ObsConfig`]):
//!
//! - `record` — spans *above* this level are timed but not stored
//!   (default: [`Level::Trace`], i.e. store everything);
//! - `echo` — spans at or below this level print a live line to stderr when
//!   they close (default: [`Level::Off`]). The `LARGEEA_LOG` env var sets
//!   this gate (`off` | `stage` | `detail` | `trace`) via
//!   [`ObsConfig::from_env`].
//!
//! ```
//! use largeea_common::obs::{Level, ObsConfig, Recorder};
//!
//! let rec = Recorder::new(ObsConfig::default());
//! {
//!     let mut outer = rec.span("pipeline");
//!     outer.field("rounds", 1u64);
//!     let inner = rec.span_at(Level::Detail, "partition");
//!     let seconds = inner.finish(); // explicit finish returns elapsed
//!     assert!(seconds >= 0.0);
//! } // `outer` closes on drop
//! rec.add("cps.virtual_edges", 42);
//! rec.observe("train.epoch_loss", 0.5);
//! let trace = rec.trace();
//! assert_eq!(trace.spans[0].name, "pipeline");
//! assert_eq!(trace.counter("cps.virtual_edges"), 42);
//! ```

pub mod expo;
mod metrics;
mod sample;
mod trace;

pub use metrics::{Histogram, HistogramSummary};
pub use sample::{Sample, SampleRing};
pub use trace::{Trace, TraceSpan};

use crate::json::ToJson;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
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

/// Recorder configuration: what gets stored and what gets echoed live.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Spans above this level are timed but not stored in the trace.
    pub record: Level,
    /// Spans at or below this level print one line to stderr on close.
    pub echo: Level,
    /// Attribute heap allocations to spans (`alloc.bytes` / `alloc.count`
    /// / `alloc.peak` fields, `heap.*` and `mem.rss` sample gauges). Off
    /// by default: the fields only carry meaning when
    /// [`crate::alloc::CountingAlloc`] is the process's global allocator,
    /// and always-on fields would perturb traces of processes without it.
    pub heap: bool,
}

impl Default for ObsConfig {
    /// Record everything, echo nothing — the right configuration for
    /// library use, where the caller inspects the [`Trace`] afterwards.
    fn default() -> Self {
        Self {
            record: Level::Trace,
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
            ..Self::default()
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

/// Live-telemetry sampler configuration (see [`Recorder::enable_live`]).
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Capture one [`Sample`] every `every` sampler ticks (a tick is one
    /// recorded span exit or one explicit [`Recorder::live_tick`]).
    /// Clamped to a minimum of 1.
    pub every: u64,
    /// Maximum samples retained in the ring (oldest evicted first).
    pub capacity: usize,
    /// When set, every captured sample also rewrites
    /// `<dir>/live.trace.json` via an atomic temp→fsync→rename
    /// ([`crate::fsio::write_atomic`]), so the file is always either the
    /// previous snapshot or the new one — never torn.
    pub dir: Option<PathBuf>,
}

impl Default for LiveConfig {
    /// Sample every 32 ticks, keep the newest 64 samples, no snapshots.
    fn default() -> Self {
        Self {
            every: 32,
            capacity: 64,
            dir: None,
        }
    }
}

/// Sampler state, live only after [`Recorder::enable_live`].
#[derive(Debug)]
struct LiveState {
    cfg: LiveConfig,
    /// Ticks seen so far (recorded span exits + explicit ticks).
    ticks: u64,
    ring: SampleRing,
    /// When sampling was enabled — the origin of sample `seconds`.
    origin: Instant,
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
    histograms: BTreeMap<String, Histogram>,
    live: Option<LiveState>,
}

/// Builds a [`Trace`] snapshot of `st` — shared by [`Recorder::trace`] and
/// the live snapshot writer so both produce the identical document.
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
        histograms: st
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect(),
        samples: st.live.as_ref().map_or_else(Vec::new, |l| l.ring.to_vec()),
    }
}

/// Advances the sampler by one tick (no-op when live telemetry is off).
/// `heap` mirrors [`ObsConfig::heap`]: when set, due samples also capture
/// the allocator gauges.
fn live_tick_locked(st: &mut State, heap: bool) {
    let Some(live) = &mut st.live else { return };
    live.ticks += 1;
    let due = live.ticks % live.cfg.every.max(1) == 0;
    if due {
        sample_and_snapshot(st, heap);
    }
}

/// Captures one sample at the current tick and, when a snapshot directory
/// is configured, rewrites `live.trace.json` atomically.
///
/// The `live.writes` counter is incremented *before* the sample and trace
/// are built, so every written snapshot's counters already account for its
/// own write — that is what makes the final flushed snapshot's counters
/// exactly equal the end-of-run trace. A failed write is rolled back and
/// surfaced as `live.write_errors` instead.
fn sample_and_snapshot(st: &mut State, heap: bool) {
    let Some(live) = &st.live else { return };
    let snapshot_path = live.cfg.dir.as_ref().map(|d| d.join("live.trace.json"));
    if heap {
        // Heap gauges refresh per sample so the ring shows residency over
        // time ("heap.*" columns — additive, readers that don't know them
        // skip them). They are sampled state, not run outputs: the determinism
        // comparison in tests strips them (`Sample::deterministic_view`).
        st.gauges
            .insert("heap.live".to_owned(), crate::alloc::heap_live() as f64);
        st.gauges
            .insert("heap.peak".to_owned(), crate::alloc::heap_peak() as f64);
        if let Some(rss) = crate::alloc::process_rss_bytes() {
            st.gauges.insert("mem.rss".to_owned(), rss as f64);
        }
    }
    if snapshot_path.is_some() {
        *st.counters.entry("live.writes".to_owned()).or_insert(0) += 1;
    }
    let (tick, seconds) = {
        let live = st.live.as_ref().expect("checked above");
        (live.ticks, live.origin.elapsed().as_secs_f64())
    };
    let sample = Sample {
        tick,
        seconds,
        counters: st.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        gauges: st.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        histograms: st
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect(),
    };
    if let Some(live) = &mut st.live {
        live.ring.push(sample);
    }
    if let Some(path) = snapshot_path {
        let text = build_trace(st).to_json_string();
        if crate::fsio::write_atomic(&path, text.as_bytes(), "live.write").is_err() {
            if let Some(c) = st.counters.get_mut("live.writes") {
                *c = c.saturating_sub(1);
            }
            *st.counters
                .entry("live.write_errors".to_owned())
                .or_insert(0) += 1;
        }
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

/// Thread-safe telemetry sink: a span tree plus counters, gauges and
/// histograms. Cloning is cheap (an `Arc` handle); all clones feed the same
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
    /// under the innermost span currently open *on this thread*. Spans
    /// above the configured `record` level are timed but not stored.
    pub fn span_at(&self, level: Level, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                idx: None,
                start: None,
                finished: false,
                heap: None,
            };
        };
        let idx = if level != Level::Off && level <= inner.cfg.record {
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
            Some(idx)
        } else {
            None
        };
        // The heap window opens *after* the state lock above is released:
        // the span's own bookkeeping (arena push, stack entry) is recorder
        // overhead, not workload allocation, and stays outside the window.
        let heap = if idx.is_some() && inner.cfg.heap {
            Some(crate::alloc::span_open())
        } else {
            None
        };
        SpanGuard {
            inner: Some(Arc::clone(inner)),
            idx,
            start: Some(Instant::now()),
            finished: false,
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
    /// what byte-accounting trackers fold their per-label peaks in with).
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

    /// Records observation `v` into the histogram `name`.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            st.histograms.entry(name.to_owned()).or_default().observe(v);
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

    /// Turns on live telemetry (see the [module docs](self)): from now on
    /// every recorded span exit and every explicit [`Recorder::live_tick`]
    /// advances the sampler, capturing a [`Sample`] each
    /// [`LiveConfig::every`] ticks and — when [`LiveConfig::dir`] is set —
    /// atomically rewriting `<dir>/live.trace.json`. Calling again resets
    /// the tick counter and ring. No-op on a disabled recorder.
    pub fn enable_live(&self, cfg: LiveConfig) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            st.live = Some(LiveState {
                ring: SampleRing::new(cfg.capacity),
                cfg,
                ticks: 0,
                origin: Instant::now(),
            });
        }
    }

    /// Advances the sampler by one explicit tick. Pipeline stages call this
    /// at natural boundaries (end of a mini-batch, end of a bootstrap
    /// round) right after refreshing progress gauges, so those values are
    /// eligible for the next sample. No-op unless live telemetry is on.
    pub fn live_tick(&self) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            live_tick_locked(&mut st, inner.cfg.heap);
        }
    }

    /// Whether heap attribution is on for this recorder (see
    /// [`ObsConfig::heap`]). `false` on a disabled recorder.
    pub fn heap_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.cfg.heap)
    }

    /// The samples captured so far, oldest first (empty unless live
    /// telemetry is on).
    pub fn samples(&self) -> Vec<Sample> {
        match &self.inner {
            Some(inner) => inner
                .lock()
                .live
                .as_ref()
                .map_or_else(Vec::new, |l| l.ring.to_vec()),
            None => Vec::new(),
        }
    }

    /// Forces a final sample + snapshot regardless of cadence. Call at the
    /// very end of a run, after the last metric is recorded and before
    /// [`Recorder::trace`]: nothing records in between, so the flushed
    /// `live.trace.json` is byte-identical to the final trace export.
    /// No-op unless live telemetry is on.
    pub fn flush_live(&self) {
        if let Some(inner) = &self.inner {
            let mut st = inner.lock();
            let Some(live) = &mut st.live else { return };
            live.ticks += 1;
            sample_and_snapshot(&mut st, inner.cfg.heap);
        }
    }
}

/// RAII guard for an open span (see [`Recorder::span_at`]).
///
/// Dropping the guard closes the span with its elapsed wall-clock time;
/// [`SpanGuard::finish`] does the same but hands the elapsed seconds back —
/// that returned value is bit-identical to the one stored in the trace,
/// which is how pipeline reports stay a single source of truth with their
/// trace.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    idx: Option<usize>,
    start: Option<Instant>,
    finished: bool,
    /// Open allocation window, present when [`ObsConfig::heap`] is set for
    /// a recorded span. Closed first thing in [`SpanGuard::close`] so the
    /// recorder's own close-path allocations never land in the span.
    heap: Option<crate::alloc::SpanAllocHandle>,
}

impl SpanGuard {
    /// Attaches a `key = value` field to the span. No-op on unrecorded
    /// spans.
    pub fn field(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let (Some(inner), Some(idx)) = (&self.inner, self.idx) {
            let mut st = inner.lock();
            st.spans[idx].fields.push((key.to_owned(), value.into()));
        }
    }

    /// Closes the span now and returns its elapsed seconds (`0.0` when the
    /// recorder is disabled).
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        if self.finished {
            return 0.0;
        }
        self.finished = true;
        // Close the allocation window before anything else on this path
        // allocates (field strings, echo lines, samples): the delta must
        // cover the workload between open and close, nothing of ours.
        let alloc_delta = self.heap.take().and_then(crate::alloc::span_close);
        let Some(start) = self.start else {
            return 0.0;
        };
        let seconds = start.elapsed().as_secs_f64();
        if let (Some(inner), Some(idx)) = (&self.inner, self.idx) {
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
            // Every recorded span exit is one sampler tick — the live
            // telemetry clock (deterministic for a fixed seed, unlike
            // wall-time).
            live_tick_locked(&mut st, inner.cfg.heap);
        }
        seconds
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
        assert_eq!(g.finish(), 0.0);
        rec.add("c", 5);
        rec.gauge("g", 1.0);
        rec.observe("h", 1.0);
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
    fn finish_returns_the_recorded_seconds() {
        let rec = Recorder::new(ObsConfig::default());
        let g = rec.span("timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = g.finish();
        let t = rec.trace();
        assert_eq!(t.spans[0].seconds, secs, "stored == returned, bitwise");
        assert!(secs > 0.0);
    }

    #[test]
    fn record_gate_skips_fine_spans_but_keeps_timing() {
        let cfg = ObsConfig {
            record: Level::Stage,
            echo: Level::Off,
            ..ObsConfig::default()
        };
        let rec = Recorder::new(cfg);
        let _a = rec.span("kept");
        let skipped = rec.span_at(Level::Detail, "skipped");
        assert!(skipped.finish() >= 0.0);
        drop(_a);
        let t = rec.trace();
        assert_eq!(t.spans.len(), 1);
        assert!(t.spans[0].children.is_empty());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let rec = Recorder::new(ObsConfig::default());
        rec.add("c", 2);
        rec.add("c", 3);
        rec.gauge("g", 7.0);
        rec.gauge("g", 4.0);
        rec.gauge_max("m", 10.0);
        rec.gauge_max("m", 6.0);
        for v in [1.0, 2.0, 4.0] {
            rec.observe("h", v);
        }
        let t = rec.trace();
        assert_eq!(t.counter("c"), 5);
        assert_eq!(t.gauge("g"), Some(4.0), "gauge is last-write");
        assert_eq!(t.gauge("m"), Some(10.0), "gauge_max keeps the peak");
        let (_, h) = t.histograms.iter().find(|(k, _)| k == "h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 7.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 4.0);
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
    fn live_sampler_ticks_on_recorded_span_exits() {
        let rec = Recorder::new(ObsConfig::default());
        rec.enable_live(LiveConfig {
            every: 2,
            capacity: 8,
            dir: None,
        });
        for _ in 0..6 {
            rec.add("c", 1);
            drop(rec.span("s"));
        }
        let samples = rec.samples();
        let ticks: Vec<u64> = samples.iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![2, 4, 6], "every 2nd span exit samples");
        assert_eq!(samples[0].counter("c"), 2, "counter value as of tick 2");
        assert_eq!(samples[2].counter("c"), 6);
        // without snapshots there is no live.writes counter
        assert_eq!(rec.trace().counter("live.writes"), 0);
    }

    #[test]
    fn live_ring_is_bounded_and_explicit_ticks_count() {
        let rec = Recorder::new(ObsConfig::default());
        rec.enable_live(LiveConfig {
            every: 1,
            capacity: 3,
            dir: None,
        });
        for _ in 0..5 {
            rec.live_tick();
        }
        let ticks: Vec<u64> = rec.samples().iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![3, 4, 5], "ring keeps the newest 3");
    }

    #[test]
    fn flush_live_forces_a_final_sample_into_the_trace() {
        let rec = Recorder::new(ObsConfig::default());
        rec.enable_live(LiveConfig {
            every: 1000,
            capacity: 8,
            dir: None,
        });
        drop(rec.span("s"));
        assert!(rec.samples().is_empty(), "cadence 1000 never fires");
        rec.flush_live();
        let t = rec.trace();
        assert_eq!(t.samples.len(), 1, "flush forces one sample");
        assert_eq!(t.samples[0].tick, 2, "span exit + flush = 2 ticks");
    }

    #[test]
    fn live_snapshots_are_written_and_self_consistent() {
        let dir = std::env::temp_dir().join(format!("largeea_obs_live_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Recorder::new(ObsConfig::default());
        rec.enable_live(LiveConfig {
            every: 1,
            capacity: 8,
            dir: Some(dir.clone()),
        });
        rec.add("c", 5);
        drop(rec.span("s"));
        let path = dir.join("live.trace.json");
        let mid = Trace::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(mid.counter("c"), 5);
        assert_eq!(
            mid.counter("live.writes"),
            1,
            "snapshot accounts for its own write"
        );
        rec.add("c", 1);
        rec.flush_live();
        let fin = std::fs::read_to_string(&path).unwrap();
        let final_trace = rec.trace();
        assert_eq!(
            fin,
            final_trace.to_json_string(),
            "flushed snapshot is byte-identical to the final trace"
        );
        assert_eq!(final_trace.counter("live.writes"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_recorder_ignores_live_calls() {
        let rec = Recorder::disabled();
        rec.enable_live(LiveConfig::default());
        rec.live_tick();
        rec.flush_live();
        assert!(rec.samples().is_empty());
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
        // fields are then present with zero values, which is exactly what
        // `--mem-audit`'s Uninstrumented probe distinguishes.
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
    fn heap_sampler_gauges_appear_only_when_enabled() {
        let with_heap = Recorder::new(ObsConfig {
            heap: true,
            ..ObsConfig::default()
        });
        with_heap.enable_live(LiveConfig {
            every: 1,
            capacity: 4,
            dir: None,
        });
        with_heap.live_tick();
        let s = &with_heap.samples()[0];
        assert!(s.gauge("heap.live").is_some());
        assert!(s.gauge("heap.peak").is_some());
        if cfg!(target_os = "linux") {
            assert!(s.gauge("mem.rss").is_some(), "RSS sampled on linux");
        }

        let without = Recorder::new(ObsConfig::default());
        without.enable_live(LiveConfig {
            every: 1,
            capacity: 4,
            dir: None,
        });
        without.live_tick();
        let s = &without.samples()[0];
        assert!(s.gauge("heap.live").is_none());
        assert!(s.gauge("mem.rss").is_none());
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
