//! The `largeea trace` subcommand family — analysis of `--trace-out` files.
//!
//! Everything here consumes the trace JSON the pipeline writes (schema v2;
//! DESIGN.md §S0.5, §S0.9) and answers perf questions offline:
//!
//! - `summarize <trace>` — wall-clock tree (total/self, same-name siblings
//!   aggregated) with its attribution coverage, metric tables sorted by
//!   name, and derived throughputs;
//! - `diff <a> <b>` — per-stage deltas sorted by regression size, with
//!   optional `--threshold-pct` exit-code gating for CI;
//! - `flame <trace>` — collapsed stacks (`a;b;c <self-µs>`), the folded
//!   format flamegraph tooling eats;
//! - `tail <dir>` — live view of a running `align --live-dir` job: polls
//!   `live.trace.json`, shows the open span path, round/batch progress
//!   with an ETA from `train.epochs_per_sec`, and sparklines over the
//!   sample ring (a trace with no ring — sampling was off — degrades to
//!   current gauge values without sparklines);
//! - `expo <trace>` — Prometheus-style text exposition of the metric
//!   tables (`largeea_common::obs::expo`);
//! - `heap <trace>` — the per-span allocation tree from the `alloc.*`
//!   fields heap attribution records (DESIGN.md §S0.10): cumulative/self
//!   bytes, allocation counts and peaks per span, a top-N table by self
//!   bytes, and `--folded` flamegraph stacks weighted by self bytes.

use crate::{parse_opt, parse_or, CliError, Flags};
use largeea::common::fmt_bytes;
use largeea::common::obs::{expo, Sample, Trace, TraceSpan};
use largeea::core::throughput::{attribution_coverage, derived_throughputs, filter_pass_pcts};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const TRACE_USAGE: &str = "largeea trace — analyse --trace-out JSON files

USAGE:
  largeea trace summarize <trace.json>
  largeea trace diff <a.json> <b.json> [--threshold-pct f] [--min-seconds f]
  largeea trace flame <trace.json>
  largeea trace tail <dir|live.trace.json> [--once] [--interval-ms n]
  largeea trace expo <trace.json>
  largeea trace heap <trace.json> [--top n] [--folded]

`diff` exits non-zero when --threshold-pct is given and any stage in <b>
regressed past it.

`tail` follows the live snapshot a run writes under `--live-dir`
(a directory argument means `<dir>/live.trace.json`). It repolls every
--interval-ms (default 500) until the run's root span closes; --once
prints a single status block and exits (non-zero if the snapshot is
missing or unparseable). `expo` renders the counters/gauges/histograms
of any trace file in Prometheus text exposition format.

`heap` renders the span-attributed allocation profile (alloc.bytes /
alloc.count / alloc.peak fields, written when the run's binary installs
the instrumented allocator): a tree with cumulative and self bytes, a
top-N table (--top, default 10) by self bytes, or --folded flamegraph
stacks weighted by self bytes. Exits non-zero when the trace carries no
allocation data.";

/// Entry point from `main` (args exclude the leading `trace`). Returns the
/// process exit code directly because `diff` encodes its verdict in it.
pub fn cmd_trace(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{TRACE_USAGE}");
            ExitCode::from(e.code())
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let (positionals, flags) = parse_mixed(args).map_err(CliError::Usage)?;
    let Some(sub) = positionals.first() else {
        return Err(CliError::Usage(
            "trace needs a subcommand (summarize|diff|flame|tail|expo|heap)".into(),
        ));
    };
    let file = |i: usize| -> Result<Trace, CliError> {
        let path = positionals
            .get(i)
            .ok_or_else(|| CliError::Usage(format!("{sub} needs a trace file argument")))?;
        Ok(load_trace(path)?)
    };
    match sub.as_str() {
        "summarize" => {
            summarize(&file(1)?);
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let threshold: Option<f64> = parse_opt(&flags, "threshold-pct")?;
            let min_seconds: f64 = parse_or(&flags, "min-seconds", 0.001)?;
            Ok(diff(&file(1)?, &file(2)?, threshold, min_seconds))
        }
        "flame" => {
            flame(&file(1)?);
            Ok(ExitCode::SUCCESS)
        }
        "tail" => {
            let target = positionals.get(1).ok_or_else(|| {
                CliError::Usage(
                    "tail needs a --live-dir directory (or live.trace.json path)".into(),
                )
            })?;
            let interval_ms: u64 = parse_or(&flags, "interval-ms", 500)?;
            Ok(tail(
                Path::new(target),
                flags.contains_key("once"),
                interval_ms,
            )?)
        }
        "expo" => {
            out!("{}", expo::render_text(&file(1)?));
            Ok(ExitCode::SUCCESS)
        }
        "heap" => {
            let top: usize = parse_or(&flags, "top", 10)?;
            Ok(heap(&file(1)?, top, flags.contains_key("folded")))
        }
        other => Err(CliError::Usage(format!(
            "unknown trace subcommand {other:?}"
        ))),
    }
}

/// Splits `args` into positionals and `--flag value` pairs (the trace
/// subcommands mix both, unlike the flag-only pipeline commands).
/// Boolean flags (`--once`) take no value and are stored as `"true"`.
fn parse_mixed(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    const BOOLEAN: &[&str] = &["once", "folded"];
    let mut positionals = Vec::new();
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            None => positionals.push(a.clone()),
            Some(name) if BOOLEAN.contains(&name) => {
                flags.insert(name.to_owned(), "true".to_owned());
            }
            Some(name) => {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_owned(), value.clone());
            }
        }
    }
    Ok((positionals, flags))
}

fn load_trace(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Trace::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

// --- summarize -----------------------------------------------------------

/// Same-name siblings folded into one row (50 `epoch` spans are one line).
struct Rollup<'a> {
    name: &'a str,
    total: f64,
    self_secs: f64,
    count: usize,
    children: Vec<&'a TraceSpan>,
}

fn rollup<'a>(spans: &[&'a TraceSpan]) -> Vec<Rollup<'a>> {
    let mut rows: Vec<Rollup> = Vec::new();
    for s in spans {
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.total += s.seconds;
                r.self_secs += s.self_seconds();
                r.count += 1;
                r.children.extend(s.children.iter());
            }
            None => rows.push(Rollup {
                name: &s.name,
                total: s.seconds,
                self_secs: s.self_seconds(),
                count: 1,
                children: s.children.iter().collect(),
            }),
        }
    }
    rows
}

fn print_rollup(spans: &[&TraceSpan], depth: usize, root_total: f64) {
    for r in rollup(spans) {
        let label = if r.count > 1 {
            format!("{}{} ×{}", "  ".repeat(depth), r.name, r.count)
        } else {
            format!("{}{}", "  ".repeat(depth), r.name)
        };
        outln!(
            "  {label:<38} {:>9.3}s {:>9.3}s {:>5.1}%",
            r.total,
            r.self_secs,
            if root_total > 0.0 {
                100.0 * r.total / root_total
            } else {
                0.0
            }
        );
        print_rollup(&r.children, depth + 1, root_total);
    }
}

fn summarize(trace: &Trace) {
    let roots: Vec<&TraceSpan> = trace.spans.iter().collect();
    let root_total: f64 = trace.spans.iter().map(|s| s.seconds).sum();
    outln!(
        "  {:<38} {:>10} {:>10} {:>6}",
        "span",
        "total",
        "self",
        "share"
    );
    print_rollup(&roots, 0, root_total);
    if let Some(cov) = attribution_coverage(trace) {
        let largest = cov.largest.as_ref().filter(|(_, secs)| *secs > 0.0);
        outln!(
            "\nattribution coverage: {:.1}% of {:.3}s is inside leaf spans{}",
            cov.pct(),
            cov.root_seconds,
            largest.map_or(String::new(), |(name, secs)| format!(
                "; of the {:.3}s that is parents' own, {secs:.3}s is `{name}`'s",
                cov.parent_self_seconds
            ))
        );
    }

    // The emitter writes these tables sorted, but parsed files preserve
    // their on-disk order — sort defensively so the report is
    // deterministic for any input (and golden-testable).
    if !trace.counters.is_empty() {
        outln!("\ncounters:");
        let mut counters = trace.counters.clone();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in &counters {
            outln!("  {name:<38} {v:>12}");
        }
    }
    if !trace.gauges.is_empty() {
        outln!("\ngauges:");
        let mut gauges = trace.gauges.clone();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in &gauges {
            outln!("  {name:<38} {v:>12.3}");
        }
    }
    if !trace.histograms.is_empty() {
        outln!("\nhistograms:");
        let mut histograms = trace.histograms.clone();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in &histograms {
            outln!(
                "  {name:<38} count {} sum {:.4} min {:.4} p50 {:.4} p95 {:.4} max {:.4}",
                h.count,
                h.sum,
                h.min,
                h.p50,
                h.p95,
                h.max
            );
        }
    }
    if !trace.samples.is_empty() {
        outln!(
            "\nlive samples: {} (last tick {})",
            trace.samples.len(),
            trace.samples.last().map_or(0, |s| s.tick)
        );
    }
    let rates = derived_throughputs(trace);
    if !rates.is_empty() {
        outln!("\nderived throughputs:");
        for t in rates {
            outln!(
                "  {:<38} {:>12.1} {}/s  ({} {} over {:.3}s)",
                t.name,
                t.per_sec,
                t.unit,
                (t.count * 1e3).round() / 1e3, // whole for counts, 3 places for MiB
                t.unit,
                t.seconds
            );
        }
    }
    let passes = filter_pass_pcts(trace);
    if !passes.is_empty() {
        outln!("\nderived ratios:");
        for (name, pct, refined, scanned) in passes {
            outln!("  {name:<38} {pct:>12.2} %  ({refined} of {scanned} pairs scored in f32)");
        }
    }
}

// --- diff ----------------------------------------------------------------

/// Per-name totals over the whole tree: `name → (seconds, span count)`.
fn aggregate(trace: &Trace) -> BTreeMap<String, (f64, usize)> {
    fn walk(spans: &[TraceSpan], into: &mut BTreeMap<String, (f64, usize)>) {
        for s in spans {
            let e = into.entry(s.name.clone()).or_insert((0.0, 0));
            e.0 += s.seconds;
            e.1 += 1;
            walk(&s.children, into);
        }
    }
    let mut m = BTreeMap::new();
    walk(&trace.spans, &mut m);
    m
}

fn diff(a: &Trace, b: &Trace, threshold_pct: Option<f64>, min_seconds: f64) -> ExitCode {
    let (agg_a, agg_b) = (aggregate(a), aggregate(b));
    let names: Vec<&String> = {
        let mut n: Vec<&String> = agg_a.keys().chain(agg_b.keys()).collect();
        n.sort();
        n.dedup();
        n
    };
    struct Row<'a> {
        name: &'a str,
        a: f64,
        b: f64,
        delta: f64,
    }
    let mut rows: Vec<Row> = names
        .into_iter()
        .map(|name| {
            let sa = agg_a.get(name).map_or(0.0, |v| v.0);
            let sb = agg_b.get(name).map_or(0.0, |v| v.0);
            Row {
                name,
                a: sa,
                b: sb,
                delta: sb - sa,
            }
        })
        .collect();
    rows.sort_by(|x, y| y.delta.abs().total_cmp(&x.delta.abs()));

    outln!(
        "  {:<28} {:>10} {:>10} {:>10} {:>8}",
        "span",
        "a",
        "b",
        "delta",
        "pct"
    );
    for r in &rows {
        let pct = if r.a > 0.0 {
            format!("{:>+7.1}%", 100.0 * r.delta / r.a)
        } else {
            "     new".to_owned()
        };
        outln!(
            "  {:<28} {:>9.3}s {:>9.3}s {:>+9.3}s {pct}",
            r.name,
            r.a,
            r.b,
            r.delta
        );
    }

    let mut counter_drift = false;
    for (name, vb) in &b.counters {
        let va = a.counter(name);
        if va != *vb {
            counter_drift = true;
            outln!(
                "  counter {name}: {va} → {vb} ({:+})",
                *vb as i128 - va as i128
            );
        }
    }
    for (name, va) in &a.counters {
        if !b.counters.iter().any(|(n, _)| n == name) {
            counter_drift = true;
            outln!("  counter {name}: {va} → absent");
        }
    }
    if counter_drift {
        outln!("  (counter drift means the computation changed, not just the clock)");
    }

    let Some(pct) = threshold_pct else {
        return ExitCode::SUCCESS;
    };
    let regressions: Vec<&Row> = rows
        .iter()
        .filter(|r| r.delta > min_seconds && (r.a == 0.0 || r.delta > r.a * pct / 100.0))
        .collect();
    if regressions.is_empty() {
        outln!("\nOK: no span regressed more than {pct}% (noise floor {min_seconds}s)");
        ExitCode::SUCCESS
    } else {
        outln!(
            "\nREGRESSION: {} span(s) past the {pct}% threshold:",
            regressions.len()
        );
        for r in &regressions {
            outln!("  {}: {:.3}s → {:.3}s ({:+.3}s)", r.name, r.a, r.b, r.delta);
        }
        ExitCode::FAILURE
    }
}

// --- flame ---------------------------------------------------------------

fn flame(trace: &Trace) {
    fn walk(spans: &[TraceSpan], prefix: &str, into: &mut BTreeMap<String, u64>) {
        for s in spans {
            let stack = if prefix.is_empty() {
                s.name.clone()
            } else {
                format!("{prefix};{}", s.name)
            };
            let micros = (s.self_seconds() * 1e6).round() as u64;
            *into.entry(stack.clone()).or_insert(0) += micros;
            walk(&s.children, &stack, into);
        }
    }
    let mut folded = BTreeMap::new();
    walk(&trace.spans, "", &mut folded);
    for (stack, micros) in folded {
        outln!("{stack} {micros}");
    }
}

// --- heap ----------------------------------------------------------------

/// Cumulative allocated bytes a span's attribution recorded (0 when the
/// run's binary had no instrumented allocator, so the field is absent).
fn span_alloc_bytes(s: &TraceSpan) -> u64 {
    s.field_u64("alloc.bytes").unwrap_or(0)
}

/// Bytes attributed to the span itself: cumulative minus what its direct
/// children account for, clamped at zero (a child window can outlive its
/// parent's arithmetic only through clock-free counting races we clamp
/// away rather than print as negative).
fn span_self_bytes(s: &TraceSpan) -> u64 {
    let children: u64 = s.children.iter().map(span_alloc_bytes).sum();
    span_alloc_bytes(s).saturating_sub(children)
}

/// Same-name siblings folded into one allocation row (mirrors [`Rollup`]
/// for wall clock): 50 `epoch` spans are one line with summed bytes and
/// the maximum peak.
struct HeapRow<'a> {
    name: &'a str,
    bytes: u64,
    self_bytes: u64,
    count: u64,
    peak: u64,
    spans: usize,
    children: Vec<&'a TraceSpan>,
}

fn heap_rollup<'a>(spans: &[&'a TraceSpan]) -> Vec<HeapRow<'a>> {
    let mut rows: Vec<HeapRow> = Vec::new();
    for s in spans {
        let bytes = span_alloc_bytes(s);
        let count = s.field_u64("alloc.count").unwrap_or(0);
        let peak = s.field_u64("alloc.peak").unwrap_or(0);
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.bytes += bytes;
                r.self_bytes += span_self_bytes(s);
                r.count += count;
                r.peak = r.peak.max(peak);
                r.spans += 1;
                r.children.extend(s.children.iter());
            }
            None => rows.push(HeapRow {
                name: &s.name,
                bytes,
                self_bytes: span_self_bytes(s),
                count,
                peak,
                spans: 1,
                children: s.children.iter().collect(),
            }),
        }
    }
    rows
}

fn print_heap_rollup(spans: &[&TraceSpan], depth: usize, root_total: u64) {
    for r in heap_rollup(spans) {
        let label = if r.spans > 1 {
            format!("{}{} ×{}", "  ".repeat(depth), r.name, r.spans)
        } else {
            format!("{}{}", "  ".repeat(depth), r.name)
        };
        outln!(
            "  {label:<38} {:>8} {:>8} {:>10} {:>8} {:>5.1}%",
            fmt_bytes(r.bytes as usize),
            fmt_bytes(r.self_bytes as usize),
            r.count,
            fmt_bytes(r.peak as usize),
            if root_total > 0 {
                100.0 * r.bytes as f64 / root_total as f64
            } else {
                0.0
            }
        );
        print_heap_rollup(&r.children, depth + 1, root_total);
    }
}

/// Per-name totals over the whole tree: `name → (self, cum, allocs, peak)`.
fn aggregate_heap(trace: &Trace) -> BTreeMap<String, (u64, u64, u64, u64)> {
    fn walk(spans: &[TraceSpan], into: &mut BTreeMap<String, (u64, u64, u64, u64)>) {
        for s in spans {
            let e = into.entry(s.name.clone()).or_insert((0, 0, 0, 0));
            e.0 += span_self_bytes(s);
            e.1 += span_alloc_bytes(s);
            e.2 += s.field_u64("alloc.count").unwrap_or(0);
            e.3 = e.3.max(s.field_u64("alloc.peak").unwrap_or(0));
            walk(&s.children, into);
        }
    }
    let mut m = BTreeMap::new();
    walk(&trace.spans, &mut m);
    m
}

fn heap(trace: &Trace, top: usize, folded: bool) -> ExitCode {
    fn has_alloc(spans: &[TraceSpan]) -> bool {
        spans
            .iter()
            .any(|s| s.field_u64("alloc.bytes").is_some() || has_alloc(&s.children))
    }
    if !has_alloc(&trace.spans) {
        eprintln!(
            "no allocation data: the trace carries no alloc.* span fields \
             (the run's binary did not install the instrumented allocator, \
             or heap attribution was disabled)"
        );
        return ExitCode::FAILURE;
    }

    if folded {
        // Collapsed stacks weighted by self bytes — same format `flame`
        // emits for wall clock, so the same flamegraph tooling applies.
        fn walk(spans: &[TraceSpan], prefix: &str, into: &mut BTreeMap<String, u64>) {
            for s in spans {
                let stack = if prefix.is_empty() {
                    s.name.clone()
                } else {
                    format!("{prefix};{}", s.name)
                };
                let bytes = span_self_bytes(s);
                if bytes > 0 {
                    *into.entry(stack.clone()).or_insert(0) += bytes;
                }
                walk(&s.children, &stack, into);
            }
        }
        let mut stacks = BTreeMap::new();
        walk(&trace.spans, "", &mut stacks);
        for (stack, bytes) in stacks {
            outln!("{stack} {bytes}");
        }
        return ExitCode::SUCCESS;
    }

    let roots: Vec<&TraceSpan> = trace.spans.iter().collect();
    let root_total: u64 = trace.spans.iter().map(span_alloc_bytes).sum();
    outln!(
        "  {:<38} {:>9} {:>9} {:>10} {:>8} {:>6}",
        "span",
        "cum",
        "self",
        "allocs",
        "peak",
        "share"
    );
    print_heap_rollup(&roots, 0, root_total);

    let mut rows: Vec<(String, (u64, u64, u64, u64))> = aggregate_heap(trace)
        .into_iter()
        .filter(|(_, v)| v.0 > 0)
        .collect();
    // Self bytes descending; name breaks ties so the table is
    // deterministic (and golden-testable) for any input.
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(top);
    if !rows.is_empty() {
        outln!("\ntop {} span(s) by self bytes:", rows.len());
        outln!(
            "  {:<38} {:>9} {:>9} {:>10} {:>8}",
            "span",
            "self",
            "cum",
            "allocs",
            "peak"
        );
        for (name, (self_b, cum, count, peak)) in &rows {
            outln!(
                "  {name:<38} {:>9} {:>9} {count:>10} {:>8}",
                fmt_bytes(*self_b as usize),
                fmt_bytes(*cum as usize),
                fmt_bytes(*peak as usize)
            );
        }
    }
    ExitCode::SUCCESS
}

// --- tail ----------------------------------------------------------------

/// Counter series shown as per-snapshot deltas in the tail view.
const TAIL_COUNTER_SERIES: &[&str] = &[
    "mem.spill.write_bytes",
    "mem.spill.read_bytes",
    "ckpt.write_bytes",
];
/// Memory gauges shown as sparklines: tracked bytes (MemTracker's books),
/// measured live heap (instrumented allocator), and OS RSS (linux only —
/// absent elsewhere). Tracked vs heap.live vs mem.rss side by side is the
/// quick visual drift check `--mem-audit` formalises.
const TAIL_GAUGE_SERIES: &[&str] = &["mem.tracked.bytes", "heap.live", "mem.rss"];
/// How many trailing samples a sparkline covers.
const TAIL_WINDOW: usize = 32;

fn tail(target: &Path, once: bool, interval_ms: u64) -> Result<ExitCode, String> {
    let path: PathBuf = if target.is_dir() {
        target.join("live.trace.json")
    } else {
        target.to_path_buf()
    };
    if once {
        let trace = load_trace(&path.to_string_lossy())?;
        out!("{}", render_tail(&trace, &path));
        return Ok(ExitCode::SUCCESS);
    }
    // Follow mode: snapshots are replaced atomically (temp → rename), so a
    // read either sees a complete document or the file missing for an
    // instant — both are retried, not fatal.
    let mut waiting_reported = false;
    loop {
        match load_trace(&path.to_string_lossy()) {
            Ok(trace) => {
                waiting_reported = false;
                out!("{}", render_tail(&trace, &path));
                // the run is over — or nobody is reading any more
                if open_span_path(&trace).is_none() || crate::out::closed() {
                    return Ok(ExitCode::SUCCESS);
                }
            }
            Err(e) => {
                if !waiting_reported {
                    eprintln!("waiting: {e}");
                    waiting_reported = true;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
    }
}

/// The chain of still-open spans (recorded with `seconds == 0.0` in a live
/// snapshot), deepest last: `pipeline > round > train`. `None` once every
/// span has closed — the run is over.
fn open_span_path(trace: &Trace) -> Option<Vec<&str>> {
    let mut path = Vec::new();
    let mut spans: &[TraceSpan] = &trace.spans;
    while let Some(open) = spans.iter().rev().find(|s| s.seconds == 0.0) {
        path.push(open.name.as_str());
        spans = &open.children;
    }
    if path.is_empty() {
        None
    } else {
        Some(path)
    }
}

/// One status block: header, open-span path, progress/ETA, sparklines.
fn render_tail(trace: &Trace, path: &Path) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let (tick, secs) = trace
        .samples
        .last()
        .map_or((0, 0.0), |s| (s.tick, s.seconds));
    let _ = writeln!(
        out,
        "{} — tick {tick}, {secs:.1}s, {} sample(s)",
        path.display(),
        trace.samples.len()
    );
    match open_span_path(trace) {
        Some(p) => {
            let _ = writeln!(out, "  open: {}", p.join(" > "));
        }
        None => {
            let _ = writeln!(out, "  run complete");
        }
    }
    let progress = progress_line(trace);
    if !progress.is_empty() {
        let _ = writeln!(out, "  {progress}");
    }
    if trace.samples.is_empty() {
        // Sampling was off: no ring to draw sparklines from — degrade to
        // the current gauge values.
        for name in TAIL_GAUGE_SERIES {
            if let Some(v) = trace.gauge(name).filter(|&v| v > 0.0) {
                let _ = writeln!(out, "  {name:<26} {}", fmt_bytes(v as usize));
            }
        }
        return out;
    }
    for name in TAIL_COUNTER_SERIES {
        let deltas = counter_deltas(&trace.samples, name);
        let total = trace.counter(name);
        if total > 0 && !deltas.is_empty() {
            let _ = writeln!(out, "  Δ {name:<24} {} (total {total})", sparkline(&deltas));
        }
    }
    for name in TAIL_GAUGE_SERIES {
        let series = gauge_series(&trace.samples, name);
        if series.iter().any(|&v| v > 0.0) {
            let _ = writeln!(
                out,
                "  {name:<26} {} (last {})",
                sparkline(&series),
                fmt_bytes(series.last().copied().unwrap_or(0.0) as usize)
            );
        }
    }
    out
}

/// Round/batch/epoch progress from the `progress.*` gauges, with an ETA
/// from `train.epochs_per_sec` when the throughput is derivable (it is not
/// during the first round — the open `train` span has no duration yet, so
/// the wall clock of the latest sample stands in).
fn progress_line(trace: &Trace) -> String {
    let g = |n: &str| trace.gauge(n).unwrap_or(0.0);
    let mut parts = Vec::new();
    if g("progress.rounds_total") > 0.0 {
        parts.push(format!(
            "round {:.0}/{:.0}",
            g("progress.round"),
            g("progress.rounds_total")
        ));
    }
    if g("progress.batches_total") > 0.0 {
        parts.push(format!(
            "batch {:.0}/{:.0}",
            g("progress.batch"),
            g("progress.batches_total")
        ));
    }
    let expected =
        g("progress.rounds_total") * g("progress.batches_total") * g("progress.epochs_total");
    if expected > 0.0 {
        let done = trace.span_count("epoch") as f64;
        parts.push(format!(
            "epochs {done:.0}/{expected:.0} ({:.1}%)",
            100.0 * done / expected
        ));
        let rate = derived_throughputs(trace)
            .iter()
            .find(|t| t.name == "train.epochs_per_sec")
            .map(|t| t.per_sec)
            .or_else(|| {
                trace
                    .samples
                    .last()
                    .filter(|s| s.seconds > 0.0)
                    .map(|s| done / s.seconds)
            })
            .filter(|r| r.is_finite() && *r > 0.0);
        if let Some(rate) = rate {
            if done < expected {
                parts.push(format!("ETA {:.1}s", (expected - done) / rate));
            }
        }
    }
    parts.join("  ")
}

/// Per-snapshot increments of a counter over the trailing window
/// (counters are monotone, so consecutive differences are the activity
/// between snapshots). Needs at least two samples.
fn counter_deltas(samples: &[Sample], name: &str) -> Vec<f64> {
    let tail = &samples[samples.len().saturating_sub(TAIL_WINDOW + 1)..];
    tail.windows(2)
        .map(|w| w[1].counter(name).saturating_sub(w[0].counter(name)) as f64)
        .collect()
}

/// A gauge's raw values over the trailing window (absent → 0.0 so the
/// series keeps one slot per sample).
fn gauge_series(samples: &[Sample], name: &str) -> Vec<f64> {
    let tail = &samples[samples.len().saturating_sub(TAIL_WINDOW)..];
    tail.iter().map(|s| s.gauge(name).unwrap_or(0.0)).collect()
}

/// One block character per value, scaled to the window maximum; an
/// all-zero (or empty) window renders as a flat baseline.
fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().fold(0.0f64, |m, &v| m.max(v));
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BLOCKS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BLOCKS[idx.clamp(1, 7)]
            }
        })
        .collect()
}
