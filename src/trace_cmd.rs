//! The `largeea trace` subcommand family — analysis of `--trace-out` files.
//!
//! Everything here consumes the trace JSON the pipeline writes (schema v2;
//! DESIGN.md §S0.5) and answers perf questions offline:
//!
//! - `summarize <trace>` — wall-clock tree (total/self, same-name siblings
//!   aggregated) with its attribution coverage, metric tables sorted by
//!   name, and derived throughputs;
//! - `diff <a> <b>` — per-stage deltas sorted by regression size, with
//!   optional `--threshold-pct` exit-code gating for CI;
//! - `heap <trace>` — the same tree over the `alloc.*` fields heap
//!   attribution records: cumulative/self bytes, allocation counts and
//!   peaks per span, and a top-N table by self bytes.
//!
//! A run in progress is watched with `LARGEEA_LOG=stage` (each stage echoes
//! a line to stderr as it closes) and, for a checkpointed run, `largeea
//! ckpt inspect`; these commands read finished traces only.
//!
//! Time and bytes are columns of the same folds: [`rollup`] feeds both
//! trees, and [`by_name`] feeds `diff` and the top-N table.

use crate::{bad_value, parse_opt, parse_or, CliError, Flags};
use largeea::common::fmt_bytes;
use largeea::common::obs::{Trace, TraceSpan};
use largeea::core::throughput::{attribution_coverage, derived_throughputs, filter_pass_pcts};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

const TRACE_USAGE: &str = "largeea trace — analyse --trace-out JSON files

USAGE:
  largeea trace summarize <trace.json>
  largeea trace diff <a.json> <b.json> [--threshold-pct f] [--min-seconds f]
  largeea trace heap <trace.json> [--top n]

Each subcommand takes only the flags shown for it.

`diff` exits non-zero when --threshold-pct is given and any stage in <b>
regressed past it.

`heap` renders the span-attributed allocation profile (alloc.bytes /
alloc.count / alloc.peak fields, written when the run's binary installs
the instrumented allocator): a tree with cumulative and self bytes, a
top-N table (--top, default 10) by self bytes. Exits non-zero when the
trace carries no allocation data.";

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
            "trace needs a subcommand (summarize|diff|heap)".into(),
        ));
    };
    // Checked before any file is read: a mistyped `diff` gate must fail,
    // not exit 0 without ever gating.
    let takes = |allowed: &[&str]| match flags
        .keys()
        .filter(|k| !allowed.contains(&k.as_str()))
        .min()
    {
        Some(name) => Err(CliError::Usage(format!(
            "unknown flag --{name} for trace {sub}"
        ))),
        None => Ok(()),
    };
    let file = |i: usize| -> Result<Trace, CliError> {
        let path = positionals
            .get(i)
            .ok_or_else(|| CliError::Usage(format!("{sub} needs a trace file argument")))?;
        Ok(load_trace(path)?)
    };
    match sub.as_str() {
        "summarize" => {
            takes(&[])?;
            summarize(&file(1)?);
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            takes(&["threshold-pct", "min-seconds"])?;
            // NaN and ±∞ compare false against every delta, so such a gate
            // could never fire, and a negative one means nothing: refused
            let gate = |name: &str| -> Result<Option<f64>, CliError> {
                match parse_opt::<f64>(&flags, name)? {
                    Some(v) if !(v.is_finite() && v >= 0.0) => {
                        Err(bad_value(name, &flags[name], "a finite number ≥ 0"))
                    }
                    v => Ok(v),
                }
            };
            let threshold = gate("threshold-pct")?;
            let min_seconds = gate("min-seconds")?.unwrap_or(0.001);
            Ok(diff(&file(1)?, &file(2)?, threshold, min_seconds))
        }
        "heap" => {
            takes(&["top"])?;
            let top: usize = parse_or(&flags, "top", 10)?;
            Ok(heap(&file(1)?, top))
        }
        other => Err(CliError::Usage(format!(
            "unknown trace subcommand {other:?}"
        ))),
    }
}

/// Splits `args` into positionals and `--flag value` pairs (the trace
/// subcommands mix both, unlike the flag-only pipeline commands).
fn parse_mixed(args: &[String]) -> Result<(Vec<String>, Flags), String> {
    let mut positionals = Vec::new();
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            None => positionals.push(a.clone()),
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

// --- folds ---------------------------------------------------------------

/// What a fold keeps for a set of spans: wall clock, span count and
/// allocation traffic summed, the allocation peak maxed. `summarize` and
/// `diff` read the time columns, `heap` the byte columns.
#[derive(Default)]
struct Totals {
    seconds: f64,
    self_seconds: f64,
    spans: usize,
    bytes: u64,
    self_bytes: u64,
    allocs: u64,
    peak: u64,
}

impl Totals {
    fn add(&mut self, s: &TraceSpan) {
        // absent when the run's binary had no instrumented allocator
        let field = |key| s.field_u64(key).unwrap_or(0);
        self.seconds += s.seconds;
        self.self_seconds += s.self_seconds();
        self.spans += 1;
        self.bytes += field("alloc.bytes");
        self.self_bytes += s.self_bytes();
        self.allocs += field("alloc.count");
        self.peak = self.peak.max(field("alloc.peak"));
    }
}

/// Same-name siblings folded into one row (50 `epoch` spans are one line).
struct Rollup<'a> {
    name: &'a str,
    totals: Totals,
    /// Every folded span's children, rolled up again one level down.
    children: Vec<&'a TraceSpan>,
}

/// Rolls `spans` up by name, rows in first-seen order.
fn rollup<'a>(spans: &[&'a TraceSpan]) -> Vec<Rollup<'a>> {
    let mut rows: Vec<Rollup> = Vec::new();
    for &s in spans {
        let i = match rows.iter().position(|r| r.name == s.name) {
            Some(i) => i,
            None => {
                rows.push(Rollup {
                    name: &s.name,
                    totals: Totals::default(),
                    children: Vec::new(),
                });
                rows.len() - 1
            }
        };
        rows[i].totals.add(s);
        rows[i].children.extend(&s.children);
    }
    rows
}

/// Prints the rollup of `spans` as an indented tree: the label column,
/// then the columns `row` formats from each row's totals.
fn print_tree(spans: &[&TraceSpan], depth: usize, row: &dyn Fn(&Totals) -> String) {
    for r in rollup(spans) {
        let indent = "  ".repeat(depth);
        let label = match r.totals.spans {
            1 => format!("{indent}{}", r.name),
            n => format!("{indent}{} ×{n}", r.name),
        };
        outln!("  {label:<38} {}", row(&r.totals));
        print_tree(&r.children, depth + 1, row);
    }
}

/// Totals per span name over the whole tree, sorted by name.
fn by_name(trace: &Trace) -> BTreeMap<&str, Totals> {
    fn walk<'a>(spans: &'a [TraceSpan], into: &mut BTreeMap<&'a str, Totals>) {
        for s in spans {
            into.entry(s.name.as_str()).or_default().add(s);
            walk(&s.children, into);
        }
    }
    let mut m = BTreeMap::new();
    walk(&trace.spans, &mut m);
    m
}

/// `part` as a percentage of `whole`, 0 when there is no whole.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

// --- summarize -----------------------------------------------------------

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
    print_tree(&roots, 0, &|t| {
        format!(
            "{:>9.3}s {:>9.3}s {:>5.1}%",
            t.seconds,
            t.self_seconds,
            share(t.seconds, root_total)
        )
    });
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

fn diff(a: &Trace, b: &Trace, threshold_pct: Option<f64>, min_seconds: f64) -> ExitCode {
    let (agg_a, agg_b) = (by_name(a), by_name(b));
    let names: BTreeSet<&str> = agg_a.keys().chain(agg_b.keys()).copied().collect();
    struct Row<'a> {
        name: &'a str,
        a: f64,
        b: f64,
        delta: f64,
    }
    let seconds = |agg: &BTreeMap<&str, Totals>, name| agg.get(name).map_or(0.0, |t| t.seconds);
    let mut rows: Vec<Row> = names
        .into_iter()
        .map(|name| {
            let (sa, sb) = (seconds(&agg_a, name), seconds(&agg_b, name));
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

// --- heap ----------------------------------------------------------------

fn heap(trace: &Trace, top: usize) -> ExitCode {
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

    let roots: Vec<&TraceSpan> = trace.spans.iter().collect();
    let root_total: u64 = trace
        .spans
        .iter()
        .map(|s| s.field_u64("alloc.bytes").unwrap_or(0))
        .sum();
    outln!(
        "  {:<38} {:>9} {:>9} {:>10} {:>8} {:>6}",
        "span",
        "cum",
        "self",
        "allocs",
        "peak",
        "share"
    );
    print_tree(&roots, 0, &|t| {
        format!(
            "{:>8} {:>8} {:>10} {:>8} {:>5.1}%",
            fmt_bytes(t.bytes as usize),
            fmt_bytes(t.self_bytes as usize),
            t.allocs,
            fmt_bytes(t.peak as usize),
            share(t.bytes as f64, root_total as f64)
        )
    });

    let mut rows: Vec<(&str, Totals)> = by_name(trace)
        .into_iter()
        .filter(|(_, t)| t.self_bytes > 0)
        .collect();
    // Self bytes descending; the sort is stable over the name-sorted fold,
    // so ties keep name order and the table is deterministic for any input.
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_bytes));
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
        for (name, t) in &rows {
            outln!(
                "  {name:<38} {:>9} {:>9} {:>10} {:>8}",
                fmt_bytes(t.self_bytes as usize),
                fmt_bytes(t.bytes as usize),
                t.allocs,
                fmt_bytes(t.peak as usize)
            );
        }
    }
    ExitCode::SUCCESS
}
