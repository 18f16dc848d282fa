//! `largeea` — command-line entity alignment.
//!
//! ```text
//! largeea generate  --preset ids15k-en-fr --scale 0.05 --out data/
//! largeea stats     --data data/
//! largeea partition --data data/ --k 5 --strategy cps
//! largeea align     --data data/ --model rrea --k 5 --out predictions.tsv
//! largeea eval      --data data/ --predictions predictions.tsv
//! ```
//!
//! `--data` directories use the OpenEA layout (`rel_triples_1`,
//! `rel_triples_2`, `ent_links`, optional `ent_labels_*`); `align` with
//! `--unsupervised` runs the paper's zero-seed mode.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[macro_use]
mod out;
mod ckpt_cmd;
mod trace_cmd;

use largeea::common::fmt_bytes;
use largeea::common::json::ToJson;
use largeea::common::obs::Recorder;
use largeea::core::pipeline::{
    ExecOptions, LargeEa, LargeEaConfig, RunError, MEASURED_HEAP_PEAK, PIPELINE_SPAN, PSEUDO_SEEDS,
    PSEUDO_SEED_ACCURACY,
};
use largeea::core::structure_channel::{Partitioner, StructureChannel, StructureChannelConfig};
use largeea::data::Preset;
use largeea::kg::{io, AlignmentSeeds, EntityId, KgPair, KgStats};
use largeea::models::{ModelKind, TrainConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "largeea — LargeEA entity alignment (VLDB 2021, reproduced in Rust)

USAGE:
  largeea generate  --preset <name> [--scale f] [--seed-ratio f] --out <dir>
  largeea stats     --data <dir>
  largeea partition --data <dir> [--k n] [--strategy cps|vps] [--seed-ratio f]
                    [--trace-out <file>]
  largeea align     --data <dir> [--model gcn|rrea] [--k n]
                    [--epochs n] [--dim n] [--seed-ratio f] [--unsupervised]
                    [--csls n] [--rounds n] [--out <file>] [--sim-out <file>]
                    [--trace-out <file>] [--checkpoint-dir <dir>] [--resume]
                    [--mem-budget <bytes>] [--spill-dir <dir>]
  largeea eval      --data <dir> --predictions <file>
  largeea failpoints list
  largeea ckpt      inspect <dir>
  largeea trace     summarize <trace.json>
  largeea trace     diff <a.json> <b.json> [--threshold-pct f] [--min-seconds f]
  largeea trace     heap <trace.json> [--top n]

PRESETS: ids15k-en-fr  ids15k-en-de  ids100k-en-fr  ids100k-en-de
         dbp1m-en-fr   dbp1m-en-de   dbp1m-ci

`--trace-out` writes the run's span/metric trace as JSON (DESIGN.md §S0.5);
set LARGEEA_LOG=stage|detail|trace to echo spans to stderr as they close.
`trace` analyses those files: wall-clock trees with derived throughputs,
span-by-span diffs with CI gating, and allocation trees. A run in progress
is watched through LARGEEA_LOG=stage and, when checkpointed, `ckpt inspect`.

`--checkpoint-dir` makes `align` checkpoint every completed pipeline stage
into a crash-safe run directory (DESIGN.md §S0.7); `--resume` continues an
interrupted run, skipping completed stages bit-identically. `ckpt inspect`
prints a checkpoint directory's manifest and training progress.

`--mem-budget <bytes>` (suffixes K/M/G, 1024-based) runs `align` out of
core (DESIGN.md §S0.8): intermediate blocks spill to `--spill-dir`
(default: a per-process directory under the system temp dir, announced as
the `spill.dir` field of the trace's `pipeline` span). The binary's
instrumented allocator measures the run's heap growth; before a stage
sizes a segment set, sketch index, batch, similarity block or the fused
matrix, it asks whether its request fits on top of that growth, and the
run fails fast with a typed error naming the stage if not. A bounded run
prints its measured peak as `tracked peak <size> (budget <size>)`.
Results are bit-identical to the unbounded run. Per-span allocation
attribution lands in the trace (`alloc.bytes`/`alloc.count`/`alloc.peak`
fields) — render it with `largeea trace heap` (allocation tree and top-N
table).

All dense kernels dispatch to the best available SIMD ISA at runtime
(DESIGN.md §S0.11; see the `kernel.isa` field on the trace's `pipeline`
span); results are bit-identical to the scalar reference, which
LARGEEA_NO_SIMD=1 forces for A/B verification.

An I/O fault fails the run with its typed exit code; a crash leaves the
checkpoint to `--resume` from (DESIGN.md §S0.7). `failpoints list`
prints every fault-injection site that
`LARGEEA_FAILPOINTS=<name>=err|panic|partial[@N]` can arm.

`--k n` (default 5) is the number of mini-batches K: 1 up to the smaller
KG's entity count, as every batch needs an entity of each side; partitioning
costs O(K) beyond the graphs. `--csls n` re-scores the fused similarity
with CSLS over each entity's n nearest neighbours, n ≥ 1. `--scale f`
(default 0.05) shrinks a preset to a fraction in (0, 1]; `--dim n`
(default 64) is the structure embedding width, n ≥ 1. `--epochs n`
(default 50) trains each batch n ≥ 1 epochs; `--rounds n` (default 1)
runs n ≥ 1 rounds.

EXIT CODES (documented contract, asserted by tests/cli.rs):
  0  success
  1  generic error (I/O, bad input data)
  2  usage error (unknown command, subcommand or flag; missing or
     malformed flag value — the message names the flag)
  3  memory budget exceeded (RunError::Budget)
  4  checkpoint error (RunError::Ckpt)
  6  spill I/O error (RunError::Spill)
  5, 7 and 8 are retired and not reused.

Every command is deterministic for fixed inputs and flags.";

/// A CLI failure with its documented process exit code (see `USAGE`).
enum CliError {
    /// Malformed command line: unknown command or flag, a required flag
    /// missing, a flag value that does not parse. Exit 2.
    Usage(String),
    /// A typed pipeline failure; exit code is per-variant (3, 4, 6).
    Run(Box<RunError>),
    /// Everything else (I/O, bad input data). Exit 1.
    Other(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Other(msg)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Other(m) => f.write_str(m),
            CliError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl CliError {
    /// The documented process exit code for this failure.
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Other(_) => 1,
            CliError::Run(e) => match e.as_ref() {
                RunError::Budget(_) => 3,
                RunError::Ckpt(_) => 4,
                RunError::Spill(_) => 6,
                // 5 (heap-audit failure), 7 (retries exhausted) and 8
                // (degraded run lost every channel) are retired, not reused
            },
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `trace` takes positional file arguments and encodes its verdict in
    // the exit code, so it owns its own parsing and returns directly.
    if command == "trace" {
        return trace_cmd::cmd_trace(&args[1..]);
    }
    // `ckpt` likewise takes a positional directory argument.
    if command == "ckpt" {
        return ckpt_cmd::cmd_ckpt(&args[1..]);
    }
    // `failpoints` takes a positional subcommand.
    if command == "failpoints" {
        return cmd_failpoints(&args[1..]);
    }
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result: Result<(), CliError> = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "stats" => cmd_stats(&flags),
        "partition" => cmd_partition(&flags),
        "align" => cmd_align(&flags),
        "eval" => cmd_eval(&flags),
        "--help" | "-h" | "help" => {
            outln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.code())
        }
    }
}

/// `largeea failpoints list` — every fault-injection site the binary
/// registers, in the fixed order the chaos sweep enumerates them
/// (`largeea::core::registered_failpoints`). One `name\tsite` line each.
fn cmd_failpoints(rest: &[String]) -> ExitCode {
    match rest.first().map(String::as_str) {
        Some("list") => {
            for fp in largeea::core::registered_failpoints() {
                outln!("{:<16} {}", fp.name, fp.site);
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: failpoints takes the subcommand `list`, got {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

type Flags = HashMap<String, String>;

/// Flags that take no value, then flags that take one. A name in neither
/// list is a usage error — a mistyped or retired flag must not be swallowed
/// together with the argument after it.
const BOOL_FLAGS: &str = "unsupervised resume";
const VALUE_FLAGS: &str = "preset scale seed-ratio out data k strategy trace-out model epochs dim \
    csls rounds sim-out checkpoint-dir mem-budget spill-dir predictions";

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected --flag, got {a:?}"));
        };
        let listed = |list: &str| list.split_whitespace().any(|f| f == name);
        if listed(BOOL_FLAGS) {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        if !listed(VALUE_FLAGS) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, CliError> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("--{name} is required")))
}

/// The usage error for a flag whose value is not one the flag takes.
fn bad_value(name: &str, v: &str, want: &str) -> CliError {
    CliError::Usage(format!("--{name} got invalid value {v:?}: expected {want}"))
}

fn parse_opt<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, CliError> {
    flags
        .get(name)
        .map(|v| {
            v.parse()
                .map_err(|_| bad_value(name, v, std::any::type_name::<T>()))
        })
        .transpose()
}

fn parse_or<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, CliError> {
    Ok(parse_opt(flags, name)?.unwrap_or(default))
}

fn preset_by_name(name: &str) -> Result<Preset, CliError> {
    Ok(match name {
        "ids15k-en-fr" => Preset::Ids15kEnFr,
        "ids15k-en-de" => Preset::Ids15kEnDe,
        "ids100k-en-fr" => Preset::Ids100kEnFr,
        "ids100k-en-de" => Preset::Ids100kEnDe,
        "dbp1m-en-fr" => Preset::Dbp1mEnFr,
        "dbp1m-en-de" => Preset::Dbp1mEnDe,
        "dbp1m-ci" => Preset::Dbp1mCi,
        other => return Err(bad_value("preset", other, "a preset name (see --help)")),
    })
}

fn model_by_name(name: &str) -> Result<ModelKind, CliError> {
    Ok(match name {
        "gcn" | "gcn-align" => ModelKind::GcnAlign,
        "rrea" => ModelKind::Rrea,
        other => return Err(bad_value("model", other, "gcn|rrea")),
    })
}

/// Parses a byte size with optional 1024-based `K`/`M`/`G` suffix
/// (case-insensitive): `"16M"` → 16 MiB, `"1073741824"` → 1 GiB. `None`
/// when `v` is not one or overflows.
fn parse_bytes(v: &str) -> Option<usize> {
    let v = v.trim();
    let (digits, mult) = match v.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&v[..i], 1usize << 10),
        (i, 'm') | (i, 'M') => (&v[..i], 1 << 20),
        (i, 'g') | (i, 'G') => (&v[..i], 1 << 30),
        _ => (v, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(mult)
}

/// Loads `--data`, as `rec`'s `load` span.
fn load_data(flags: &Flags, rec: &Recorder) -> Result<KgPair, CliError> {
    let dir = required(flags, "data")?;
    io::load_pair_traced(Path::new(dir), "SRC", "TGT", rec)
        .map_err(|e| CliError::Other(format!("loading {dir}: {e}")))
}

/// `--k`, the batch count: from 1 up to the smaller side's entity count.
fn parse_k(flags: &Flags, pair: &KgPair) -> Result<usize, CliError> {
    let k = parse_or(flags, "k", 5)?;
    let most = pair.source.num_entities().min(pair.target.num_entities());
    if !(1..=most).contains(&k) {
        let want = format!("a batch count in 1..={most} (the smaller side's entities)");
        return Err(bad_value("k", &k.to_string(), &want));
    }
    Ok(k)
}

fn split(flags: &Flags, pair: &KgPair) -> Result<AlignmentSeeds, CliError> {
    let ratio: f64 = parse_or(flags, "seed-ratio", 0.2)?;
    if !(0.0..=1.0).contains(&ratio) {
        return Err(bad_value(
            "seed-ratio",
            &ratio.to_string(),
            "a value in [0,1]",
        ));
    }
    Ok(pair.split_seeds(ratio, 0x5EED))
}

fn cmd_generate(flags: &Flags) -> Result<(), CliError> {
    let preset = preset_by_name(required(flags, "preset")?)?;
    let scale: f64 = parse_or(flags, "scale", 0.05)?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(bad_value("scale", &scale.to_string(), "a value in (0, 1]"));
    }
    let out = PathBuf::from(required(flags, "out")?);
    let pair = preset.spec(scale).generate();
    io::save_pair(&pair, &out).map_err(|e| format!("writing {}: {e}", out.display()))?;
    outln!(
        "wrote {} at scale {scale}: |E_s|={}, |E_t|={}, |T_s|={}, |T_t|={}, links={} → {}",
        preset.name(),
        pair.source.num_entities(),
        pair.target.num_entities(),
        pair.source.num_triples(),
        pair.target.num_triples(),
        pair.alignment.len(),
        out.display()
    );
    Ok(())
}

fn cmd_stats(flags: &Flags) -> Result<(), CliError> {
    let pair = load_data(flags, &Recorder::disabled())?;
    outln!(
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "side",
        "entities",
        "relations",
        "triples",
        "max-deg",
        "isolated"
    );
    for (label, kg) in [("source", &pair.source), ("target", &pair.target)] {
        let s = KgStats::of(kg);
        outln!(
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>8}",
            label,
            s.entities,
            s.relations,
            s.triples,
            s.max_degree,
            s.isolated
        );
    }
    let (us, ut) = pair.unknown_fraction();
    outln!(
        "ground-truth links: {} (unknown entities: {:.1}% source, {:.1}% target)",
        pair.alignment.len(),
        100.0 * us,
        100.0 * ut
    );
    Ok(())
}

/// Writes `rec`'s trace as JSON to `--trace-out` when the flag is present.
fn write_trace(flags: &Flags, rec: &Recorder) -> Result<(), String> {
    let Some(path) = flags.get("trace-out") else {
        return Ok(());
    };
    let trace = rec.trace();
    std::fs::write(path, trace.to_json_string()).map_err(|e| format!("writing {path}: {e}"))?;
    outln!(
        "wrote run trace ({} spans) → {path}",
        trace.span_count_total()
    );
    Ok(())
}

fn cmd_partition(flags: &Flags) -> Result<(), CliError> {
    let rec = Recorder::from_env();
    let root = rec.span("partition");
    let pair = load_data(flags, &rec)?;
    let seeds = split(flags, &pair)?;
    let k = parse_k(flags, &pair)?;
    let strategy = match flags.get("strategy").map(String::as_str).unwrap_or("cps") {
        "cps" | "metis-cps" => Partitioner::MetisCps,
        "vps" => Partitioner::Vps,
        other => return Err(bad_value("strategy", other, "cps|vps")),
    };
    let sc = StructureChannel::new(StructureChannelConfig {
        k,
        partitioner: strategy,
        ..StructureChannelConfig::default()
    });
    let batches = sc.make_batches_traced(&pair, &seeds, &rec);
    let (r, edge_cut_rate) = batches.record_quality(&pair, &seeds, &rec);
    outln!(
        "K={k} {strategy:?}: retention total {:.1}% / train {:.1}% / test {:.1}%, edge-cut rate {:.3}",
        100.0 * r.total,
        100.0 * r.train,
        100.0 * r.test,
        edge_cut_rate
    );
    for b in &batches.batches {
        outln!(
            "  batch {:>2}: {:>7} source + {:>7} target entities, {:>6} train pairs",
            b.index,
            b.source_entities.len(),
            b.target_entities.len(),
            b.train_pairs.len()
        );
    }
    root.finish();
    if rec.heap_enabled() {
        // as `align` gauges them (DESIGN.md §S0.6)
        rec.gauge_max("heap.peak", largeea::common::alloc::heap_peak() as f64);
        let kept = largeea::common::alloc::worker_kept_bytes();
        rec.gauge_max("pool.worker_kept_bytes", kept as f64);
    }
    Ok(write_trace(flags, &rec)?)
}

fn cmd_align(flags: &Flags) -> Result<(), CliError> {
    let rec = Recorder::from_env();
    let pair = load_data(flags, &rec)?;
    let unsupervised = flags.contains_key("unsupervised");
    let seeds = if unsupervised {
        AlignmentSeeds {
            train: vec![],
            test: pair.alignment.clone(),
        }
    } else {
        split(flags, &pair)?
    };
    let model = model_by_name(flags.get("model").map(String::as_str).unwrap_or("rrea"))?;
    let csls_k = parse_opt(flags, "csls")?;
    if csls_k == Some(0) {
        return Err(bad_value("csls", "0", "a neighbourhood size of at least 1"));
    }
    let dim = parse_or(flags, "dim", 64)?;
    if dim == 0 {
        return Err(bad_value("dim", "0", "an embedding width of at least 1"));
    }
    let epochs = parse_or(flags, "epochs", 50)?;
    if epochs == 0 {
        return Err(bad_value("epochs", "0", "an epoch count of at least 1"));
    }
    let cfg = LargeEaConfig {
        structure: StructureChannelConfig {
            k: parse_k(flags, &pair)?,
            model,
            train: TrainConfig {
                epochs,
                dim,
                ..TrainConfig::default()
            },
            ..StructureChannelConfig::default()
        },
        csls_k,
        ..LargeEaConfig::default()
    };
    let rounds = parse_or(flags, "rounds", 1)?;
    if rounds == 0 {
        return Err(bad_value("rounds", "0", "a round count of at least 1"));
    }
    if flags.contains_key("resume") && !flags.contains_key("checkpoint-dir") {
        return Err(CliError::Usage("--resume needs --checkpoint-dir".into()));
    }
    let mem_budget = flags
        .get("mem-budget")
        .map(|v| {
            parse_bytes(v).ok_or_else(|| bad_value("mem-budget", v, "a byte count like 512M or 2G"))
        })
        .transpose()?;
    // a budget without an explicit spill dir gets a per-process tempdir,
    // announced in the trace as the pipeline span's `spill.dir` field
    let mut exec = ExecOptions::from_flags(mem_budget, flags.get("spill-dir").map(PathBuf::from));
    exec.checkpoint_dir = flags.get("checkpoint-dir").map(PathBuf::from);
    exec.resume = flags.contains_key("resume");
    let report = LargeEa::new(cfg)
        .run_exec(&pair, &seeds, rounds, &rec, &exec)
        .map_err(|e| CliError::Run(Box::new(e)))?;
    let trace = &report.trace;
    if exec.mem_budget.is_some() || exec.spill_dir.is_some() {
        // the run window's measured peak, in the shape scripts parse
        let peak = trace.gauge(MEASURED_HEAP_PEAK).unwrap_or(0.0);
        outln!(
            "tracked peak {}{}",
            fmt_bytes(peak as usize),
            exec.mem_budget
                .map(|b| format!(" (budget {})", fmt_bytes(b)))
                .unwrap_or_default()
        );
    }
    outln!(
        "H@1 {:.1}%  H@5 {:.1}%  MRR {:.2}  ({} test pairs, {:.1}s, pseudo seeds {} @ {:.1}%)",
        report.eval.hits1,
        report.eval.hits5,
        report.eval.mrr,
        report.eval.evaluated,
        trace.total_seconds(PIPELINE_SPAN),
        trace.counter(PSEUDO_SEEDS),
        100.0 * trace.gauge(PSEUDO_SEED_ACCURACY).unwrap_or(0.0),
    );
    // The tail runs under spans of its own and the heap gauges are read
    // again after it, so a spike here shows in `trace heap` like any other.
    let decoded = flags.get("out").map(|path| {
        let mut span = rec.span("decode");
        span.field("rows", report.sim.n_rows());
        span.field("cols", report.sim.n_cols());
        span.field("entries", report.sim.nnz());
        (path, report.sim.greedy_one_to_one())
    });
    if decoded.is_some() || flags.contains_key("sim-out") {
        let _span = rec.span("write_outputs");
        if let Some((path, decoded)) = &decoded {
            let mut body = String::new();
            for (s, t) in decoded {
                body.push_str(pair.source.entity_key(EntityId(*s)));
                body.push('\t');
                body.push_str(pair.target.entity_key(EntityId(*t)));
                body.push('\n');
            }
            std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
            outln!("wrote {} predicted links → {path}", decoded.len());
        }
        if let Some(path) = flags.get("sim-out") {
            largeea::sim::io::save_sparse_sim(&report.sim, Path::new(path))
                .map_err(|e| format!("writing {path}: {e}"))?;
            outln!("wrote similarity matrix → {path}");
        }
    }
    if rec.heap_enabled() {
        rec.gauge_max("heap.peak", largeea::common::alloc::heap_peak() as f64);
    }
    Ok(write_trace(flags, &rec)?)
}

fn cmd_eval(flags: &Flags) -> Result<(), CliError> {
    let pair = load_data(flags, &Recorder::disabled())?;
    let path = required(flags, "predictions")?;
    let file = std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut predicted: HashMap<String, String> = HashMap::new();
    io::scan_tsv(file, path, |[a, b]| {
        predicted.insert(a.to_owned(), b.to_owned());
        Ok(())
    })
    .map_err(|e| format!("reading predictions: {e}"))?;
    let mut correct = 0usize;
    for &(s, t) in &pair.alignment {
        let hit = predicted.get(pair.source.entity_key(s));
        if hit.map(String::as_str) == Some(pair.target.entity_key(t)) {
            correct += 1;
        }
    }
    let precision = correct as f64 / predicted.len().max(1) as f64;
    let recall = correct as f64 / pair.alignment.len().max(1) as f64;
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    outln!(
        "predictions {}  correct {}  precision {:.1}%  recall {:.1}%  F1 {:.1}%",
        predicted.len(),
        correct,
        100.0 * precision,
        100.0 * recall,
        100.0 * f1
    );
    Ok(())
}
