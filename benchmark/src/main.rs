//! The repo benchmark's harness (see `benchmark/README.md`).
//!
//! End-to-end numbers come only from the `largeea` CLI run as a child
//! process with tracing off; per-layer numbers come from a separate traced
//! run in which the harness opens a span around each call into a layer's
//! public function (`probes.rs`).
//!
//! ```text
//! largeea-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! largeea-benchmark [--seed <n>] [--seconds <s>]       # every workload, both kinds of run
//! largeea-benchmark --selfcheck [--seed <n>]           # two sets of timed runs, compared
//! largeea-benchmark --emit-manifest                    # BENCHMARK.json on stdout
//! ```
//!
//! `run.sh` builds the CLI and this harness and sets `LARGEEA_BIN`,
//! `LARGEEA_THREADS` and `BENCH_CLK_TCK`; it runs the harness from the
//! repository root.

mod check;
mod child;
mod gen;
mod host;
mod parse;
mod probes;
mod spans;
mod stats;
mod workloads;

use child::{args, path_arg, Cli};
use largeea_common::json::Json;
use spans::Spans;
use stats::{summarize, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Command, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// A child takes 1–5 s on the reference box; one that runs this long is
/// killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    emit_manifest: bool,
    /// Only this layer's probes (and what they need) in a traced run.
    probe: Option<String>,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        emit_manifest: false,
        probe: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                opts.seed = v.parse().map_err(|_| format!("--seed got {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                opts.seconds = match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s.is_finite() => s,
                    _ => return Err(format!("--seconds got {v:?}")),
                };
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace got {v:?}")),
                };
            }
            "--probe" => opts.probe = Some(value("a layer name")?),
            "--selfcheck" => opts.selfcheck = true,
            "--emit-manifest" => opts.emit_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(name) = &opts.workload {
        if workloads::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?} (one of {})",
                known.join(", ")
            ));
        }
    }
    Ok(opts)
}

/// What every run needs: the CLI, the work directory, the pinned quality.
struct Env {
    cli: Cli,
    work: PathBuf,
    expected: Json,
}

fn env_from_process() -> Result<Env, String> {
    let bin = std::env::var_os("LARGEEA_BIN")
        .map(PathBuf::from)
        .ok_or("LARGEEA_BIN is not set (benchmark/run.sh sets it)")?;
    if !bin.is_file() {
        return Err(format!("LARGEEA_BIN={} is not a file", bin.display()));
    }
    let clk_tck = std::env::var("BENCH_CLK_TCK")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&v| v > 0.0)
        .unwrap_or(100.0);
    let bench_dir = Path::new("benchmark");
    let work = bench_dir.join(".work");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let expected_path = bench_dir.join("expected.json");
    let text = std::fs::read_to_string(&expected_path)
        .map_err(|e| format!("reading {}: {e}", expected_path.display()))?;
    let expected = largeea_common::json::parse(&text)
        .map_err(|e| format!("{}: {e}", expected_path.display()))?;
    Ok(Env {
        cli: Cli {
            bin,
            clk_tck,
            out_dir: work.clone(),
        },
        work,
        expected,
    })
}

/// The quality a workload's command reports, under the workload-neutral
/// names the manifest uses.
#[derive(Debug, Clone, Copy)]
struct Quality {
    /// Hits@1 (align) or total seed retention (partition), percent.
    primary_pct: f64,
    /// Link recall of the decoded TSV (align) or the share of triples the
    /// partition keeps inside a batch (partition), percent.
    aux_pct: f64,
}

/// One checked child: what it cost and what it answered.
struct ChildSample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mib: f64,
    quality: Quality,
    /// Hash of `--sim-out` (align only).
    sim_hash: Option<u64>,
    /// Pipeline seconds the program printed (align only).
    pipeline_s: Option<f64>,
    /// Retention and edge-cut rate as printed (partition only).
    partition: Option<parse::PartitionLine>,
}

/// Checks a quality value against `expected.json`: on the reference
/// dataset it must land within the tolerance of the pinned value, on any
/// other dataset only at or above the workload's floor.
fn check_quality(
    env: &Env,
    w: &Workload,
    reference: bool,
    metric: &str,
    value: f64,
) -> Result<(), String> {
    let number = |j: Option<&Json>, what: &str| {
        j.and_then(Json::as_f64)
            .ok_or_else(|| format!("expected.json has no {what} for {}.{metric}", w.name))
    };
    let entry = env
        .expected
        .get("workloads")
        .and_then(|all| all.get(w.name))
        .and_then(|m| m.get(metric));
    if reference {
        let pinned = number(entry.and_then(|e| e.get("pinned")), "pinned value")?;
        let tolerance = number(env.expected.get("tolerance_abs"), "tolerance_abs")?;
        if (value - pinned).abs() > tolerance {
            return Err(format!(
                "{metric} is {value:.2} on the reference dataset, pinned at {pinned:.2} ± {tolerance}"
            ));
        }
    } else {
        let floor = number(entry.and_then(|e| e.get("floor")), "floor")?;
        if value < floor {
            return Err(format!(
                "{metric} is {value:.2}, below the floor {floor:.2}"
            ));
        }
    }
    Ok(())
}

/// Runs the workload's command once on `dataset` and checks its outputs.
/// `mem_budget_mib` overrides the workload's own (the bounded workload's
/// reference run passes `None`).
fn run_child(
    env: &Env,
    w: &Workload,
    dataset: &gen::Dataset,
    mem_budget_mib: Option<usize>,
) -> Result<ChildSample, String> {
    let tsv = env.work.join("out.tsv");
    let sim = env.work.join("out.sim");
    let spill = env.work.join("spill");
    let dir = path_arg(&dataset.dir);
    let mut argv;
    match w.command {
        Command::Align {
            model,
            k,
            epochs,
            unsupervised,
            ..
        } => {
            let (k, epochs) = (k.to_string(), epochs.to_string());
            let (tsv, sim) = (path_arg(&tsv), path_arg(&sim));
            argv = args(&[
                "align",
                "--data",
                &dir,
                "--model",
                model.flag(),
                "--k",
                &k,
                "--epochs",
                &epochs,
                "--out",
                &tsv,
                "--sim-out",
                &sim,
            ]);
            if unsupervised {
                argv.push("--unsupervised".to_owned());
            }
            if let Some(mib) = mem_budget_mib {
                let (budget, spill) = (format!("{mib}M"), path_arg(&spill));
                argv.extend(args(&["--mem-budget", &budget, "--spill-dir", &spill]));
            }
        }
        Command::Partition { k } => {
            let k = k.to_string();
            argv = args(&["partition", "--data", &dir, "--k", &k, "--strategy", "cps"]);
        }
    }
    let run = env.cli.run(&argv, CHILD_TIMEOUT);
    let checked = run.and_then(|run| {
        let mut sample = ChildSample {
            wall_s: run.wall_s,
            cpu_s: run.cpu_s,
            peak_rss_mib: run.peak_rss_mib,
            quality: Quality {
                primary_pct: 0.0,
                aux_pct: 0.0,
            },
            sim_hash: None,
            pipeline_s: None,
            partition: None,
        };
        match w.command {
            Command::Align { .. } => {
                let line = parse::align_line(&run.stdout).map_err(|e| e.to_string())?;
                let predictions = std::fs::read_to_string(&tsv)
                    .map_err(|e| format!("reading {}: {e}", tsv.display()))?;
                let (source, target) = dataset.keys();
                let score = check::score_links(&predictions, &dataset.links, &source, &target)?;
                sample.quality = Quality {
                    primary_pct: line.hits1_pct,
                    aux_pct: score.recall_pct,
                };
                sample.sim_hash = Some(check::file_hash(&sim)?);
                sample.pipeline_s = Some(line.pipeline_s);
                if mem_budget_mib.is_some() {
                    let (peak, budget) =
                        parse::tracked_peak_line(&run.stdout).map_err(|e| e.to_string())?;
                    if peak > budget {
                        return Err(format!(
                            "tracked peak {peak} B is over the budget {budget} B"
                        ));
                    }
                }
            }
            Command::Partition { .. } => {
                let line = parse::partition_line(&run.stdout).map_err(|e| e.to_string())?;
                sample.quality = Quality {
                    primary_pct: line.retention_total_pct,
                    aux_pct: 100.0 * (1.0 - line.edge_cut_rate),
                };
                sample.partition = Some(line);
            }
        }
        let reference = dataset.index == 0;
        check_quality(env, w, reference, "quality_pct", sample.quality.primary_pct)?;
        check_quality(env, w, reference, "quality_aux_pct", sample.quality.aux_pct)?;
        Ok(sample)
    });
    for leftover in [&tsv, &sim] {
        let _ = std::fs::remove_file(leftover);
    }
    let _ = std::fs::remove_dir_all(&spill);
    checked
}

fn mem_budget_of(w: &Workload) -> Option<usize> {
    match w.command {
        Command::Align { mem_budget_mib, .. } => mem_budget_mib,
        Command::Partition { .. } => None,
    }
}

/// Counts of what a run tried and what failed, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("FAILED {what}: {e}");
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a cross-check: `ok`, or else the reason `why` gives.
    fn check(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        self.record(what, if ok { Ok(()) } else { Err(why()) });
    }

    fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// A run's outcome: the tally plus one value per metric of its kind.
struct RunResult {
    tally: Tally,
    /// `(name, unit, value)` in manifest order.
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.tally.failures.is_empty())),
            ("attempted", Json::UInt(self.tally.attempted.max(1))),
            ("failed", Json::UInt(self.tally.failed())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, unit, value)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Float(value)),
                            ("unit", Json::Str(unit.to_owned())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn describe(s: &Summary) -> String {
    format!(
        "median {:.4} (min {:.4}, max {:.4}, n={}: too few for a percentile)",
        s.median, s.min, s.max, s.n
    )
}

/// A timed run: until `seconds` have passed, set up the run's next dataset
/// and run the workload's command on it, one child at a time. Dataset 0 is
/// the reference input every seed shares; the rest are drawn from the seed.
/// Every child gets a dataset of its own, so the time metrics — medians
/// over the run's children — average over inputs as well as over machine
/// noise. Quality and peak RSS depend on the input far more than on the
/// machine, so they are read on the reference dataset alone.
fn run_timed(env: &Env, w: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let budget = mem_budget_of(w);
    let mut setup_samples = Vec::new();
    let mut samples: Vec<ChildSample> = Vec::new();
    let mut rates = Vec::new();
    let started = Instant::now();

    let (reference, setup_s) = tally
        .record("set-up", gen::set_up(w, seed, 0, &env.work, &env.cli))
        .ok_or("the reference dataset could not be set up")?;
    setup_samples.push(setup_s);
    let on_reference = tally
        .record(w.name, run_child(env, w, &reference, budget))
        .ok_or("the child on the reference dataset failed")?;
    let entities = reference.entities;
    rates.push(entities as f64 / on_reference.wall_s);
    if budget.is_some() {
        // the bounded run must reproduce the unbounded run's matrix bit for bit
        if let Some(in_ram) = tally.record("in-RAM run", run_child(env, w, &reference, None)) {
            tally.check(
                "bounded = in-RAM",
                in_ram.sim_hash == on_reference.sim_hash,
                || "--sim-out differs between the bounded and the in-RAM run".to_owned(),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&reference.dir);
    let (quality, rss_mib) = (on_reference.quality, on_reference.peak_rss_mib);
    samples.push(on_reference);

    let mut index = 1u64;
    // a failing command would otherwise be retried until time runs out
    while tally.failed() < 3 && started.elapsed().as_secs_f64() < seconds {
        let set_up = gen::set_up(w, seed, index, &env.work, &env.cli);
        index += 1;
        let Some((dataset, setup_s)) = tally.record("set-up", set_up) else {
            continue;
        };
        setup_samples.push(setup_s);
        if let Some(sample) = tally.record(w.name, run_child(env, w, &dataset, budget)) {
            rates.push(dataset.entities as f64 / sample.wall_s);
            samples.push(sample);
        }
        let _ = std::fs::remove_dir_all(&dataset.dir);
    }

    let column = |f: fn(&ChildSample) -> f64| -> Summary {
        summarize(&samples.iter().map(f).collect::<Vec<_>>()).expect("at least one sample")
    };
    let wall = column(|s| s.wall_s);
    let cpu = column(|s| s.cpu_s);
    let rate = summarize(&rates).expect("one per sample");
    let setup = summarize(&setup_samples).expect("at least one set-up");
    println!(
        "workload {} (seed {seed}): {} datasets, {entities} entities in the reference one",
        w.name,
        samples.len()
    );
    let children: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "{:.2}s/{:.1}%/{:.1}%",
                s.wall_s, s.quality.primary_pct, s.quality.aux_pct
            )
        })
        .collect();
    println!("  children         {}", children.join(" "));
    println!("  wall_s           {} s", describe(&wall));
    println!("  entities_per_s   {} 1/s", describe(&rate));
    println!("  cpu_s            {} s", describe(&cpu));
    println!("  setup_s          {} s", describe(&setup));
    println!("  peak_rss_mib     {rss_mib:.2} MiB (reference dataset)");
    let (primary, secondary) = match w.command {
        Command::Align { .. } => ("hits1_pct", "link_recall_pct"),
        Command::Partition { .. } => ("seed_retention_pct", "triples_kept_pct"),
    };
    println!(
        "  quality_pct      {:.2} % ({primary}, reference dataset)",
        quality.primary_pct
    );
    println!(
        "  quality_aux_pct  {:.2} % ({secondary}, reference dataset)",
        quality.aux_pct
    );
    println!(
        "  failed_share     {} of {} attempts",
        tally.failed(),
        tally.attempted
    );
    let value = |name: &str| match name {
        "wall_s" => wall.median,
        "entities_per_s" => rate.median,
        "cpu_s" => cpu.median,
        "peak_rss_mib" => rss_mib,
        "quality_pct" => quality.primary_pct,
        "quality_aux_pct" => quality.aux_pct,
        "setup_s" => setup.median,
        other => unreachable!("no end-to-end metric is called {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect();
    Ok(RunResult { tally, metrics })
}

/// A traced run on the seed's first drawn dataset: one set-up, one CLI child
/// with tracing off (for the `cli.*` rows and the Hits@1 cross-check), then
/// the composed pipeline and the probes underneath it, all inside harness
/// spans.
fn run_traced(
    env: &Env,
    w: &Workload,
    seed: u64,
    probe: Option<&str>,
) -> Result<RunResult, String> {
    let want = |layer: &str| probe.is_none_or(|p| p == layer);
    let mut tally = Tally::default();
    let mut out = probes::Out::new();
    let mut spans = Spans::new(w.name);

    let (dataset, _) = tally
        .record("set-up", gen::set_up(w, seed, 1, &env.work, &env.cli))
        .ok_or("set-up failed")?;
    let cfg = probes::dataset_config(w, seed, 1);
    let pair = probes::data_and_kg(&mut spans, &cfg, &dataset.dir, &mut out)?;
    let dot_gflops = probes::dot_peak(&mut spans, &mut out);

    match w.command {
        Command::Align {
            model,
            k,
            epochs,
            unsupervised,
            mem_budget_mib,
        } => {
            // the probes below the channels need what the composition built
            let chain = ["core", "cli", "probe", "models", "tensor", "simsearch"];
            if chain.iter().any(|layer| want(layer)) {
                let child = tally.record(w.name, run_child(env, w, &dataset, mem_budget_mib));
                let composed = probes::compose_align(
                    &mut spans,
                    &pair,
                    model,
                    k,
                    epochs,
                    unsupervised,
                    &mut out,
                );
                if let Some(child) = child {
                    let agree = (composed.hits1_pct - child.quality.primary_pct).abs() <= 0.1;
                    tally.check("composed Hits@1", agree, || {
                        format!(
                            "composed pipeline scores {:.2}, the CLI {:.2}",
                            composed.hits1_pct, child.quality.primary_pct
                        )
                    });
                    cli_rows(&child, &mut out);
                }
                let (graph, embeddings) = probes::models(
                    &mut spans,
                    &pair,
                    &composed.batches,
                    model,
                    epochs,
                    &mut out,
                )?;
                probes::tensor(&mut spans, &graph, &mut out);
                let name_embeddings = probes::text(&mut spans, &pair, &mut out);
                probes::simsearch(
                    &mut spans,
                    &name_embeddings,
                    &composed.m_n,
                    &graph,
                    &embeddings,
                    dot_gflops,
                    &mut out,
                );
                probes::spill(&mut spans, &pair, &env.work.join("spill"), &mut out)?;
                let _ = std::fs::remove_dir_all(env.work.join("spill"));
            } else if want("text") {
                probes::text(&mut spans, &pair, &mut out);
            }
            if want("partition") {
                let seeds = probes::default_split(&pair);
                probes::partition(&mut spans, &pair, &seeds, k, &mut out);
            }
        }
        Command::Partition { k } => {
            let child = tally.record(w.name, run_child(env, w, &dataset, None));
            let (seeds, composed) = probes::compose_partition(&mut spans, &pair, k, &mut out);
            if let Some(child) = child {
                let printed = child.partition.expect("a partition child has its line");
                let agree = (composed.retention_total_pct - printed.retention_total_pct).abs()
                    <= 0.1
                    && (composed.edge_cut_rate - printed.edge_cut_rate).abs() <= 0.001;
                tally.check("composed partition", agree, || {
                    format!(
                        "composed make_batches gives retention {:.2} / cut {:.4}, the CLI {:.2} / {:.4}",
                        composed.retention_total_pct,
                        composed.edge_cut_rate,
                        printed.retention_total_pct,
                        printed.edge_cut_rate
                    )
                });
                cli_rows(&child, &mut out);
            }
            if want("partition") {
                probes::partition(&mut spans, &pair, &seeds, k, &mut out);
            }
        }
    }
    if want("common") {
        probes::common(&mut spans, &env.work, &mut out)?;
    }
    if want("host") {
        let (gib_s, _) = spans.time("host.stream_triad", |_| {
            host::stream_gib_s(probes::pool_width())
        });
        out.insert("host.stream_gib_s", gib_s);
    }
    let _ = std::fs::remove_dir_all(&dataset.dir);

    let spans_path = env.work.join(format!("{}.spans.json", w.name));
    std::fs::write(&spans_path, spans.to_json().dump())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;

    println!(
        "workload {} (seed {seed}) per layer; a layer the command does not run reads 0",
        w.name
    );
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .filter(|m| probe.is_none_or(|p| m.0.split('.').next() == Some(p)))
        .map(|&(name, unit, _)| (name, unit, out.get(name).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, value) in &metrics {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    println!("  spans → {}", spans_path.display());
    Ok(RunResult { tally, metrics })
}

/// `cli.outside_pipeline_s` and the composed-versus-CLI ratio, from the
/// traced run's one untraced child. `partition` prints no seconds, so the
/// harness's own `make_batches` span stands in for them.
fn cli_rows(child: &ChildSample, out: &mut probes::Out) {
    let get = |out: &probes::Out, name: &str| out.get(name).copied().unwrap_or(0.0);
    let inside = child
        .pipeline_s
        .unwrap_or_else(|| get(out, "core.make_batches_s"));
    out.insert("cli.outside_pipeline_s", child.wall_s - inside);
    let composed = get(out, "kg.load_s") + get(out, "core.composed_s");
    out.insert("probe.composed_vs_e2e_pct", 100.0 * composed / child.wall_s);
}

fn print_context(seed: u64, seconds: f64) -> Json {
    let context = host::context(probes::pool_width(), probes::isa_name(), seed, seconds);
    println!("host {}", context.dump());
    context
}

/// Every workload, timed then traced; results also land in
/// `benchmark/.work/results.json`.
fn run_all(env: &Env, opts: &Opts) -> Result<bool, String> {
    let context = print_context(opts.seed, opts.seconds);
    let mut all = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let timed = run_timed(env, w, opts.seed, opts.seconds)?;
        let traced = run_traced(env, w, opts.seed, None)?;
        ok &= timed.tally.failures.is_empty() && traced.tally.failures.is_empty();
        all.push((
            w.name,
            Json::obj([
                ("end_to_end", timed.to_json()),
                ("per_layer", traced.to_json()),
            ]),
        ));
    }
    let results = Json::obj([("host", context), ("workloads", Json::obj(all))]);
    let path = env.work.join("results.json");
    std::fs::write(&path, results.dump())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results → {}", path.display());
    Ok(ok)
}

/// Two full sets of timed runs back to back: for every end-to-end metric
/// and workload, the two values, their gap as a share of the first, and
/// the bound. The gaps land in `benchmark/.work/selfcheck.json`.
fn run_selfcheck(env: &Env, opts: &Opts) -> Result<bool, String> {
    let context = print_context(opts.seed, opts.seconds);
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            set.push(run_timed(env, w, opts.seed, opts.seconds)?);
        }
        sets.push(set);
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        ok &= sets[0][i].tally.failures.is_empty() && sets[1][i].tally.failures.is_empty();
        for (j, m) in END_TO_END.iter().enumerate() {
            let (first, second) = (sets[0][i].metrics[j].2, sets[1][i].metrics[j].2);
            // positive = the second set is worse
            let gap = match m.better {
                "lower" => (second - first) / first,
                _ => (first - second) / first,
            };
            let within = gap <= m.bound;
            ok &= within;
            println!(
                "{:<20} {:<16} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}%{}",
                w.name,
                m.name,
                first,
                second,
                100.0 * gap,
                100.0 * m.bound,
                if within { "" } else { "  OVER" }
            );
            rows.push(Json::obj([
                ("workload", Json::Str(w.name.to_owned())),
                ("metric", Json::Str(m.name.to_owned())),
                ("first", Json::Float(first)),
                ("second", Json::Float(second)),
                ("gap", Json::Float(gap)),
                ("bound", Json::Float(m.bound)),
            ]));
        }
    }
    let report = Json::obj([("host", context), ("gaps", Json::Arr(rows))]);
    let path = env.work.join("selfcheck.json");
    std::fs::write(&path, report.dump()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("gaps → {}", path.display());
    Ok(ok)
}

fn run(opts: &Opts) -> Result<bool, String> {
    if opts.emit_manifest {
        println!("{}", workloads::manifest().dump());
        return Ok(true);
    }
    let env = env_from_process()?;
    if opts.selfcheck {
        return run_selfcheck(&env, opts);
    }
    let Some(name) = &opts.workload else {
        return run_all(&env, opts);
    };
    let w = workloads::workload(name).expect("validated by parse_opts");
    print_context(opts.seed, opts.seconds);
    let result = if opts.trace {
        run_traced(&env, w, opts.seed, opts.probe.as_deref())?
    } else {
        run_timed(&env, w, opts.seed, opts.seconds)?
    };
    // the driver reads the last line of stdout
    println!("{}", result.to_json().dump());
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_opts(&argv).and_then(|opts| run(&opts));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
