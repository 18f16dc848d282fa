//! Seeds and refreshes `BENCH_pipeline.json`: the perf baseline for the
//! full LargeEA pipeline at fixed seeds (see DESIGN.md §S0.5).
//!
//! Runs the synthetic IDS15K EN–FR pipeline `--repeats` times, verifies the
//! repeats are counter-identical (the pipeline is deterministic; if it
//! isn't, the baseline would be meaningless), and writes per-stage medians
//! plus the exact counters as a `largeea-bench-baseline` document.
//!
//! Flags: `--repeats <n>` (default 5), `--scale <f>` (default 0.02),
//! `--k <n>` (default 2), `--epochs <n>` (default 15), `--dim <n>`
//! (default 32), `--mem-budget <bytes>` (default 0 = unbounded, store in
//! memory; non-zero puts the store on disk so the baseline carries
//! `mem.spill.*` counters), `--out <path>` (default `BENCH_pipeline.json`),
//! `--trace-out <path>` (also write the last repeat's raw trace — handy as
//! the "fresh run" for `largeea trace check`).

use largeea_bench::{arg_f64, arg_str, arg_usize, Baseline};
use largeea_common::json::ToJson;
use largeea_common::obs::{LiveConfig, ObsConfig, Recorder};
use largeea_core::pipeline::{ExecOptions, LargeEa, LargeEaConfig};
use largeea_core::structure_channel::{Partitioner, StructureChannelConfig};
use largeea_data::Preset;
use largeea_models::{ModelKind, TrainConfig};

// The same instrumented allocator the `largeea` binary runs under, so the
// committed stage medians measure what production runs actually pay (the
// counting fast path) and the overhead probe below can pause it.
#[global_allocator]
static ALLOC: largeea_common::alloc::CountingAlloc = largeea_common::alloc::CountingAlloc;

fn main() {
    let repeats = arg_usize("repeats", 5);
    let scale = arg_f64("scale", 0.02);
    let k = arg_usize("k", 2);
    let epochs = arg_usize("epochs", 15);
    let dim = arg_usize("dim", 32);
    let mem_budget = arg_usize("mem-budget", 0);
    let out = arg_str("out").unwrap_or_else(|| "BENCH_pipeline.json".into());
    assert!(repeats >= 1, "--repeats must be at least 1");

    let pair = Preset::Ids15kEnFr.spec(scale).generate();
    let seeds = pair.split_seeds(0.2, 0x5EED);
    let cfg = LargeEaConfig {
        structure: StructureChannelConfig {
            k,
            partitioner: Partitioner::MetisCps,
            model: ModelKind::GcnAlign,
            train: TrainConfig {
                epochs,
                dim,
                ..TrainConfig::default()
            },
            top_k: 10,
            ..StructureChannelConfig::default()
        },
        ..LargeEaConfig::default()
    };

    let exec = ExecOptions {
        mem_budget: (mem_budget > 0).then_some(mem_budget),
        spill_dir: (mem_budget > 0).then(|| {
            std::env::temp_dir().join(format!("largeea_bench_spill_{}", std::process::id()))
        }),
        ..ExecOptions::default()
    };

    let mut traces = Vec::with_capacity(repeats);
    for i in 0..repeats {
        let rec = Recorder::new(ObsConfig::default());
        let report = LargeEa::new(cfg)
            .run_exec(&pair, &seeds, 1, &rec, None, &exec)
            .unwrap_or_else(|e| panic!("bench run failed (mem_budget {mem_budget}): {e}"));
        eprintln!(
            "[bench] repeat {}/{repeats}: {:.2}s wall, H@1 {:.1}%",
            i + 1,
            report.total_seconds,
            report.eval.hits1
        );
        traces.push(report.trace);
    }

    // Sampler overhead probe (DESIGN.md §S0.9). The measured repeats above
    // run with live telemetry OFF, so the committed stage medians and
    // exact counters are untouched by this feature; here we additionally
    // time min-of-3 runs with the sampler off vs on (cadence 8, ring
    // capture only) and record the ratio — the budget is < 2%. Snapshot
    // *writes* are deliberately excluded: they are fsync-bound I/O whose
    // count the user dials with --live-every, and on this sub-100ms
    // workload two fsyncs per snapshot would swamp the thing being
    // measured (the per-tick sampling machinery itself).
    let probe = |sampler: bool| -> f64 {
        let rec = Recorder::new(ObsConfig::default());
        if sampler {
            rec.enable_live(LiveConfig {
                every: 8,
                dir: None,
                ..LiveConfig::default()
            });
        }
        LargeEa::new(cfg)
            .run_exec(&pair, &seeds, 1, &rec, None, &exec)
            .expect("sampler overhead probe run")
            .total_seconds
    };
    let off = (0..3).map(|_| probe(false)).fold(f64::INFINITY, f64::min);
    let on = (0..3).map(|_| probe(true)).fold(f64::INFINITY, f64::min);
    let overhead_pct = if off > 0.0 {
        100.0 * (on - off) / off
    } else {
        0.0
    };
    eprintln!("[bench] sampler overhead: off {off:.3}s, on {on:.3}s ({overhead_pct:+.2}%)");
    if overhead_pct > 2.0 {
        eprintln!("[bench] WARNING: sampler overhead exceeds the 2% budget");
    }

    // Allocator-instrumentation overhead probe (DESIGN.md §S0.10). Same
    // min-of-3 discipline: "off" pauses the counting fast path entirely
    // (set_counting(false), heap attribution off — what an uninstrumented
    // binary pays, minus one predictable branch per alloc), "on" is the
    // full production configuration (counting + span attribution + pool
    // transfer). Budget is < 5%. Runs after every measured number above so
    // the paused-counting books corrupting live-byte accuracy can't touch
    // anything we keep.
    let alloc_probe = |counting: bool| -> f64 {
        largeea_common::alloc::set_counting(counting);
        let rec = Recorder::new(ObsConfig {
            heap: counting,
            ..ObsConfig::default()
        });
        let secs = LargeEa::new(cfg)
            .run_exec(&pair, &seeds, 1, &rec, None, &exec)
            .expect("allocator overhead probe run")
            .total_seconds;
        largeea_common::alloc::set_counting(true);
        secs
    };
    let alloc_off = (0..3)
        .map(|_| alloc_probe(false))
        .fold(f64::INFINITY, f64::min);
    let alloc_on = (0..3)
        .map(|_| alloc_probe(true))
        .fold(f64::INFINITY, f64::min);
    let alloc_overhead_pct = if alloc_off > 0.0 {
        100.0 * (alloc_on - alloc_off) / alloc_off
    } else {
        0.0
    };
    eprintln!(
        "[bench] allocator overhead: off {alloc_off:.3}s, on {alloc_on:.3}s \
         ({alloc_overhead_pct:+.2}%)"
    );
    if alloc_overhead_pct > 5.0 {
        eprintln!("[bench] WARNING: allocator overhead exceeds the 5% budget");
    }

    let mut config = vec![
        ("preset".to_owned(), "ids15k-en-fr".to_owned()),
        ("scale".to_owned(), format!("{scale}")),
        ("k".to_owned(), format!("{k}")),
        ("model".to_owned(), "gcn-align".to_owned()),
        ("epochs".to_owned(), format!("{epochs}")),
        ("dim".to_owned(), format!("{dim}")),
        ("mem_budget".to_owned(), format!("{mem_budget}")),
        ("sampler_off_seconds".to_owned(), format!("{off:.3}")),
        ("sampler_on_seconds".to_owned(), format!("{on:.3}")),
        (
            "sampler_overhead_pct".to_owned(),
            format!("{overhead_pct:+.2}"),
        ),
        ("alloc_off_seconds".to_owned(), format!("{alloc_off:.3}")),
        ("alloc_on_seconds".to_owned(), format!("{alloc_on:.3}")),
        (
            "alloc_overhead_pct".to_owned(),
            format!("{alloc_overhead_pct:+.2}"),
        ),
    ];
    config.extend(largeea_bench::thread_config());
    let baseline =
        Baseline::from_traces(config, &traces).unwrap_or_else(|e| panic!("building baseline: {e}"));
    let mut doc = baseline.to_json_string();
    doc.push('\n');
    std::fs::write(&out, doc).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!(
        "[bench] baseline ({} stages, {} counters over {repeats} repeats) → {out}",
        baseline.stages.len(),
        baseline.counters.len()
    );

    if let Some(path) = arg_str("trace-out") {
        let trace = traces.last().expect("repeats >= 1");
        std::fs::write(&path, trace.to_json_string())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!("[bench] last repeat's trace → {path}");
    }
}
