//! Integration tests for live telemetry (`align --live-dir`, DESIGN.md
//! §S0.9): mid-run snapshots parse and the final one is byte-identical to
//! `--trace-out`; sampling is tick-deterministic across same-seed runs; a
//! crash mid-snapshot never corrupts the previous snapshot; and
//! `--mem-budget` without `--spill-dir` announces its tempdir in the trace.

use largeea::common::obs::Trace;
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_largeea"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_live_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn expect_success(out: &std::process::Output) {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Generates the small fixed-seed dataset once per test dir.
fn generate_data(dir: &Path) -> PathBuf {
    let data = dir.join("data");
    if !data.exists() {
        let out = bin()
            .args([
                "generate",
                "--preset",
                "ids15k-en-fr",
                "--scale",
                "0.01",
                "--out",
            ])
            .arg(&data)
            .output()
            .unwrap();
        expect_success(&out);
    }
    data
}

/// A live-telemetry align run: snapshots every 2 ticks into `live_dir`,
/// final trace to `trace_out`. Extra args/env let callers add `--mem-budget`
/// or arm failpoints.
fn live_align(
    data: &Path,
    live_dir: &Path,
    trace_out: &Path,
    extra_args: &[&str],
    env: Option<(&str, &str)>,
) -> std::process::Output {
    let mut cmd = bin();
    cmd.args(["align", "--data"])
        .arg(data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "8", "--dim", "16"])
        .arg("--live-dir")
        .arg(live_dir)
        .args(["--live-every", "2"])
        .arg("--trace-out")
        .arg(trace_out);
    cmd.args(extra_args);
    if let Some((k, v)) = env {
        cmd.env(k, v);
    }
    cmd.output().unwrap()
}

fn parse_file(path: &Path) -> Trace {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Trace::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

#[test]
fn final_snapshot_is_byte_identical_to_trace_out_and_counts_its_writes() {
    let dir = tempdir("final");
    let data = generate_data(&dir);
    let live = dir.join("live");
    let trace_out = dir.join("run.json");
    expect_success(&live_align(&data, &live, &trace_out, &[], None));

    let snapshot_path = live.join("live.trace.json");
    let snapshot = std::fs::read_to_string(&snapshot_path).unwrap();
    let final_trace = std::fs::read_to_string(&trace_out).unwrap();
    assert_eq!(
        snapshot, final_trace,
        "the flushed snapshot must be byte-identical to --trace-out"
    );

    let trace = parse_file(&snapshot_path);
    // Every periodic snapshot plus the final flush bumps `live.writes`
    // before writing, so the count in the file includes itself. The run
    // has far more than 2 ticks at cadence 2 — this is the "at least two
    // mid-run snapshots" acceptance bar with margin.
    assert!(
        trace.counter("live.writes") >= 3,
        "expected >= 3 snapshot writes, got {}",
        trace.counter("live.writes")
    );
    assert_eq!(trace.counter("live.write_errors"), 0);
    assert!(
        !trace.samples.is_empty(),
        "the sample ring must survive into the final trace"
    );

    // the offline tooling takes what a real run left behind
    let tail = bin()
        .args(["trace", "tail"])
        .arg(&live)
        .arg("--once")
        .output()
        .unwrap();
    expect_success(&tail);
    let text = String::from_utf8_lossy(&tail.stdout);
    assert!(text.contains("run complete"), "{text}");
    let expo = bin()
        .args(["trace", "expo"])
        .arg(&snapshot_path)
        .output()
        .unwrap();
    expect_success(&expo);
    let text = String::from_utf8_lossy(&expo.stdout);
    assert!(text.contains("\nlargeea_live_writes_total "), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampling_is_tick_deterministic_across_same_seed_runs() {
    let dir = tempdir("det");
    let data = generate_data(&dir);
    let (live_a, live_b) = (dir.join("live_a"), dir.join("live_b"));
    expect_success(&live_align(&data, &live_a, &dir.join("a.json"), &[], None));
    expect_success(&live_align(&data, &live_b, &dir.join("b.json"), &[], None));

    let a = parse_file(&live_a.join("live.trace.json"));
    let b = parse_file(&live_b.join("live.trace.json"));
    assert_eq!(a.counters, b.counters, "same-seed counters must match");
    assert_eq!(a.samples.len(), b.samples.len());
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        // `seconds` is wall clock and the heap/RSS gauges are measured
        // (not computed), so both are nondeterministic; the tick schedule
        // and every *deterministic* sampled table must be identical.
        assert_eq!(
            sa.deterministic_view(),
            sb.deterministic_view(),
            "sample at tick {} diverged between same-seed runs",
            sa.tick
        );
    }
    // The binary runs under the instrumented allocator, so the measured
    // gauges must actually be there (stripped above, asserted here): live
    // heap everywhere, RSS wherever the OS exposes it.
    let last = a.samples.last().expect("ring is non-empty");
    assert!(
        last.gauge("heap.live").is_some_and(|v| v > 0.0),
        "instrumented run must sample heap.live"
    );
    if cfg!(target_os = "linux") {
        assert!(
            last.gauge("mem.rss").is_some_and(|v| v > 0.0),
            "linux runs must sample process RSS"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_snapshot_leaves_a_parseable_snapshot_behind() {
    let dir = tempdir("crash");
    let data = generate_data(&dir);
    // `partial` tears the TEMP file then panics; `panic` dies before any
    // write. In both cases the final path only ever transitions between
    // complete documents (atomic rename), so whatever survives the crash
    // must parse — that is the durability contract `trace tail` leans on.
    for (tag, mode) in [
        ("partial", "live.write=partial@2"),
        ("panic", "live.write=panic@2"),
    ] {
        let live = dir.join(format!("live_{tag}"));
        let out = live_align(
            &data,
            &live,
            &dir.join(format!("{tag}.json")),
            &[],
            Some(("LARGEEA_FAILPOINTS", mode)),
        );
        assert!(
            !out.status.success(),
            "{mode} should crash the run:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let snapshot = live.join("live.trace.json");
        assert!(
            snapshot.exists(),
            "{mode}: the snapshot from before the crash must remain"
        );
        parse_file(&snapshot); // must be a complete document
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mem_budget_without_spill_dir_announces_its_tempdir_in_the_trace() {
    let dir = tempdir("autospill");
    let data = generate_data(&dir);
    let trace_out = dir.join("run.json");
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "8", "--dim", "16"])
        .args(["--mem-budget", "1M"])
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .unwrap();
    expect_success(&out);

    let trace = parse_file(&trace_out);
    let pipeline = trace
        .spans
        .iter()
        .find(|s| s.name == "pipeline")
        .expect("pipeline span");
    let spill_dir = pipeline
        .fields
        .iter()
        .find(|(k, _)| k == "spill.dir")
        .map(|(_, v)| format!("{v:?}"))
        .expect("--mem-budget without --spill-dir must announce spill.dir");
    assert!(
        spill_dir.contains("largeea_spill_"),
        "auto-picked dir should be the pid-tagged tempdir, got {spill_dir}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
