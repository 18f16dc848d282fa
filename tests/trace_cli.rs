//! Integration tests for `largeea trace`: the analysis loop over
//! `--trace-out` files — summarize, self-diff (exactly zero deltas),
//! regression gating against a deliberately slowed stage, and folded flame
//! stacks.

use largeea::common::json::ToJson;
use largeea::common::obs::{Trace, TraceSpan};
use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_largeea"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_trace_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout_of(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Generates a tiny dataset and runs one traced align into `trace_path`.
fn traced_align(dir: &Path, trace_path: &Path) {
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
        stdout_of(&out);
    }
    let mut cmd = bin();
    cmd.args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "8", "--dim", "16"])
        .arg("--trace-out")
        .arg(trace_path);
    stdout_of(&cmd.output().unwrap());
}

#[test]
fn summarize_prints_tree_metrics_and_throughputs() {
    let dir = tempdir("summarize");
    let trace = dir.join("run.json");
    traced_align(&dir, &trace);

    let out = bin()
        .arg("trace")
        .arg("summarize")
        .arg(&trace)
        .output()
        .unwrap();
    let text = stdout_of(&out);
    for needle in [
        "pipeline",
        "structure_channel",
        "epoch ×", // same-name siblings are folded
        "attribution coverage: ",
        "counters:",
        "partition.input_triples",
        "derived throughputs:",
        "train.epochs_per_sec",
        "topk.pairs_per_sec",
        "kg.load_mib_per_sec",
        "sens.refined_pairs",
        "derived ratios:",
        "sens.filter_pass_pct",
        "topk.filter_pass_pct",
        "negatives.filter_pass_pct",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_of_a_trace_with_itself_is_all_zeros_and_exits_zero() {
    let dir = tempdir("selfdiff");
    let trace = dir.join("run.json");
    traced_align(&dir, &trace);

    let out = bin()
        .arg("trace")
        .arg("diff")
        .arg(&trace)
        .arg(&trace)
        .args(["--threshold-pct", "0"])
        .output()
        .unwrap();
    let text = stdout_of(&out);
    assert!(text.contains("OK: no span regressed"), "{text}");
    assert!(!text.contains("REGRESSION"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_catches_a_deliberately_slowed_stage() {
    let dir = tempdir("slowdiff");
    let fast = dir.join("fast.json");
    let slow = dir.join("slow.json");
    traced_align(&dir, &fast);
    // `diff` is a function of its two files: the slow run is the fast one
    // with 400ms added to every `stns` span — a machine-independent
    // regression far past any scheduler noise
    fn slow_down(spans: &mut [TraceSpan]) {
        for s in spans {
            if s.name == "stns" {
                s.seconds += 0.4;
            }
            slow_down(&mut s.children);
        }
    }
    let mut trace = Trace::parse(&std::fs::read_to_string(&fast).unwrap()).unwrap();
    slow_down(&mut trace.spans);
    std::fs::write(&slow, trace.to_json_string()).unwrap();

    let out = bin()
        .arg("trace")
        .arg("diff")
        .arg(&fast)
        .arg(&slow)
        .args(["--threshold-pct", "10"])
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "slowed stns must trip the 10% gate:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("stns"), "{text}");

    // without a threshold the same diff is informational: exit 0
    let out = bin()
        .arg("trace")
        .arg("diff")
        .arg(&fast)
        .arg(&slow)
        .output()
        .unwrap();
    stdout_of(&out);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flame_emits_folded_stacks_with_self_micros() {
    let dir = tempdir("flame");
    let trace = dir.join("run.json");
    traced_align(&dir, &trace);

    let out = bin()
        .arg("trace")
        .arg("flame")
        .arg(&trace)
        .output()
        .unwrap();
    let text = stdout_of(&out);
    let mut saw_nested = false;
    for line in text.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("folded line has a value");
        value.parse::<u64>().expect("self-time is integer micros");
        saw_nested |= stack.contains(';');
    }
    assert!(saw_nested, "expected at least one nested stack:\n{text}");
    assert!(
        text.lines()
            .any(|l| l.starts_with("pipeline;structure_channel;train")),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_errors_are_reported_not_panicked() {
    let dir = tempdir("errors");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").unwrap();
    // schema v1 has had no producer since live telemetry; it is refused
    let v1 = dir.join("v1.json");
    std::fs::write(
        &v1,
        r#"{"version":1,"spans":[],"counters":{},"gauges":{},"histograms":{}}"#,
    )
    .unwrap();

    for args in [
        vec!["trace".to_owned()],
        vec!["trace".into(), "frobnicate".into()],
        vec!["trace".into(), "summarize".into()],
        vec![
            "trace".into(),
            "summarize".into(),
            garbage.display().to_string(),
        ],
        vec!["trace".into(), "summarize".into(), v1.display().to_string()],
    ] {
        let out = bin().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?} → {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A handcrafted schema-v2 live snapshot: a closed `load` whose one child
/// holds all its time (zero self seconds), one still-open span chain whose
/// epoch has a same-name sibling pair, the `progress.*` gauges a run
/// maintains, and a three-sample ring with spill activity — tables
/// deliberately NOT sorted to prove the tooling sorts defensively.
fn handcrafted_live_snapshot() -> String {
    concat!(
        r#"{"version":2,"#,
        r#""spans":[{"name":"load","seconds":0.25,"fields":{},"children":["#,
        r#"{"name":"parse","seconds":0.25,"fields":{},"children":[]}]},"#,
        r#"{"name":"pipeline","seconds":0.0,"fields":{},"children":["#,
        r#"{"name":"structure_channel","seconds":0.0,"fields":{},"children":["#,
        r#"{"name":"train","seconds":0.0,"fields":{},"children":["#,
        r#"{"name":"epoch","seconds":0.5,"fields":{},"children":["#,
        r#"{"name":"step","seconds":0.125,"fields":{},"children":[]},"#,
        r#"{"name":"step","seconds":0.125,"fields":{},"children":[]}]}]}]}]}],"#,
        r#""counters":{"zeta.ops":3,"mem.spill.write_bytes":4096,"alpha.ops":1},"#,
        r#""gauges":{"progress.rounds_total":1.0,"progress.round":1.0,"#,
        r#""progress.batches_total":2.0,"progress.batch":1.0,"#,
        r#""progress.epochs_total":4.0,"heap.live":2048.0},"#,
        r#""histograms":{"z.h":{"count":1,"sum":0.5,"min":0.5,"max":0.5,"p50":0.5,"p95":0.5},"#,
        r#""a.h":{"count":2,"sum":1.0,"min":0.25,"max":0.75,"p50":0.25,"p95":0.75}},"#,
        r#""samples":["#,
        r#"{"tick":2,"seconds":0.1,"counters":{"mem.spill.write_bytes":1024},"gauges":{"heap.live":512.0},"histograms":{}},"#,
        r#"{"tick":4,"seconds":0.2,"counters":{"mem.spill.write_bytes":1024},"gauges":{"heap.live":2048.0},"histograms":{}},"#,
        r#"{"tick":6,"seconds":0.3,"counters":{"mem.spill.write_bytes":4096},"gauges":{"heap.live":2048.0},"histograms":{}}"#,
        r#"]}"#,
    )
    .to_owned()
}

#[test]
fn tail_once_renders_open_path_progress_and_sparklines() {
    let dir = tempdir("tail");
    std::fs::write(dir.join("live.trace.json"), handcrafted_live_snapshot()).unwrap();

    // a directory argument resolves to <dir>/live.trace.json
    let out = bin()
        .arg("trace")
        .arg("tail")
        .arg(&dir)
        .arg("--once")
        .output()
        .unwrap();
    let text = stdout_of(&out);
    assert!(
        text.contains("open: pipeline > structure_channel > train"),
        "{text}"
    );
    assert!(text.contains("round 1/1"), "{text}");
    assert!(text.contains("batch 1/2"), "{text}");
    assert!(text.contains("epochs 1/8"), "{text}");
    assert!(text.contains("ETA"), "{text}");
    assert!(text.contains("tick 6"), "{text}");
    assert!(text.contains("mem.spill.write_bytes"), "{text}");
    assert!(text.contains('█'), "sparkline blocks expected in {text}");

    // the explicit file path form works too
    let out = bin()
        .arg("trace")
        .arg("tail")
        .arg(dir.join("live.trace.json"))
        .arg("--once")
        .output()
        .unwrap();
    stdout_of(&out);

    // --once on a missing snapshot is a clean failure, not a hang
    let out = bin()
        .arg("trace")
        .arg("tail")
        .arg(dir.join("nope"))
        .arg("--once")
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace of the same run shape written with sampling off (an empty
/// sample ring): `tail` must degrade to current gauge values — no
/// sparklines, no crash.
fn handcrafted_ringless_trace() -> String {
    concat!(
        r#"{"version":2,"#,
        r#""spans":[{"name":"pipeline","seconds":0.0,"fields":{},"children":["#,
        r#"{"name":"train","seconds":0.0,"fields":{},"children":[]}]}],"#,
        r#""counters":{"mem.spill.write_bytes":4096},"#,
        r#""gauges":{"progress.rounds_total":1.0,"progress.round":1.0,"#,
        r#""heap.live":2048.0},"#,
        r#""histograms":{},"samples":[]}"#,
    )
    .to_owned()
}

#[test]
fn tail_without_a_sample_ring_shows_current_gauges() {
    let dir = tempdir("tailnoring");
    std::fs::write(dir.join("live.trace.json"), handcrafted_ringless_trace()).unwrap();

    let out = bin()
        .arg("trace")
        .arg("tail")
        .arg(&dir)
        .arg("--once")
        .output()
        .unwrap();
    let text = stdout_of(&out);
    // the span/progress views need no sample ring and must still work
    assert!(text.contains("open: pipeline > train"), "{text}");
    assert!(text.contains("round 1/1"), "{text}");
    // gauges degrade to their current values in human units...
    assert!(text.contains("heap.live"), "{text}");
    assert!(text.contains("2.0K"), "{text}");
    // ...with no sparklines (there is no ring to draw them from)
    for block in ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'] {
        assert!(!text.contains(block), "unexpected sparkline in:\n{text}");
    }
    assert!(text.contains("0 sample(s)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn summarize_output_is_sorted_and_byte_deterministic() {
    let dir = tempdir("sorted");
    let path = dir.join("live.trace.json");
    std::fs::write(&path, handcrafted_live_snapshot()).unwrap();

    let run = || {
        let out = bin()
            .arg("trace")
            .arg("summarize")
            .arg(&path)
            .output()
            .unwrap();
        stdout_of(&out)
    };
    let text = run();
    // golden: the metric sections print name-sorted regardless of the
    // (deliberately shuffled) on-disk order
    let expected_counters = format!(
        "counters:\n  {:<38} {:>12}\n  {:<38} {:>12}\n  {:<38} {:>12}\n",
        "alpha.ops", 1, "mem.spill.write_bytes", 4096, "zeta.ops", 3
    );
    assert!(text.contains(&expected_counters), "{text}");
    let a_h = text.find("  a.h ").expect("a.h histogram row");
    let z_h = text.find("  z.h ").expect("z.h histogram row");
    assert!(a_h < z_h, "histograms must sort by name:\n{text}");
    let mut gauge_names: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "gauges:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let sorted = gauge_names.clone();
    gauge_names.sort_unstable();
    assert_eq!(sorted, gauge_names, "gauges must sort by name:\n{text}");
    assert!(text.contains("live samples: 3 (last tick 6)"), "{text}");
    assert_eq!(text, run(), "summarize must be byte-deterministic");
    std::fs::remove_dir_all(&dir).ok();
}

/// The reader's renderings of the handcrafted snapshot, byte for byte: the
/// `×N` fold of same-name siblings, zero-µs flame lines, and the diff's
/// ordering (largest |delta| first, ties by name) and verdict.
#[test]
fn tree_flame_and_diff_renderings_are_pinned() {
    let dir = tempdir("pins");
    let path = dir.join("live.trace.json");
    std::fs::write(&path, handcrafted_live_snapshot()).unwrap();
    let run = |sub: &str| bin().args(["trace", sub]).arg(&path).output().unwrap();

    let text = stdout_of(&run("summarize"));
    let tree = text.split("\n\n").next().unwrap();
    assert_eq!(
        tree,
        concat!(
            "  span                                        total       self  share\n",
            "  load                                       0.250s     0.000s 100.0%\n",
            "    parse                                    0.250s     0.250s 100.0%\n",
            "  pipeline                                   0.000s     0.000s   0.0%\n",
            "    structure_channel                        0.000s     0.000s   0.0%\n",
            "      train                                  0.000s     0.000s   0.0%\n",
            "        epoch                                0.500s     0.250s 200.0%\n",
            "          step ×2                            0.250s     0.250s 100.0%",
        )
    );

    let flame = stdout_of(&run("flame"));
    assert_eq!(
        flame,
        concat!(
            "load 0\n",
            "load;parse 250000\n",
            "pipeline 0\n",
            "pipeline;structure_channel 0\n",
            "pipeline;structure_channel;train 0\n",
            "pipeline;structure_channel;train;epoch 250000\n",
            "pipeline;structure_channel;train;epoch;step 250000\n",
        )
    );

    // the copy's first `step` takes 0.25 s more
    let mut trace = Trace::parse(&handcrafted_live_snapshot()).unwrap();
    let epoch = &mut trace.spans[1].children[0].children[0].children[0];
    epoch.children[0].seconds += 0.25;
    let slow = dir.join("slow.json");
    std::fs::write(&slow, trace.to_json_string()).unwrap();
    let out = bin()
        .args(["trace", "diff"])
        .arg(&path)
        .arg(&slow)
        .args(["--threshold-pct", "10"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a 100% regression trips the gate"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        concat!(
            "  span                                  a          b      delta      pct\n",
            "  step                             0.250s     0.500s    +0.250s  +100.0%\n",
            "  epoch                            0.500s     0.500s    +0.000s    +0.0%\n",
            "  load                             0.250s     0.250s    +0.000s    +0.0%\n",
            "  parse                            0.250s     0.250s    +0.000s    +0.0%\n",
            "  pipeline                         0.000s     0.000s    +0.000s      new\n",
            "  structure_channel                0.000s     0.000s    +0.000s      new\n",
            "  train                            0.000s     0.000s    +0.000s      new\n",
            "\n",
            "REGRESSION: 1 span(s) past the 10% threshold:\n",
            "  step: 0.250s → 0.500s (+0.250s)\n",
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}
