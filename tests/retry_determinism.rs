//! Retry determinism (DESIGN.md §S0.7): the backoff executor's virtual
//! clock and seeded jitter make a faulted run as reproducible as a clean
//! one. Same seed + same `transient@n` schedule ⇒ the same trace — the
//! same span tree, the same `retry.attempts`/`retry.backoff_ticks`
//! counters, byte for byte — at thread widths 1, 2 and 4, and across
//! reruns at the same width.
//!
//! The pool is process-global (`LARGEEA_THREADS`, read once), so each
//! width runs the real CLI binary as a subprocess with its own
//! environment — the same harness a user's shell would be.
//!
//! Byte-identity is asserted after scrubbing the trace's *measurement*
//! fields — quantities that describe the machine doing the work rather
//! than the work itself, and that legitimately vary run-to-run:
//! wall-clock `seconds`, the declared pool width (`threads` span fields),
//! and instrumented-allocator readings (`alloc.*` span fields, `heap.*`
//! gauges; allocator totals shift with std's per-process hasher seeds).
//! Everything else — span structure, result fields, every counter
//! including `retry.*` — must match exactly.

use largeea::common::json::ToJson;
use largeea::common::obs::{Trace, TraceSpan};
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_largeea"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_rdet_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Zeroes wall-clock and drops measurement-only fields (see module docs).
fn canonical(mut t: Trace) -> String {
    fn scrub(s: &mut TraceSpan) {
        s.seconds = 0.0;
        s.fields
            .retain(|(k, _)| k != "threads" && !k.starts_with("alloc."));
        for c in &mut s.children {
            scrub(c);
        }
    }
    for s in &mut t.spans {
        scrub(s);
    }
    t.gauges.retain(|(k, _)| !k.starts_with("heap."));
    t.to_json_string()
}

#[test]
fn faulted_traces_are_byte_identical_across_widths_and_reruns() {
    let dir = tempdir("sweep");
    let data = dir.join("data");
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
    assert!(out.status.success());

    // (tag, width): widths 1/2/4, plus a second width-1 run for rerun
    // determinism. Fixed transient schedule: the first two `ckpt.sim`
    // writes fail, the site-level retry absorbs both.
    let runs = [("w1", "1"), ("w1_again", "1"), ("w2", "2"), ("w4", "4")];
    let mut traces = Vec::new();
    for (tag, width) in runs {
        let trace_path = dir.join(format!("{tag}.trace.json"));
        let out = bin()
            .args(["align", "--data"])
            .arg(&data)
            .args(["--model", "gcn", "--k", "2", "--epochs", "5", "--dim", "16"])
            .arg("--checkpoint-dir")
            .arg(dir.join(format!("ckpt_{tag}")))
            .arg("--trace-out")
            .arg(&trace_path)
            .env("LARGEEA_THREADS", width)
            .env("LARGEEA_FAILPOINTS", "ckpt.sim=transient@2")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "[{tag}] transient@2 must be absorbed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&trace_path).unwrap();
        traces.push((tag, Trace::parse(&text).unwrap()));
    }

    // the fault left deterministic retry evidence in every trace
    for (tag, t) in &traces {
        assert_eq!(t.counter("retry.attempts"), 2, "[{tag}]");
        assert!(t.counter("retry.backoff_ticks") > 0, "[{tag}]");
        assert_eq!(t.counter("retry.gave_up"), 0, "[{tag}]");
    }

    // byte-identical canonical traces: rerun and every width
    let reference = canonical(traces[0].1.clone());
    for (tag, t) in traces.iter().skip(1) {
        assert_eq!(
            reference,
            canonical(t.clone()),
            "[{tag}] trace diverged from the width-1 reference"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
