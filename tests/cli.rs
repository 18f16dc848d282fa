//! Integration tests for the `largeea` CLI binary: the full
//! generate → stats → partition → align → eval workflow a user would run.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_largeea"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("largeea_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("generate"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn missing_required_flag_fails() {
    let out = bin()
        .args(["generate", "--scale", "0.01"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--preset"), "{err}");
}

#[test]
fn full_workflow_generate_stats_partition_align_eval() {
    let dir = tempdir("workflow");
    let data = dir.join("data");
    let preds = dir.join("predictions.tsv");

    // generate
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
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(data.join("rel_triples_1").exists());
    assert!(data.join("ent_links").exists());

    // stats
    let out = bin().args(["stats", "--data"]).arg(&data).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ground-truth links: 150"), "{text}");

    // partition
    let ptrace_path = dir.join("partition_trace.json");
    let out = bin()
        .args(["partition", "--data"])
        .arg(&data)
        .args(["--k", "2", "--strategy", "cps", "--trace-out"])
        .arg(&ptrace_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("retention"), "{text}");
    assert!(text.contains("batch  0"), "{text}");
    let ptrace = std::fs::read_to_string(&ptrace_path).unwrap();
    assert!(ptrace.contains("\"cps_reweight\""), "{ptrace}");
    assert!(ptrace.contains("\"cps.virtual_edges\""), "{ptrace}");

    // align (small settings to stay fast), with a run trace
    let trace_path = dir.join("run_trace.json");
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args([
            "--model", "gcn", "--k", "2", "--epochs", "15", "--dim", "32", "--out",
        ])
        .arg(&preds)
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("H@1"), "{text}");
    assert!(text.contains("wrote run trace"), "{text}");
    assert!(preds.exists());
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.starts_with("{\"version\":2,\"spans\":["), "{trace}");
    // one sub-stage span from every instrumented subsystem (ISSUE §S0.5):
    // per-epoch training, per-pass refinement, per-block name search
    for span in [
        "\"pipeline\"",
        "\"epoch\"",
        "\"refine_pass\"",
        "\"sens_block\"",
    ] {
        assert!(trace.contains(span), "trace missing {span}");
    }

    // eval
    let out = bin()
        .args(["eval", "--data"])
        .arg(&data)
        .arg("--predictions")
        .arg(&preds)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("F1"), "{text}");
    // name-rich synthetic data: the decoded alignment should be mostly right
    let recall: f64 = text
        .split("recall ")
        .nth(1)
        .and_then(|s| s.split('%').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("recall parsed");
    assert!(recall > 50.0, "recall {recall} too low: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_align_survives_crash_and_resumes_identically() {
    let dir = tempdir("ckpt");
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

    let align = |extra_env: Option<(&str, &str)>, ckpt: &PathBuf, resume: bool, sim: &PathBuf| {
        let mut cmd = bin();
        cmd.args(["align", "--data"])
            .arg(&data)
            .args(["--model", "gcn", "--k", "2", "--epochs", "5", "--dim", "16"])
            .arg("--checkpoint-dir")
            .arg(ckpt)
            .arg("--sim-out")
            .arg(sim);
        if resume {
            cmd.arg("--resume");
        }
        if let Some((k, v)) = extra_env {
            cmd.env(k, v);
        }
        cmd.output().unwrap()
    };

    // uninterrupted baseline
    let base_sim = dir.join("base.sim");
    let out = align(None, &dir.join("ckpt_base"), false, &base_sim);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // a run killed mid-similarity-write by an injected failpoint...
    let crash_ckpt = dir.join("ckpt_crash");
    let crash_sim = dir.join("crash.sim");
    let out = align(
        Some(("LARGEEA_FAILPOINTS", "ckpt.sim=panic@1")),
        &crash_ckpt,
        false,
        &crash_sim,
    );
    assert!(
        !out.status.success(),
        "injected failpoint must kill the run"
    );
    assert!(
        !crash_sim.exists(),
        "the crashed run must not produce output"
    );

    // ...resumes to a bit-identical similarity matrix
    let out = align(None, &crash_ckpt, true, &crash_sim);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read(&base_sim).unwrap(),
        std::fs::read(&crash_sim).unwrap(),
        "resumed run produced a different similarity matrix"
    );

    // checkpoint counters surface in `trace summarize` (a fully warm
    // resume: everything loads, nothing is written)
    let trace_path = dir.join("resume_trace.json");
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "5", "--dim", "16"])
        .arg("--checkpoint-dir")
        .arg(&crash_ckpt)
        .arg("--resume")
        .arg("--trace-out")
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["trace", "summarize"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("ckpt.resume_skipped_stages"),
        "summarize missing resume counter: {text}"
    );
    // and a fresh checkpointed run reports its write volume
    let fresh_trace = dir.join("fresh_trace.json");
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "5", "--dim", "16"])
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt_fresh"))
        .arg("--trace-out")
        .arg(&fresh_trace)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["trace", "summarize"])
        .arg(&fresh_trace)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("ckpt.write_bytes"),
        "summarize missing write counter: {text}"
    );

    // the checkpoint directory is inspectable
    let out = bin()
        .args(["ckpt", "inspect"])
        .arg(&crash_ckpt)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["config_hash", "stages", "fused", "r0.partition"] {
        assert!(
            text.contains(needle),
            "inspect output missing {needle:?}: {text}"
        );
    }

    // --resume without --checkpoint-dir is a usage error
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .arg("--resume")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--checkpoint-dir"), "{err}");

    // inspecting a non-checkpoint directory fails cleanly
    let out = bin().args(["ckpt", "inspect"]).arg(&data).output().unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failpoints_list_matches_the_registry() {
    let out = bin().args(["failpoints", "list"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let registry = largeea::core::registered_failpoints();
    assert_eq!(
        listed.len(),
        registry.len(),
        "`failpoints list` and the registry disagree: {text}"
    );
    for (line_name, fp) in listed.iter().zip(&registry) {
        assert_eq!(*line_name, fp.name);
        assert!(text.contains(fp.site), "missing site text for {}", fp.name);
    }
    // anything but `list` is a usage error
    let out = bin().args(["failpoints", "arm"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// The documented exit-code taxonomy (see `largeea --help`): every
/// `RunError` variant maps to its own process exit code so scripts and
/// supervisors can tell a budget blow-up from a fault that outlived its
/// retries. Code 5 is retired (it was a heap-audit failure) and not reused.
#[test]
fn exit_codes_follow_the_documented_taxonomy() {
    let dir = tempdir("exitcodes");
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

    // 2: usage — unknown command, malformed flags, no command at all
    assert_eq!(
        bin().arg("frobnicate").output().unwrap().status.code(),
        Some(2)
    );
    assert_eq!(
        bin()
            .args(["align", "notaflag"])
            .output()
            .unwrap()
            .status
            .code(),
        Some(2)
    );
    assert_eq!(bin().output().unwrap().status.code(), Some(2));
    // …and a flag nobody knows, wherever it stands: the retired
    // `--quantize` must not swallow the flag after it
    let retired = bin()
        .args(["align", "--quantize", "--unsupervised", "--data"])
        .arg(&data)
        .output()
        .unwrap();
    assert_eq!(retired.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&retired.stderr).contains("unknown flag --quantize"));

    // …a required flag left out, or a value its flag does not take — the
    // message names the flag ("@data" stands for the generated directory)
    for (args, flag) in [
        (&["eval", "--data", "@data"][..], "--predictions"),
        (&["stats"], "--data"),
        (
            &["generate", "--preset", "foo", "--out", "@data"],
            "--preset",
        ),
        (&["align", "--data", "@data", "--k", "abc"], "--k"),
        (&["align", "--data", "@data", "--epochs", "-3"], "--epochs"),
        (
            &["align", "--data", "@data", "--mem-budget", "12Q"],
            "--mem-budget",
        ),
        (&["align", "--data", "@data", "--model", "foo"], "--model"),
        (&["align", "--data", "@data", "--csls", "x"], "--csls"),
        // …or a value out of its range: no batch, more batches than the
        // smaller side has entities, an empty CSLS neighbourhood
        (&["partition", "--data", "@data", "--k", "0"], "--k"),
        (&["partition", "--data", "@data", "--k", "100000"], "--k"),
        (&["align", "--data", "@data", "--k", "100000"], "--k"),
        (&["align", "--data", "@data", "--csls", "0"], "--csls"),
        (
            &["partition", "--data", "@data", "--strategy", "foo"],
            "--strategy",
        ),
        (
            &["trace", "diff", "a", "b", "--threshold-pct", "xyz"],
            "--threshold-pct",
        ),
        (&["trace", "heap", "a", "--top", "foo"], "--top"),
        // each trace subcommand takes only its own flags, checked before
        // any file is read: a typo'd gate must not pass silently
        (
            &["trace", "diff", "a", "b", "--threshold-pc", "10"],
            "--threshold-pc",
        ),
        (&["trace", "summarize", "a", "--folded"], "--folded"),
        // a retired subcommand or flag is an unknown one
        (&["trace", "check", "a"], "unknown trace subcommand"),
        (&["trace", "expo", "a"], "unknown trace subcommand"),
        (
            &["align", "--data", "@data", "--live-every", "2"],
            "--live-every",
        ),
    ] {
        let out = bin()
            .args(args.iter().map(|a| match *a {
                "@data" => data.as_os_str(),
                a => a.as_ref(),
            }))
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} must name {flag}: {err}");
    }

    // 1: generic error — well-formed flags, but the data is not there
    for args in [
        &["stats", "--data", "/nonexistent/largeea"][..],
        &["trace", "summarize", "/nonexistent/largeea.json"],
    ] {
        assert_eq!(
            bin().args(args).output().unwrap().status.code(),
            Some(1),
            "{args:?}"
        );
    }

    let align = |tag: &str, extra: &[&str], failpoints: Option<&str>| {
        let mut cmd = bin();
        cmd.args(["align", "--data"])
            .arg(&data)
            .args(["--model", "gcn", "--k", "2", "--epochs", "3", "--dim", "16"]);
        for a in extra {
            if *a == "@dir" {
                cmd.arg(dir.join(tag));
            } else {
                cmd.arg(a);
            }
        }
        if let Some(fp) = failpoints {
            cmd.env("LARGEEA_FAILPOINTS", fp);
        }
        cmd.output().unwrap()
    };

    // 3: RunError::Budget — a 1-byte budget refuses the first admission
    // point, and the message names it
    let out = align("budget", &["--mem-budget", "1"], None);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.contains("memory budget exceeded at \"stns\""), "{err}");

    // 4: RunError::Ckpt — a fatal (non-retryable) injected manifest failure
    let out = align(
        "ckpt",
        &["--checkpoint-dir", "@dir"],
        Some("ckpt.manifest=err@1"),
    );
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 6: RunError::Spill — a fatal injected spill-write failure
    let out = align("spill", &["--spill-dir", "@dir"], Some("spill.write=err@1"));
    assert_eq!(
        out.status.code(),
        Some(6),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 7: RunError::Exhausted — a transient fault deeper than site-level
    // backoff (4 attempts) × batch-level re-execution (4 attempts)
    let out = align(
        "exhausted",
        &["--checkpoint-dir", "@dir"],
        Some("ckpt.sim=transient@999"),
    );
    assert_eq!(
        out.status.code(),
        Some(7),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("retries exhausted"), "{err}");

    // 8: RunError::Quarantined — degradation allowed, but both channels
    // are lost to I/O faults: nothing left to degrade to
    let out = align(
        "quarantined",
        &["--checkpoint-dir", "@dir", "--degraded-ok"],
        Some("ckpt.name=err@1,ckpt.partition=err@1"),
    );
    assert_eq!(
        out.status.code(),
        Some(8),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no usable channel"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `--degraded-ok` turns a lost name channel into an honestly-flagged
/// structure-only run: exit 0, a DEGRADED line on stdout, and
/// `degraded.*` markers in the trace (and therefore `trace summarize`).
#[test]
fn degraded_ok_completes_structure_only_and_flags_it() {
    let dir = tempdir("degraded");
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

    // the name channel's one write is its checkpoint (SENS spills nothing)
    let trace_path = dir.join("degraded_trace.json");
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "3", "--dim", "16"])
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt"))
        .arg("--degraded-ok")
        .arg("--trace-out")
        .arg(&trace_path)
        .env("LARGEEA_FAILPOINTS", "ckpt.name=err@1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "degraded-ok run must complete: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("name_channel"), "{text}");
    assert!(text.contains("H@1"), "degraded run still evaluates: {text}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.contains("degraded.name_channel"), "{trace}");

    // the degradation counters surface in `trace summarize`
    let out = bin()
        .args(["trace", "summarize"])
        .arg(&trace_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("degraded.name_channel"), "{text}");

    // without --degraded-ok the same fault is terminal (exit 4: Ckpt)
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args(["--model", "gcn", "--k", "2", "--epochs", "3", "--dim", "16"])
        .arg("--checkpoint-dir")
        .arg(dir.join("ckpt2"))
        .env("LARGEEA_FAILPOINTS", "ckpt.name=err@1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsupervised_align_runs() {
    let dir = tempdir("unsup");
    let data = dir.join("data");
    let out = bin()
        .args([
            "generate",
            "--preset",
            "ids15k-en-de",
            "--scale",
            "0.008",
            "--out",
        ])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["align", "--data"])
        .arg(&data)
        .args([
            "--model",
            "gcn",
            "--k",
            "1",
            "--epochs",
            "10",
            "--dim",
            "16",
            "--unsupervised",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("pseudo seeds"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analysis_and_sim_out_are_the_same_with_and_without_a_budget() {
    let dir = tempdir("analysis");
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
    let spill = dir.join("spill");
    let align = |tag: &str, bounded: bool| {
        let sim = dir.join(format!("{tag}.sim"));
        let mut cmd = bin();
        cmd.args(["align", "--data"])
            .arg(&data)
            .args(["--model", "gcn", "--k", "2", "--epochs", "8", "--dim", "16"])
            .args(["--analysis", "--sim-out"])
            .arg(&sim);
        if bounded {
            cmd.args(["--mem-budget", "16M", "--spill-dir"]).arg(&spill);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = text.lines().find(|l| l.starts_with("channel attribution:"));
        let line = line.unwrap_or_else(|| panic!("[{tag}] no attribution line in:\n{text}"));
        (line.to_owned(), std::fs::read(&sim).unwrap())
    };
    let (in_ram_line, in_ram_sim) = align("in_ram", false);
    let (bounded_line, bounded_sim) = align("bounded", true);
    assert_eq!(bounded_line, in_ram_line);
    assert!(bounded_sim == in_ram_sim, "--sim-out bytes differ");
    assert!(!spill.exists(), "the spill dir must be cleaned up");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_stops_the_printing_not_the_work() {
    // `largeea align … | head -1`: the reader goes away while the command
    // still has lines to print and files to write. Here the read end is
    // closed before the child prints anything, so every line meets EPIPE.
    use std::process::Stdio;
    let dir = tempdir("epipe");
    let data = dir.join("data");
    let out = bin()
        .args(["generate", "--preset", "ids15k-en-fr", "--scale", "0.01"])
        .arg("--out")
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success());

    let align = |tag: &str| {
        let mut cmd = bin();
        cmd.args(["align", "--data"])
            .arg(&data)
            .args(["--model", "gcn", "--k", "2", "--epochs", "4", "--dim", "16"])
            .arg("--out")
            .arg(dir.join(format!("{tag}.tsv")))
            .arg("--sim-out")
            .arg(dir.join(format!("{tag}.sim")))
            .arg("--trace-out")
            .arg(dir.join(format!("{tag}.json")));
        cmd
    };
    let listened = align("listened").output().unwrap();
    assert!(listened.status.success());
    assert!(String::from_utf8_lossy(&listened.stdout).contains("wrote similarity matrix"));

    let mut child = align("ignored")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let ignored = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&ignored.stderr);
    assert_eq!(ignored.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for file in ["tsv", "sim"] {
        assert_eq!(
            std::fs::read(dir.join(format!("ignored.{file}"))).unwrap(),
            std::fs::read(dir.join(format!("listened.{file}"))).unwrap(),
            "--{file} output must be complete without a reader"
        );
    }
    assert!(
        dir.join("ignored.json").exists(),
        "--trace-out still written"
    );

    // the read-only commands print many lines; none may panic either
    for args in [
        vec!["stats", "--data", data.to_str().unwrap()],
        vec!["partition", "--data", data.to_str().unwrap(), "--k", "2"],
        vec![
            "trace",
            "summarize",
            dir.join("listened.json").to_str().unwrap(),
        ],
        vec!["trace", "heap", dir.join("listened.json").to_str().unwrap()],
        vec!["failpoints", "list"],
        vec!["--help"],
    ] {
        let mut child = bin()
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
