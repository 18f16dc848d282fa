//! Runs the `largeea` CLI as a child process and measures it from outside:
//! wall time from spawn to exit, CPU time from the harness's own
//! `/proc/self/stat` children counters, and peak RSS polled from
//! `/proc/<pid>/status`.
//!
//! The harness waits for one child at a time, so a `cutime + cstime` delta
//! across `wait` belongs to that child alone.

use crate::parse::{self, StatTicks};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `VmHWM` only grows, so polling misses at most the last interval. The
/// interval is also the step in which `wall_s` is read, so it grows with the
/// child's age — a 128th of it, at most 20 ms: a 40 ms `stats` child is
/// timed to well under a millisecond, not to the nearest 20.
const RSS_POLL_MAX: Duration = Duration::from_millis(20);
const RSS_POLL_MIN: Duration = Duration::from_micros(100);

/// Variables that switch on tracing, fault injection or another kernel
/// path in the program; a measured child runs without them.
const SCRUBBED_ENV: [&str; 5] = [
    "LARGEEA_LOG",
    "LARGEEA_NO_SIMD",
    "LARGEEA_FAILPOINTS",
    "LARGEEA_HEAP_LEAK",
    "LARGEEA_SLOW_SPAN",
];

/// One finished child and what it cost.
#[derive(Debug)]
pub struct ChildRun {
    pub stdout: String,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
}

/// Where the `largeea` binary is, how its CPU ticks convert to seconds, and
/// the directory that receives each child's stdout and stderr (files, so a
/// talkative child can never block on a full pipe).
#[derive(Debug, Clone)]
pub struct Cli {
    pub bin: PathBuf,
    pub clk_tck: f64,
    pub out_dir: PathBuf,
}

pub fn self_ticks() -> Result<StatTicks, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse::stat_ticks(&stat).map_err(|e| e.to_string())
}

impl Cli {
    /// Runs `largeea <args>` to completion. `Err` covers a spawn failure, a
    /// non-zero exit and a run longer than `timeout` (the child is killed
    /// and reaped first).
    pub fn run(&self, args: &[String], timeout: Duration) -> Result<ChildRun, String> {
        let (out_path, err_path) = (
            self.out_dir.join("child.out"),
            self.out_dir.join("child.err"),
        );
        let create =
            |p: &Path| File::create(p).map_err(|e| format!("creating {}: {e}", p.display()));
        let mut cmd = Command::new(&self.bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(create(&out_path)?)
            .stderr(create(&err_path)?);
        for var in SCRUBBED_ENV {
            cmd.env_remove(var);
        }
        let before = self_ticks()?;
        let start = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", self.bin.display()))?;
        let status_path = format!("/proc/{}/status", child.id());
        let mut peak_kib = 0u64;
        let status = loop {
            if let Ok(text) = std::fs::read_to_string(&status_path) {
                // a zombie's status has no VmHWM line; keep the last reading
                if let Ok(kib) = parse::vm_hwm_kib(&text) {
                    peak_kib = peak_kib.max(kib);
                }
            }
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() > timeout => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("timed out after {:.0} s", timeout.as_secs_f64()));
                }
                Ok(None) => {
                    std::thread::sleep((start.elapsed() / 128).clamp(RSS_POLL_MIN, RSS_POLL_MAX))
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("waiting for the child: {e}"));
                }
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let after = self_ticks()?;
        let read = |p: &Path| {
            std::fs::read(p)
                .map(|b| String::from_utf8_lossy(&b).into_owned())
                .map_err(|e| format!("reading {}: {e}", p.display()))
        };
        if !status.success() {
            return Err(format!(
                "`largeea {}` exited with {status}: {}",
                args.join(" "),
                read(&err_path)?.trim()
            ));
        }
        let stdout = read(&out_path)?;
        let ticks = (after.cutime + after.cstime) - (before.cutime + before.cstime);
        Ok(ChildRun {
            stdout,
            wall_s,
            cpu_s: ticks as f64 / self.clk_tck,
            peak_rss_mib: peak_kib as f64 / 1024.0,
        })
    }
}

/// Turns `["align", "--k", "5"]`-style pieces into owned arguments.
pub fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| (*s).to_owned()).collect()
}

/// `path` as a command-line argument.
pub fn path_arg(path: &Path) -> String {
    path.display().to_string()
}
