//! The `largeea ckpt` subcommand — offline inspection of checkpoint
//! directories (DESIGN.md §S0.7).
//!
//! `inspect <dir>` prints the manifest (format version, config hash, seed,
//! bootstrap rounds, completed stages with on-disk artifact sizes) and, when
//! present, the latest per-epoch training progress. It never validates the
//! manifest against a run configuration — that is `align --resume`'s job —
//! so it works on checkpoints from any run.

use largeea::common::json::Json;
use largeea::core::checkpoint::{read_manifest, read_progress};
use std::path::Path;
use std::process::ExitCode;

const CKPT_USAGE: &str = "largeea ckpt — inspect crash-safe checkpoint directories

USAGE:
  largeea ckpt inspect <dir>
  largeea ckpt inspect --help

Prints the checkpoint manifest (config hash, seed, rounds, completed
stages + artifact sizes) and the latest training progress, if any.
Checkpoints are written by `largeea align --checkpoint-dir <dir>` and
resumed with `--resume` (DESIGN.md §S0.7).

Every artifact (`MANIFEST.ckpt`, `<stage>.ckpt`, and the transient
`<key>.spill` files of memory-bounded runs) is a CRC-framed LEAF1 file;
the byte-level layout, payload encodings, stage-key grammar and
durability classes are documented in docs/ARTIFACT_FORMAT.md.";

/// Entry point from `main` (args exclude the leading `ckpt`).
pub fn cmd_ckpt(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{CKPT_USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args {
        [sub, help] if sub == "inspect" && (help == "--help" || help == "-h") => {
            outln!("{CKPT_USAGE}");
            Ok(())
        }
        [sub, dir] if sub == "inspect" => inspect(Path::new(dir)),
        [sub, ..] if sub == "inspect" => Err("inspect needs exactly one <dir> argument".into()),
        [other, ..] => Err(format!("unknown ckpt subcommand {other:?}")),
        [] => Err("ckpt needs a subcommand (inspect)".into()),
    }
}

fn inspect(dir: &Path) -> Result<(), String> {
    // read_manifest's errors already name the file (common::fsio context)
    let manifest = read_manifest(dir).map_err(|e| e.to_string())?;
    let u64_field = |name: &str| manifest.get(name).and_then(Json::as_u64);
    outln!("checkpoint {}", dir.display());
    outln!(
        "  version     {}",
        u64_field("version").ok_or("manifest has no version")?
    );
    outln!(
        "  config_hash {:#018x}",
        u64_field("config_hash").ok_or("manifest has no config_hash")?
    );
    outln!(
        "  seed        {}",
        u64_field("seed").ok_or("manifest has no seed")?
    );
    outln!(
        "  rounds      {}",
        u64_field("rounds").ok_or("manifest has no rounds")?
    );
    let stages = manifest
        .get("stages")
        .and_then(Json::as_arr)
        .ok_or("manifest has no stages")?;
    outln!("  stages      {} completed", stages.len());
    for s in stages {
        let Some(key) = s.as_str() else { continue };
        let size = std::fs::metadata(dir.join(format!("{key}.ckpt")))
            .map(|m| format!("{:>12}", m.len()))
            .unwrap_or_else(|_| format!("{:>12}", "missing!"));
        outln!("    {size} B  {key}");
    }
    match read_progress(dir) {
        Ok(p) => {
            let f = |name: &str| p.get(name).and_then(Json::as_u64).unwrap_or(0);
            outln!(
                "  progress    round {} batch {} epoch {} loss {:.6}",
                f("round"),
                f("batch"),
                f("epoch"),
                p.get("loss").and_then(Json::as_f64).unwrap_or(f64::NAN)
            );
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            outln!("  progress    (none recorded)");
        }
        Err(e) => outln!("  progress    unreadable: {e}"),
    }
    Ok(())
}
