//! Host context recorded beside every result: what the numbers were
//! measured on, and the memory bandwidth the same run could sustain.

use largeea_common::json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Elements per triad array: three 256 MiB `f32` arrays, far beyond any
/// cache level the run can use.
const TRIAD_LEN: usize = 64 << 20;
const TRIAD_PASSES: usize = 3;

/// `a[i] = b[i] + s·c[i]` over three 256 MiB arrays on `threads` threads;
/// the best pass's GiB/s, counting the three arrays once each (computed
/// bytes: write-allocate traffic is not included).
pub fn stream_gib_s(threads: usize) -> f64 {
    let threads = threads.max(1);
    let mut a = vec![0.0f32; TRIAD_LEN];
    let b = vec![1.5f32; TRIAD_LEN];
    let c = vec![0.25f32; TRIAD_LEN];
    let chunk = TRIAD_LEN.div_ceil(threads);
    let mut best = f64::INFINITY;
    // one extra pass first: it pays the page faults of `a`
    for pass in 0..=TRIAD_PASSES {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        black_box(&a);
        if pass > 0 {
            best = best.min(start.elapsed().as_secs_f64());
        }
    }
    let gib = (3 * TRIAD_LEN * std::mem::size_of::<f32>()) as f64 / (1u64 << 30) as f64;
    gib / best
}

fn first_line_value(text: &str, key: &str) -> Option<String> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

fn read_trimmed(path: &str) -> Option<String> {
    Some(std::fs::read_to_string(path).ok()?.trim().to_owned())
}

/// Cache sizes of CPU 0 as the kernel reports them, e.g. `L1d 32K, L2 2048K`.
fn caches() -> String {
    let mut found = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let suffix = match kind.as_str() {
            "Data" => "d",
            "Instruction" => "i",
            _ => "",
        };
        found.push(format!("L{level}{suffix} {size}"));
    }
    if found.is_empty() {
        "unknown".to_owned()
    } else {
        found.join(", ")
    }
}

/// The commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Everything that identifies where and how a result was measured.
pub fn context(pool_width: usize, isa: &str, seed: u64, seconds: f64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("nproc", Json::UInt(nproc as u64)),
        ("pool_width", Json::UInt(pool_width as u64)),
        (
            "cpu_model",
            Json::Str(
                first_line_value(&cpuinfo, "model name").unwrap_or_else(|| "unknown".to_owned()),
            ),
        ),
        ("caches", Json::Str(caches())),
        ("kernel_isa", Json::Str(isa.to_owned())),
        ("git_commit", Json::Str(git_commit())),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Float(seconds)),
        (
            "triad_arrays",
            Json::Str(format!(
                "3 x {} MiB f32",
                (TRIAD_LEN * std::mem::size_of::<f32>()) >> 20
            )),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuinfo_value_is_found() {
        let text = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\nflags\t: fpu\n";
        assert_eq!(
            first_line_value(text, "model name").as_deref(),
            Some("Some CPU @ 2.10GHz")
        );
        assert_eq!(first_line_value(text, "bogomips"), None);
    }
}
