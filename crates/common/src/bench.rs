//! Warmup + median wall-clock micro-benchmark timer, replacing `criterion`.
//!
//! Criterion gave the repo named benchmark groups, a per-iteration timing
//! loop, and stable summary lines. This keeps those and drops the rest
//! (statistical regression, plotting, disk state). Protocol per benchmark:
//!
//! 1. **Warmup** — the closure runs until ~`warmup_ms` wall-clock
//!    milliseconds have elapsed (at least once), so caches, allocator
//!    arenas and branch predictors settle.
//! 2. **Calibration** — the warmup's mean iteration time sizes a batch so
//!    each timed sample lasts roughly `sample_target_ms`, amortising timer
//!    overhead for nanosecond-scale bodies.
//! 3. **Measurement** — `sample_size` batches are timed; the **median**
//!    per-iteration time is reported (median resists scheduler noise
//!    better than the mean), alongside min and max.
//!
//! Results print to stdout as aligned text; run with
//! `cargo bench --offline` exactly as before.
//!
//! ```
//! use largeea_common::bench::Bench;
//!
//! let mut bench = Bench::new().sample_size(5).warmup_ms(1).sample_target_ms(1);
//! let mut group = bench.group("demo");
//! group.bench_function("sum_1k", |b| {
//!     b.iter(|| (0..1000u64).sum::<u64>())
//! });
//! group.finish();
//! ```

use std::hint::black_box;
use std::time::Instant;

/// Top-level benchmark harness: configuration plus group factory.
///
/// The API mirrors the slice of criterion the repo used: construct,
/// optionally tune, then open named [`Group`]s.
#[derive(Debug, Clone)]
pub struct Bench {
    sample_size: usize,
    warmup_ms: u64,
    sample_target_ms: u64,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            sample_size: 10,
            warmup_ms: 300,
            sample_target_ms: 100,
        }
    }
}

impl Bench {
    /// Creates a harness with the defaults (10 samples, 300 ms warmup,
    /// ~100 ms per sample).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets how many timed samples to take per benchmark (the median of
    /// these is reported).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warmup duration in milliseconds.
    pub fn warmup_ms(mut self, ms: u64) -> Self {
        self.warmup_ms = ms;
        self
    }

    /// Sets the target wall-clock duration of one timed sample in
    /// milliseconds.
    pub fn sample_target_ms(mut self, ms: u64) -> Self {
        self.sample_target_ms = ms;
        self
    }

    /// Opens a named benchmark group; its header prints immediately.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        println!("\n## {name}");
        Group { bench: self, name }
    }
}

/// A named group of benchmarks (mirrors criterion's `BenchmarkGroup`).
pub struct Group<'a> {
    bench: &'a Bench,
    name: String,
}

impl Group<'_> {
    /// Runs one benchmark: `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] exactly once with the body to measure.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let _ = self.bench_measured(id, f);
    }

    /// Like [`Group::bench_function`], but also returns the
    /// [`Measurement`] so callers can act on the numbers (compare
    /// variants, gate a regression).
    /// `None` if the closure never called [`Bencher::iter`].
    pub fn bench_measured<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> Option<Measurement>
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            cfg: self.bench.clone(),
            result: None,
        };
        f(&mut bencher);
        match bencher.result {
            Some(r) => println!(
                "{:<40} median {:>12}/iter  (min {}, max {}, {} samples × {} iters)",
                format!("{}/{}", self.name, id),
                fmt_ns(r.median_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.max_ns),
                r.samples,
                r.iters_per_sample,
            ),
            None => println!("{}/{id}: no measurement (iter not called)", self.name),
        }
        bencher.result
    }

    /// Ends the group (a no-op kept for criterion API parity).
    pub fn finish(self) {}
}

/// Measurement summary for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median per-iteration time across samples.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time.
    pub max_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (from calibration).
    pub iters_per_sample: u64,
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the body.
pub struct Bencher {
    cfg: Bench,
    result: Option<Measurement>,
}

impl Bencher {
    /// Measures `f` under the warmup/calibrate/median protocol described
    /// at the module level. The return value of `f` is passed through
    /// [`std::hint::black_box`] so the optimiser cannot delete the body.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warmup until the budget elapses (at least one call).
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        loop {
            black_box(f());
            warmup_iters += 1;
            if warmup_start.elapsed().as_millis() as u64 >= self.cfg.warmup_ms {
                break;
            }
        }
        let per_iter_ns = warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64;

        // Calibrate batch size towards sample_target_ms per sample.
        let target_ns = self.cfg.sample_target_ms as f64 * 1e6;
        let iters = ((target_ns / per_iter_ns.max(1.0)).ceil() as u64).max(1);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.cfg.sample_size);
        for _ in 0..self.cfg.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let median_ns = samples_ns[samples_ns.len() / 2];
        self.result = Some(Measurement {
            median_ns,
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().expect("at least one sample"),
            samples: samples_ns.len(),
            iters_per_sample: iters,
        });
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_body() {
        let mut bench = Bench::new().sample_size(3).warmup_ms(1).sample_target_ms(1);
        let mut group = bench.group("test");
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn median_is_between_min_and_max() {
        let mut bencher = Bencher {
            cfg: Bench::new().sample_size(5).warmup_ms(1).sample_target_ms(1),
            result: None,
        };
        bencher.iter(|| std::hint::black_box((0..100u64).sum::<u64>()));
        let m = bencher.result.expect("measured");
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
        assert!(m.min_ns > 0.0);
        assert_eq!(m.samples, 5);
    }

    #[test]
    fn bench_measured_returns_the_measurement() {
        let mut bench = Bench::new().sample_size(3).warmup_ms(1).sample_target_ms(1);
        let mut group = bench.group("test");
        let m = group
            .bench_measured("sum", |b| b.iter(|| (0..64u64).sum::<u64>()))
            .expect("measured");
        assert!(m.median_ns > 0.0);
        let none = group.bench_measured("noop", |_| {});
        assert!(none.is_none());
        group.finish();
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
