//! Time-series samples: periodic snapshots of the metric tables.
//!
//! A [`Sample`] is one row of live telemetry — the values of every
//! counter, gauge and histogram summary at a given *sampler tick*, plus a
//! monotonic `seconds` timestamp. The sampler is driven from the span-exit
//! hot path (`SpanGuard::close`): every recorded span close is one tick,
//! and every `every`-th tick captures a sample into a fixed-capacity
//! [`SampleRing`]. Ticks — not wall-clock — decide *when* a sample is
//! taken, so for a fixed seed two runs capture samples at exactly the same
//! points in the computation and the rings are identical up to the
//! wall-clock `seconds` field and the sampled memory gauges — `heap.live`,
//! `heap.peak` and `mem.rss`, captured per sample when the recorder's heap
//! attribution is on (see [`Sample::deterministic_view`] and
//! `tests/live_telemetry.rs`).
//!
//! The ring keeps the newest `capacity` samples; a long run overwrites its
//! oldest history rather than growing without bound. Samples serialise
//! inside the schema-v2 [`Trace`](super::Trace) under the `"samples"` key
//! and are what `largeea trace tail` renders sparkline deltas from.

use super::trace::{bad, parse_counter_table, parse_gauge_table, parse_histogram_table};
use super::HistogramSummary;
use crate::json::{Json, ToJson};
use std::collections::VecDeque;

/// One sampled row: every metric table at sampler tick `tick`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The sampler tick (count of recorded span exits) this sample was
    /// taken at. Deterministic for a fixed seed.
    pub tick: u64,
    /// Monotonic seconds since sampling was enabled (wall-clock — the only
    /// non-deterministic field; normalise it away when comparing runs).
    pub seconds: f64,
    /// Counter values at this tick, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at this tick, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries at this tick, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Sample {
    /// The value of counter `name` in this sample (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The value of gauge `name` in this sample, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// A copy with `seconds` zeroed — what run-to-run determinism tests
    /// compare, since the tick and every metric value are seed-stable but
    /// the wall-clock is not.
    pub fn without_seconds(&self) -> Sample {
        Sample {
            seconds: 0.0,
            ..self.clone()
        }
    }

    /// A copy with every run-varying column removed: `seconds` zeroed and
    /// the sampled OS/allocator gauges (`mem.rss`, `heap.*`,
    /// `pool.worker_kept_bytes`) dropped.
    /// Residency depends on allocator reuse and pool interleaving, so —
    /// unlike tick-indexed counters — those gauges are not seed-stable
    /// across runs; determinism comparisons use this view.
    pub fn deterministic_view(&self) -> Sample {
        let mut s = self.without_seconds();
        s.gauges.retain(|(k, _)| {
            !matches!(k.as_str(), "mem.rss" | "pool.worker_kept_bytes") && !k.starts_with("heap.")
        });
        s
    }

    /// Parses one sample object from the schema-v2 `"samples"` array.
    pub(super) fn from_json(j: &Json) -> Result<Sample, String> {
        let tick = j
            .get("tick")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("sample", "missing integer \"tick\""))?;
        let seconds = j
            .get("seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(&format!("sample tick {tick}"), "missing number \"seconds\""))?;
        let ctx = format!("sample tick {tick}");
        Ok(Sample {
            tick,
            seconds,
            counters: parse_counter_table(j, &ctx)?,
            gauges: parse_gauge_table(j, &ctx)?,
            histograms: parse_histogram_table(j, &ctx)?,
        })
    }
}

impl ToJson for Sample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("tick", self.tick.to_json()),
            ("seconds", self.seconds.to_json()),
            (
                "counters",
                Json::obj(self.counters.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            (
                "gauges",
                Json::obj(self.gauges.iter().map(|(k, v)| (k.clone(), v.to_json()))),
            ),
            (
                "histograms",
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json())),
                ),
            ),
        ])
    }
}

/// Fixed-capacity ring of the newest samples, oldest-first on export.
#[derive(Debug, Clone)]
pub struct SampleRing {
    capacity: usize,
    buf: VecDeque<Sample>,
}

impl SampleRing {
    /// An empty ring retaining at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> SampleRing {
        let capacity = capacity.max(1);
        SampleRing {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, s: Sample) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(s);
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no sample has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained samples in chronological order (oldest first).
    pub fn to_vec(&self) -> Vec<Sample> {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64) -> Sample {
        Sample {
            tick,
            seconds: tick as f64 * 0.5,
            counters: vec![("c".to_owned(), tick)],
            gauges: vec![("g".to_owned(), tick as f64)],
            histograms: vec![],
        }
    }

    #[test]
    fn ring_evicts_oldest_and_exports_in_order() {
        let mut r = SampleRing::new(3);
        assert!(r.is_empty());
        for t in 1..=5 {
            r.push(sample(t));
        }
        assert_eq!(r.len(), 3);
        let ticks: Vec<u64> = r.to_vec().iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![3, 4, 5], "oldest evicted, chronological order");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = SampleRing::new(0);
        r.push(sample(1));
        r.push(sample(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.to_vec()[0].tick, 2);
    }

    #[test]
    fn lookups_and_normalisation() {
        let s = sample(4);
        assert_eq!(s.counter("c"), 4);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.gauge("g"), Some(4.0));
        assert_eq!(s.gauge("missing"), None);
        let n = s.without_seconds();
        assert_eq!(n.seconds, 0.0);
        assert_eq!(n.tick, 4, "only seconds is normalised");
        assert_eq!(n.counters, s.counters);
    }

    #[test]
    fn deterministic_view_strips_sampled_memory_gauges() {
        let mut s = sample(4);
        s.gauges.push(("heap.live".to_owned(), 123.0));
        s.gauges.push(("heap.peak".to_owned(), 456.0));
        s.gauges.push(("mem.rss".to_owned(), 789.0));
        let d = s.deterministic_view();
        assert_eq!(d.seconds, 0.0);
        assert_eq!(d.gauges, vec![("g".to_owned(), 4.0)]);
        assert_eq!(
            d.counters, s.counters,
            "counters and tick survive untouched"
        );
    }

    #[test]
    fn sample_json_shape() {
        let mut s = sample(2);
        s.histograms = vec![(
            "h".to_owned(),
            HistogramSummary {
                count: 1,
                sum: 1.0,
                min: 1.0,
                max: 1.0,
                p50: 1.0,
                p95: 1.0,
            },
        )];
        assert_eq!(
            s.to_json_string(),
            concat!(
                r#"{"tick":2,"seconds":1.0,"counters":{"c":2},"gauges":{"g":2.0},"#,
                r#""histograms":{"h":{"count":1,"sum":1.0,"min":1.0,"max":1.0,"p50":1.0,"p95":1.0}}}"#
            )
        );
    }
}
