//! Fixed-bucket histograms with quantile summaries.
//!
//! The recorder needs distribution summaries (per-epoch loss, per-block
//! candidate counts, span durations) without retaining every observation.
//! [`Histogram`] keeps 64 power-of-two buckets plus exact `count`, `sum`,
//! `min` and `max`; quantiles are read off the bucket boundaries, so `p50`
//! and `p95` are upper bounds accurate to one octave (a factor of two) and
//! always clamped into `[min, max]`. That resolution is plenty for the
//! order-of-magnitude questions run traces answer ("did epoch loss fall by
//! 10× or 2×?"), and the state is 544 bytes per metric, forever.

use crate::json::{Json, ToJson};

/// Number of buckets: index 0 holds non-positive values, indices `1..64`
/// hold one octave each.
const BUCKETS: usize = 64;

/// The exponent bias: bucket `i` (for `i >= 1`) holds values `v` with
/// `floor(log2(v)) == i - BIAS`, i.e. the span `[2^(i-BIAS), 2^(i-BIAS+1))`.
/// Bias 33 centres the usable range on `[2^-32, 2^31)` — comfortably
/// covering nanosecond-scale seconds up to multi-billion counts.
const BIAS: i32 = 33;

/// A streaming fixed-bucket histogram (see the module docs for accuracy).
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation. Non-finite values are ignored (they carry
    /// no magnitude information and would poison `sum`).
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate `q`-quantile: the upper bound of the bucket containing
    /// the rank-`ceil(q·count)` observation, clamped into `[min, max]`.
    ///
    /// Total on every input, so no caller can make it panic with a quiet
    /// metric or a malformed quantile request: an empty histogram returns
    /// `0.0` for every `q`, and `q` outside `0.0 ..= 1.0` is clamped into
    /// that range first (`NaN` clamps to `0.0`, i.e. the minimum
    /// observation).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let upper = if i == 0 {
                    0.0
                } else {
                    (2.0f64).powi(i as i32 - BIAS + 1)
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The exported summary row (`count`, `sum`, `min`, `max`, `p50`,
    /// `p95`). An empty histogram summarises to all zeros.
    pub fn summary(&self) -> HistogramSummary {
        if self.count == 0 {
            return HistogramSummary::default();
        }
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.5),
            p95: self.quantile(0.95),
        }
    }
}

/// Maps a finite value to its bucket index.
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 {
        return 0;
    }
    let exp = v.log2().floor() as i32;
    (exp + BIAS).clamp(1, BUCKETS as i32 - 1) as usize
}

/// The summary a [`Histogram`] exports into a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Approximate median (octave resolution, clamped to `[min, max]`).
    pub p50: f64,
    /// Approximate 95th percentile (octave resolution, clamped).
    pub p95: f64,
}

impl ToJson for HistogramSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", self.count.to_json()),
            ("sum", self.sum.to_json()),
            ("min", self.min.to_json()),
            ("max", self.max.to_json()),
            ("p50", self.p50.to_json()),
            ("p95", self.p95.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [0.5, 2.0, 8.0] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 10.5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 8.0);
    }

    #[test]
    fn quantiles_have_octave_resolution() {
        let mut h = Histogram::new();
        for v in [0.5, 2.0, 8.0] {
            h.observe(v);
        }
        // p50: rank 2 lands in the [2,4) bucket → upper bound 4.0
        assert_eq!(h.quantile(0.5), 4.0);
        // p95: rank 3 lands in the [8,16) bucket → clamped to max 8.0
        assert_eq!(h.quantile(0.95), 8.0);
    }

    #[test]
    fn uniform_values_quantile_exactly() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.observe(1.0);
        }
        // single-valued distribution: clamp pins every quantile to 1.0
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(h.quantile(0.99), 1.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        assert_eq!(Histogram::new().summary(), HistogramSummary::default());
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    /// Edge-case contract: p50/p95 of an empty histogram are exactly 0.0 —
    /// never NaN, never a panic — for every quantile the tooling asks for.
    #[test]
    fn empty_histogram_quantiles_are_well_defined() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
        let s = h.summary();
        assert_eq!((s.p50, s.p95), (0.0, 0.0));
        assert!(!s.p50.is_nan() && !s.p95.is_nan());
        assert_eq!((s.min, s.max, s.sum), (0.0, 0.0, 0.0), "no INFINITY leak");
    }

    /// Edge-case contract: with a single sample, every quantile *is* that
    /// sample (the min==max clamp pins the bucket bound to it), including
    /// zero, negative, and extreme-magnitude samples.
    #[test]
    fn single_sample_quantiles_return_the_sample() {
        for sample in [5.0, 0.0, -3.0, 1e-12, 1e300, f64::MAX] {
            let mut h = Histogram::new();
            h.observe(sample);
            let s = h.summary();
            assert_eq!(s.count, 1);
            for q in [0.0, 0.5, 0.95, 1.0] {
                let v = h.quantile(q);
                assert_eq!(v, sample, "sample {sample}, q={q}");
                assert!(!v.is_nan());
            }
            assert_eq!((s.p50, s.p95), (sample, sample), "sample {sample}");
        }
    }

    /// Edge-case contract: `q` outside `[0, 1]` is clamped, `NaN` acts as
    /// `0.0` — the call is total for any request the tooling can make.
    #[test]
    fn out_of_range_quantile_requests_are_clamped() {
        let mut h = Histogram::new();
        for v in [0.5, 2.0, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
        assert_eq!(h.quantile(f64::INFINITY), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NEG_INFINITY), h.quantile(0.0));
        // …and on an empty histogram they are all still 0.0
        let e = Histogram::new();
        for q in [-1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(e.quantile(q), 0.0, "q={q}");
        }
    }

    #[test]
    fn non_positive_and_non_finite_handling() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 2, "non-finite observations are dropped");
        assert_eq!(h.summary().min, -3.0);
        // both land in bucket 0, whose upper bound 0.0 is inside [min, max]
        assert_eq!(h.quantile(0.25), 0.0);
    }

    #[test]
    fn extreme_magnitudes_stay_in_range() {
        let mut h = Histogram::new();
        h.observe(1e-12); // below bucket floor → clamps to bucket 1
        h.observe(1e15); // above bucket ceiling → clamps to bucket 63
        assert_eq!(h.count(), 2);
        let s = h.summary();
        assert!(s.p50 >= s.min && s.p50 <= s.max);
        assert!(s.p95 >= s.min && s.p95 <= s.max);
    }

    #[test]
    fn bucket_mapping() {
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(1.0), BIAS as usize); // [1,2)
        assert_eq!(bucket_of(1.5), BIAS as usize);
        assert_eq!(bucket_of(2.0), BIAS as usize + 1);
        assert_eq!(bucket_of(0.5), BIAS as usize - 1);
        assert_eq!(bucket_of(f64::MAX), BUCKETS - 1);
        assert_eq!(bucket_of(f64::MIN_POSITIVE), 1);
    }

    #[test]
    fn json_summary_keys_and_order() {
        let mut h = Histogram::new();
        h.observe(1.0);
        assert_eq!(
            h.summary().to_json_string(),
            r#"{"count":1,"sum":1.0,"min":1.0,"max":1.0,"p50":1.0,"p95":1.0}"#
        );
    }
}
