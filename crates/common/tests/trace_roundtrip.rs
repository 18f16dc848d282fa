//! Trace ingestion contract test: `Trace → JSON → Trace` is the identity
//! over arbitrary schema-v2 traces including the live-telemetry sample ring
//! (the property the diff tooling leans on: a trace can be written to disk
//! and read back losslessly).

use largeea_common::check::{for_each_case, string_from, unicode_string};
use largeea_common::json::ToJson;
use largeea_common::obs::{FieldValue, HistogramSummary, Sample, Trace, TraceSpan};
use largeea_common::rng::Rng;

/// A finite f64 drawn from the full bit pattern space.
fn arb_f64(rng: &mut Rng) -> f64 {
    loop {
        let f = f64::from_bits(rng.next_u64());
        if f.is_finite() {
            return f;
        }
    }
}

/// A canonical field value: `I64` only for negative integers (non-negative
/// ones serialise identically to `U64`, so ingestion canonicalises them).
fn arb_field(rng: &mut Rng) -> FieldValue {
    match rng.gen_range(0..5u32) {
        0 => FieldValue::U64(rng.next_u64() >> rng.gen_range(0..64u32)),
        1 => FieldValue::I64(-((rng.next_u64() >> rng.gen_range(1..64u32)) as i64) - 1),
        2 => FieldValue::F64(arb_f64(rng)),
        3 => FieldValue::Bool(rng.gen_bool(0.5)),
        _ => FieldValue::Str(unicode_string(rng, 0, 10)),
    }
}

fn arb_span(rng: &mut Rng, depth: usize) -> TraceSpan {
    let n_children = if depth < 3 {
        rng.gen_range(0..3usize)
    } else {
        0
    };
    TraceSpan {
        name: unicode_string(rng, 1, 12),
        seconds: rng.gen_range(0.0..100.0f64),
        fields: (0..rng.gen_range(0..4usize))
            .map(|_| (string_from(rng, "abcxyz._", 1, 8), arb_field(rng)))
            .collect(),
        children: (0..n_children).map(|_| arb_span(rng, depth + 1)).collect(),
    }
}

/// Sorted-by-name metric tables, as `Recorder::trace` produces them
/// (they come out of `BTreeMap`s).
fn arb_table<V>(rng: &mut Rng, mut value: impl FnMut(&mut Rng) -> V) -> Vec<(String, V)> {
    let mut names: Vec<String> = (0..rng.gen_range(0..5usize))
        .map(|i| format!("{}.{i}", string_from(rng, "abcdef", 1, 6)))
        .collect();
    names.sort();
    names.dedup();
    names.into_iter().map(|n| (n, value(rng))).collect()
}

fn arb_summary(r: &mut Rng) -> HistogramSummary {
    HistogramSummary {
        count: r.gen_range(1..1_000_000u64),
        sum: arb_f64(r),
        min: arb_f64(r),
        max: arb_f64(r),
        p50: arb_f64(r),
        p95: arb_f64(r),
    }
}

/// A live-telemetry sample with monotonically meaningless but valid
/// contents — ticks and metric tables exercise the same table parsers the
/// root uses.
fn arb_sample(rng: &mut Rng) -> Sample {
    Sample {
        tick: rng.next_u64() >> rng.gen_range(0..64u32),
        seconds: rng.gen_range(0.0..1000.0f64),
        counters: arb_table(rng, |r| r.next_u64() >> r.gen_range(0..64u32)),
        gauges: arb_table(rng, arb_f64),
        histograms: arb_table(rng, arb_summary),
    }
}

fn arb_trace(rng: &mut Rng) -> Trace {
    Trace {
        spans: (0..rng.gen_range(0..4usize))
            .map(|_| arb_span(rng, 0))
            .collect(),
        counters: arb_table(rng, |r| r.next_u64() >> r.gen_range(0..64u32)),
        gauges: arb_table(rng, arb_f64),
        histograms: arb_table(rng, arb_summary),
        samples: (0..rng.gen_range(0..4usize))
            .map(|_| arb_sample(rng))
            .collect(),
    }
}

#[test]
fn prop_trace_json_trace_is_identity() {
    for_each_case(0x7ACE_0001, 128, |rng| {
        let t = arb_trace(rng);
        let text = t.to_json_string();
        let back = Trace::parse(&text).unwrap_or_else(|e| panic!("{e} parsing {text}"));
        assert_eq!(back, t, "Trace → JSON → Trace mismatch for {text}");
        assert_eq!(back.to_json_string(), text, "re-dump must be byte-stable");
    });
}
