// The fold behind `bench_pairs` (src/bin/bench_pairs.rs), kept in its own
// file so `tests/bench_file.rs` can compile the same rule into its cases:
// both `include!` it. Not a module of the library.

use largeea_common::json::{Json, ToJson};
use std::collections::BTreeMap;

/// One end-to-end metric of the manifest.
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// `(parent, change)` per seed, for one workload × metric.
type Pairs = BTreeMap<u64, (Option<f64>, Option<f64>)>;

fn metrics(manifest: &Json) -> Vec<Metric> {
    let table = manifest.get("end_to_end").and_then(Json::as_arr);
    let table = table.expect("the manifest has an end_to_end table");
    fn field<'a>(row: &'a Json, k: &str) -> &'a Json {
        row.get(k).unwrap_or_else(|| panic!("end_to_end row: {k}"))
    }
    table
        .iter()
        .map(|row| Metric {
            name: field(row, "name").as_str().expect("name").to_owned(),
            unit: field(row, "unit").as_str().expect("unit").to_owned(),
            lower_is_better: field(row, "better").as_str() == Some("lower"),
            bound: field(row, "bound").as_f64().expect("bound"),
        })
        .collect()
}

/// The report's `workloads` array, in the manifest's workload order, from
/// one parsed run line each (`{"seed","side","workload","result"}`).
fn fold(manifest: &Json, runs: &[Json]) -> Json {
    let metrics = metrics(manifest);
    let workloads = manifest.get("workloads").and_then(Json::as_arr);
    let workloads = workloads.expect("the manifest has a workloads table");
    let mut rows = Vec::new();
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        let mine: Vec<&Json> = runs
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(name))
            .collect();
        if mine.is_empty() {
            continue;
        }
        let mut failed = [0u64; 2];
        let mut pairs: Vec<Pairs> = metrics.iter().map(|_| Pairs::new()).collect();
        for run in mine {
            let seed = run.get("seed").and_then(Json::as_u64).expect("seed");
            let side = match run.get("side").and_then(Json::as_str) {
                Some("parent") => 0,
                Some("change") => 1,
                other => panic!("side {other:?}"),
            };
            let result = run.get("result").expect("result");
            failed[side] += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            for (m, pairs) in metrics.iter().zip(&mut pairs) {
                let value = result
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64);
                let slot = pairs.entry(seed).or_default();
                if side == 0 {
                    slot.0 = value;
                } else {
                    slot.1 = value;
                }
            }
        }
        let n = pairs.first().map_or(0, |p| p.len());
        rows.push(Json::obj([
            ("workload", name.to_json()),
            ("seeds", n.to_json()),
            (
                "failed",
                Json::obj([
                    ("parent", failed[0].to_json()),
                    ("change", failed[1].to_json()),
                ]),
            ),
            (
                "metrics",
                Json::Arr(
                    metrics
                        .iter()
                        .zip(&pairs)
                        .map(|(m, p)| compare(m, p))
                        .collect(),
                ),
            ),
        ]));
    }
    Json::Arr(rows)
}

/// One metric's row: quartiles per side, each pair's change/parent ratio
/// and the ratios' quartiles, wins, verdict.
fn compare(m: &Metric, pairs: &Pairs) -> Json {
    let complete: Vec<(f64, f64)> = pairs
        .values()
        .filter_map(|&(p, c)| Some((p?, c?)))
        .collect();
    let quartiles_of = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        [quantile(&v, 0.25), quantile(&v, 0.5), quantile(&v, 0.75)]
    };
    let (parent, change) = (
        quartiles_of(complete.iter().map(|p| p.0).collect()),
        quartiles_of(complete.iter().map(|p| p.1).collect()),
    );
    // in seed order; a pair whose parent reads 0 has no ratio
    let ratios: Vec<f64> = complete
        .iter()
        .map(|&(p, c)| c / p)
        .filter(|r| r.is_finite())
        .collect();
    let ratio = quartiles_of(ratios.clone());
    let better = |a: f64, b: f64| if m.lower_is_better { a < b } else { a > b };
    let wins = complete.iter().filter(|&&(p, c)| better(c, p)).count();
    let losses = complete.iter().filter(|&&(p, c)| better(p, c)).count();
    let n = complete.len();
    let verdict = if moved(ratio, wins.max(losses), n) {
        "moved"
    } else {
        "inside noise"
    };
    let past_bound = n > 0 && {
        let worse_by = if m.lower_is_better {
            change[1] - parent[1]
        } else {
            parent[1] - change[1]
        };
        worse_by > m.bound * parent[1].abs()
    };
    let quartiles = |q: [f64; 3]| {
        Json::obj([
            ("q1", q[0].to_json()),
            ("median", q[1].to_json()),
            ("q3", q[2].to_json()),
        ])
    };
    Json::obj([
        ("name", m.name.to_json()),
        ("unit", m.unit.to_json()),
        (
            "better",
            if m.lower_is_better { "lower" } else { "higher" }.to_json(),
        ),
        ("bound", m.bound.to_json()),
        ("pairs", n.to_json()),
        ("parent", quartiles(parent)),
        ("change", quartiles(change)),
        ("ratios", ratios.to_json()),
        ("ratio", quartiles(ratio)),
        ("wins", wins.to_json()),
        ("losses", losses.to_json()),
        ("verdict", verdict.to_json()),
        ("past_bound", past_bound.to_json()),
    ])
}

/// The quartiles of the pairs' change/parent ratios exclude 1, and the
/// side that won most pairs won at least 9 of every 10. Each pair shares
/// its seed and its hour, so the ratio cancels what the two sides of a
/// pair share, which the spread of either side's own runs does not.
fn moved(ratio: [f64; 3], most_wins: usize, n: usize) -> bool {
    n > 0 && (ratio[2] < 1.0 || ratio[0] > 1.0) && most_wins * 10 >= 9 * n
}

/// The `q`-quantile of sorted `v`, interpolated linearly between ranks
/// (`NaN` when `v` is empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}
