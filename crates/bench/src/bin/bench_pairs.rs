//! Folds alternating benchmark pairs into `BENCH_pairs.json`
//! (`scripts/bench.sh --parent <rev>` runs the pairs and calls this).
//!
//! Input (`--runs <file>`): one JSON object a line,
//! `{"seed":N,"side":"parent"|"change","workload":W,"result":{…}}`, where
//! `result` is the harness's result line of one timed run. `--manifest`
//! names `BENCHMARK.json`, whose `end_to_end` table gives every metric's
//! direction and bound. The report goes to stdout.
//!
//! Per workload × end-to-end metric the report holds each side's quartiles
//! over its runs, how many of the N seeds the change won (strictly better
//! in the metric's direction, against the parent's run on the same seed),
//! and a verdict: *moved* when the medians sit further apart than the
//! parent's quartile distance **and** one side won at least 9 of every 10
//! pairs, *inside noise* otherwise. `past_bound` flags a change median
//! worse than the parent's by more than the metric's relative bound.
//!
//! Flags: `--runs <file>`, `--manifest <file>`, `--parent <sha>`,
//! `--change <label>`, `--seconds <s>`.

use largeea_bench::arg_str;
use largeea_common::json::{self, Json, ToJson};
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

fn main() {
    let read = |flag: &str| {
        let path = arg_str(flag).unwrap_or_else(|| panic!("--{flag} <file> is required"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    };
    let manifest = json::parse(&read("manifest")).expect("manifest is JSON");
    let runs: Vec<Json> = read("runs")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("runs line {l:?}: {e}")))
        .collect();
    let seconds: f64 = arg_str("seconds").map_or(0.0, |s| s.parse().expect("--seconds"));
    let report = fold(&manifest, &runs);
    let out = Json::obj([
        ("schema", "largeea-benchmark-pairs".to_json()),
        ("parent", arg_str("parent").unwrap_or_default().to_json()),
        ("change", arg_str("change").unwrap_or_default().to_json()),
        ("seconds", seconds.to_json()),
        ("workloads", report),
    ]);
    println!("{}", out.dump());
}

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

/// The report's `workloads` array, in the manifest's workload order.
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

/// One metric's row: quartiles per side, wins, verdict.
fn compare(m: &Metric, pairs: &Pairs) -> Json {
    let complete: Vec<(f64, f64)> = pairs
        .values()
        .filter_map(|&(p, c)| Some((p?, c?)))
        .collect();
    let side = |pick: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = complete.iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        [quantile(&v, 0.25), quantile(&v, 0.5), quantile(&v, 0.75)]
    };
    let (parent, change) = (side(|p| p.0), side(|p| p.1));
    let better = |a: f64, b: f64| if m.lower_is_better { a < b } else { a > b };
    let wins = complete.iter().filter(|&&(p, c)| better(c, p)).count();
    let losses = complete.iter().filter(|&&(p, c)| better(p, c)).count();
    let n = complete.len();
    let verdict = if moved(parent, change[1], wins.max(losses), n) {
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
        ("wins", wins.to_json()),
        ("losses", losses.to_json()),
        ("verdict", verdict.to_json()),
        ("past_bound", past_bound.to_json()),
    ])
}

/// The medians sit further apart than the parent's quartile distance, and
/// the side that won most pairs won at least 9 of every 10.
fn moved(parent: [f64; 3], change_median: f64, most_wins: usize, n: usize) -> bool {
    n > 0 && (change_median - parent[1]).abs() > parent[2] - parent[0] && most_wins * 10 >= 9 * n
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

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        json::parse(
            r#"{"workloads":[{"name":"a"},{"name":"b"}],"end_to_end":[
                {"name":"wall_s","unit":"s","better":"lower","bound":0.25},
                {"name":"quality_pct","unit":"%","better":"higher","bound":0.01}]}"#,
        )
        .unwrap()
    }

    fn run(seed: u64, side: &str, wall: f64, quality: f64) -> Json {
        json::parse(&format!(
            r#"{{"seed":{seed},"side":"{side}","workload":"a","result":{{"failed":0,"metrics":{{
                "wall_s":{{"value":{wall}}},"quality_pct":{{"value":{quality}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn a_clear_cut_moves_and_a_tie_stays_inside_noise() {
        // the change is faster on every seed, by far more than the spread;
        // quality is identical everywhere
        let runs: Vec<Json> = (1..=10)
            .flat_map(|s| {
                let jitter = s as f64 * 0.01;
                [
                    run(s, "parent", 2.0 + jitter, 61.6),
                    run(s, "change", 1.5 + jitter, 61.6),
                ]
            })
            .collect();
        let report = fold(&manifest(), &runs);
        let rows = report.as_arr().unwrap();
        assert_eq!(rows.len(), 1, "workload b has no runs");
        let metrics = rows[0].get("metrics").unwrap().as_arr().unwrap();
        let wall = &metrics[0];
        assert_eq!(wall.get("wins").unwrap().as_u64(), Some(10));
        assert_eq!(wall.get("verdict").unwrap().as_str(), Some("moved"));
        assert_eq!(wall.get("past_bound").unwrap().as_bool(), Some(false));
        let quality = &metrics[1];
        assert_eq!(quality.get("wins").unwrap().as_u64(), Some(0));
        assert_eq!(quality.get("losses").unwrap().as_u64(), Some(0));
        assert_eq!(
            quality.get("verdict").unwrap().as_str(),
            Some("inside noise")
        );
    }

    #[test]
    fn a_slower_change_past_its_bound_is_flagged() {
        let runs: Vec<Json> = (1..=4)
            .flat_map(|s| [run(s, "parent", 1.0, 50.0), run(s, "change", 1.5, 49.0)])
            .collect();
        let report = fold(&manifest(), &runs);
        let metrics = report.as_arr().unwrap()[0].get("metrics").unwrap();
        for m in metrics.as_arr().unwrap() {
            assert_eq!(m.get("losses").unwrap().as_u64(), Some(4));
            assert_eq!(m.get("verdict").unwrap().as_str(), Some("moved"));
            assert_eq!(m.get("past_bound").unwrap().as_bool(), Some(true));
        }
    }

    #[test]
    fn eight_wins_of_ten_are_inside_noise() {
        let runs: Vec<Json> = (1..=10)
            .flat_map(|s| {
                let change = if s <= 8 { 1.0 } else { 3.0 };
                [run(s, "parent", 2.0, 1.0), run(s, "change", change, 1.0)]
            })
            .collect();
        let report = fold(&manifest(), &runs);
        let wall = &report.as_arr().unwrap()[0]
            .get("metrics")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(wall.get("wins").unwrap().as_u64(), Some(8));
        assert_eq!(wall.get("verdict").unwrap().as_str(), Some("inside noise"));
    }
}
