//! The committed `BENCH_pipeline.json` and `BENCH_pairs.json` are the repo
//! benchmark's own output (`scripts/bench.sh`, without and with
//! `--parent`): this pins their shapes against `BENCHMARK.json`, so a
//! hand-edited file or one from a stale workload list fails the gate. The
//! paired cases run `bench_pairs`' own fold on synthetic pairs.

use largeea::common::json::{self, Json};

/// `bench_pairs`' fold (`crates/bench/src/pairs.rs`), compiled in here.
mod pairs {
    include!("../crates/bench/src/pairs.rs");

    /// The report's workload rows for `runs` under `manifest`.
    pub fn report(manifest: &Json, runs: &[Json]) -> Json {
        fold(manifest, runs)
    }
}

fn root_file(name: &str) -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(manifest: &Json, table: &str) -> Vec<String> {
    manifest
        .get(table)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {table:?} array"))
        .iter()
        .map(|row| {
            let name = row.get("name").and_then(Json::as_str);
            name.expect("every row is named").to_owned()
        })
        .collect()
}

#[test]
fn the_committed_file_holds_one_timed_and_one_traced_result_per_workload() {
    let manifest = root_file("BENCHMARK.json");
    let bench = root_file("BENCH_pipeline.json");
    assert_eq!(
        bench.get("schema").and_then(Json::as_str),
        Some("largeea-benchmark-runs")
    );
    let commit = bench
        .get("host")
        .and_then(|h| h.get("git_commit"))
        .and_then(Json::as_str)
        .expect("host.git_commit");
    assert!(
        is_commit(commit),
        "host.git_commit {commit:?} is not a commit"
    );

    let runs = bench.get("runs").and_then(Json::as_arr).expect("runs");
    let found: Vec<(String, u64)> = runs
        .iter()
        .map(|r| {
            let workload = r.get("workload").and_then(Json::as_str).expect("workload");
            let trace = r.get("trace").and_then(Json::as_u64).expect("trace");
            (workload.to_owned(), trace)
        })
        .collect();
    let wanted: Vec<(String, u64)> = names(&manifest, "workloads")
        .into_iter()
        .flat_map(|w| [(w.clone(), 0), (w, 1)])
        .collect();
    assert_eq!(
        found, wanted,
        "one trace-0 and one trace-1 run per workload"
    );

    let end_to_end = names(&manifest, "end_to_end");
    for (run, (workload, trace)) in runs.iter().zip(&found) {
        let result = run.get("result").expect("result");
        assert_eq!(
            result.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload} trace {trace}: failed attempts"
        );
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics");
        assert!(!metrics.is_empty(), "{workload} trace {trace}: no metrics");
        for (name, metric) in metrics {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{workload} trace {trace}: {name} has no value"
            );
        }
        if *trace == 0 {
            let have: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(have, end_to_end, "{workload}: the end-to-end metrics");
        }
    }
}

fn is_commit(s: &str) -> bool {
    s.len() == 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

#[test]
fn the_committed_pairs_file_compares_every_end_to_end_metric() {
    let manifest = root_file("BENCHMARK.json");
    let pairs = root_file("BENCH_pairs.json");
    assert_eq!(
        pairs.get("schema").and_then(Json::as_str),
        Some("largeea-benchmark-pairs")
    );
    let parent = pairs.get("parent").and_then(Json::as_str).expect("parent");
    assert!(is_commit(parent), "parent {parent:?} is not a commit");
    // the change is a commit, or the working tree on top of one
    let change = pairs.get("change").and_then(Json::as_str).expect("change");
    assert!(
        is_commit(change.strip_suffix("+dirty").unwrap_or(change)),
        "change {change:?}"
    );
    assert!(pairs.get("seconds").and_then(Json::as_f64).unwrap() > 0.0);

    let workloads = names(&manifest, "workloads");
    let end_to_end = names(&manifest, "end_to_end");
    let rows = pairs
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert!(!rows.is_empty());
    let mut last = None;
    for row in rows {
        let workload = row
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        let at = workloads.iter().position(|w| w == workload);
        assert!(at > last, "{workload}: unknown, or out of manifest order");
        last = at;
        let seeds = row.get("seeds").and_then(Json::as_u64).expect("seeds");
        assert!(seeds >= 1, "{workload}: no pairs");
        let metrics = row.get("metrics").and_then(Json::as_arr).expect("metrics");
        let have: Vec<&str> = metrics
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(have, end_to_end, "{workload}: the end-to-end metrics");
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let n = m.get("pairs").and_then(Json::as_u64).expect("pairs");
            assert_eq!(n, seeds, "{workload} {name}: a pair lacks a side");
            for side in ["parent", "change"] {
                let q = |k: &str| {
                    m.get(side)
                        .and_then(|s| s.get(k))
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{workload} {name}: {side}.{k}"))
                };
                assert!(
                    q("q1") <= q("median") && q("median") <= q("q3"),
                    "{workload} {name}: {side} quartiles out of order"
                );
            }
            let wins = m.get("wins").and_then(Json::as_u64).expect("wins");
            let losses = m.get("losses").and_then(Json::as_u64).expect("losses");
            assert!(
                wins + losses <= n,
                "{workload} {name}: wins + losses > pairs"
            );
            let ratios = m.get("ratios").and_then(Json::as_arr).expect("ratios");
            assert!(
                ratios.len() as u64 <= n,
                "{workload} {name}: a ratio per pair"
            );
            let ratio = |k: &str| {
                let q = m.get("ratio").and_then(|r| r.get(k)).and_then(Json::as_f64);
                q.unwrap_or_else(|| panic!("{workload} {name}: ratio.{k}"))
            };
            assert!(
                ratio("q1") <= ratio("median") && ratio("median") <= ratio("q3"),
                "{workload} {name}: ratio quartiles out of order"
            );
            // the paired rule: the ratios' quartiles exclude 1 and one side
            // won at least 9 of every 10 pairs
            let moved = (ratio("q3") < 1.0 || ratio("q1") > 1.0) && wins.max(losses) * 10 >= 9 * n;
            let verdict = m.get("verdict").and_then(Json::as_str);
            assert_eq!(
                verdict,
                Some(if moved { "moved" } else { "inside noise" }),
                "{workload} {name}: verdict"
            );
            assert!(m.get("past_bound").and_then(Json::as_bool).is_some());
        }
    }
}

fn manifest() -> Json {
    json::parse(
        r#"{"workloads":[{"name":"ids15k-rrea-unsup"}],"end_to_end":[
            {"name":"cpu_s","unit":"s","better":"lower","bound":0.25},
            {"name":"quality_pct","unit":"%","better":"higher","bound":0.01}]}"#,
    )
    .unwrap()
}

/// One timed run per seed and side: `(seed, parent cpu_s, change cpu_s)`,
/// quality 89.1 on both.
fn paired_runs(pairs: &[(u64, f64, f64)]) -> Vec<Json> {
    let run = |seed: u64, side: &str, cpu: f64| {
        json::parse(&format!(
            r#"{{"seed":{seed},"side":"{side}","workload":"ids15k-rrea-unsup","result":{{"failed":0,
                "metrics":{{"cpu_s":{{"value":{cpu}}},"quality_pct":{{"value":89.1}}}}}}}}"#
        ))
        .unwrap()
    };
    let sides = |&(seed, parent, change): &(u64, f64, f64)| {
        [run(seed, "parent", parent), run(seed, "change", change)]
    };
    pairs.iter().flat_map(sides).collect()
}

/// The `cpu_s` and `quality_pct` rows of the one workload's report.
fn rows(runs: &[Json]) -> [Json; 2] {
    let report = pairs::report(&manifest(), runs);
    let metrics = report.as_arr().unwrap()[0].get("metrics").unwrap();
    let metrics = metrics.as_arr().unwrap();
    [metrics[0].clone(), metrics[1].clone()]
}

fn field(row: &Json, path: &[&str]) -> f64 {
    let at = path.iter().try_fold(row, |j, k| j.get(k));
    at.and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{path:?}"))
}

#[test]
fn a_cut_in_every_pair_moves_against_a_wider_parent_spread() {
    // A noisy hour: the parent's cpu_s drifted from 1.40 to 1.95 s over the
    // ten seeds (quartiles 1.480–1.745), and every pair's change ran about
    // 10 % below its own parent, −9.7 % in the medians. The medians sit
    // closer together than the parent's quartiles do, which the spread
    // rule filed as inside noise; the pairs do not.
    let parents = [1.55, 1.47, 1.95, 1.40, 1.70, 1.51, 1.82, 1.45, 1.58, 1.76];
    let pairs: Vec<(u64, f64, f64)> = (101..)
        .zip(parents)
        .map(|(seed, p)| (seed, p, p * if seed % 2 == 0 { 0.899 } else { 0.903 }))
        .collect();
    let [cpu, quality] = rows(&paired_runs(&pairs));
    let (median, q1, q3) = (
        field(&cpu, &["parent", "median"]),
        field(&cpu, &["parent", "q1"]),
        field(&cpu, &["parent", "q3"]),
    );
    let change = field(&cpu, &["change", "median"]);
    assert!(
        (change / median - 0.903).abs() < 1e-9,
        "−9.7 % in the medians"
    );
    assert!(
        median - change < q3 - q1,
        "the move is inside the parent's spread"
    );
    assert_eq!(cpu.get("wins").and_then(Json::as_u64), Some(10));
    assert!(field(&cpu, &["ratio", "q3"]) < 1.0);
    assert_eq!(cpu.get("verdict").and_then(Json::as_str), Some("moved"));
    let ratios = cpu.get("ratios").and_then(Json::as_arr).unwrap();
    assert_eq!(ratios.len(), 10);
    assert_eq!(
        quality.get("verdict").and_then(Json::as_str),
        Some("inside noise")
    );
    assert_eq!(field(&quality, &["ratio", "median"]), 1.0);
}

#[test]
fn a_cut_that_eight_pairs_of_ten_show_stays_inside_noise() {
    // the ratios' quartiles exclude 1, but two pairs went the other way
    let pairs: Vec<(u64, f64, f64)> = (1..=10)
        .map(|seed| (seed, 1.2, if seed <= 8 { 1.0 } else { 1.3 }))
        .collect();
    let [cpu, _] = rows(&paired_runs(&pairs));
    assert!(field(&cpu, &["ratio", "q3"]) < 1.0);
    assert_eq!(cpu.get("wins").and_then(Json::as_u64), Some(8));
    assert_eq!(
        cpu.get("verdict").and_then(Json::as_str),
        Some("inside noise")
    );
}

#[test]
fn a_slowdown_in_every_pair_moves_and_crosses_its_bound() {
    let pairs: Vec<(u64, f64, f64)> = (1..=10).map(|seed| (seed, 1.0, 1.3)).collect();
    let [cpu, _] = rows(&paired_runs(&pairs));
    assert_eq!(cpu.get("losses").and_then(Json::as_u64), Some(10));
    assert!(field(&cpu, &["ratio", "q1"]) > 1.0);
    assert_eq!(cpu.get("verdict").and_then(Json::as_str), Some("moved"));
    assert_eq!(cpu.get("past_bound").and_then(Json::as_bool), Some(true));
}
