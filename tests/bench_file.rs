//! The committed `BENCH_pipeline.json` and `BENCH_pairs.json` are the repo
//! benchmark's own output (`scripts/bench.sh`, without and with
//! `--parent`): this pins their shapes against `BENCHMARK.json`, so a
//! hand-edited file or one from a stale workload list fails the gate.

use largeea::common::json::{self, Json};

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
            let verdict = m.get("verdict").and_then(Json::as_str);
            assert!(
                matches!(verdict, Some("moved" | "inside noise")),
                "{workload} {name}: verdict {verdict:?}"
            );
            assert!(m.get("past_bound").and_then(Json::as_bool).is_some());
        }
    }
}
