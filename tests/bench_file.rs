//! The committed `BENCH_pipeline.json` is the repo benchmark's own output
//! (`scripts/bench.sh`): this pins its shape against `BENCHMARK.json`, so a
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
        commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()),
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
