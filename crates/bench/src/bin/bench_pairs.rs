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
//! over its runs, each pair's change/parent ratio (seed order) with the
//! ratios' quartiles, how many of the N seeds the change won (strictly
//! better in the metric's direction, against the parent's run on the same
//! seed), and a verdict: *moved* when the ratios' quartiles exclude 1
//! **and** one side won at least 9 of every 10 pairs, *inside noise*
//! otherwise. `past_bound` flags a change median worse than the parent's
//! by more than the metric's relative bound. The fold itself is
//! `src/pairs.rs`, which `tests/bench_file.rs` compiles too.
//!
//! Flags: `--runs <file>`, `--manifest <file>`, `--parent <sha>`,
//! `--change <label>`, `--seconds <s>`.

use largeea_bench::arg_str;
use largeea_common::json;

// `fold`, and the JSON types it and `main` use
include!("../pairs.rs");

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
