//! The benchmark's smoke test: every workload of `BENCHMARK.json`, at a
//! tiny size, in both modes, must pass its answer checks and print every
//! metric the contract names, with its unit, as parseable JSON.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;
use twx_obs::json::{parse, Json};

fn get<'a>(j: &'a Json, key: &str) -> &'a Json {
    match j {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object where {key} was expected"),
    }
}

fn keys(j: &Json) -> BTreeSet<String> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("not an object"),
    }
}

fn text(j: &Json) -> &str {
    match j {
        Json::Str(s) => s,
        _ => panic!("not a string"),
    }
}

fn number(j: &Json) -> f64 {
    match j {
        Json::Int(n) => *n as f64,
        Json::Num(x) => *x,
        _ => panic!("not a number"),
    }
}

fn array(j: &Json) -> &[Json] {
    match j {
        Json::Arr(items) => items,
        _ => panic!("not an array"),
    }
}

/// `(name, unit)` of every metric in one section of the contract.
fn table(contract: &Json, section: &str) -> Vec<(String, String)> {
    array(get(contract, section))
        .iter()
        .map(|m| {
            (
                text(get(m, "name")).to_string(),
                text(get(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Runs one tiny workload; returns the info line and the result line.
fn run(workload: &str, trace: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_twx-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected info and result lines"
    );
    let info = parse(lines[lines.len() - 2]).expect("info line parses");
    let result = parse(lines[lines.len() - 1]).expect("result line parses");
    (info, result)
}

// One test, run sequentially: the runs share the working directory's
// scratch area and would contend for the host's cores.
#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let contract = parse(&std::fs::read_to_string(manifest).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = array(get(&contract, "workloads"))
        .iter()
        .map(|w| text(get(w, "name")).to_string())
        .collect();
    assert_eq!(workloads, ["serve-hot", "serve-live", "eval-deep"]);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (info, result) = run(workload, trace);
            let context = format!("{workload} --trace {trace}");
            let expected: BTreeSet<String> = ["correct", "attempted", "failed", "metrics"]
                .map(String::from)
                .into();
            assert_eq!(keys(&result), expected, "{context}: result keys");
            assert!(
                matches!(get(&result, "correct"), Json::Bool(true)),
                "{context}"
            );
            assert_eq!(number(get(&result, "failed")), 0.0, "{context}");
            assert!(number(get(&result, "attempted")) >= 1.0, "{context}");
            let metrics = get(&result, "metrics");
            let names = table(&contract, section);
            let wanted: BTreeSet<String> = names.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(keys(metrics), wanted, "{context}: metric names");
            for (name, unit) in &names {
                let m = get(metrics, name);
                assert!(number(get(m, "value")).is_finite(), "{context}: {name}");
                assert_eq!(text(get(m, "unit")), unit, "{context}: unit of {name}");
            }
            let tags = get(&info, "tags");
            for tag in ["nproc", "git_rev", "rustc", "store_fs", "seed"] {
                get(tags, tag);
            }
            if workload == "serve-live" {
                // every document stays within one node of its start size
                let info = get(&info, "info");
                let total = number(get(info, "total_nodes"));
                let (lo, hi) = (
                    number(get(info, "nodes_band_lo")),
                    number(get(info, "nodes_band_hi")),
                );
                assert!(lo < hi && (lo..=hi).contains(&total), "{context}: {total}");
                assert_eq!(number(get(info, "fsync_every")), 1.0, "{context}");
            }
        }
    }
}
