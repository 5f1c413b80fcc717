//! Smoke test at a tiny size: every metric `BENCHMARK.json` names is
//! emitted with its unit, and nothing fails at the default seed.

use std::process::Command;

fn spec() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Run the benchmark binary at the tiny size; return its result object.
fn run(args: &[&str]) -> serde_json::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .args(["--size", "tiny", "--seconds", "0.2"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{args:?} exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("{args:?}: bad result {last}: {e}"))
}

fn assert_metrics(result: &serde_json::Value, wanted: &serde_json::Value, context: &str) {
    assert_eq!(
        result["correct"],
        serde_json::json!(true),
        "{context}: {result}"
    );
    assert_eq!(
        result["failed"],
        serde_json::json!(0),
        "{context}: error_rate is not 0"
    );
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1, "{context}");
    for metric in wanted.as_array().expect("metric list") {
        let name = metric["name"].as_str().expect("metric name");
        let got = &result["metrics"][name];
        assert!(got["value"].as_f64().is_some(), "{context}: {name} missing");
        assert_eq!(got["unit"], metric["unit"], "{context}: {name} unit");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let spec = spec();
    for workload in spec["workloads"].as_array().expect("workload list") {
        let name = workload["name"].as_str().expect("workload name");
        let result = run(&["--workload", name, "--trace", "0"]);
        assert_metrics(&result, &spec["end_to_end"], name);
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let spec = spec();
    let result = run(&["--workload", "campaign", "--trace", "1"]);
    assert_metrics(&result, &spec["per_layer"], "trace");
    assert_eq!(
        result["metrics"]["trace.divergent_jobs"]["value"].as_f64(),
        Some(0.0),
        "traced campaign matches the untraced one"
    );
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
}
