//! The benchmark prints exactly the metrics `BENCHMARK.json` declares: every
//! end-to-end metric on every workload with `--trace 0`, every per-layer
//! metric with `--trace 1`, each with its declared unit, after a short run.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The entries of one list of `BENCHMARK.json`, as raw text.
fn entries(list: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &BENCHMARK_JSON[start..];
    body[..body.find(']').expect("list closes")]
        .split('{')
        .skip(1)
        .collect()
}

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    entries(list)
        .into_iter()
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in {entry}"));
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_string()
}

/// `(name, unit)` of every metric in a result line.
fn reported(result: &str) -> Vec<(String, String)> {
    let metrics = &result[result.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\"value\"")
        .zip(metrics.split("\"value\"").skip(1))
        .map(|(before, after)| {
            let name_end = before.rfind("\": {").expect("metric name");
            let name_start = before[..name_end].rfind('"').expect("name opens") + 1;
            (
                before[name_start..name_end].to_string(),
                field(after, "unit"),
            )
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_distill-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
        ])
        .arg(trace.to_string())
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{workload}: {last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
    last
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_declared_metric_is_reported_and_nothing_else() {
    let workloads: Vec<String> = entries("workloads")
        .into_iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, ["cold_compile", "sweep_batch", "serve_mix"]);
    let end_to_end = sorted(declared("end_to_end"));
    for w in &workloads {
        assert_eq!(sorted(reported(&run(w, 0))), end_to_end, "{w}");
    }
    assert_eq!(
        sorted(reported(&run("serve_mix", 1))),
        sorted(declared("per_layer"))
    );
}

#[test]
fn refuses_process_global_fault_and_tier_settings() {
    for var in ["DISTILL_CHAOS", "DISTILL_DSWEEP_FAULTS", "DISTILL_TIER"] {
        let out = Command::new(env!("CARGO_BIN_EXE_distill-perfbench"))
            .args([
                "--workload",
                "cold_compile",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(var, "x")
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
    }
}
