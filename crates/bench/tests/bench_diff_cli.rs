//! End-to-end tests of the `bench-diff` binary: pairwise and trajectory
//! comparisons, micro-bench group snapshots, and the machine-independent
//! gates, all through the real CLI.

use std::path::PathBuf;
use std::process::Command;

fn diff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(args)
        .output()
        .expect("bench-diff runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

fn write(dir: &std::path::Path, name: &str, contents: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("snapshot written");
    path.to_string_lossy().into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-diff-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn figure_snapshot(elapsed: f64) -> String {
    format!(
        r#"{{"figures":[{{"figure":"fig2","full_scale":false,"elapsed_s":{elapsed},"data":{{}}}}]}}"#
    )
}

#[test]
fn pairwise_within_tolerance_and_regression() {
    let dir = tmpdir("pairwise");
    let base = write(&dir, "base.json", &figure_snapshot(1.0));
    let ok = write(&dir, "ok.json", &figure_snapshot(1.2));
    let bad = write(&dir, "bad.json", &figure_snapshot(9.0));
    let (code, text) = diff(&[&base, &ok, "--threshold", "0.5", "--min-seconds", "0.0"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("within tolerance"), "{text}");
    let (code, text) = diff(&[&base, &bad, "--threshold", "0.5", "--min-seconds", "0.0"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("REGRESSION"), "{text}");
}

#[test]
fn trajectory_gates_only_the_newest_transition() {
    let dir = tmpdir("trajectory");
    // A historical regression (1.0 -> 9.0) followed by a recovery (9.0 ->
    // 1.1): the newest transition is fine, so the trajectory passes — but
    // the history is still reported.
    let a = write(&dir, "a.json", &figure_snapshot(1.0));
    let b = write(&dir, "b.json", &figure_snapshot(9.0));
    let c = write(&dir, "c.json", &figure_snapshot(1.1));
    let (code, text) = diff(&[&a, &b, &c, "--threshold", "0.5", "--min-seconds", "0.0"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("trajectory mode"), "{text}");
    assert!(text.contains("regressed (history)"), "{text}");
    // Reversed order: the newest transition regresses -> exit 1.
    let (code, text) = diff(&[&c, &a, &b, "--threshold", "0.5", "--min-seconds", "0.0"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("REGRESSION"), "{text}");
}

#[test]
fn micro_bench_group_snapshots_compare_medians() {
    let dir = tmpdir("groups");
    let base = write(
        &dir,
        "base.json",
        r#"{"group":"fig2_mesh","benchmarks":[{"id":"refine","median_s":0.001,"mad_s":0.0}]}"#,
    );
    let ok = write(
        &dir,
        "ok.json",
        r#"{"group":"fig2_mesh","benchmarks":[{"id":"refine","median_s":0.0012,"mad_s":0.0}]}"#,
    );
    let slow = write(
        &dir,
        "slow.json",
        r#"{"group":"fig2_mesh","benchmarks":[{"id":"refine","median_s":0.009,"mad_s":0.0}]}"#,
    );
    let gone = write(
        &dir,
        "gone.json",
        r#"{"group":"fig2_mesh","benchmarks":[{"id":"other","median_s":0.001,"mad_s":0.0}]}"#,
    );
    let (code, text) = diff(&[&base, &ok, "--threshold", "0.5"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("fig2_mesh/refine median"), "{text}");
    let (code, text) = diff(&[&base, &slow, "--threshold", "0.5"]);
    assert_eq!(code, 1, "{text}");
    let (code, text) = diff(&[&base, &gone, "--threshold", "0.5"]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("missing"), "{text}");
}

#[test]
fn stdout_captures_with_bench_json_lines_parse() {
    let dir = tmpdir("capture");
    let base = write(
        &dir,
        "base.log",
        "some noise\nBENCH-JSON {\"group\":\"g\",\"benchmarks\":[{\"id\":\"x\",\"median_s\":0.5,\"mad_s\":0.0}]}\nmore noise\n",
    );
    let cur = write(
        &dir,
        "cur.log",
        "BENCH-JSON {\"group\":\"g\",\"benchmarks\":[{\"id\":\"x\",\"median_s\":0.55,\"mad_s\":0.0}]}\n",
    );
    let (code, text) = diff(&[&base, &cur, "--threshold", "0.5"]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("g/x median"), "{text}");
}

#[test]
fn sweep_gate_fails_on_slow_or_divergent_anchors() {
    let dir = tmpdir("sweepgate");
    let sweep = |speedup: f64, identical: bool| {
        format!(
            r#"{{"figures":[{{"figure":"sweep","full_scale":false,"elapsed_s":1.0,
               "data":{{"anchor":{{"speedup_vs_grid":{speedup},"outputs_match":true}},
                        "all_identical":{identical}}}}}]}}"#
        )
    };
    let base = write(&dir, "base.json", &sweep(2.0, true));
    let fast = write(&dir, "fast.json", &sweep(1.9, true));
    let slow = write(&dir, "slow.json", &sweep(1.1, true));
    let split = write(&dir, "split.json", &sweep(2.0, false));
    let (code, text) = diff(&[&base, &fast]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("sweep speedup gate"), "{text}");
    let (code, text) = diff(&[&base, &slow]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("below required"), "{text}");
    let (code, text) = diff(&[&base, &split]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("diverged"), "{text}");
    // 0 disables the speedup gate (identity still enforced).
    let (code, text) = diff(&[&base, &slow, "--min-sweep-speedup", "0"]);
    assert_eq!(code, 0, "{text}");
}

#[test]
fn fused_gate_fails_on_slow_or_divergent_paths() {
    let dir = tmpdir("fusedgate");
    let fused = |speedup: f64, identical: bool| {
        format!(
            r#"{{"figures":[{{"figure":"fused","full_scale":false,"elapsed_s":1.0,
               "data":{{"workloads":[
                 {{"name":"predator_prey_2","speedup_median":{speedup},"outputs_match":{identical}}},
                 {{"name":"predator_prey_skewed","speedup_median":1.4,"outputs_match":true}}]}}}}]}}"#
        )
    };
    let base = write(&dir, "base.json", &fused(1.4, true));
    let fast = write(&dir, "fast.json", &fused(1.3, true));
    let slow = write(&dir, "slow.json", &fused(1.05, true));
    let split = write(&dir, "split.json", &fused(1.4, false));
    let (code, text) = diff(&[&base, &fast]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("fused speedup gate"), "{text}");
    let (code, text) = diff(&[&base, &slow]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("below required"), "{text}");
    let (code, text) = diff(&[&base, &split]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("diverged from the predecoded path"), "{text}");
    // 0 disables the speedup gate (identity still enforced).
    let (code, text) = diff(&[&base, &slow, "--min-fused-speedup", "0"]);
    assert_eq!(code, 0, "{text}");
    let (code, _) = diff(&[&base, &split, "--min-fused-speedup", "0"]);
    assert_eq!(code, 1);
}

#[test]
fn tiers_gate_fails_on_slow_or_divergent_paths() {
    let dir = tmpdir("tiersgate");
    let tiers = |speedup: f64, identical: bool| {
        format!(
            r#"{{"figures":[{{"figure":"tiers","full_scale":false,"elapsed_s":1.0,
               "data":{{"workloads":[
                 {{"name":"predator_prey_skewed","speedup_median":{speedup},"outputs_match":{identical},"reference_match":true}},
                 {{"name":"predator_prey_2","speedup_median":1.1,"outputs_match":true,"reference_match":true}}]}}}}]}}"#
        )
    };
    let base = write(&dir, "base.json", &tiers(1.2, true));
    let fast = write(&dir, "fast.json", &tiers(1.15, true));
    let slow = write(&dir, "slow.json", &tiers(1.01, true));
    let split = write(&dir, "split.json", &tiers(1.2, false));
    let (code, text) = diff(&[&base, &fast]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("threaded speedup gate"), "{text}");
    let (code, text) = diff(&[&base, &slow]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("below required"), "{text}");
    let (code, text) = diff(&[&base, &split]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("diverged from the fused path"), "{text}");
    // 0 disables the speedup gate (identity still enforced).
    let (code, text) = diff(&[&base, &slow, "--min-threaded-speedup", "0"]);
    assert_eq!(code, 0, "{text}");
    let (code, _) = diff(&[&base, &split, "--min-threaded-speedup", "0"]);
    assert_eq!(code, 1);
}

#[test]
fn serve_gate_fails_on_slow_or_divergent_serving() {
    let dir = tmpdir("servegate");
    let serve = |speedup: f64, identical: bool| {
        format!(
            r#"{{"figures":[{{"figure":"serve","full_scale":false,"elapsed_s":1.0,
               "data":{{"throughput_tps":800.0,"sequential_tps":820.0,
                 "coalesce_speedup":{speedup},"all_identical":{identical}}}}}]}}"#
        )
    };
    let base = write(&dir, "base.json", &serve(1.0, true));
    let ok = write(&dir, "ok.json", &serve(0.95, true));
    let slow = write(&dir, "slow.json", &serve(0.4, true));
    let split = write(&dir, "split.json", &serve(1.1, false));
    let (code, text) = diff(&[&base, &ok]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("serve throughput gate"), "{text}");
    let (code, text) = diff(&[&base, &slow]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("below required"), "{text}");
    let (code, text) = diff(&[&base, &split]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("coalesced serve response diverged"), "{text}");
    // 0 disables the throughput gate (identity still enforced).
    let (code, text) = diff(&[&base, &slow, "--min-serve-throughput", "0"]);
    assert_eq!(code, 0, "{text}");
    let (code, _) = diff(&[&base, &split, "--min-serve-throughput", "0"]);
    assert_eq!(code, 1);
}

#[test]
fn chaos_gate_fails_on_divergence_missed_panic_or_costly_absorption() {
    let dir = tmpdir("chaosgate");
    let chaos = |overhead: f64, identical: bool, panics: u64, failed: u64| {
        format!(
            r#"{{"figures":[{{"figure":"chaos","full_scale":false,"elapsed_s":1.0,
               "data":{{"clean_tps":900.0,"fault_tps":700.0,
                 "chaos_overhead":{overhead},"all_identical":{identical},
                 "worker_panics":{panics},"failed":{failed}}}}}]}}"#
        )
    };
    let base = write(&dir, "base.json", &chaos(1.2, true, 1, 0));
    let ok = write(&dir, "ok.json", &chaos(1.3, true, 1, 0));
    let costly = write(&dir, "costly.json", &chaos(9.0, true, 1, 0));
    let split = write(&dir, "split.json", &chaos(1.2, false, 1, 0));
    let calm = write(&dir, "calm.json", &chaos(1.2, true, 0, 0));
    let dropped = write(&dir, "dropped.json", &chaos(1.2, true, 1, 2));
    let (code, text) = diff(&[&base, &ok]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("chaos quarantine gate"), "{text}");
    assert!(text.contains("chaos absorption overhead gate"), "{text}");
    let (code, text) = diff(&[&base, &costly]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("chaos absorption overhead"), "{text}");
    let (code, text) = diff(&[&base, &split]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("diverged from its solo sweep"), "{text}");
    let (code, text) = diff(&[&base, &calm]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("caught no worker panic"), "{text}");
    let (code, text) = diff(&[&base, &dropped]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("past retry"), "{text}");
    // 0 disables the overhead gate (identity, panic and zero-failed checks
    // stay unconditional).
    let (code, text) = diff(&[&base, &costly, "--max-chaos-overhead", "0"]);
    assert_eq!(code, 0, "{text}");
    let (code, _) = diff(&[&base, &split, "--max-chaos-overhead", "0"]);
    assert_eq!(code, 1);
}

#[test]
fn scale_mismatch_is_refused() {
    let dir = tmpdir("scale");
    let base = write(&dir, "base.json", &figure_snapshot(1.0));
    let full = write(
        &dir,
        "full.json",
        r#"{"figures":[{"figure":"fig2","full_scale":true,"elapsed_s":1.0,"data":{}}]}"#,
    );
    let (code, text) = diff(&[&base, &full]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("refusing to compare"), "{text}");
    // In trajectory mode a scale switch inside *history* is reported and
    // skipped — only the gating (final) transition refuses outright.
    let recovered = write(&dir, "recovered.json", &figure_snapshot(1.1));
    let (code, text) = diff(&[&base, &full, &recovered]);
    assert_eq!(code, 2, "{text}");
    assert!(text.contains("refusing to compare"), "{text}");
    let (code, text) = diff(&[&full, &base, &recovered]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("skipping comparison (history)"), "{text}");
}
