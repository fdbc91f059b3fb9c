//! Compare archived benchmark snapshots and fail on regressions — the BENCH
//! trajectory consumer the ROADMAP asks for.
//!
//! ```text
//! bench-diff BASELINE.json CURRENT.json [MORE.json ...] [options]
//!   --threshold R           relative tolerance on per-figure elapsed time
//!                           (default 1.5: fail only when > 2.5x baseline)
//!   --min-seconds S         absolute slack added to the elapsed band
//!                           (default 0.1 s; absorbs sub-figure jitter)
//!   --mad-k K               MAD multiplier for median comparisons
//!                           (default 6.0)
//!   --min-interp-speedup X  required `interp` median speedup of the
//!                           predecoded engine over the reference
//!                           interpreter (default 2.0; 0 disables)
//!   --min-sweep-speedup X   required `sweep` anchor speedup of the
//!                           sharded+batched run over per-trial multicore
//!                           grid search (default 1.5; 0 disables)
//!   --min-fused-speedup X   required `fused` median speedup of the fused
//!                           superinstruction path over the unfused
//!                           predecoded interpreter on the Fig. 2 workload
//!                           (default 1.15; 0 disables)
//!   --min-threaded-speedup X required `tiers` median speedup of the
//!                           direct-threaded dispatch tier over the fused
//!                           interpreter on the cost-skewed predator-prey
//!                           workload (default 1.05; 0 disables)
//!   --min-serve-throughput X required `serve` coalesced-serving throughput
//!                           as a fraction of the sequential solo-replay
//!                           throughput (default 0.75; 0 disables). A bound
//!                           on serving overhead: single-core containers
//!                           cap the ratio near 1.0, multi-core machines
//!                           push it well past it.
//!   --max-dsweep-overhead X upper bound on the `dsweep` figure's
//!                           `recovery_overhead` (faulted wall-clock over
//!                           clean wall-clock; default 6.0; 0 disables).
//!                           The dsweep identity flags and the
//!                           recovery-was-exercised check (a worker death
//!                           and >= 1 re-issued lease whenever workers
//!                           actually connected) are unconditional.
//!   --max-chaos-overhead X  upper bound on the `chaos` figure's
//!                           `chaos_overhead` (clean open-loop serving
//!                           throughput over the same load with a seeded
//!                           worker panic absorbed; default 6.0; 0
//!                           disables). The chaos identity flag, the
//!                           panic-was-exercised check, and the
//!                           zero-failed-requests check are unconditional.
//!   --max-telemetry-overhead X upper bound on the `telemetry` figure's
//!                           `overhead_ratio` (fused-tier per-trial cost
//!                           with probes live over the same run with the
//!                           kill switch thrown, best-of paired samples;
//!                           default 1.05; 0 disables). The kill-switch
//!                           bit-identity flag and the probes-fired /
//!                           probes-silent counters are unconditional.
//! ```
//!
//! Each input is one of:
//!
//! * a combined `figures` report (`{"figures": [...]}`),
//! * a single per-figure record (`{"figure": ...}`),
//! * a micro-bench group snapshot as written by the bench harness
//!   (`{"group": ..., "benchmarks": [...]}`), or
//! * a raw stdout capture: any lines prefixed `FIG-JSON ` / `BENCH-JSON `
//!   are collected, so `figures > log` and `cargo bench > log` archives
//!   diff without postprocessing.
//!
//! With two inputs the comparison is the classic baseline-vs-current pair.
//! With three or more, **trajectory mode** walks consecutive pairs in the
//! given (oldest → newest) order: every transition is reported, but only
//! regressions in the *final* transition set the exit status — the history
//! already happened; the gate protects the newest step. The machine-
//! independent gates (interp speedup, sweep speedup, identity flags) always
//! apply to the newest snapshot.
//!
//! Per-figure checks: an **elapsed band** (`base * (1 + threshold) +
//! min_seconds`) and, for figures carrying robust statistics, a **median ±
//! MAD band**. Micro-bench groups compare each benchmark's `median_s` with
//! the same median ± MAD band. Snapshots taken at different scales
//! (`full_scale` mismatch) are refused outright. A figure or group present
//! in the older snapshot but missing from the newer one is itself a
//! regression.
//!
//! Exit status: 0 = within tolerance, 1 = regression(s), 2 = usage or
//! parse errors.

use criterion::json::Json;
use std::process::exit;

struct Options {
    paths: Vec<String>,
    threshold: f64,
    min_seconds: f64,
    mad_k: f64,
    min_interp_speedup: f64,
    min_sweep_speedup: f64,
    min_fused_speedup: f64,
    min_threaded_speedup: f64,
    min_serve_throughput: f64,
    max_dsweep_overhead: f64,
    max_chaos_overhead: f64,
    max_telemetry_overhead: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-diff BASELINE.json CURRENT.json [MORE.json ...] [--threshold R] \
         [--min-seconds S] [--mad-k K] [--min-interp-speedup X] [--min-sweep-speedup X] \
         [--min-fused-speedup X] [--min-threaded-speedup X] [--min-serve-throughput X] \
         [--max-dsweep-overhead X] [--max-chaos-overhead X] [--max-telemetry-overhead X]"
    );
    exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        paths: Vec::new(),
        threshold: 1.5,
        min_seconds: 0.1,
        mad_k: 6.0,
        min_interp_speedup: 2.0,
        min_sweep_speedup: 1.5,
        min_fused_speedup: 1.15,
        min_threaded_speedup: 1.05,
        min_serve_throughput: 0.75,
        max_dsweep_overhead: 6.0,
        max_chaos_overhead: 6.0,
        max_telemetry_overhead: 1.05,
    };
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> f64 {
            *i += 1;
            match args.get(*i).and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => v,
                _ => usage(),
            }
        };
        match args[i].as_str() {
            "--threshold" => opts.threshold = flag_value(&mut i),
            "--min-seconds" => opts.min_seconds = flag_value(&mut i),
            "--mad-k" => opts.mad_k = flag_value(&mut i),
            "--min-interp-speedup" => opts.min_interp_speedup = flag_value(&mut i),
            "--min-sweep-speedup" => opts.min_sweep_speedup = flag_value(&mut i),
            "--min-fused-speedup" => opts.min_fused_speedup = flag_value(&mut i),
            "--min-threaded-speedup" => opts.min_threaded_speedup = flag_value(&mut i),
            "--min-serve-throughput" => opts.min_serve_throughput = flag_value(&mut i),
            "--max-dsweep-overhead" => opts.max_dsweep_overhead = flag_value(&mut i),
            "--max-chaos-overhead" => opts.max_chaos_overhead = flag_value(&mut i),
            "--max-telemetry-overhead" => opts.max_telemetry_overhead = flag_value(&mut i),
            other if other.starts_with("--") => usage(),
            other => opts.paths.push(other.to_string()),
        }
        i += 1;
    }
    if opts.paths.len() < 2 {
        usage();
    }
    opts
}

/// One snapshot: its figure records and its micro-bench group records.
struct Snapshot {
    path: String,
    figures: Vec<Json>,
    groups: Vec<Json>,
}

fn load_snapshot(path: &str) -> Snapshot {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            exit(2);
        }
    };
    let mut docs: Vec<Json> = Vec::new();
    // Raw stdout capture: collect every FIG-JSON / BENCH-JSON line.
    for line in text.lines() {
        for prefix in ["FIG-JSON ", "BENCH-JSON "] {
            if let Some(rest) = line.trim_start().strip_prefix(prefix) {
                match Json::parse(rest) {
                    Ok(d) => docs.push(d),
                    Err(e) => {
                        eprintln!("error: bad {prefix}record in {path}: {e}");
                        exit(2);
                    }
                }
            }
        }
    }
    if docs.is_empty() {
        match Json::parse(&text) {
            Ok(d) => docs.push(d),
            Err(e) => {
                eprintln!("error: cannot parse {path}: {e}");
                exit(2);
            }
        }
    }
    let mut snap = Snapshot {
        path: path.to_string(),
        figures: Vec::new(),
        groups: Vec::new(),
    };
    for doc in docs {
        if let Some(figs) = doc.get("figures").and_then(Json::as_arr) {
            snap.figures.extend(figs.to_vec());
        } else if doc.get("figure").is_some() {
            snap.figures.push(doc);
        } else if doc.get("group").is_some() {
            snap.groups.push(doc);
        } else {
            eprintln!("error: {path} holds neither a figures report nor a bench group");
            exit(2);
        }
    }
    snap
}

fn name_of<'a>(record: &'a Json, key: &str) -> Option<&'a str> {
    record.get(key).and_then(Json::as_str)
}

fn find<'a>(records: &'a [Json], key: &str, name: &str) -> Option<&'a Json> {
    records.iter().find(|r| name_of(r, key) == Some(name))
}

struct Verdicts {
    lines: Vec<String>,
    regressions: usize,
    /// Whether regressions recorded from here on count towards the exit
    /// status (only the final trajectory transition gates).
    gating: bool,
}

impl Verdicts {
    fn check(&mut self, label: &str, base: f64, cur: f64, band: f64) {
        let regressed = cur > base + band;
        let delta = if base > 0.0 {
            format!("{:+.1}%", (cur / base - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        self.lines.push(format!(
            "  {:<38} base {:>12.6}  cur {:>12.6}  ({delta:>8})  {}",
            label,
            base,
            cur,
            if regressed {
                if self.gating {
                    "REGRESSION"
                } else {
                    "regressed (history)"
                }
            } else {
                "ok"
            }
        ));
        if regressed && self.gating {
            self.regressions += 1;
        }
    }

    fn fail(&mut self, message: String) {
        if self.gating {
            self.lines.push(format!("  {message}  REGRESSION"));
            self.regressions += 1;
        } else {
            self.lines.push(format!("  {message}  (history)"));
        }
    }

    fn note(&mut self, message: String) {
        self.lines.push(format!("  {message}"));
    }
}

/// Compare one snapshot transition (figures and micro-bench groups).
fn compare(base: &Snapshot, cur: &Snapshot, opts: &Options, v: &mut Verdicts) {
    for b in &base.figures {
        let Some(name) = name_of(b, "figure") else {
            continue;
        };
        let Some(c) = find(&cur.figures, "figure", name) else {
            v.fail(format!("figure '{name}' missing from {}", cur.path));
            continue;
        };
        let scale = |r: &Json| r.get("full_scale").and_then(Json::as_bool);
        if scale(b) != scale(c) {
            // A scale switch in the gating transition is a usage error —
            // comparing the numbers would be meaningless. In a historical
            // (non-gating) trajectory step it is only reported: history is
            // never gated, and one rescaled archive must not make the whole
            // trajectory unwalkable.
            if v.gating {
                // Don't discard the history already compared: print the
                // accumulated verdicts before refusing.
                for line in &v.lines {
                    println!("{line}");
                }
                eprintln!(
                    "error: figure '{name}' was archived at a different scale (full_scale \
                     {:?} vs {:?}); refusing to compare",
                    scale(b),
                    scale(c)
                );
                exit(2);
            }
            v.note(format!(
                "figure '{name}': scale changed (full_scale {:?} -> {:?}); \
                 skipping comparison (history)",
                scale(b),
                scale(c)
            ));
            continue;
        }
        if let (Some(be), Some(ce)) = (
            b.get("elapsed_s").and_then(Json::as_f64),
            c.get("elapsed_s").and_then(Json::as_f64),
        ) {
            let band = be * opts.threshold + opts.min_seconds;
            v.check(&format!("{name} elapsed_s"), be, ce, band);
        }

        // Median ± MAD comparison for figures that archive robust stats.
        if name == "interp" {
            let stat = |r: &Json, key: &str| {
                r.get("data").and_then(|d| d.get(key)).and_then(Json::as_f64)
            };
            if let (Some(bm), Some(cm)) = (
                stat(b, "predecoded_median_s"),
                stat(c, "predecoded_median_s"),
            ) {
                let bmad = stat(b, "predecoded_mad_s").unwrap_or(0.0);
                let cmad = stat(c, "predecoded_mad_s").unwrap_or(0.0);
                // Absolute per-trial medians vary with the machine the
                // baseline was archived on, so the relative part of the band
                // honours --threshold like the elapsed checks (the
                // machine-independent check is the speedup gate).
                let band = (opts.threshold * bm).max(opts.mad_k * (bmad + cmad));
                v.check("interp predecoded median", bm, cm, band);
            }
        }
    }

    // Micro-bench groups: per-benchmark median ± MAD bands.
    for bg in &base.groups {
        let Some(group) = name_of(bg, "group") else {
            continue;
        };
        let Some(cg) = find(&cur.groups, "group", group) else {
            v.fail(format!("bench group '{group}' missing from {}", cur.path));
            continue;
        };
        let benches = |g: &Json| {
            g.get("benchmarks")
                .and_then(Json::as_arr)
                .map(|a| a.to_vec())
                .unwrap_or_default()
        };
        let cur_benches = benches(cg);
        for bb in benches(bg) {
            let Some(id) = name_of(&bb, "id") else {
                continue;
            };
            let Some(cb) = find(&cur_benches, "id", id) else {
                v.fail(format!("benchmark '{group}/{id}' missing from {}", cur.path));
                continue;
            };
            let stat = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64);
            if let (Some(bm), Some(cm)) = (stat(&bb, "median_s"), stat(cb, "median_s")) {
                let bmad = stat(&bb, "mad_s").unwrap_or(0.0);
                let cmad = stat(cb, "mad_s").unwrap_or(0.0);
                let band = (opts.threshold * bm).max(opts.mad_k * (bmad + cmad));
                v.check(&format!("{group}/{id} median"), bm, cm, band);
            }
        }
    }
}

/// The machine-independent gates on the newest snapshot: interp speedup,
/// sweep speedup, and the bit-identity flags.
fn gate_newest(newest: &Snapshot, opts: &Options, v: &mut Verdicts) {
    fn stat<'a>(r: &'a Json, path: &[&str]) -> Option<&'a Json> {
        let mut cur = r.get("data");
        for key in path {
            cur = cur.and_then(|d| d.get(key));
        }
        cur
    }
    if let Some(interp) = find(&newest.figures, "figure", "interp") {
        if opts.min_interp_speedup > 0.0 {
            match stat(interp, &["speedup_median"]).and_then(Json::as_f64) {
                Some(s) if s >= opts.min_interp_speedup => v.note(format!(
                    "{:<38} x{s:.3} (>= x{:.1})  ok",
                    "interp speedup gate", opts.min_interp_speedup
                )),
                Some(s) => v.fail(format!(
                    "interp speedup x{s:.3} below required x{:.1}",
                    opts.min_interp_speedup
                )),
                None => v.fail("interp record lacks speedup_median".to_string()),
            }
        }
        if stat(interp, &["outputs_match"]).and_then(Json::as_bool) == Some(false) {
            v.fail("interp outputs diverged between engines".to_string());
        }
    }
    if let Some(fused) = find(&newest.figures, "figure", "fused") {
        // The gate anchors on the Fig. 2 family's entry; the identity flags
        // apply to every measured workload.
        let workloads = stat(fused, &["workloads"]).and_then(Json::as_arr);
        let anchor = workloads
            .and_then(|ws| ws.iter().find(|w| name_of(w, "name") == Some("predator_prey_2")));
        if opts.min_fused_speedup > 0.0 {
            match anchor
                .and_then(|w| w.get("speedup_median"))
                .and_then(Json::as_f64)
            {
                Some(s) if s >= opts.min_fused_speedup => v.note(format!(
                    "{:<38} x{s:.3} (>= x{:.2})  ok",
                    "fused speedup gate (vs predecoded)", opts.min_fused_speedup
                )),
                Some(s) => v.fail(format!(
                    "fused speedup x{s:.3} below required x{:.2} over the predecoded \
                     interpreter",
                    opts.min_fused_speedup
                )),
                None => v.fail(
                    "fused record lacks the predator_prey_2 speedup_median".to_string(),
                ),
            }
        }
        for w in workloads.unwrap_or(&[]) {
            if w.get("outputs_match").and_then(Json::as_bool) == Some(false) {
                v.fail(format!(
                    "fused outputs diverged from the predecoded path on '{}'",
                    name_of(w, "name").unwrap_or("?")
                ));
            }
        }
    }
    if let Some(tiers) = find(&newest.figures, "figure", "tiers") {
        // The gate anchors on the cost-skewed family — the workload whose
        // long hot inner loop makes dispatch overhead measurable; identity
        // flags apply to every measured workload.
        let workloads = stat(tiers, &["workloads"]).and_then(Json::as_arr);
        let anchor = workloads.and_then(|ws| {
            ws.iter()
                .find(|w| name_of(w, "name") == Some("predator_prey_skewed"))
        });
        if opts.min_threaded_speedup > 0.0 {
            match anchor
                .and_then(|w| w.get("speedup_median"))
                .and_then(Json::as_f64)
            {
                Some(s) if s >= opts.min_threaded_speedup => v.note(format!(
                    "{:<38} x{s:.3} (>= x{:.2})  ok",
                    "threaded speedup gate (vs fused)", opts.min_threaded_speedup
                )),
                Some(s) => v.fail(format!(
                    "threaded speedup x{s:.3} below required x{:.2} over the fused \
                     interpreter",
                    opts.min_threaded_speedup
                )),
                None => v.fail(
                    "tiers record lacks the predator_prey_skewed speedup_median".to_string(),
                ),
            }
        }
        for w in workloads.unwrap_or(&[]) {
            let name = name_of(w, "name").unwrap_or("?");
            if w.get("outputs_match").and_then(Json::as_bool) == Some(false) {
                v.fail(format!(
                    "threaded outputs diverged from the fused path on '{name}'"
                ));
            }
            if w.get("reference_match").and_then(Json::as_bool) == Some(false) {
                v.fail(format!(
                    "threaded outputs diverged from the reference oracle on '{name}'"
                ));
            }
        }
    }
    if let Some(serve) = find(&newest.figures, "figure", "serve") {
        // The serving gate is a throughput *ratio* — coalesced serving vs a
        // sequential solo replay of the same requests — so it transfers
        // across machines. It bounds serving-layer overhead rather than
        // demanding a speedup: on a single-core container the daemon cannot
        // beat the replay by worker parallelism, only batch-entry
        // amortization, so the floor sits below 1.0.
        if opts.min_serve_throughput > 0.0 {
            match stat(serve, &["coalesce_speedup"]).and_then(Json::as_f64) {
                Some(s) if s >= opts.min_serve_throughput => v.note(format!(
                    "{:<38} x{s:.3} (>= x{:.2})  ok",
                    "serve throughput gate (vs solo replay)", opts.min_serve_throughput
                )),
                Some(s) => v.fail(format!(
                    "serve coalesced throughput x{s:.3} of solo replay, below required \
                     x{:.2}",
                    opts.min_serve_throughput
                )),
                None => v.fail("serve record lacks coalesce_speedup".to_string()),
            }
        }
        if stat(serve, &["all_identical"]).and_then(Json::as_bool) == Some(false) {
            v.fail("a coalesced serve response diverged from its solo run".to_string());
        }
    }
    if let Some(dsweep) = find(&newest.figures, "figure", "dsweep") {
        // Bit-identity is the distributed sweep's whole contract — both the
        // clean topology and the kill-faulted one must match serial exactly,
        // and the faulted run must actually have exercised recovery (unless
        // the coordinator degraded to the pure in-process path, where there
        // is no worker to kill).
        for (key, what) in [
            ("clean_identical", "clean distributed sweep"),
            ("fault_identical", "kill-faulted distributed sweep"),
        ] {
            if stat(dsweep, &[key]).and_then(Json::as_bool) == Some(false) {
                v.fail(format!("{what} diverged from the serial run"));
            }
        }
        let mode = stat(dsweep, &["fault_mode"]).and_then(Json::as_str);
        if mode != Some("in-process") {
            if stat(dsweep, &["worker_deaths"]).and_then(Json::as_f64) == Some(0.0) {
                v.fail("dsweep fault run observed no worker death".to_string());
            }
            match stat(dsweep, &["reissued"]).and_then(Json::as_f64) {
                Some(r) if r >= 1.0 => v.note(format!(
                    "{:<38} {r:.0} lease(s) re-issued  ok",
                    "dsweep recovery gate"
                )),
                Some(_) => v.fail("dsweep fault run re-issued no leases".to_string()),
                None => v.fail("dsweep record lacks reissued".to_string()),
            }
        }
        if opts.max_dsweep_overhead > 0.0 {
            match stat(dsweep, &["recovery_overhead"]).and_then(Json::as_f64) {
                Some(o) if o <= opts.max_dsweep_overhead => v.note(format!(
                    "{:<38} x{o:.3} (<= x{:.1})  ok",
                    "dsweep recovery overhead gate", opts.max_dsweep_overhead
                )),
                Some(o) => v.fail(format!(
                    "dsweep recovery overhead x{o:.3} above allowed x{:.1}",
                    opts.max_dsweep_overhead
                )),
                None => v.fail("dsweep record lacks recovery_overhead".to_string()),
            }
        }
    }
    if let Some(chaos) = find(&newest.figures, "figure", "chaos") {
        // The resilience contract: a worker panic is absorbed (caught,
        // quarantined, retried) without one byte of divergence and without
        // dropping a request; only the throughput cost of absorbing it is
        // tunable.
        if stat(chaos, &["all_identical"]).and_then(Json::as_bool) != Some(true) {
            v.fail("chaos serving run diverged from its solo sweep".to_string());
        }
        match stat(chaos, &["worker_panics"]).and_then(Json::as_f64) {
            Some(p) if p >= 1.0 => v.note(format!(
                "{:<38} {p:.0} panic(s) absorbed  ok",
                "chaos quarantine gate"
            )),
            Some(_) => v.fail("chaos fault run caught no worker panic".to_string()),
            None => v.fail("chaos record lacks worker_panics".to_string()),
        }
        match stat(chaos, &["failed"]).and_then(Json::as_f64) {
            Some(0.0) => {}
            Some(f) => v.fail(format!("chaos run dropped {f:.0} request(s) past retry")),
            None => v.fail("chaos record lacks failed".to_string()),
        }
        if opts.max_chaos_overhead > 0.0 {
            match stat(chaos, &["chaos_overhead"]).and_then(Json::as_f64) {
                Some(o) if o <= opts.max_chaos_overhead => v.note(format!(
                    "{:<38} x{o:.3} (<= x{:.1})  ok",
                    "chaos absorption overhead gate", opts.max_chaos_overhead
                )),
                Some(o) => v.fail(format!(
                    "chaos absorption overhead x{o:.3} above allowed x{:.1}",
                    opts.max_chaos_overhead
                )),
                None => v.fail("chaos record lacks chaos_overhead".to_string()),
            }
        }
    }
    if let Some(telemetry) = find(&newest.figures, "figure", "telemetry") {
        // The telemetry layer's contract: probes cost next to nothing when
        // live, exactly nothing when the kill switch is thrown, and never
        // perturb execution either way.
        if opts.max_telemetry_overhead > 0.0 {
            match stat(telemetry, &["overhead_ratio"]).and_then(Json::as_f64) {
                Some(o) if o <= opts.max_telemetry_overhead => v.note(format!(
                    "{:<38} x{o:.4} (<= x{:.2})  ok",
                    "telemetry overhead gate (on vs off)", opts.max_telemetry_overhead
                )),
                Some(o) => v.fail(format!(
                    "telemetry probe overhead x{o:.4} above allowed x{:.2}",
                    opts.max_telemetry_overhead
                )),
                None => v.fail("telemetry record lacks overhead_ratio".to_string()),
            }
        }
        if stat(telemetry, &["outputs_match"]).and_then(Json::as_bool) == Some(false) {
            v.fail("telemetry kill switch altered trial outputs".to_string());
        }
        if stat(telemetry, &["probe_calls_on"]).and_then(Json::as_f64) == Some(0.0) {
            v.fail("telemetry-on run fired no probes".to_string());
        }
        match stat(telemetry, &["probe_calls_off"]).and_then(Json::as_f64) {
            Some(c) if c > 0.0 => v.fail(format!(
                "kill switch leaked {c:.0} probe increment(s) while telemetry was off"
            )),
            _ => {}
        }
    }
    if let Some(sweep) = find(&newest.figures, "figure", "sweep") {
        if opts.min_sweep_speedup > 0.0 {
            match stat(sweep, &["anchor", "speedup_vs_grid"]).and_then(Json::as_f64) {
                Some(s) if s >= opts.min_sweep_speedup => v.note(format!(
                    "{:<38} x{s:.3} (>= x{:.1})  ok",
                    "sweep speedup gate (vs grid-parallel)", opts.min_sweep_speedup
                )),
                Some(s) => v.fail(format!(
                    "sweep sharded+batched speedup x{s:.3} below required x{:.1} \
                     over per-trial multicore grid search",
                    opts.min_sweep_speedup
                )),
                None => v.fail("sweep record lacks anchor.speedup_vs_grid".to_string()),
            }
        }
        if stat(sweep, &["anchor", "outputs_match"]).and_then(Json::as_bool) == Some(false) {
            v.fail("sweep anchor outputs diverged between schedules".to_string());
        }
        if stat(sweep, &["all_identical"]).and_then(Json::as_bool) == Some(false) {
            v.fail("a sharded sweep diverged from its serial run".to_string());
        }
        // Per-target bit-identity verdicts: a multicore/GPU probe that
        // diverged from the single-core reference is a regression even when
        // the sharded-vs-serial comparison still holds.
        if let Some(workloads) = stat(sweep, &["workloads"]).and_then(Json::as_arr) {
            for w in workloads {
                let name = name_of(w, "name").unwrap_or("?");
                for cell in w
                    .get("targets")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                {
                    if cell.get("matches_serial").and_then(Json::as_bool) == Some(false) {
                        v.fail(format!(
                            "sweep workload '{name}': {} target diverged from single-core",
                            name_of(cell, "kind").unwrap_or("?")
                        ));
                    }
                }
            }
        }
    }
}

fn main() {
    let opts = parse_args();
    let snapshots: Vec<Snapshot> = opts.paths.iter().map(|p| load_snapshot(p)).collect();
    let mut v = Verdicts {
        lines: Vec::new(),
        regressions: 0,
        gating: true,
    };

    let trajectory = snapshots.len() > 2;
    for i in 0..snapshots.len() - 1 {
        let base = &snapshots[i];
        let cur = &snapshots[i + 1];
        // Only the newest transition gates; earlier ones are history.
        v.gating = i + 2 == snapshots.len();
        if trajectory {
            v.note(format!(
                "-- step {}: {} -> {}{}",
                i + 1,
                base.path,
                cur.path,
                if v.gating { "  (gating)" } else { "" }
            ));
        }
        compare(base, cur, &opts, &mut v);
    }
    v.gating = true;
    gate_newest(snapshots.last().expect("at least two snapshots"), &opts, &mut v);

    println!(
        "bench-diff: {} snapshot(s), {} (threshold {:.2}, min-seconds {:.3}, mad-k {:.1})",
        snapshots.len(),
        if trajectory {
            "trajectory mode"
        } else {
            "baseline vs current"
        },
        opts.threshold,
        opts.min_seconds,
        opts.mad_k
    );
    for line in &v.lines {
        println!("{line}");
    }
    if v.regressions > 0 {
        println!("bench-diff: {} regression(s) beyond tolerance", v.regressions);
        exit(1);
    }
    println!("bench-diff: within tolerance");
}
