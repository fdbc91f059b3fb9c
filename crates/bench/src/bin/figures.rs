//! Regenerate the paper's figures from the command line.
//!
//! ```text
//! figures                # every figure, reduced workloads (CI-friendly)
//! figures --full         # every figure at paper scale (slow)
//! figures --fig 2        # adaptive mesh refinement (Fig. 2)
//! figures --fig 3        # clone detection (Fig. 3 / §4.4)
//! figures --fig 4        # baseline environments vs Distill (Fig. 4)
//! figures --fig 5a|5b|5c # scaling / per-node / parallel (Fig. 5)
//! figures --fig 6        # GPU register sweep (Fig. 6)
//! figures --fig 7        # compilation cost breakdown (Fig. 7)
//! figures --batched      # per-trial vs batched compiled execution
//! figures --sweep        # sweep subsystem: serial vs sharded+batched
//! figures --serve        # serving daemon: coalesced vs solo replay
//! figures --dsweep       # distributed sweep: lease recovery vs serial
//! figures --chaos        # serving under a seeded worker panic vs clean
//! figures --telemetry    # telemetry probes: overhead on vs kill switch off
//! figures --out DIR      # where JSON reports go (default bench_results/)
//! ```
//!
//! Besides the human-readable tables, every figure is timed and emitted as a
//! JSON record (tagged with `full_scale` so runs at different scales are
//! never compared by accident) — one `FIG-JSON {...}` line on stdout per
//! figure, one `<dir>/figures_<fig>.json` file each, plus a combined
//! `<dir>/figures.json` — so the per-figure timings can be archived and
//! compared across commits. The combined file is only (re)written when all
//! figures ran; a `--fig N` run refreshes just its own file. Unrecognized
//! arguments are rejected (exit 2) rather than silently changing the scale
//! of an archived run.

use criterion::json::Json;
use distill_bench as bench;
use std::path::PathBuf;
use std::time::Instant;

struct Emitter {
    dir: PathBuf,
    /// Paper-scale workloads (`--full`); recorded in every JSON record so
    /// archived timings are never compared across scales by accident.
    full: bool,
    records: Vec<Json>,
}

impl Emitter {
    fn new(dir: PathBuf, full: bool) -> Emitter {
        Emitter {
            dir,
            full,
            records: Vec::new(),
        }
    }

    /// Run a figure that produces several [`bench::Series`].
    fn series_figure(
        &mut self,
        name: &str,
        header: &str,
        run: impl FnOnce() -> Vec<bench::Series>,
    ) {
        self.figure(name, || {
            let series = run();
            let mut text = format!("== {header}\n");
            for s in &series {
                text.push_str(&s.render());
            }
            (text, Json::Arr(series.iter().map(|s| s.to_json()).collect()))
        });
    }

    /// Run one figure, print its rendered form, and record `{figure,
    /// elapsed_s, data}` both on stdout and as a JSON file.
    fn figure(&mut self, name: &str, render_and_data: impl FnOnce() -> (String, Json)) {
        let start = Instant::now();
        let (text, data) = render_and_data();
        let elapsed = start.elapsed().as_secs_f64();
        print!("{text}");
        let record = Json::obj([
            ("figure", name.into()),
            ("full_scale", self.full.into()),
            ("elapsed_s", elapsed.into()),
            ("data", data),
        ]);
        println!("FIG-JSON {record}");
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("warning: cannot create {}: {e}", self.dir.display());
        }
        let path = self.dir.join(format!("figures_{name}.json"));
        if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        self.records.push(record);
    }

    /// Write the combined report, but only when every figure ran — a
    /// `--fig N` run must not overwrite a previous full archive with a
    /// partial one (the per-figure file is still refreshed). Returns false
    /// when no figure ran at all.
    fn finish(self, all_figures: bool) -> bool {
        if self.records.is_empty() {
            return false;
        }
        if !all_figures {
            println!("JSON report written to {} (single figure: combined figures.json left untouched)", self.dir.display());
            return true;
        }
        let combined = Json::obj([("figures", Json::Arr(self.records))]);
        let path = self.dir.join("figures.json");
        if let Err(e) = std::fs::write(&path, format!("{combined}\n")) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("JSON reports written to {}", self.dir.display());
        }
        true
    }
}

fn main() {
    const FIGS: [&str; 17] = [
        "2", "3", "4", "5a", "5b", "5c", "6", "7", "batched", "interp", "sweep", "fused",
        "tiers", "serve", "dsweep", "chaos", "telemetry",
    ];
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Strict parse: a typo like `--ful` must not silently fall back to the
    // reduced-scale default and get archived as if it were a paper-scale run.
    let mut fig: Option<String> = None;
    let mut full = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                match args.get(i) {
                    Some(f) if FIGS.contains(&f.as_str()) => {
                        if let Some(prev) = &fig {
                            if prev != f {
                                eprintln!(
                                    "error: conflicting figure selection '{prev}' vs '{f}'"
                                );
                                std::process::exit(2);
                            }
                        }
                        fig = Some(f.clone());
                    }
                    Some(f) => {
                        eprintln!(
                            "error: unknown figure '{f}' (expected one of {})",
                            FIGS.join(", ")
                        );
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("error: --fig requires a value");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) if !dir.is_empty() => out = Some(dir.clone()),
                    _ => {
                        eprintln!("error: --out requires a value");
                        std::process::exit(2);
                    }
                }
            }
            // Reduced workloads are the default so the binary doubles as an
            // offline CI probe; `--full` (or the legacy `--all`) restores
            // paper scale. `--quick` is accepted for backwards
            // compatibility with the old CLI (it is now the default).
            "--full" | "--all" => full = true,
            "--quick" => {}
            // Shorthand for `--fig batched`: rerun the Fig. 2 model family's
            // trial-throughput workload through the batched compiled path
            // and emit the side-by-side JSON report. Conflicting figure
            // selectors are an error, not last-wins — a run that silently
            // drops a requested figure would corrupt the archive.
            "--batched" => match &fig {
                Some(f) if f != "batched" => {
                    eprintln!("error: --batched conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("batched".to_string()),
            },
            // Shorthand for `--fig interp`: the predecoded engine vs the
            // retained reference interpreter on the Fig. 2 model family's
            // trial-throughput workload (the interpreter-core before/after
            // datapoint of the BENCH trajectory).
            "--interp" => match &fig {
                Some(f) if f != "interp" => {
                    eprintln!("error: --interp conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("interp".to_string()),
            },
            // Shorthand for `--fig sweep`: the sweep subsystem's figure —
            // serial vs grid-parallel vs sharded+batched on the Fig. 2
            // model family, plus the registry sweep table.
            "--sweep" => match &fig {
                Some(f) if f != "sweep" => {
                    eprintln!("error: --sweep conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("sweep".to_string()),
            },
            // Shorthand for `--fig fused`: the fused superinstruction path
            // vs the unfused predecoded interpreter on the Fig. 2 and
            // cost-skewed predator-prey workloads.
            "--fused" => match &fig {
                Some(f) if f != "fused" => {
                    eprintln!("error: --fused conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("fused".to_string()),
            },
            // Shorthand for `--fig tiers`: direct-threaded dispatch vs the
            // fused interpreter on the cost-skewed predator-prey anchor and
            // the Fig. 2 family.
            "--tiers" => match &fig {
                Some(f) if f != "tiers" => {
                    eprintln!("error: --tiers conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("tiers".to_string()),
            },
            // Shorthand for `--fig serve`: the serving daemon under
            // open-loop mixed-family load — coalesced throughput and
            // latency percentiles vs a sequential solo replay.
            "--serve" => match &fig {
                Some(f) if f != "serve" => {
                    eprintln!("error: --serve conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("serve".to_string()),
            },
            // Shorthand for `--fig dsweep`: the distributed fault-tolerant
            // sweep — serial vs coordinator+workers, clean and with a
            // seeded worker kill, bit-identity and recovery overhead.
            "--dsweep" => match &fig {
                Some(f) if f != "dsweep" => {
                    eprintln!("error: --dsweep conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("dsweep".to_string()),
            },
            // Shorthand for `--fig chaos`: the serving daemon's
            // resilience datapoint — open-loop throughput clean vs with a
            // seeded worker panic absorbed, full-space bit-identity after.
            "--chaos" => match &fig {
                Some(f) if f != "chaos" => {
                    eprintln!("error: --chaos conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("chaos".to_string()),
            },
            // Shorthand for `--fig telemetry`: the telemetry layer's
            // overhead bound — fused-tier per-trial cost with probes live
            // vs the kill switch thrown, plus kill-switch bit-identity.
            "--telemetry" => match &fig {
                Some(f) if f != "telemetry" => {
                    eprintln!("error: --telemetry conflicts with --fig {f}");
                    std::process::exit(2);
                }
                _ => fig = Some("telemetry".to_string()),
            },
            other => {
                eprintln!("error: unrecognized argument '{other}'");
                eprintln!(
                    "usage: figures [--fig 2|3|4|5a|5b|5c|6|7|batched|interp|sweep|fused|tiers|serve|dsweep|chaos|telemetry] \
                     [--batched] [--interp] [--sweep] [--fused] [--tiers] [--serve] [--dsweep] [--chaos] [--telemetry] \
                     [--full] [--out DIR]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let scale = if full { 1.0 } else { 0.1 };
    // Explicit CLI flag wins over the environment.
    let out_dir = out
        .or_else(|| std::env::var("DISTILL_BENCH_DIR").ok().filter(|d| !d.is_empty()))
        .unwrap_or_else(|| "bench_results".to_string());

    let want = |name: &str| fig.is_none() || fig.as_deref() == Some(name);
    let mut emit = Emitter::new(PathBuf::from(out_dir), full);

    if want("2") {
        emit.figure("fig2", || {
            let r = bench::fig2();
            (r.render(), r.to_json())
        });
    }
    if want("3") {
        emit.figure("fig3", || {
            let r = bench::fig3();
            (r.render(), r.to_json())
        });
    }
    if want("4") {
        emit.series_figure(
            "fig4",
            "Fig 4: model running times per environment (normalized in render)",
            || bench::fig4(scale),
        );
    }
    if want("5a") {
        emit.series_figure("fig5a", "Fig 5a: predator-prey scaling", || bench::fig5a(full));
    }
    if want("5b") {
        emit.figure("fig5b", || {
            let s = bench::fig5b(scale);
            (s.render(), s.to_json())
        });
    }
    if want("5c") {
        emit.figure("fig5c", || {
            let levels = if full { 100 } else { 10 };
            let threads = num_threads();
            let s = bench::fig5c(levels, threads);
            // The thread-skew companion: static chunks vs work stealing on
            // a grid whose evaluation cost grows with the index.
            let skew = bench::fig5c_skew(if full { 512 } else { 96 }, threads);
            let text = format!("{}{}", s.render(), skew.render());
            (text, Json::obj([("grid", s.to_json()), ("skew", skew.to_json())]))
        });
    }
    if want("6") {
        emit.figure("fig6", || {
            let r = bench::fig6(if full { 20 } else { 6 });
            (r.render(), r.to_json())
        });
    }
    if want("7") {
        emit.figure("fig7", || {
            let r = bench::fig7(if full { 20 } else { 4 }, 2);
            (r.render(), r.to_json())
        });
    }
    if want("batched") {
        emit.figure("batched", || {
            let (trials, batch) = if full { (2000, 64) } else { (300, 32) };
            let r = bench::fig_batched(trials, batch);
            (r.render(), r.to_json())
        });
    }
    if want("interp") {
        emit.figure("interp", || {
            let (trials, samples) = if full { (300, 25) } else { (60, 11) };
            let r = bench::fig_interp(trials, samples);
            (r.render(), r.to_json())
        });
    }
    if want("sweep") {
        emit.figure("sweep", || {
            let (trials, samples) = if full { (2000, 7) } else { (240, 5) };
            let r = bench::fig_sweep(trials, samples, full);
            (r.render(), r.to_json())
        });
    }
    if want("fused") {
        emit.figure("fused", || {
            let (trials, samples) = if full { (300, 25) } else { (60, 11) };
            let r = bench::fig_fused(trials, samples);
            (r.render(), r.to_json())
        });
    }
    if want("tiers") {
        emit.figure("tiers", || {
            let (trials, samples) = if full { (300, 25) } else { (60, 11) };
            let r = bench::fig_tiers(trials, samples);
            (r.render(), r.to_json())
        });
    }

    if want("serve") {
        emit.figure("serve", || {
            let (requests, trials, clients, workers) =
                if full { (200, 16, 8, 4) } else { (32, 6, 4, 2) };
            let r = bench::fig_serve(requests, trials, clients, workers);
            (r.render(), r.to_json())
        });
    }

    if want("dsweep") {
        emit.figure("dsweep", || {
            let (trials, workers, threads) = if full { (480, 4, 2) } else { (96, 2, 2) };
            let r = bench::fig_dsweep(trials, workers, threads);
            (r.render(), r.to_json())
        });
    }

    if want("chaos") {
        emit.figure("chaos", || {
            let (requests, trials, clients, workers) =
                if full { (200, 16, 8, 4) } else { (32, 6, 4, 2) };
            let r = bench::fig_chaos(requests, trials, clients, workers);
            (r.render(), r.to_json())
        });
    }

    if want("telemetry") {
        emit.figure("telemetry", || {
            let (trials, samples) = if full { (300, 25) } else { (60, 11) };
            let r = bench::fig_telemetry(trials, samples);
            (r.render(), r.to_json())
        });
    }

    if !emit.finish(fig.is_none()) {
        eprintln!("error: no figure ran");
        std::process::exit(2);
    }
}

fn num_threads() -> usize {
    distill_sweep::default_threads()
}
