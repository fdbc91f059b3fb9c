//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_compile|sweep_batch|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the named workload's end-to-end metrics with no
//! tracing. `--trace 1` is the separate traced run: it profiles every layer
//! (compile, exec, serve) with the benchmark's own spans and reports the
//! per-layer metrics, plus the tracing overhead on the named workload.
//! Every program setting stays at its default. The last line of standard
//! output is the result as one JSON object; README.md defines each metric.

mod check;
mod compile;
mod report;
mod schedule;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::Report;
use schedule::Rng;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["cold_compile", "sweep_batch", "serve_mix"];

/// Process-global settings that would silently change what is measured:
/// the chaos injector and the tier override act on every runner.
const REFUSED_ENV: [&str; 3] = ["DISTILL_CHAOS", "DISTILL_DSWEEP_FAULTS", "DISTILL_TIER"];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

impl Ctx {
    /// The seeded generator for one named use, so adding a draw in one
    /// place does not shift the inputs of another.
    pub fn rng(&self, stream: &str) -> Rng {
        let salt = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng::new(self.seed ^ salt)
    }
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.into_iter().find(|w| w == value).ok_or_else(|| {
                        format!("unknown workload `{value}` (one of {WORKLOADS:?})")
                    })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set: it changes every runner in the process"
        );
        return ExitCode::from(2);
    }
    println!(
        "env workload={} seed={} seconds={} trace={} nproc={} DISTILL_TELEMETRY={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.nproc,
        std::env::var("DISTILL_TELEMETRY").unwrap_or_else(|_| "unset".into())
    );
    let report = if ctx.trace {
        layers(&ctx)
    } else {
        match ctx.workload {
            "cold_compile" => compile::end_to_end(&ctx),
            "sweep_batch" => sweep::end_to_end(&ctx),
            _ => serve::end_to_end(&ctx),
        }
    };
    print!("{}", report.lines());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}

/// The traced run: every layer's profile, each pass given a third of the
/// time, and the tracing overhead of the named workload's pass.
fn layers(ctx: &Ctx) -> Report {
    let budget = ctx.seconds / 3.0;
    let passes = [
        ("cold_compile", compile::layers(ctx, budget)),
        ("sweep_batch", sweep::layers(ctx, budget)),
        ("serve_mix", serve::layers(ctx, budget)),
    ];
    let mut report = Report::default();
    for (workload, (pass, overhead)) in passes {
        report.extra(format!("trace.overhead.{workload}"), overhead, "ratio", 1);
        if workload == ctx.workload {
            report.metric("trace.overhead", overhead, "ratio", 1);
        }
        report.absorb(pass);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let ctx = parse_args(&args(
            "--workload serve_mix --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ctx.workload, ctx.seed, ctx.seconds, ctx.trace),
            ("serve_mix", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve_mix")).is_err());
        assert!(parse_args(&args("--workload serve_mix --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve_mix --seed 1 --seconds -1")).is_err());
    }

    #[test]
    fn streams_of_one_seed_differ_and_repeat() {
        let ctx = parse_args(&args("--workload cold_compile --seed 5")).unwrap();
        assert_eq!(ctx.rng("a").next_u64(), ctx.rng("a").next_u64());
        assert_ne!(ctx.rng("a").next_u64(), ctx.rng("b").next_u64());
    }
}
