//! `sweep_batch`: the paper's main use. Each round runs every `Tag::Sweep`
//! family at `Scale::Full` over its `sweep_trials(Full)` trials, batched
//! (`with_batch(32)`) and sharded over every core, on runners compiled and
//! built during set-up. Results are compared with a serial reference-tier
//! run of the same trials and with the baseline interpreter, outside the
//! clock.

use crate::check::{self, Trials};
use crate::report::{Report, Tally};
use crate::schedule::permutation;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use distill::{compile, CompileConfig, DistillError, RunResult, RunSpec, Runner, Session};
use distill_models::{by_tag, Scale, Tag, Workload, WorkloadSpec};
use std::time::Instant;

/// Trials per engine entry.
const BATCH: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Fewest timed rounds; more run while the run's seconds last.
const MIN_ROUNDS: usize = 5;
/// Fewest traced and untraced rounds in the traced pass.
const TRACED_ROUNDS: usize = 2;

struct Family {
    spec: &'static WorkloadSpec,
    work: Workload,
    trials: usize,
    reference: Trials,
    baseline: Option<Trials>,
}

/// Build the families and their oracles. The oracles are serial and slow,
/// so they are spread over the cores; none of this is timed.
fn prepare(ctx: &Ctx, tally: &mut Tally) -> Vec<Family> {
    let specs = by_tag(Tag::Sweep);
    let works: Vec<Workload> = specs.iter().map(|s| s.build(Scale::Full)).collect();
    let jobs: Vec<_> = specs
        .iter()
        .zip(&works)
        .map(|(s, w)| (&w.model, w.inputs.as_slice(), s.sweep_trials(Scale::Full)))
        .collect();
    let references = check::references(&jobs, ctx.nproc);
    let baselines = check::in_parallel(
        ctx.nproc,
        jobs.iter()
            .zip(&specs)
            .map(|(&(model, inputs, n), &spec)| {
                Box::new(move || check::baseline(spec, model, inputs, n)) as check::Task<'_, _>
            })
            .collect(),
    );
    specs
        .into_iter()
        .zip(works)
        .zip(references.into_iter().zip(baselines))
        .map(|((spec, work), (reference, baseline))| Family {
            spec,
            work,
            trials: spec.sweep_trials(Scale::Full),
            reference: tally.op(reference).unwrap_or_default(),
            baseline: tally.op(baseline).flatten(),
        })
        .collect()
}

/// Composition to ready for every family: compile with the default
/// configuration and build the default runner. Returns the runners and the
/// seconds it took.
fn setup(fams: &[Family], tally: &mut Tally) -> (Vec<Option<Box<dyn Runner>>>, f64) {
    let t0 = Instant::now();
    let runners = fams
        .iter()
        .map(|fam| {
            tally.op(compile(&fam.work.model, CompileConfig::default())
                .map_err(DistillError::from)
                .and_then(|artifact| Session::new(&fam.work.model).build_with(artifact))
                .map_err(|e| format!("{}: build failed: {e}", fam.spec.name)))
        })
        .collect();
    (runners, t0.elapsed().as_secs_f64())
}

/// One round: every family's sweep in `order`. Returns the round's
/// milliseconds (runs only) and the results by family index for checking.
fn round(
    ctx: &Ctx,
    fams: &[Family],
    runners: &mut [Option<Box<dyn Runner>>],
    order: &[usize],
    tracer: &mut Tracer,
) -> (f64, Vec<Option<Result<RunResult, String>>>) {
    let mut ms = 0.0;
    let mut results: Vec<Option<Result<RunResult, String>>> =
        (0..fams.len()).map(|_| None).collect();
    tracer.begin("sweep.round", None);
    for &i in order {
        let Some(runner) = runners[i].as_mut() else {
            continue;
        };
        let fam = &fams[i];
        let spec = RunSpec::new(fam.work.inputs.clone(), fam.trials)
            .with_batch(BATCH)
            .with_shards(ctx.nproc);
        let t0 = Instant::now();
        let result = tracer.time("exec.run", Some(i as u64), || runner.run(&spec));
        ms += t0.elapsed().as_secs_f64() * 1e3;
        results[i] = Some(result.map_err(|e| format!("{}: run failed: {e}", fam.spec.name)));
    }
    tracer.end();
    (ms, results)
}

/// Count each run as an operation and check its outputs; returns the runs
/// that succeeded, by family index.
fn check_round(
    fams: &[Family],
    results: Vec<Option<Result<RunResult, String>>>,
    tally: &mut Tally,
) -> Vec<Option<RunResult>> {
    results
        .into_iter()
        .zip(fams)
        .map(|(result, fam)| {
            let run = tally.op(result?)?;
            let what = format!("sweep_batch {}", fam.spec.name);
            let got = Trials {
                outputs: run.outputs.clone(),
                passes: run.passes.clone(),
            };
            tally.check(check::exact(&what, &got, &fam.reference).and_then(
                |()| match &fam.baseline {
                    Some(b) => check::close(&what, &got, 0, b),
                    None => Ok(()),
                },
            ));
            Some(run)
        })
        .collect()
}

pub fn end_to_end(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let fams = prepare(ctx, &mut report.tally);
    let order = permutation(fams.len(), &mut ctx.rng("sweep_batch.order"));
    let mut setups = Vec::new();
    let mut runners = Vec::new();
    for _ in 0..SETUPS {
        let (r, secs) = setup(&fams, &mut report.tally);
        runners = r;
        setups.push(secs);
    }

    let mut tracer = Tracer::new(Instant::now(), false);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        let (ms, results) = round(ctx, &fams, &mut runners, &order, &mut tracer);
        check_round(&fams, results, &mut report.tally);
        rounds.push(ms);
    }

    let trials: usize = fams.iter().map(|f| f.trials).sum();
    let round_ms = median(&rounds);
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("round_ms", round_ms, "ms", rounds.len());
    report.extra(
        "sweep_trials_per_s",
        trials as f64 / (round_ms / 1e3),
        "1/s",
        rounds.len(),
    );
    report.extra("trials_per_round", trials as f64, "count", 1);
    report
}

/// Work counters of one round, summed over families.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    instructions: u64,
    fused_ops: u64,
    chunks: usize,
    steals: u64,
}

fn counts(runs: &[Option<RunResult>]) -> Counts {
    let mut c = Counts::default();
    for run in runs.iter().flatten() {
        c.instructions += run.stats.instructions;
        c.fused_ops += run.stats.fused_ops;
        if let Some(s) = &run.shards {
            c.chunks += s.chunks;
            c.steals += s.steals;
        }
    }
    c
}

/// The traced pass: alternating untraced and traced rounds (their median
/// ratio is the tracing overhead), with the exec and shard counters each
/// run returns.
pub fn layers(ctx: &Ctx, budget: f64) -> (Report, f64) {
    let mut report = Report::default();
    let fams = prepare(ctx, &mut report.tally);
    let order = permutation(fams.len(), &mut ctx.rng("sweep_batch.order"));
    let (mut runners, _) = setup(&fams, &mut report.tally);
    let mut tracer = Tracer::new(Instant::now(), false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut round_counts = Vec::new();
    let start = Instant::now();
    while traced.len() < TRACED_ROUNDS || start.elapsed().as_secs_f64() < budget {
        for (on, times) in [(false, &mut plain), (true, &mut traced)] {
            tracer.set_enabled(on);
            let (ms, results) = round(ctx, &fams, &mut runners, &order, &mut tracer);
            times.push(ms);
            round_counts.push(counts(&check_round(&fams, results, &mut report.tally)));
        }
    }
    let c = round_counts[0];
    let exact = |a: &Counts| {
        (a.instructions, a.fused_ops, a.chunks) == (c.instructions, c.fused_ops, c.chunks)
    };
    report.tally.check(if round_counts.iter().all(exact) {
        Ok(())
    } else {
        Err("sweep_batch: instruction, fused-op or chunk counts differ between rounds".into())
    });

    let run_ns: u64 = tracer.durations("exec.run").iter().sum();
    let traced_instructions = c.instructions * traced.len() as u64;
    for (i, fam) in fams.iter().enumerate() {
        let ms: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "exec.run" && s.request == Some(i as u64))
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        report.metric(
            format!("exec.run_ms.{}", fam.spec.name),
            median(&ms),
            "ms",
            ms.len(),
        );
    }
    report.metric(
        "exec.ns_per_instruction",
        run_ns as f64 / traced_instructions.max(1) as f64,
        "ns",
        traced.len(),
    );
    report.metric("exec.instructions", c.instructions as f64, "count", 1);
    report.metric("exec.fused_ops", c.fused_ops as f64, "count", 1);
    report.metric("shard.chunks", c.chunks as f64, "count", 1);
    let steals: Vec<f64> = round_counts.iter().map(|c| c.steals as f64).collect();
    report.metric("shard.steals", median(&steals), "count", steals.len());
    report.extra(
        "trace.unattributed_frac.sweep_batch",
        tracer.unattributed_frac("sweep.round"),
        "ratio",
        traced.len(),
    );
    eprint!("{}", tracer.summary());
    (report, median(&traced) / median(&plain))
}
