//! `cold_compile`: each round compiles all registry families with the
//! default `CompileConfig` (O2) and builds each one's default runner. No
//! trials run in the timed region; each built runner then runs
//! [`CHECK_TRIALS`] trials, checked against the reference tier and the
//! baseline interpreter outside the clock.
//!
//! The traced pass adds the compile layers: an O0 compile (codegen and
//! verify), `PassManager` O2 over a clone of that module, and a replay of
//! the O2 pass order one pass at a time.

use crate::check::{self, Trials};
use crate::report::{Report, Tally};
use crate::schedule::permutation;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Ctx;
use distill::{compile, CompileConfig, OptLevel, RunSpec, Runner, Session};
use distill_models::{registry::registry, Scale, Workload, WorkloadSpec};
use distill_opt::{cse, dce, fold, inline, licm, mem2reg, simplify_cfg, PassManager, PassStats};
use std::time::Instant;

/// Trials each freshly built runner executes for the output check.
const CHECK_TRIALS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Fewest timed rounds; more run while the run's seconds last.
const MIN_ROUNDS: usize = 10;
/// Fewest traced and untraced rounds in the traced pass.
const TRACED_ROUNDS: usize = 3;

/// The O2 pipeline's pass names, in the `opt.<pass>_ms` order.
const PASSES: [&str; 7] = [
    "inline",
    "mem2reg",
    "fold",
    "simplify_cfg",
    "cse",
    "licm",
    "dce",
];

struct Family {
    spec: &'static WorkloadSpec,
    work: Workload,
    reference: Trials,
    baseline: Option<Trials>,
}

fn prepare(tally: &mut Tally) -> Vec<Family> {
    registry()
        .iter()
        .map(|spec| {
            let work = spec.build(Scale::Full);
            let reference = tally
                .op(check::reference(&work.model, &work.inputs, 0, CHECK_TRIALS))
                .unwrap_or_default();
            let baseline = tally
                .op(check::baseline(
                    spec,
                    &work.model,
                    &work.inputs,
                    CHECK_TRIALS,
                ))
                .flatten();
            Family {
                spec,
                work,
                reference,
                baseline,
            }
        })
        .collect()
}

/// Model to ready: compile with the default configuration, then build the
/// default runner around the artifact.
fn compile_and_build(
    fam: &Family,
    id: u64,
    tracer: &mut Tracer,
) -> Result<Box<dyn Runner>, String> {
    let model = &fam.work.model;
    let artifact = tracer
        .time("compile", Some(id), || {
            compile(model, CompileConfig::default())
        })
        .map_err(|e| format!("{}: compile failed: {e}", fam.spec.name))?;
    tracer
        .time("exec.build", Some(id), || {
            Session::new(model).build_with(artifact)
        })
        .map_err(|e| format!("{}: build failed: {e}", fam.spec.name))
}

/// One round over every family in `order`; returns each family's
/// model-to-ready milliseconds, in `order`.
fn round(fams: &[Family], order: &[usize], tracer: &mut Tracer, tally: &mut Tally) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(order.len());
    for &i in order {
        let fam = &fams[i];
        let t0 = Instant::now();
        tracer.begin("compile.family", Some(i as u64));
        let built = compile_and_build(fam, i as u64, tracer);
        tracer.end();
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(mut runner) = tally.op(built) {
            let what = format!("cold_compile {}", fam.spec.name);
            let got = runner
                .run(&RunSpec::new(fam.work.inputs.clone(), CHECK_TRIALS))
                .map(Trials::from)
                .map_err(|e| format!("{what}: run failed: {e}"));
            tally.check(got.and_then(|got| {
                check::exact(&what, &got, &fam.reference)?;
                match &fam.baseline {
                    Some(b) => check::close(&what, &got, 0, b),
                    None => Ok(()),
                }
            }));
        }
    }
    latencies
}

pub fn end_to_end(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let fams = prepare(&mut report.tally);
    let order = permutation(fams.len(), &mut ctx.rng("cold_compile.order"));
    let mut tracer = Tracer::new(Instant::now(), false);

    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            round(&fams, &order, &mut tracer, &mut report.tally)
                .iter()
                .sum::<f64>()
                / 1e3
        })
        .collect();

    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        let lat = round(&fams, &order, &mut tracer, &mut report.tally);
        rounds.push(lat.iter().sum::<f64>());
    }

    let round_ms = median(&rounds);
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("round_ms", round_ms, "ms", rounds.len());
    report.extra("compile_s", round_ms / 1e3, "s", rounds.len());
    report
}

/// The compile layers of one family, from one O0 compile.
struct Layers {
    insts_in: usize,
    insts_out: usize,
    stats: PassStats,
    replay_matches: bool,
}

fn decompose(fam: &Family, id: u64, tracer: &mut Tracer) -> Result<Layers, String> {
    let o0 = CompileConfig {
        opt_level: OptLevel::O0,
        ..CompileConfig::default()
    };
    tracer.begin("compile.layers", Some(id));
    let unopt = match tracer.time("codegen", Some(id), || compile(&fam.work.model, o0)) {
        Ok(unopt) => unopt,
        Err(e) => {
            tracer.end();
            return Err(format!("{}: O0 compile failed: {e}", fam.spec.name));
        }
    };
    let mut module = unopt.module.clone();
    let stats = tracer.time("opt", Some(id), || {
        PassManager::new(OptLevel::O2).run(&mut module)
    });

    // The O2 order of `PassManager::run`, one pass at a time.
    let mut replay = unopt.module.clone();
    let mut changes = 0usize;
    let mut pass =
        |tracer: &mut Tracer, name: &'static str, run: fn(&mut distill_ir::Module) -> usize| {
            changes += tracer.time(name, Some(id), || run(&mut replay));
        };
    tracer.begin("opt.replay", Some(id));
    pass(tracer, "opt.inline", inline::run);
    for _ in 0..2 {
        pass(tracer, "opt.mem2reg", mem2reg::run);
        pass(tracer, "opt.fold", fold::run);
        pass(tracer, "opt.simplify_cfg", simplify_cfg::run);
        pass(tracer, "opt.fold", fold::run);
        pass(tracer, "opt.dce", dce::run);
        pass(tracer, "opt.cse", cse::run);
        pass(tracer, "opt.licm", licm::run);
        pass(tracer, "opt.dce", dce::run);
    }
    tracer.end();
    tracer.end();
    Ok(Layers {
        insts_in: unopt.module.inst_count(),
        insts_out: module.inst_count(),
        stats,
        replay_matches: changes == stats.total_changes()
            && replay.inst_count() == module.inst_count(),
    })
}

/// Per-round sums of the durations (ms) of spans named `name`, given that
/// every one of `rounds` rounds recorded the same number of them.
fn per_round_ms(tracer: &Tracer, name: &str, rounds: usize) -> Vec<f64> {
    let d = tracer.durations(name);
    let per = d.len() / rounds.max(1);
    d.chunks(per.max(1))
        .map(|c| c.iter().sum::<u64>() as f64 / 1e6)
        .collect()
}

/// The traced pass: alternating untraced and traced rounds (their median
/// ratio is the tracing overhead), each traced round followed by the layer
/// decomposition of every family.
pub fn layers(ctx: &Ctx, budget: f64) -> (Report, f64) {
    let mut report = Report::default();
    let fams = prepare(&mut report.tally);
    let order = permutation(fams.len(), &mut ctx.rng("cold_compile.order"));
    let mut tracer = Tracer::new(Instant::now(), false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut decomposed: Vec<Vec<Layers>> = Vec::new();
    let start = Instant::now();
    while traced.len() < TRACED_ROUNDS || start.elapsed().as_secs_f64() < budget {
        tracer.set_enabled(false);
        plain.push(
            round(&fams, &order, &mut tracer, &mut report.tally)
                .iter()
                .sum::<f64>(),
        );
        tracer.set_enabled(true);
        traced.push(
            round(&fams, &order, &mut tracer, &mut report.tally)
                .iter()
                .sum::<f64>(),
        );
        let mut this_round = Vec::new();
        for &i in &order {
            if let Some(l) = report.tally.op(decompose(&fams[i], i as u64, &mut tracer)) {
                this_round.push(l);
            }
        }
        decomposed.push(this_round);
    }
    let rounds = traced.len();

    let codegen = per_round_ms(&tracer, "codegen", rounds);
    let opt = per_round_ms(&tracer, "opt", rounds);
    let build = per_round_ms(&tracer, "exec.build", rounds);
    let last = decomposed.last().map(Vec::as_slice).unwrap_or_default();
    let insts_in: usize = last.iter().map(|l| l.insts_in).sum();
    let insts_out: usize = last.iter().map(|l| l.insts_out).sum();
    let mut stats = PassStats::default();
    for l in last {
        stats.merge(&l.stats);
    }
    let repeats = decomposed.iter().all(|r| {
        r.iter()
            .map(|l| (l.insts_in, l.insts_out, l.stats))
            .eq(last.iter().map(|l| (l.insts_in, l.insts_out, l.stats)))
    });
    report.tally.check(if repeats {
        Ok(())
    } else {
        Err("cold_compile: instruction or change counts differ between rounds".into())
    });

    report.metric("codegen_ms", median(&codegen), "ms", rounds);
    report.metric("opt_ms", median(&opt), "ms", rounds);
    for pass in PASSES {
        let name = format!("opt.{pass}");
        let ms = per_round_ms(&tracer, &name, rounds);
        report.metric(format!("{name}_ms"), median(&ms), "ms", rounds);
    }
    let matches = last.iter().filter(|l| l.replay_matches).count();
    report.metric("opt.replay_matches", matches as f64, "count", 1);
    report.metric(
        "opt.ns_per_inst",
        median(&opt) * 1e6 / insts_in.max(1) as f64,
        "ns",
        rounds,
    );
    for (i, fam) in fams.iter().enumerate() {
        let ms: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "compile" && s.request == Some(i as u64))
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        report.metric(
            format!("compile_ms.{}", fam.spec.name),
            median(&ms),
            "ms",
            ms.len(),
        );
    }
    report.metric("ir.insts_in", insts_in as f64, "count", 1);
    report.metric("ir.insts_out", insts_out as f64, "count", 1);
    for (field, n) in [
        ("promoted_allocas", stats.promoted_allocas),
        ("folded", stats.folded),
        ("dce_removed", stats.dce_removed),
        ("cse_removed", stats.cse_removed),
        ("cfg_simplified", stats.cfg_simplified),
        ("licm_hoisted", stats.licm_hoisted),
        ("inlined_calls", stats.inlined_calls),
    ] {
        report.metric(format!("opt.changes.{field}"), n as f64, "count", 1);
    }
    report.metric("exec.build_ms", median(&build), "ms", rounds);
    report.extra(
        "trace.unattributed_frac.cold_compile",
        tracer.unattributed_frac("compile.family"),
        "ratio",
        rounds,
    );
    eprint!("{}", tracer.summary());
    (report, median(&traced) / median(&plain))
}
