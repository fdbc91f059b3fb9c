//! Differential suite: every execution tier — direct-threaded, fused,
//! plain predecoded — against the retained IR-walking reference
//! interpreter, plus the adaptive tier-up policy mid-promotion.
//!
//! The family coverage is **data-driven over the workload registry**
//! (`distill_models::registry`): every registered family — the Fig. 2–7
//! models plus the stress families (`predator_prey_skewed`, `gpu_stress`)
//! and anything registered after them — is compiled and executed once per
//! execution tier over the same module (one engine per `Fixed` tier policy,
//! plus an `Adaptive` engine whose low promotion threshold makes it tier up
//! in the middle of the differential), asserting bit-identical trial
//! outputs *and* bit-identical final memory images. Registering a new
//! family — or appending a new tier to [`ALL_TIERS`] — is all it takes to
//! extend the coverage.
//!
//! Targeted edge cases cover phi edges, terminators, frame-pool reuse,
//! per-node artifacts, O0/O3 IR shapes, and the work-stealing grid scheduler
//! against the static-chunk and serial paths on a seeded skewed-cost grid.

use distill::{
    compile, global_names as gn, parallel_argmin, parallel_argmin_static, serial_argmin,
    CompileConfig, CompileMode, CompiledModel, Engine, ExecConfig, ExecError, OptLevel, Tier,
    TierPolicy, Value,
};
use distill_ir::{BinOp, CmpPred, FunctionBuilder, Module, Terminator, Ty};
use distill_models::{
    botvinick_stroop, multitasking, predator_prey, predator_prey_s, registry, Scale, Workload,
};

/// Flatten one trial input into the `ext_input` layout through the same
/// `Layout` helper the driver uses (a zero image for input-less workloads).
fn flatten(w: &Workload, artifact: &CompiledModel, trial: usize) -> Vec<f64> {
    match w.inputs.get(trial % w.inputs.len().max(1)) {
        Some(input) => artifact.layout.flatten_input(&w.model.input_nodes, input),
        None => vec![0.0; artifact.layout.ext_len.max(1)],
    }
}

/// Every execution tier, the reference oracle first. A tier added to
/// `distill_exec::backend` gets full registry-driven differential coverage
/// by being appended here (see the `backend` module docs).
const ALL_TIERS: [Tier; 4] = [Tier::Reference, Tier::Decoded, Tier::Fused, Tier::Threaded];

/// One engine per tier over the artifact's module — pinned `Fixed` policies,
/// so an inherited `DISTILL_TIER` cannot degrade the
/// differential — plus an `Adaptive` engine whose promotion threshold of 2
/// makes it tier up from decoded to threaded *during* the comparison.
fn tier_engines(artifact: &CompiledModel) -> Vec<(String, Engine)> {
    let mut engines: Vec<(String, Engine)> = ALL_TIERS
        .iter()
        .map(|t| {
            (
                t.to_string(),
                Engine::with_config(artifact.module.clone(), ExecConfig::fixed(*t)),
            )
        })
        .collect();
    engines.push((
        "adaptive".to_string(),
        Engine::with_config(
            artifact.module.clone(),
            ExecConfig {
                policy: TierPolicy::Adaptive {
                    hot_call_threshold: 2,
                },
            },
        ),
    ));
    engines
}

/// Run `trials` whole-model trials on every tier (and the mid-promotion
/// adaptive policy) and assert bit-identical behaviour against the reference
/// oracle: same results, same trial outputs, same final memory.
fn differential_whole_model(w: &Workload, config: CompileConfig, trials: usize) {
    let artifact = compile(&w.model, config).expect("compilation succeeds");
    let trial_fn = artifact
        .trial_func
        .expect("whole-model artifact has a trial function");
    let out_len = artifact.layout.trial_output_len;
    let mut engines = tier_engines(&artifact);
    let out_bits = |e: &Engine| -> Vec<u64> {
        e.read_global_f64(gn::TRIAL_OUTPUT).unwrap()[..out_len]
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    for trial in 0..trials {
        let flat = flatten(w, &artifact, trial);
        let args = [Value::I64(trial as i64)];
        let mut oracle: Option<(Result<Value, ExecError>, Vec<u64>)> = None;
        for (label, engine) in engines.iter_mut() {
            engine.write_global_f64(gn::EXT_INPUT, &flat).unwrap();
            let r = engine.call(trial_fn, &args);
            let bits = out_bits(engine);
            match &oracle {
                None => oracle = Some((r, bits)),
                Some((r0, b0)) => {
                    assert_eq!(
                        &r, r0,
                        "{}: trial {trial}: {label} vs reference",
                        w.model.name
                    );
                    assert_eq!(
                        &bits, b0,
                        "{}: trial {trial} outputs diverged ({label} vs reference)",
                        w.model.name
                    );
                }
            }
        }
    }
    let oracle_mem = engines[0].1.memory_bits();
    for (label, engine) in engines.iter().skip(1) {
        assert_eq!(
            engine.memory_bits(),
            oracle_mem,
            "{}: final memory diverged ({label} vs reference)",
            w.model.name
        );
    }
}

/// Run the controller's grid-evaluation kernel on every tier.
fn differential_eval_kernel(w: &Workload, config: CompileConfig, points: usize) {
    let artifact = compile(&w.model, config).expect("compilation succeeds");
    let Some(eval_fn) = artifact.eval_func else {
        return;
    };
    let mut engines = tier_engines(&artifact);
    let flat = flatten(w, &artifact, 0);
    for (_, engine) in engines.iter_mut() {
        engine.write_global_f64(gn::EXT_INPUT, &flat).unwrap();
    }
    for g in 0..points.min(artifact.grid_size) {
        let args = [Value::I64(g as i64)];
        let mut oracle: Option<f64> = None;
        for (label, engine) in engines.iter_mut() {
            let r = engine.call(eval_fn, &args).unwrap().as_f64().unwrap();
            match oracle {
                None => oracle = Some(r),
                Some(r0) => assert_eq!(
                    r.to_bits(),
                    r0.to_bits(),
                    "{}: grid point {g} diverged ({label} vs reference)",
                    w.model.name
                ),
            }
        }
    }
    let oracle_mem = engines[0].1.memory_bits();
    for (label, engine) in engines.iter().skip(1) {
        assert_eq!(
            engine.memory_bits(),
            oracle_mem,
            "{}: eval memory diverged ({label} vs reference)",
            w.model.name
        );
    }
}

/// Run every per-node function once on every tier.
fn differential_per_node(w: &Workload, config: CompileConfig) {
    let artifact = compile(
        &w.model,
        CompileConfig {
            mode: CompileMode::PerNode,
            ..config
        },
    )
    .expect("compilation succeeds");
    let mut engines = tier_engines(&artifact);
    let flat = flatten(w, &artifact, 0);
    for (_, engine) in engines.iter_mut() {
        engine.write_global_f64(gn::EXT_INPUT, &flat).unwrap();
    }
    for &node_fn in &artifact.node_funcs {
        let mut oracle: Option<Result<Value, ExecError>> = None;
        for (label, engine) in engines.iter_mut() {
            let r = engine.call(node_fn, &[]);
            match &oracle {
                None => oracle = Some(r),
                Some(r0) => assert_eq!(
                    &r, r0,
                    "{}: node function diverged ({label} vs reference)",
                    w.model.name
                ),
            }
        }
    }
    let oracle_mem = engines[0].1.memory_bits();
    for (label, engine) in engines.iter().skip(1) {
        assert_eq!(
            engine.memory_bits(),
            oracle_mem,
            "{}: per-node memory diverged ({label} vs reference)",
            w.model.name
        );
    }
}

#[test]
fn every_registered_family_is_bit_identical_across_engines() {
    // Data-driven over the registry: whoever registers a family gets this
    // three-way differential (fused / decoded / reference) for free —
    // including the stress families (`predator_prey_skewed`, `gpu_stress`)
    // that predate nothing but this suite's hard-coded fig2–fig7 list.
    for spec in registry::registry() {
        let w = spec.build(Scale::Reduced);
        differential_whole_model(&w, CompileConfig::default(), 3);
    }
}

#[test]
fn every_registered_controller_grid_kernel_is_bit_identical() {
    for spec in registry::registry() {
        let w = spec.build(Scale::Reduced);
        // Families without a controller return early (no eval kernel).
        differential_eval_kernel(&w, CompileConfig::default(), 8);
    }
}

#[test]
fn fig5b_family_per_node_artifacts_are_bit_identical() {
    differential_per_node(&botvinick_stroop(), CompileConfig::default());
}

#[test]
fn fig5c_fig6_grid_kernels_are_bit_identical() {
    let w = predator_prey(4);
    differential_whole_model(&w, CompileConfig::default(), 1);
    differential_eval_kernel(&w, CompileConfig::default(), 16);
}

#[test]
fn fig7_opt_levels_are_bit_identical() {
    // O0 and O3 produce very different IR shapes (no mem2reg vs full
    // inlining); both must decode and execute identically.
    for level in [OptLevel::O0, OptLevel::O3] {
        differential_whole_model(
            &predator_prey_s(),
            CompileConfig {
                opt_level: level,
                ..CompileConfig::default()
            },
            2,
        );
        differential_whole_model(
            &multitasking(),
            CompileConfig {
                opt_level: level,
                ..CompileConfig::default()
            },
            2,
        );
    }
}

/// Trial outputs (return value and output bits) of `trials` trials on one
/// engine with the default configuration.
fn default_tier_trials(
    w: &Workload,
    artifact: &CompiledModel,
    trials: usize,
) -> Vec<(Result<Value, ExecError>, Vec<u64>)> {
    let trial_fn = artifact
        .trial_func
        .expect("whole-model artifact has a trial function");
    let out_len = artifact.layout.trial_output_len;
    let mut engine = Engine::new(artifact.module.clone());
    (0..trials)
        .map(|trial| {
            engine
                .write_global_f64(gn::EXT_INPUT, &flatten(w, artifact, trial))
                .unwrap();
            let r = engine.call(trial_fn, &[Value::I64(trial as i64)]);
            let bits = engine.read_global_f64(gn::TRIAL_OUTPUT).unwrap()[..out_len]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (r, bits)
        })
        .collect()
}

#[test]
fn every_registered_family_is_bit_identical_across_opt_levels() {
    // Fig. 7 varies only the cost of compiling: every level must compute
    // the same bits as unoptimized code, on every registered family.
    for spec in registry::registry() {
        let w = spec.build(Scale::Reduced);
        let mut runs = OptLevel::all().into_iter().map(|level| {
            let config = CompileConfig {
                opt_level: level,
                ..CompileConfig::default()
            };
            let artifact = compile(&w.model, config).expect("compilation succeeds");
            (level, default_tier_trials(&w, &artifact, 2))
        });
        let (_, o0) = runs.next().expect("O0 is a level");
        for (level, got) in runs {
            assert_eq!(got, o0, "{}: {level} vs O0", spec.name);
        }
    }
}

// ---------------------------------------------------------------------------
// Targeted edge cases
// ---------------------------------------------------------------------------

#[test]
fn phi_missing_edge_errors_identically() {
    // A block with a phi that has an incoming value for only one of its two
    // predecessors; entering through the other must raise the same error on
    // both paths.
    let mut m = Module::new("m");
    let fid = m.declare_function("f", vec![Ty::Bool], Ty::I64);
    {
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let entry = b.create_block("entry");
        let left = b.create_block("left");
        let right = b.create_block("right");
        let merge = b.create_block("merge");
        b.switch_to_block(entry);
        let c = b.param(0);
        b.cond_br(c, left, right);
        b.switch_to_block(left);
        b.br(merge);
        b.switch_to_block(right);
        b.br(merge);
        b.switch_to_block(merge);
        let p = b.empty_phi(Ty::I64);
        let one = b.const_i64(1);
        b.add_phi_incoming(p, left, one);
        // No incoming for `right`.
        b.ret(Some(p));
    }
    let mut fast = Engine::new(m.clone());
    let mut slow = Engine::new(m);
    // The good edge works on both paths.
    assert_eq!(
        fast.call(fid, &[Value::Bool(true)]),
        Ok(Value::I64(1))
    );
    assert_eq!(
        slow.call_reference(fid, &[Value::Bool(true)]),
        Ok(Value::I64(1))
    );
    // The missing edge errors identically (same variant, same message).
    let ef = fast.call(fid, &[Value::Bool(false)]).unwrap_err();
    let es = slow.call_reference(fid, &[Value::Bool(false)]).unwrap_err();
    assert_eq!(ef, es);
    assert!(matches!(ef, ExecError::Type(ref msg) if msg.contains("has no edge from")));
}

#[test]
fn terminator_edge_cases_match() {
    // Unreachable, void return, and both sides of a conditional branch.
    let mut m = Module::new("m");
    let unreachable_fn = m.declare_function("dead_end", vec![], Ty::Void);
    {
        let f = m.function_mut(unreachable_fn);
        let mut b = FunctionBuilder::new(f);
        let e = b.create_block("entry");
        b.switch_to_block(e);
        b.unreachable();
    }
    let void_fn = m.declare_function("noop", vec![], Ty::Void);
    {
        let f = m.function_mut(void_fn);
        let mut b = FunctionBuilder::new(f);
        let e = b.create_block("entry");
        b.switch_to_block(e);
        b.ret(None);
    }
    let select_fn = m.declare_function("pick", vec![Ty::Bool], Ty::F64);
    {
        let f = m.function_mut(select_fn);
        let mut b = FunctionBuilder::new(f);
        let e = b.create_block("entry");
        let t = b.create_block("t");
        let u = b.create_block("u");
        b.switch_to_block(e);
        let c = b.param(0);
        b.cond_br(c, t, u);
        b.switch_to_block(t);
        let x = b.const_f64(1.5);
        b.ret(Some(x));
        b.switch_to_block(u);
        let y = b.const_f64(-2.5);
        b.ret(Some(y));
    }
    let mut fast = Engine::new(m.clone());
    let mut slow = Engine::new(m);
    assert_eq!(
        fast.call(unreachable_fn, &[]),
        slow.call_reference(unreachable_fn, &[])
    );
    assert!(matches!(
        fast.call(unreachable_fn, &[]),
        Err(ExecError::Type(_))
    ));
    assert_eq!(fast.call(void_fn, &[]), Ok(Value::Unit));
    assert_eq!(slow.call_reference(void_fn, &[]), Ok(Value::Unit));
    for c in [true, false] {
        assert_eq!(
            fast.call(select_fn, &[Value::Bool(c)]),
            slow.call_reference(select_fn, &[Value::Bool(c)]),
            "cond {c}"
        );
    }
}

#[test]
fn dead_block_without_terminator_decodes_without_running() {
    // A block nothing branches to may legally lack a terminator while the
    // function is still executable; decoding must not reject the function.
    let mut m = Module::new("m");
    let fid = m.declare_function("f", vec![], Ty::I64);
    {
        let f = m.function_mut(fid);
        let entry = f.add_block("entry");
        let _dead = f.add_block("dead"); // never terminated, never reached
        let k = f.add_constant(distill_ir::Constant::I64(7));
        f.block_mut(entry).term = Some(Terminator::Ret(Some(k)));
    }
    let mut fast = Engine::new(m.clone());
    let mut slow = Engine::new(m);
    assert_eq!(fast.call(fid, &[]), Ok(Value::I64(7)));
    assert_eq!(slow.call_reference(fid, &[]), Ok(Value::I64(7)));
}

#[test]
fn frame_pool_reuse_keeps_nested_calls_correct() {
    // callee(x) allocas a slot; caller calls it twice per invocation. Frames
    // and alloca regions must be recycled without cross-call contamination.
    let mut m = Module::new("m");
    let callee = m.declare_function("callee", vec![Ty::F64], Ty::F64);
    {
        let f = m.function_mut(callee);
        let mut b = FunctionBuilder::new(f);
        let e = b.create_block("entry");
        b.switch_to_block(e);
        let x = b.param(0);
        let slot = b.alloca(Ty::F64);
        b.store(slot, x);
        let v = b.load(slot);
        let two = b.const_f64(2.0);
        let r = b.fmul(v, two);
        b.ret(Some(r));
    }
    let caller = m.declare_function("caller", vec![Ty::F64], Ty::F64);
    {
        let f = m.function_mut(caller);
        let mut b =
            FunctionBuilder::new(f).with_signatures(vec![(vec![Ty::F64], Ty::F64); 2]);
        let e = b.create_block("entry");
        b.switch_to_block(e);
        let x = b.param(0);
        let a = b.call(callee, vec![x]);
        let c = b.call(callee, vec![a]);
        b.ret(Some(c));
    }
    let mut fast = Engine::new(m.clone());
    let mut slow = Engine::new(m);
    for i in 0..50 {
        let x = Value::F64(i as f64 * 0.25);
        assert_eq!(fast.call(caller, &[x]), slow.call_reference(caller, &[x]));
    }
    let stats = fast.stats();
    assert!(
        stats.frame_pool_hits >= 100,
        "nested frames must be pooled: {stats:?}"
    );
    assert_eq!(fast.memory_bits(), slow.memory_bits());
}

// ---------------------------------------------------------------------------
// Work stealing vs static chunks on a seeded skewed-cost grid
// ---------------------------------------------------------------------------

/// A seeded pseudo-random skewed kernel: cost and busy-work both derive from
/// an LCG hash of the grid index, so evaluation cost varies wildly and
/// unpredictably across the grid while staying a pure function of the index.
fn seeded_skew_kernel(seed: i64) -> (Engine, distill_ir::FuncId) {
    let mut m = Module::new("skew");
    let fid = m.declare_function("eval", vec![Ty::I64], Ty::F64);
    {
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to_block(entry);
        let i = b.param(0);
        // s = i * 1103515245 + seed (wrapping), the classic LCG step.
        let mul = b.const_i64(1_103_515_245);
        let add = b.const_i64(seed);
        let s0 = b.imul(i, mul);
        let s = b.iadd(s0, add);
        // Busy-work bound and cost both come from masked hash bits.
        let work_mask = b.const_i64(1023);
        let work = b.bin(BinOp::And, s, work_mask);
        let cost_mask = b.const_i64(65_535);
        let cost_bits = b.bin(BinOp::And, s, cost_mask);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let zf = b.const_f64(0.0);
        b.br(header);
        b.switch_to_block(header);
        let j = b.empty_phi(Ty::I64);
        let acc = b.empty_phi(Ty::F64);
        b.add_phi_incoming(j, entry, zero);
        b.add_phi_incoming(acc, entry, zf);
        let c = b.cmp(CmpPred::ILt, j, work);
        b.cond_br(c, body, exit);
        b.switch_to_block(body);
        let jf = b.sitofp(j);
        let acc2 = b.fadd(acc, jf);
        let j2 = b.iadd(j, one);
        b.add_phi_incoming(j, body, j2);
        b.add_phi_incoming(acc, body, acc2);
        b.br(header);
        b.switch_to_block(exit);
        let cf = b.sitofp(cost_bits);
        let zw = b.const_f64(0.0);
        let junk = b.fmul(acc, zw);
        let r = b.fadd(cf, junk);
        b.ret(Some(r));
    }
    (Engine::new(m), fid)
}

#[test]
fn multicore_driver_folds_steals_into_engine_stats() {
    use distill::{RunSpec, Session, Target};
    let w = predator_prey(4);
    let mut runner = Session::new(&w.model)
        .target(Target::MultiCore { threads: 2 })
        .build()
        .expect("runner builds");
    let result = runner
        .run(&RunSpec::new(w.inputs.clone(), 1))
        .expect("multicore trial");
    let grid = result.grid.expect("multicore target reports grid stats");
    let stats = runner.engine().expect("compiled backend has an engine").stats();
    assert_eq!(
        stats.steals, grid.steals,
        "driver must fold the scheduler's steal count into EngineStats"
    );
    if grid.evaluations >= 2 * grid.threads {
        assert!(grid.steals > 0, "a drained queue implies re-grabs: {grid:?}");
    }
    // Worker engines die with their threads; their counter deltas must be
    // folded into the template engine rather than lost.
    assert!(
        grid.stats.instructions > 0,
        "grid workers must report their instruction counts: {:?}",
        grid.stats
    );
    // The per-run view: the result attributes the counters (worker deltas
    // included) to the spec that produced them.
    assert_eq!(result.stats.steals, grid.steals);
    assert!(
        result.stats.instructions >= grid.stats.instructions,
        "per-run stats must include worker work: {:?} vs {:?}",
        result.stats,
        grid.stats
    );
    let default_runs_fused = !matches!(
        distill::ExecConfig::default().policy,
        TierPolicy::Fixed(Tier::Reference) | TierPolicy::Fixed(Tier::Decoded)
    );
    if default_runs_fused {
        assert!(
            result.stats.fused_ops > 0,
            "fusion is on by default, superinstructions must execute: {:?}",
            result.stats
        );
    }
}

#[test]
fn run_results_carry_per_run_stats_not_engine_lifetime_aggregates() {
    use distill::{RunSpec, Session};
    let w = predator_prey_s();
    let mut runner = Session::new(&w.model).build().expect("runner builds");
    let spec = RunSpec::new(w.inputs.clone(), 2);
    let first = runner.run(&spec).expect("first run");
    let second = runner.run(&spec).expect("second run");
    assert!(first.stats.instructions > 0);
    // Same spec, same engine: the second result reports the second run's
    // work, not the accumulated lifetime counters.
    assert_eq!(first.stats.instructions, second.stats.instructions);
    assert_eq!(first.stats.calls, second.stats.calls);
    // The sharded path attributes worker deltas to the shard stats too.
    let sharded = runner
        .run(&RunSpec::new(w.inputs.clone(), 8).with_batch(4).with_shards(2))
        .expect("sharded run");
    let shards = sharded.shards.expect("sharded run reports shard stats");
    assert!(shards.stats.instructions > 0);
    assert!(sharded.stats.instructions >= shards.stats.instructions);
}

#[test]
fn adaptive_sessions_match_every_fixed_tier_and_count_promotions() {
    use distill::{RunSpec, Session};
    let w = predator_prey_s();
    let spec = RunSpec::new(w.inputs.clone(), 4);
    let run_with = |policy: TierPolicy| {
        let mut runner = Session::new(&w.model)
            .tier(policy)
            .build()
            .expect("runner builds");
        runner.run(&spec).expect("run succeeds")
    };
    let oracle = run_with(TierPolicy::Fixed(Tier::Reference));
    let bits = |r: &distill::RunResult| -> Vec<Vec<u64>> {
        r.outputs
            .iter()
            .map(|o| o.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    for tier in [Tier::Decoded, Tier::Fused, Tier::Threaded] {
        let r = run_with(TierPolicy::Fixed(tier));
        assert_eq!(bits(&r), bits(&oracle), "{tier} diverged from reference");
        assert_eq!(r.passes, oracle.passes, "{tier} pass counts diverged");
        assert_eq!(
            r.stats.tier_promotions, 0,
            "fixed policies never promote: {tier}"
        );
    }
    // The adaptive policy promotes the hot trial function mid-run and still
    // matches the oracle bit for bit.
    let hot = run_with(TierPolicy::Adaptive {
        hot_call_threshold: 2,
    });
    assert_eq!(bits(&hot), bits(&oracle), "adaptive diverged from reference");
    assert!(
        hot.stats.tier_promotions > 0,
        "4 trials past a threshold of 2 must promote: {:?}",
        hot.stats
    );
    // Below the threshold nothing is promoted.
    let cold = run_with(TierPolicy::Adaptive {
        hot_call_threshold: 1 << 40,
    });
    assert_eq!(bits(&cold), bits(&oracle), "cold adaptive diverged");
    assert_eq!(
        cold.stats.tier_promotions, 0,
        "below-threshold runs must not promote: {:?}",
        cold.stats
    );
}

#[test]
fn adaptive_promotion_does_not_double_count_per_run_stats() {
    use distill::{RunSpec, Session};
    // A promotion in the middle of a run switches tiers at a call boundary;
    // the per-run stats delta must keep counting each dispatched instruction
    // exactly once. Summing per-run deltas over runs that straddle the
    // promotion must reproduce the engine's lifetime counters.
    let w = predator_prey_s();
    let spec = RunSpec::new(w.inputs.clone(), 2);
    let mut runner = Session::new(&w.model)
        .tier(TierPolicy::Adaptive {
            hot_call_threshold: 3,
        })
        .build()
        .expect("runner builds");
    let first = runner.run(&spec).expect("first run"); // calls 1-2: decoded
    let second = runner.run(&spec).expect("second run"); // promotes at call 3
    let third = runner.run(&spec).expect("third run"); // threaded throughout
    assert_eq!(
        first.stats.tier_promotions + second.stats.tier_promotions + third.stats.tier_promotions,
        1,
        "exactly one promotion across the three runs"
    );
    assert_eq!(second.stats.tier_promotions, 1, "promotion lands in run two");
    let engine = runner.engine().expect("compiled backend has an engine");
    let lifetime = engine.stats();
    assert_eq!(
        first.stats.instructions + second.stats.instructions + third.stats.instructions,
        lifetime.instructions,
        "per-run instruction deltas must partition the lifetime count"
    );
    assert_eq!(
        first.stats.calls + second.stats.calls + third.stats.calls,
        lifetime.calls
    );
    // Outputs stay bit-identical across the tier switch.
    assert_eq!(first.outputs, second.outputs);
    assert_eq!(second.outputs, third.outputs);
}

#[test]
fn work_stealing_matches_static_chunks_on_seeded_skewed_grids() {
    for seed in [987_654_321i64, 42, -7_777_777] {
        let (engine, fid) = seeded_skew_kernel(seed);
        let grid = 257; // deliberately not a multiple of any thread count
        let serial = serial_argmin(&engine, fid, grid).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let stat = parallel_argmin_static(&engine, fid, grid, threads).unwrap();
            let steal = parallel_argmin(&engine, fid, grid, threads).unwrap();
            assert_eq!(
                stat.best_index, serial.best_index,
                "static, seed {seed}, threads {threads}"
            );
            assert_eq!(
                steal.best_index, serial.best_index,
                "stealing, seed {seed}, threads {threads}"
            );
            assert_eq!(stat.best_cost.to_bits(), serial.best_cost.to_bits());
            assert_eq!(steal.best_cost.to_bits(), serial.best_cost.to_bits());
            assert_eq!(steal.evaluations, grid);
        }
    }
}
