//! Function inlining.
//!
//! Inlining is the pass that turns Distill's per-node functions plus the
//! compiled scheduler into one *model-wide* body of code, which is what
//! allows the rest of the pipeline to optimize across node boundaries
//! (Fig. 5b contrasts exactly this against per-node compilation). It is also
//! the mechanism behind whole-model clone detection (§4.4), where two models
//! are compared after aggressively inlining every node into the trial
//! function.

use distill_ir::{
    BlockId, ConstPool, Constant, FuncId, Function, Inst, Module, Rewrite, Terminator, Ty,
    ValueData, ValueId, ValueKind,
};

/// Inlining thresholds and limits.
#[derive(Debug, Clone, Copy)]
pub struct InlineOptions {
    /// Maximum callee size (instruction count) that will be inlined.
    pub max_callee_insts: usize,
    /// Upper bound on the number of call sites inlined per module run
    /// (protects against pathological growth).
    pub max_inlined_calls: usize,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions {
            // Whole-model compilation wants node functions of any realistic
            // size inlined; cognitive-model nodes are typically a few dozen
            // to a few hundred instructions.
            max_callee_insts: 4_000,
            max_inlined_calls: 10_000,
        }
    }
}

/// Inline eligible call sites across the whole module. Returns the number of
/// call sites inlined.
pub fn run(module: &mut Module) -> usize {
    run_with_options(module, InlineOptions::default())
}

/// Inline with explicit options.
pub fn run_with_options(module: &mut Module, opts: InlineOptions) -> usize {
    inline_calls(module, None, opts)
}

/// Inline every call site inside one function (used by clone detection to
/// flatten a model before comparison). Returns the number inlined.
pub fn inline_all_calls_in(module: &mut Module, func: FuncId, opts: InlineOptions) -> usize {
    inline_calls(module, Some(func), opts)
}

/// The caller being inlined into, with its pending rewrite: the call
/// results forwarded to the inlined return values, and the caller's
/// constant index.
struct OpenCaller {
    id: FuncId,
    rw: Rewrite,
    consts: ConstPool,
}

impl OpenCaller {
    fn new(module: &Module, id: FuncId) -> OpenCaller {
        OpenCaller {
            id,
            rw: Rewrite::new(),
            consts: ConstPool::new(module.function(id)),
        }
    }

    fn commit(mut self, module: &mut Module) {
        self.rw.commit(module.function_mut(self.id));
    }
}

/// Inline call sites one at a time, always the first inlinable call in
/// module order (function, then layout block, then position), within `only`
/// when given. Each search resumes after the block of the previous site:
/// inlining changes only the caller, whose earlier blocks held no
/// inlinable call and whose self-calls never are, so nothing before that
/// point can have become inlinable — unless the caller shrank (its callee
/// was empty), which can bring it under the size limit for calls in
/// earlier functions, and then the search starts over.
///
/// Uses of each inlined call are forwarded in the caller's [`Rewrite`],
/// which is committed before another function is inlined into or cloned.
fn inline_calls(module: &mut Module, only: Option<FuncId>, opts: InlineOptions) -> usize {
    let start = (only.map_or(0, FuncId::index), 0);
    let mut from = start;
    let mut open: Option<OpenCaller> = None;
    let mut inlined = 0;
    while let Some((caller, li, call_value, callee_insts)) = next_call(module, only, &opts, from) {
        if let Some(o) = open.take_if(|o| o.id != caller) {
            o.commit(module);
        }
        let site = open.get_or_insert_with(|| OpenCaller::new(module, caller));
        inline_at(module, site, li, call_value);
        from = if callee_insts == 0 {
            start
        } else {
            (caller.index(), li + 1)
        };
        inlined += 1;
        if inlined >= opts.max_inlined_calls {
            break;
        }
    }
    if let Some(o) = open {
        o.commit(module);
    }
    inlined
}

/// Size of `callee` when a call to it from `caller` may be inlined.
fn inlinable_size(
    module: &Module,
    caller: FuncId,
    callee: FuncId,
    opts: &InlineOptions,
) -> Option<usize> {
    if caller == callee {
        return None;
    }
    let cf = module.function(callee);
    if cf.is_declaration || cf.layout.is_empty() {
        return None;
    }
    Some(cf.inst_count()).filter(|&n| n <= opts.max_callee_insts)
}

/// The first inlinable call at or after `from` (a function index and a
/// layout position in it): its caller, layout position, value and callee
/// size.
fn next_call(
    module: &Module,
    only: Option<FuncId>,
    opts: &InlineOptions,
    (first_func, first_block): (usize, usize),
) -> Option<(FuncId, usize, ValueId, usize)> {
    let end = only.map_or(module.functions.len(), |f| f.index() + 1);
    for fi in first_func..end {
        let fid = FuncId::from_index(fi);
        let func = module.function(fid);
        if func.is_declaration {
            continue;
        }
        let skip = if fi == first_func { first_block } else { 0 };
        for (li, &b) in func.layout.iter().enumerate().skip(skip) {
            for &v in &func.block(b).insts {
                if let Some(Inst::Call { callee, .. }) = func.as_inst(v) {
                    if let Some(n) = inlinable_size(module, fid, *callee, opts) {
                        return Some((fid, li, v, n));
                    }
                }
            }
        }
    }
    None
}

/// Inline one specific call site.
///
/// # Panics
/// Panics if `call_value` is not a call instruction scheduled in `caller`.
pub fn inline_call(module: &mut Module, caller_id: FuncId, call_value: ValueId) {
    let caller = module.function(caller_id);
    let li = caller
        .layout
        .iter()
        .position(|&b| caller.block(b).insts.contains(&call_value))
        .expect("call is not scheduled");
    let mut site = OpenCaller::new(module, caller_id);
    inline_at(module, &mut site, li, call_value);
    site.commit(module);
}

/// Inline `call_value`, scheduled in the block at layout position `li` of
/// `site`'s caller. Uses of the call are forwarded in `site.rw`, not yet
/// rewritten.
fn inline_at(module: &mut Module, site: &mut OpenCaller, li: usize, call_value: ValueId) {
    let (callee_id, args) = {
        let caller = module.function(site.id);
        match caller.as_inst(call_value) {
            Some(Inst::Call { callee, args }) => (
                *callee,
                args.iter().map(|&a| site.rw.resolve(a)).collect::<Vec<_>>(),
            ),
            other => panic!("inline_call on non-call value: {other:?}"),
        }
    };
    let callee: Function = module.function(callee_id).clone();
    let caller = module.function_mut(site.id);
    let call_block = caller.layout[li];

    // --- split the calling block at the call site -------------------------
    let call_pos = caller
        .block(call_block)
        .insts
        .iter()
        .position(|&v| v == call_value)
        .expect("call not found in its defining block");
    let after: Vec<ValueId> = caller.block(call_block).insts[call_pos + 1..].to_vec();
    let orig_term = caller.block(call_block).term.clone();
    let cont_block = caller.add_block(format!("inline.cont.{}", callee.name));
    caller.block_mut(cont_block).insts = after;
    caller.block_mut(cont_block).term = orig_term;
    caller.block_mut(call_block).insts.truncate(call_pos);
    caller.block_mut(call_block).term = None;

    // Phi nodes in the successors of the original terminator must now refer
    // to the continuation block.
    if let Some(term) = caller.block(cont_block).term.clone() {
        for succ in term.successors() {
            for i in 0..caller.block(succ).insts.len() {
                let v = caller.block(succ).insts[i];
                if let Some(Inst::Phi { incoming, .. }) = caller.as_inst_mut(v) {
                    for (p, _) in incoming.iter_mut() {
                        if *p == call_block {
                            *p = cont_block;
                        }
                    }
                }
            }
        }
    }

    // --- clone callee blocks and values into the caller -------------------
    let mut block_map: Vec<Option<BlockId>> = vec![None; callee.blocks.len()];
    for cb in &callee.layout {
        let name = format!("inline.{}.{}", callee.name, callee.block(*cb).name);
        block_map[cb.index()] = Some(caller.add_block(name));
    }
    let block_of = |b: BlockId| block_map[b.index()].expect("callee block outside its layout");

    // First pass: create caller values for every callee value.
    let value_map: Vec<ValueId> = callee
        .values
        .iter()
        .map(|vd| match &vd.kind {
            ValueKind::Param(p) => args[*p],
            ValueKind::Const(c) => site.consts.intern(caller, *c),
            ValueKind::Inst(inst) => caller.add_value(ValueData {
                kind: ValueKind::Inst(inst.clone()),
                ty: vd.ty.clone(),
                name: vd.name.clone(),
            }),
        })
        .collect();
    let map = |v: ValueId| value_map[v.index()];

    // Second pass: remap operands (and phi incoming blocks) of the cloned
    // instructions.
    for (i, vd) in callee.values.iter().enumerate() {
        if !matches!(vd.kind, ValueKind::Inst(_)) {
            continue;
        }
        if let Some(inst) = caller.as_inst_mut(value_map[i]) {
            inst.map_operands(map);
            if let Inst::Phi { incoming, .. } = inst {
                for (b, _) in incoming.iter_mut() {
                    *b = block_of(*b);
                }
            }
        }
    }

    // Schedule the cloned instructions and translate terminators. Returns
    // become branches to the continuation block.
    let mut return_edges: Vec<(BlockId, Option<ValueId>)> = Vec::new();
    for cb in &callee.layout {
        let nb = block_of(*cb);
        let src = callee.block(*cb);
        caller.block_mut(nb).insts = src.insts.iter().map(|&v| map(v)).collect();
        let term = match src.term.clone().expect("callee block lacks terminator") {
            Terminator::Br(t) => Terminator::Br(block_of(t)),
            Terminator::CondBr {
                cond,
                then_blk,
                else_blk,
            } => Terminator::CondBr {
                cond: map(cond),
                then_blk: block_of(then_blk),
                else_blk: block_of(else_blk),
            },
            Terminator::Ret(val) => {
                return_edges.push((nb, val.map(map)));
                Terminator::Br(cont_block)
            }
            Terminator::Unreachable => Terminator::Unreachable,
        };
        caller.block_mut(nb).term = Some(term);
    }

    // --- wire up entry and the return value --------------------------------
    let callee_entry = block_of(callee.entry_block().expect("callee has no entry"));
    caller.block_mut(call_block).term = Some(Terminator::Br(callee_entry));

    if callee.ret_ty != Ty::Void {
        let ret_value = match return_edges.len() {
            0 => None,
            1 => return_edges[0].1,
            _ => {
                // Merge multiple returns through a phi at the head of the
                // continuation block.
                let incoming: Vec<(BlockId, ValueId)> = return_edges
                    .iter()
                    .filter_map(|(b, v)| v.map(|v| (*b, v)))
                    .collect();
                let phi = caller.add_value(ValueData {
                    kind: ValueKind::Inst(Inst::Phi {
                        ty: callee.ret_ty.clone(),
                        incoming,
                    }),
                    ty: callee.ret_ty.clone(),
                    name: Some(format!("inline.{}.ret", callee.name)),
                });
                caller.block_mut(cont_block).insts.insert(0, phi);
                Some(phi)
            }
        };
        // A callee that never returns normally leaves the call's uses
        // undefined.
        let rv = ret_value.unwrap_or_else(|| site.consts.intern(caller, Constant::Undef));
        site.rw.replace(call_value, rv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{CmpPred, FunctionBuilder};

    /// Module with `logistic(x)` and a caller `apply_twice(x) = logistic(logistic(x))`.
    fn sample_module() -> (Module, FuncId, FuncId) {
        let mut m = Module::new("m");
        let logistic = m.declare_function("logistic", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(logistic);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let neg = b.fneg(x);
            let ex = b.exp(neg);
            let one = b.const_f64(1.0);
            let den = b.fadd(one, ex);
            let r = b.fdiv(one, den);
            b.ret(Some(r));
        }
        let caller = m.declare_function("apply_twice", vec![Ty::F64], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(caller);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let a = b.call(logistic, vec![x]);
            let r = b.call(logistic, vec![a]);
            b.ret(Some(r));
        }
        (m, logistic, caller)
    }

    fn has_calls(m: &Module, fid: FuncId) -> bool {
        let f = m.function(fid);
        f.block_order().any(|b| {
            f.block(b)
                .insts
                .iter()
                .any(|&v| matches!(f.as_inst(v), Some(Inst::Call { .. })))
        })
    }

    #[test]
    fn inlines_straightline_callee() {
        let (mut m, _logistic, caller) = sample_module();
        let n = run(&mut m);
        assert_eq!(n, 2);
        assert!(!has_calls(&m, caller));
        distill_ir::verify::verify_module(&m).unwrap();
        // After simplification the caller should be a single block again.
        crate::simplify_cfg::run(&mut m);
        assert_eq!(m.function(caller).layout.len(), 1);
    }

    #[test]
    fn inlined_code_computes_the_same_result_structurally() {
        let (mut m, logistic, caller) = sample_module();
        run(&mut m);
        crate::simplify_cfg::run(&mut m);
        // Twice the callee body: 2 * 4 instructions.
        assert_eq!(
            m.function(caller).inst_count(),
            2 * m.function(logistic).inst_count()
        );
    }

    #[test]
    fn inlines_callee_with_control_flow_and_multiple_returns() {
        let mut m = Module::new("m");
        let abs = m.declare_function("abs", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(abs);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let neg = b.create_block("neg");
            let pos = b.create_block("pos");
            b.switch_to_block(e);
            let x = b.param(0);
            let zero = b.const_f64(0.0);
            let c = b.cmp(CmpPred::FLt, x, zero);
            b.cond_br(c, neg, pos);
            b.switch_to_block(neg);
            let nx = b.fneg(x);
            b.ret(Some(nx));
            b.switch_to_block(pos);
            b.ret(Some(x));
        }
        let caller = m.declare_function("dist", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(caller);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let d = b.fsub(x, y);
            let r = b.call(abs, vec![d]);
            b.ret(Some(r));
        }
        let n = run(&mut m);
        assert_eq!(n, 1);
        assert!(!has_calls(&m, caller));
        distill_ir::verify::verify_module(&m).unwrap();
        // The continuation block must have a phi merging the two returns.
        let f = m.function(caller);
        let has_ret_phi = f.block_order().any(|b| {
            f.block(b)
                .insts
                .iter()
                .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })))
        });
        assert!(has_ret_phi);
    }

    #[test]
    fn respects_size_threshold() {
        let (mut m, _logistic, caller) = sample_module();
        let n = run_with_options(
            &mut m,
            InlineOptions {
                max_callee_insts: 1,
                max_inlined_calls: 100,
            },
        );
        assert_eq!(n, 0);
        assert!(has_calls(&m, caller));
    }

    #[test]
    fn recursive_functions_are_not_inlined() {
        let mut m = Module::new("m");
        let fact = m.declare_function("fact", vec![Ty::I64], Ty::I64);
        {
            // A (non-terminating, but well-formed) self-call.
            let sigs = vec![(vec![Ty::I64], Ty::I64)];
            let f = m.function_mut(fact);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let n = b.param(0);
            let one = b.const_i64(1);
            let n1 = b.isub(n, one);
            let r = b.call(fact, vec![n1]);
            let out = b.imul(n, r);
            b.ret(Some(out));
        }
        assert_eq!(run(&mut m), 0);
    }
}
