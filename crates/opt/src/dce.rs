//! Dead code elimination.
//!
//! Removes scheduled instructions whose results are never used and which
//! have no side effects, in one linear sweep: every scheduled instruction
//! and terminator contributes a use count to each of its operands, dead
//! instructions seed a worklist, and removing one releases its operands'
//! counts so a chain of dead instructions dies in the same sweep. The
//! removals are applied with one [`Rewrite`] commit. Values kept alive only
//! by each other (a cycle of phis) are not removed.

use distill_ir::{Function, Module, Rewrite, ValueId, ValueKind};

fn removable(func: &Function, v: ValueId) -> bool {
    matches!(&func.value(v).kind, ValueKind::Inst(inst) if !inst.has_side_effects())
}

/// Remove dead instructions from one function; returns how many were removed.
pub fn run_function(func: &mut Function) -> usize {
    // Uses by scheduled instructions and terminators of laid-out blocks.
    let mut uses = vec![0u32; func.value_count()];
    let mut scheduled = vec![false; func.value_count()];
    for &b in &func.layout {
        let blk = func.block(b);
        for &v in &blk.insts {
            scheduled[v.index()] = true;
            if let Some(inst) = func.as_inst(v) {
                for op in inst.operands() {
                    uses[op.index()] += 1;
                }
            }
        }
        if let Some(term) = &blk.term {
            for op in term.operands() {
                uses[op.index()] += 1;
            }
        }
    }

    let mut rw = Rewrite::new();
    let mut work: Vec<ValueId> = (0..uses.len())
        .map(ValueId::from_index)
        .filter(|&v| scheduled[v.index()] && uses[v.index()] == 0 && removable(func, v))
        .collect();
    let mut removed = 0;
    while let Some(v) = work.pop() {
        rw.remove(v);
        removed += 1;
        for op in func.as_inst(v).map(|i| i.operands()).unwrap_or_default() {
            let n = &mut uses[op.index()];
            *n -= 1;
            if *n == 0 && scheduled[op.index()] && removable(func, op) {
                work.push(op);
            }
        }
    }
    rw.commit(func);
    removed
}
/// Run DCE over every defined function of a module.
pub fn run(module: &mut Module) -> usize {
    let mut total = 0;
    for f in &mut module.functions {
        if !f.is_declaration && !f.layout.is_empty() {
            total += run_function(f);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Intrinsic, Module, Ty};

    #[test]
    fn removes_unused_pure_chain() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let a = b.fadd(x, x); // dead
            let _c = b.fmul(a, a); // dead, and keeps `a` alive until it dies
            b.ret(Some(x));
        }
        let removed = run(&mut m);
        assert_eq!(removed, 2);
        assert_eq!(m.function(fid).inst_count(), 0);
    }

    #[test]
    fn keeps_stores_and_prng_calls() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("state", Ty::array(Ty::I64, 5), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", vec![Ty::F64], Ty::Void);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let slot = b.alloca(Ty::F64);
            let x = b.param(0);
            b.store(slot, x);
            let state = b.global_addr(g);
            let _r = b.intrinsic(Intrinsic::RandUniform, vec![state]); // result unused but has effects
            b.ret(None);
        }
        let before = m.function(fid).inst_count();
        run(&mut m);
        // Only nothing should be removed: alloca+store are live (store uses
        // alloca), global_addr feeds the PRNG call which has side effects.
        assert_eq!(m.function(fid).inst_count(), before);
    }

    #[test]
    fn keeps_values_used_by_terminators() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.fadd(x, x);
            b.ret(Some(y));
        }
        assert_eq!(run(&mut m), 0);
        assert_eq!(m.function(fid).inst_count(), 1);
    }
}
