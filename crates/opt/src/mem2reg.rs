//! Promotion of stack slots to SSA registers (the classic `mem2reg`).
//!
//! Distill's code generator lowers node-local mutable variables (evidence
//! accumulators, loop counters, running minima of the grid search) as
//! `alloca` slots with explicit loads and stores. This pass promotes every
//! slot whose address never escapes into SSA form, inserting phi nodes at
//! iterated dominance frontiers and renaming uses along a dominator-tree
//! walk. It is the enabling pass for everything downstream: constant
//! propagation, CSE, LICM, the value-range and scalar-evolution analyses of
//! `distill-analysis` all work on the SSA values this pass exposes.

use distill_ir::cfg::{Cfg, DomTree};
use distill_ir::{
    BlockId, Constant, Function, Inst, Module, Rewrite, Ty, ValueData, ValueId, ValueKind,
};
use std::collections::{HashMap, HashSet};

/// Promotion state shared by the renaming walk.
struct Promotion {
    /// `slot[v]`: index into `allocas` when `v` is a promoted alloca.
    slot: Vec<Option<usize>>,
    /// Phis placed per block: `(alloca slot, phi)`, in placement order.
    phis: Vec<Vec<(usize, ValueId)>>,
    /// Reaching definition per alloca slot, as a stack of scopes.
    current: Vec<Vec<ValueId>>,
    /// Loads forwarded to their reaching definitions.
    rw: Rewrite,
}

impl Promotion {
    fn slot_of(&self, v: ValueId) -> Option<usize> {
        self.slot.get(v.index()).copied().flatten()
    }
}

/// Promote allocas in one function; returns the number of promoted slots.
///
/// Allocas are processed in `ValueId` order, so phi placement — and with it
/// the printed IR — is the same on every compile.
pub fn run_function(func: &mut Function) -> usize {
    if func.layout.is_empty() {
        return 0;
    }
    let allocas = promotable_allocas(func);
    if allocas.is_empty() {
        return 0;
    }
    let cfg = Cfg::new(func);
    let dom = DomTree::new(func, &cfg);
    let frontiers = dominance_frontiers(func, &cfg, &dom);

    let mut slot = vec![None; func.value_count()];
    for (i, (a, _)) in allocas.iter().enumerate() {
        slot[a.index()] = Some(i);
    }

    // Definition blocks per alloca.
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); allocas.len()];
    for &b in &func.layout {
        for &v in &func.block(b).insts {
            if let Some(Inst::Store { ptr, .. }) = func.as_inst(v) {
                if let Some(s) = slot.get(ptr.index()).copied().flatten() {
                    def_blocks[s].push(b);
                }
            }
        }
    }

    // Insert phi nodes at iterated dominance frontiers.
    let mut phis: Vec<Vec<(usize, ValueId)>> = vec![Vec::new(); func.blocks.len()];
    for (s, (_, ty)) in allocas.iter().enumerate() {
        let mut work: Vec<BlockId> = std::mem::take(&mut def_blocks[s]);
        let mut placed: HashSet<BlockId> = HashSet::new();
        let mut visited: HashSet<BlockId> = work.iter().copied().collect();
        while let Some(b) = work.pop() {
            for &df in frontiers.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
                if placed.insert(df) {
                    let phi = func.add_value(ValueData {
                        kind: ValueKind::Inst(Inst::Phi {
                            ty: ty.clone(),
                            incoming: Vec::new(),
                        }),
                        ty: ty.clone(),
                        name: Some("mem2reg.phi".into()),
                    });
                    func.block_mut(df).insts.insert(0, phi);
                    phis[df.index()].push((s, phi));
                    if visited.insert(df) {
                        work.push(df);
                    }
                }
            }
        }
    }

    // Rename along the dominator tree.
    let nblocks = func.blocks.len();
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); nblocks];
    for b in func.block_order() {
        if let Some(p) = dom.idom_of(b) {
            children[p.index()].push(b);
        }
    }
    let entry = func.entry_block().unwrap();
    let undef = func.add_constant(Constant::Undef);
    let mut st = Promotion {
        slot,
        phis,
        current: vec![vec![undef]; allocas.len()],
        rw: Rewrite::new(),
    };
    rename_block(func, &cfg, &children, &mut st, entry);

    // Remove the now-dead allocas, loads and stores.
    let mut rw = std::mem::take(&mut st.rw);
    for &b in &func.layout {
        for &v in &func.block(b).insts {
            let promoted = match func.as_inst(v) {
                Some(Inst::Alloca { .. }) => st.slot_of(v).is_some(),
                Some(Inst::Store { ptr, .. } | Inst::Load { ptr }) => {
                    st.slot_of(rw.resolve(*ptr)).is_some()
                }
                _ => false,
            };
            if promoted {
                rw.remove(v);
            }
        }
    }
    rw.commit(func);
    allocas.len()
}

fn rename_block(
    func: &mut Function,
    cfg: &Cfg,
    children: &[Vec<BlockId>],
    st: &mut Promotion,
    block: BlockId,
) {
    let mut pushed: Vec<usize> = Vec::new();

    // Phi nodes placed in this block become the new reaching definitions.
    for &(s, phi) in &st.phis[block.index()] {
        st.current[s].push(phi);
        pushed.push(s);
    }

    // Walk instructions: forward loads, record stores.
    for i in 0..func.block(block).insts.len() {
        let v = func.block(block).insts[i];
        st.rw.resolve_operands(func, v);
        match func.as_inst(v) {
            Some(&Inst::Load { ptr }) => {
                if let Some(s) = st.slot_of(ptr) {
                    let cur = *st.current[s].last().unwrap();
                    st.rw.replace(v, cur);
                }
            }
            Some(&Inst::Store { ptr, value }) => {
                if let Some(s) = st.slot_of(ptr) {
                    st.current[s].push(value);
                    pushed.push(s);
                }
            }
            _ => {}
        }
    }

    // Fill phi incoming edges of successors.
    for &succ in cfg.succs_of(block) {
        for &(s, phi) in &st.phis[succ.index()] {
            let cur = *st.current[s].last().unwrap();
            if let Some(Inst::Phi { incoming, .. }) = func.as_inst_mut(phi) {
                incoming.push((block, cur));
            }
        }
    }

    // Recurse into dominator-tree children.
    for &c in &children[block.index()] {
        rename_block(func, cfg, children, st, c);
    }

    // Pop this block's definitions.
    for s in pushed {
        st.current[s].pop();
    }
}

/// Allocas of scalar type whose address is only ever used as the pointer
/// operand of loads and stores, in `ValueId` order.
fn promotable_allocas(func: &Function) -> Vec<(ValueId, Ty)> {
    let mut allocas: HashMap<ValueId, Ty> = HashMap::new();
    for b in func.block_order() {
        for &v in &func.block(b).insts {
            if let Some(Inst::Alloca { ty }) = func.as_inst(v) {
                if ty.is_scalar() {
                    allocas.insert(v, ty.clone());
                }
            }
        }
    }
    if allocas.is_empty() {
        return Vec::new();
    }
    // Disqualify any alloca that escapes.
    for b in func.block_order() {
        for &v in &func.block(b).insts {
            let Some(inst) = func.as_inst(v) else { continue };
            match inst {
                Inst::Load { .. } => {}
                Inst::Store { value, .. } => {
                    // Storing the address itself disqualifies it.
                    allocas.remove(value);
                }
                other => {
                    for op in other.operands() {
                        allocas.remove(&op);
                    }
                }
            }
        }
        if let Some(term) = &func.block(b).term {
            for op in term.operands() {
                allocas.remove(&op);
            }
        }
    }
    let mut sorted: Vec<(ValueId, Ty)> = allocas.into_iter().collect();
    sorted.sort_by_key(|(v, _)| *v);
    sorted
}

fn dominance_frontiers(
    func: &Function,
    cfg: &Cfg,
    dom: &DomTree,
) -> HashMap<BlockId, Vec<BlockId>> {
    let mut df: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    for b in func.block_order() {
        if !cfg.is_reachable(b) {
            continue;
        }
        let preds = cfg.preds_of(b);
        if preds.len() < 2 {
            continue;
        }
        let Some(idom_b) = dom.idom_of(b) else { continue };
        for &p in preds {
            if !cfg.is_reachable(p) {
                continue;
            }
            let mut runner = p;
            while runner != idom_b {
                let entry = df.entry(runner).or_default();
                if !entry.contains(&b) {
                    entry.push(b);
                }
                match dom.idom_of(runner) {
                    Some(next) => runner = next,
                    None => break,
                }
            }
        }
    }
    df
}

/// Run mem2reg over every defined function of a module.
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
    use distill_ir::{CmpPred, FunctionBuilder, Module};

    /// abs(x) computed through a stack slot with a conditional store.
    fn abs_via_memory() -> (Module, distill_ir::FuncId) {
        let mut m = Module::new("m");
        let fid = m.declare_function("abs", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let neg = b.create_block("neg");
            let done = b.create_block("done");
            b.switch_to_block(entry);
            let x = b.param(0);
            let slot = b.alloca(Ty::F64);
            b.store(slot, x);
            let zero = b.const_f64(0.0);
            let isneg = b.cmp(CmpPred::FLt, x, zero);
            b.cond_br(isneg, neg, done);
            b.switch_to_block(neg);
            let nx = b.fneg(x);
            b.store(slot, nx);
            b.br(done);
            b.switch_to_block(done);
            let r = b.load(slot);
            b.ret(Some(r));
        }
        (m, fid)
    }

    #[test]
    fn promotes_slot_and_inserts_phi() {
        let (mut m, fid) = abs_via_memory();
        let promoted = run(&mut m);
        assert_eq!(promoted, 1);
        let f = m.function(fid);
        // No loads/stores/allocas remain.
        for b in f.block_order() {
            for &v in &f.block(b).insts {
                let inst = f.as_inst(v).unwrap();
                assert!(
                    !matches!(inst, Inst::Alloca { .. } | Inst::Load { .. } | Inst::Store { .. }),
                    "memory op survived mem2reg"
                );
            }
        }
        // A phi must have appeared in the join block.
        let done = BlockId::from_index(2);
        let has_phi = f
            .block(done)
            .insts
            .iter()
            .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })));
        assert!(has_phi);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn straightline_slot_needs_no_phi() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let slot = b.alloca(Ty::F64);
            b.store(slot, x);
            let v = b.load(slot);
            let y = b.fadd(v, v);
            b.store(slot, y);
            let v2 = b.load(slot);
            b.ret(Some(v2));
        }
        run(&mut m);
        let f = m.function(fid);
        assert_eq!(f.inst_count(), 1); // only the fadd remains
        let has_phi = f
            .block(f.entry_block().unwrap())
            .insts
            .iter()
            .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })));
        assert!(!has_phi);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn escaping_alloca_is_not_promoted() {
        let mut m = Module::new("m");
        // Callee that takes a pointer.
        let callee = m.declare_function("writes", vec![Ty::ptr(Ty::F64)], Ty::Void);
        {
            let f = m.function_mut(callee);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let p = b.param(0);
            let one = b.const_f64(1.0);
            b.store(p, one);
            b.ret(None);
        }
        let fid = m.declare_function("f", vec![], Ty::F64);
        {
            let sigs: Vec<(Vec<Ty>, Ty)> = m
                .functions
                .iter()
                .map(|f| (f.params.clone(), f.ret_ty.clone()))
                .collect();
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_signatures(sigs);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let slot = b.alloca(Ty::F64);
            let zero = b.const_f64(0.0);
            b.store(slot, zero);
            b.call(callee, vec![slot]);
            let v = b.load(slot);
            b.ret(Some(v));
        }
        // The alloca in `f` escapes through the call and must survive.
        let promoted = run(&mut m);
        assert_eq!(promoted, 0);
        distill_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn loop_counter_gets_phi_in_header() {
        let mut m = Module::new("m");
        let fid = m.declare_function("sum", vec![Ty::I64], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let n = b.param(0);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let islot = b.alloca(Ty::I64);
            b.store(islot, zero);
            b.br(header);
            b.switch_to_block(header);
            let i = b.load(islot);
            let c = b.cmp(CmpPred::ILt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let i2 = b.load(islot);
            let next = b.iadd(i2, one);
            b.store(islot, next);
            b.br(header);
            b.switch_to_block(exit);
            let r = b.load(islot);
            b.ret(Some(r));
        }
        assert_eq!(run(&mut m), 1);
        let f = m.function(fid);
        let header = BlockId::from_index(1);
        let has_phi = f
            .block(header)
            .insts
            .iter()
            .any(|&v| matches!(f.as_inst(v), Some(Inst::Phi { .. })));
        assert!(has_phi, "loop-carried variable should get a header phi");
        distill_ir::verify::verify_module(&m).unwrap();
    }
}
