//! Batched use-replacement and instruction removal: the one rewrite
//! mechanism every optimization pass uses.
//!
//! Rewriting a function on the spot — scanning every operand to replace one
//! value, scanning every block to remove one instruction — costs a full pass
//! over the function per change, which makes a pass quadratic in the number
//! of changes it makes. A pass therefore *records* its edits in a [`Rewrite`]
//! and applies them all in one linear [`commit`](Rewrite::commit):
//!
//! * [`replace`](Rewrite::replace) forwards every use of a value to another
//!   value. Forwardings chain: `a → b` followed by `b → c` resolves `a` to
//!   `c`.
//! * [`remove`](Rewrite::remove) marks an instruction for unscheduling.
//! * [`commit`](Rewrite::commit) rewrites every instruction operand, phi
//!   incoming value and terminator operand through the forwarding table,
//!   then drops the removed instructions from every block with one `retain`
//!   per block. Removed values stay in the arena, unscheduled.
//!
//! Between a `replace` and the `commit`, the function still names the old
//! value. A pass that reads operands before the commit must read them
//! through [`resolve`](Rewrite::resolve) — in practice by calling
//! [`resolve_operands`](Rewrite::resolve_operands) on each instruction as it
//! visits it — so it sees exactly the operands an eager rewrite would have
//! left there.
//!
//! [`ConstPool`] is the matching index for constants: interning through it
//! is a hash lookup instead of a scan of the value arena.

use crate::constant::Constant;
use crate::function::{Function, ValueData, ValueId, ValueKind};
use std::collections::HashMap;

/// Pending replacements and removals for one function.
///
/// A `Rewrite` belongs to the function whose value ids it records; it is
/// empty again after each [`commit`](Rewrite::commit) and may be reused.
///
/// # Example
///
/// ```
/// use distill_ir::{FunctionBuilder, Module, Rewrite, Terminator, Ty};
///
/// let mut m = Module::new("m");
/// let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
/// let f = m.function_mut(fid);
/// let mut b = FunctionBuilder::new(f);
/// let e = b.create_block("entry");
/// b.switch_to_block(e);
/// let x = b.param(0);
/// let y = b.fadd(x, x);
/// b.ret(Some(y));
///
/// let mut rw = Rewrite::new();
/// rw.replace(y, x);
/// rw.remove(y);
/// rw.commit(f);
/// assert_eq!(f.inst_count(), 0);
/// assert_eq!(f.block(e).term, Some(Terminator::Ret(Some(x))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rewrite {
    /// `forward[v]` is the value that replaces `v` (`v` itself when none).
    /// Ids past the end are not forwarded.
    forward: Vec<ValueId>,
    /// `removed[v]`: unschedule `v` at the next commit.
    removed: Vec<bool>,
    any_forward: bool,
    any_removed: bool,
}

impl Rewrite {
    /// An empty rewrite.
    pub fn new() -> Rewrite {
        Rewrite::default()
    }

    /// Forward every use of `from` to `to` (as resolved so far). Recording a
    /// forwarding that would resolve `from` to itself is a no-op, so chains
    /// never form cycles.
    pub fn replace(&mut self, from: ValueId, to: ValueId) {
        let to = self.resolve(to);
        if to == from {
            return;
        }
        let i = from.index();
        if self.forward.len() <= i {
            let start = self.forward.len();
            self.forward.extend((start..=i).map(ValueId::from_index));
        }
        debug_assert_eq!(self.forward[i], from, "{from} forwarded twice");
        self.forward[i] = to;
        self.any_forward = true;
    }

    /// Mark the instruction `v` for removal from its block.
    pub fn remove(&mut self, v: ValueId) {
        let i = v.index();
        if self.removed.len() <= i {
            self.removed.resize(i + 1, false);
        }
        self.removed[i] = true;
        self.any_removed = true;
    }

    /// The value that `v` stands for once every recorded forwarding is
    /// applied (following chains such as `a → b → c`).
    pub fn resolve(&self, mut v: ValueId) -> ValueId {
        while let Some(&next) = self.forward.get(v.index()) {
            if next == v {
                break;
            }
            v = next;
        }
        v
    }

    /// Resolve the operands of instruction `v` in place (no-op for
    /// non-instructions). Passes call this when they visit an instruction,
    /// before reading its operands.
    pub fn resolve_operands(&self, func: &mut Function, v: ValueId) {
        if self.any_forward {
            if let Some(inst) = func.as_inst_mut(v) {
                inst.map_operands(|op| self.resolve(op));
            }
        }
    }

    /// Apply every pending edit to `func` in one sweep: rewrite all
    /// instruction operands (scheduled or not, phi incoming values
    /// included) and all terminator operands through the forwarding table,
    /// then unschedule the removed instructions. Leaves the rewrite empty.
    pub fn commit(&mut self, func: &mut Function) {
        if self.any_forward {
            // Compress chains so the sweep below is one lookup per operand.
            for i in 0..self.forward.len() {
                let r = self.resolve(self.forward[i]);
                self.forward[i] = r;
            }
            let forward = &self.forward;
            let map = |v: ValueId| forward.get(v.index()).copied().unwrap_or(v);
            for value in &mut func.values {
                if let ValueKind::Inst(inst) = &mut value.kind {
                    inst.map_operands(map);
                }
            }
            for blk in &mut func.blocks {
                if let Some(term) = &mut blk.term {
                    term.map_operands(map);
                }
            }
        }
        if self.any_removed {
            let removed = &self.removed;
            for blk in &mut func.blocks {
                blk.insts
                    .retain(|v| !removed.get(v.index()).copied().unwrap_or(false));
            }
        }
        self.forward.clear();
        self.removed.clear();
        self.any_forward = false;
        self.any_removed = false;
    }
}

/// Hash index of a function's constants by bit pattern, for interning
/// without scanning the value arena.
///
/// Built once per pass from the arena; every constant the pass adds must go
/// through [`intern`](ConstPool::intern) so the index stays complete. The
/// first arena value with a given bit pattern wins, exactly as a front-to-back
/// scan would find it.
#[derive(Debug, Clone, Default)]
pub struct ConstPool {
    index: HashMap<(u8, u64), ValueId>,
}

impl ConstPool {
    /// Index every constant already in `func`'s arena.
    pub fn new(func: &Function) -> ConstPool {
        let mut index = HashMap::new();
        for (i, v) in func.values.iter().enumerate() {
            if let ValueKind::Const(c) = &v.kind {
                index.entry(c.bit_key()).or_insert(ValueId::from_index(i));
            }
        }
        ConstPool { index }
    }

    /// The value id of constant `c` in `func`, adding it to the arena when
    /// no constant with the identical bit pattern exists yet.
    pub fn intern(&mut self, func: &mut Function, c: Constant) -> ValueId {
        *self.index.entry(c.bit_key()).or_insert_with(|| {
            func.add_value(ValueData {
                kind: ValueKind::Const(c),
                ty: c.ty(),
                name: None,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::{BlockId, Terminator};
    use crate::inst::Inst;
    use crate::types::Ty;
    use crate::{CmpPred, Module};

    #[test]
    fn chains_resolve_to_their_end() {
        let mut rw = Rewrite::new();
        let [a, b, c] = [5, 3, 9].map(ValueId::from_index);
        rw.replace(a, b);
        rw.replace(b, c);
        assert_eq!(rw.resolve(a), c);
        assert_eq!(rw.resolve(b), c);
        assert_eq!(rw.resolve(c), c);
        // Forwarding `c` back to `a` would close a cycle: ignored.
        rw.replace(c, a);
        assert_eq!(rw.resolve(a), c);
    }

    #[test]
    fn commit_rewrites_terminators_and_chained_uses() {
        let mut f = Function::new("f", vec![Ty::F64, Ty::F64], Ty::F64);
        let (x, y) = (f.param_value(0), f.param_value(1));
        let mut b = FunctionBuilder::new(&mut f);
        let e = b.create_block("entry");
        let t = b.create_block("t");
        let u = b.create_block("u");
        b.switch_to_block(e);
        let s = b.fadd(x, y);
        let p = b.fmul(s, s);
        let c = b.cmp(CmpPred::FLt, p, x);
        b.cond_br(c, t, u);
        b.switch_to_block(t);
        b.ret(Some(p));
        b.switch_to_block(u);
        b.ret(Some(s));

        let mut rw = Rewrite::new();
        rw.replace(p, s); // p → s, then s → y: p resolves to y
        rw.replace(s, y);
        let k = ConstPool::new(&f).intern(&mut f, Constant::Bool(true));
        rw.replace(c, k);
        for v in [s, p, c] {
            rw.remove(v);
        }
        rw.commit(&mut f);
        assert_eq!(f.inst_count(), 0);
        assert_eq!(f.block(t).term, Some(Terminator::Ret(Some(y))));
        assert_eq!(f.block(u).term, Some(Terminator::Ret(Some(y))));
        assert!(matches!(
            f.block(e).term,
            Some(Terminator::CondBr { cond, .. }) if cond == k
        ));
    }

    /// A loop-header phi reads `next` through the back edge. The phi is
    /// visited first; `next` is forwarded only afterwards, and the commit
    /// must still rewrite the phi's incoming value.
    #[test]
    fn back_edge_phi_is_rewritten_after_its_visit() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::I64], Ty::I64);
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let exit = b.create_block("exit");
        b.switch_to_block(entry);
        let n = b.param(0);
        let zero = b.const_i64(0);
        b.br(header);
        b.switch_to_block(header);
        let i = b.empty_phi(Ty::I64);
        b.add_phi_incoming(i, entry, zero);
        let next = b.iadd(i, n);
        let again = b.iadd(i, n);
        b.add_phi_incoming(i, header, again);
        let c = b.cmp(CmpPred::ILt, next, n);
        b.cond_br(c, header, exit);
        b.switch_to_block(exit);
        b.ret(Some(next));

        let mut rw = Rewrite::new();
        for v in f.block(header).insts.clone() {
            rw.resolve_operands(f, v);
            if v == again {
                rw.replace(again, next);
                rw.remove(again);
            }
        }
        // The phi was visited before the forwarding: still stale.
        assert!(matches!(
            f.as_inst(i),
            Some(Inst::Phi { incoming, .. }) if incoming[1] == (header, again)
        ));
        rw.commit(f);
        assert!(matches!(
            f.as_inst(i),
            Some(Inst::Phi { incoming, .. }) if incoming[1] == (header, next)
        ));
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn commit_leaves_unscheduled_definitions_in_the_arena() {
        let mut f = Function::new("f", vec![Ty::F64], Ty::F64);
        let x = f.param_value(0);
        let mut b = FunctionBuilder::new(&mut f);
        let e = b.create_block("entry");
        b.switch_to_block(e);
        let d = b.fadd(x, x);
        let r = b.fmul(d, x);
        b.ret(Some(r));
        let before = f.value_count();

        let mut rw = Rewrite::new();
        rw.replace(d, x);
        rw.remove(d);
        rw.commit(&mut f);
        assert_eq!(f.value_count(), before);
        assert_eq!(f.block(BlockId::from_index(0)).insts, vec![r]);
        // The definition survives, unscheduled, with its own operands.
        assert!(matches!(f.as_inst(d), Some(Inst::Bin { lhs, .. }) if *lhs == x));
        assert!(matches!(f.as_inst(r), Some(Inst::Bin { lhs, .. }) if *lhs == x));
    }

    #[test]
    fn const_pool_is_bitwise_and_first_match_wins() {
        let mut f = Function::new("g", vec![], Ty::Void);
        // Two arena values with the same bits: the pool must return the
        // first, as an arena scan would.
        let first = f.add_value(ValueData {
            kind: ValueKind::Const(Constant::F64(1.0)),
            ty: Ty::F64,
            name: None,
        });
        f.add_value(ValueData {
            kind: ValueKind::Const(Constant::F64(1.0)),
            ty: Ty::F64,
            name: None,
        });
        let mut pool = ConstPool::new(&f);
        assert_eq!(pool.intern(&mut f, Constant::F64(1.0)), first);
        let pz = pool.intern(&mut f, Constant::F64(0.0));
        let nz = pool.intern(&mut f, Constant::F64(-0.0));
        assert_ne!(pz, nz);
        assert_eq!(pool.intern(&mut f, Constant::F64(0.0)), pz);
        assert_ne!(
            pool.intern(&mut f, Constant::I64(1)),
            pool.intern(&mut f, Constant::Bool(true))
        );
    }
}
