//! Ergonomic construction of IR functions.
//!
//! [`FunctionBuilder`] borrows a [`Function`] mutably, tracks a current
//! insertion block, infers result types and interns constants. The Distill
//! code generator (`distill-codegen`) is written entirely against this API.

use crate::constant::Constant;
use crate::function::{BlockId, Function, Terminator, ValueData, ValueId, ValueKind};
use crate::inst::{BinOp, CastKind, CmpPred, GepIndex, Inst, Intrinsic, UnOp};
use crate::module::{FuncId, GlobalId};
use crate::rewrite::ConstPool;
use crate::types::Ty;

/// Builder over a single function.
///
/// # Example
///
/// ```
/// use distill_ir::{Module, Ty, FunctionBuilder};
///
/// let mut module = Module::new("m");
/// let fid = module.declare_function("double", vec![Ty::F64], Ty::F64);
/// let func = module.function_mut(fid);
/// let mut b = FunctionBuilder::new(func);
/// let entry = b.create_block("entry");
/// b.switch_to_block(entry);
/// let x = b.param(0);
/// let two = b.const_f64(2.0);
/// let r = b.fmul(x, two);
/// b.ret(Some(r));
/// ```
pub struct FunctionBuilder<'f> {
    func: &'f mut Function,
    current: Option<BlockId>,
    /// Type of each global in the containing module, needed to type
    /// `global_addr` results. Provided lazily via [`Self::with_global_types`].
    global_types: Vec<Ty>,
    /// Signature (param types, return type) of each function in the module,
    /// needed to type `call` results. Provided via [`Self::with_signatures`].
    signatures: Vec<(Vec<Ty>, Ty)>,
    /// Index of the function's constants; every `const_*` call interns
    /// through it.
    consts: ConstPool,
}

impl<'f> FunctionBuilder<'f> {
    /// Create a builder positioned nowhere (call [`create_block`] +
    /// [`switch_to_block`] first).
    ///
    /// [`create_block`]: Self::create_block
    /// [`switch_to_block`]: Self::switch_to_block
    pub fn new(func: &'f mut Function) -> Self {
        FunctionBuilder {
            consts: ConstPool::new(func),
            func,
            current: None,
            global_types: Vec::new(),
            signatures: Vec::new(),
        }
    }

    /// Provide the global types of the containing module so that
    /// [`global_addr`](Self::global_addr) can type its result.
    pub fn with_global_types(mut self, tys: Vec<Ty>) -> Self {
        self.global_types = tys;
        self
    }

    /// Provide the function signatures of the containing module so that
    /// [`call`](Self::call) can type its result.
    pub fn with_signatures(mut self, sigs: Vec<(Vec<Ty>, Ty)>) -> Self {
        self.signatures = sigs;
        self
    }

    /// Borrow the function being built.
    pub fn func(&self) -> &Function {
        self.func
    }

    /// Mutably borrow the function being built. Constants must still be
    /// added through the `const_*` methods, which keep the builder's
    /// constant index complete.
    pub fn func_mut(&mut self) -> &mut Function {
        self.func
    }

    /// Create a new basic block.
    pub fn create_block(&mut self, name: impl Into<String>) -> BlockId {
        self.func.add_block(name)
    }

    /// Make `block` the insertion point for subsequent instructions.
    pub fn switch_to_block(&mut self, block: BlockId) {
        self.current = Some(block);
    }

    /// The current insertion block.
    ///
    /// # Panics
    /// Panics if no block has been selected yet.
    pub fn current_block(&self) -> BlockId {
        self.current.expect("no current block selected")
    }

    /// Whether the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        self.current
            .map(|b| self.func.block(b).term.is_some())
            .unwrap_or(false)
    }

    /// The value id of the `index`-th parameter.
    pub fn param(&self, index: usize) -> ValueId {
        self.func.param_value(index)
    }

    fn push(&mut self, inst: Inst, ty: Ty) -> ValueId {
        let blk = self.current_block();
        assert!(
            self.func.block(blk).term.is_none(),
            "inserting into terminated block {} of {}",
            self.func.block(blk).name,
            self.func.name
        );
        let id = self.func.add_value(ValueData {
            kind: ValueKind::Inst(inst),
            ty,
            name: None,
        });
        self.func.block_mut(blk).insts.push(id);
        id
    }

    // ---- constants -------------------------------------------------------

    /// Intern an `f64` constant.
    pub fn const_f64(&mut self, v: f64) -> ValueId {
        self.consts.intern(self.func, Constant::F64(v))
    }

    /// Intern an `f32` constant.
    pub fn const_f32(&mut self, v: f32) -> ValueId {
        self.consts.intern(self.func, Constant::F32(v))
    }

    /// Intern an `i64` constant.
    pub fn const_i64(&mut self, v: i64) -> ValueId {
        self.consts.intern(self.func, Constant::I64(v))
    }

    /// Intern a boolean constant.
    pub fn const_bool(&mut self, v: bool) -> ValueId {
        self.consts.intern(self.func, Constant::Bool(v))
    }

    // ---- arithmetic ------------------------------------------------------

    /// Generic binary operation; the result type is the left operand's type
    /// for arithmetic ops.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.func.ty(lhs).clone();
        self.push(Inst::Bin { op, lhs, rhs }, ty)
    }

    /// Floating point `lhs + rhs`.
    pub fn fadd(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::FAdd, lhs, rhs)
    }

    /// Floating point `lhs - rhs`.
    pub fn fsub(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::FSub, lhs, rhs)
    }

    /// Floating point `lhs * rhs`.
    pub fn fmul(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::FMul, lhs, rhs)
    }

    /// Floating point `lhs / rhs`.
    pub fn fdiv(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::FDiv, lhs, rhs)
    }

    /// Integer `lhs + rhs`.
    pub fn iadd(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Add, lhs, rhs)
    }

    /// Integer `lhs - rhs`.
    pub fn isub(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Sub, lhs, rhs)
    }

    /// Integer `lhs * rhs`.
    pub fn imul(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Mul, lhs, rhs)
    }

    /// Integer signed division.
    pub fn sdiv(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::SDiv, lhs, rhs)
    }

    /// Integer signed remainder.
    pub fn srem(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::SRem, lhs, rhs)
    }

    /// Floating point negation.
    pub fn fneg(&mut self, val: ValueId) -> ValueId {
        let ty = self.func.ty(val).clone();
        self.push(Inst::Un { op: UnOp::FNeg, val }, ty)
    }

    /// Boolean negation.
    pub fn not(&mut self, val: ValueId) -> ValueId {
        let ty = self.func.ty(val).clone();
        self.push(Inst::Un { op: UnOp::Not, val }, ty)
    }

    /// Comparison producing a boolean.
    pub fn cmp(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.push(Inst::Cmp { pred, lhs, rhs }, Ty::Bool)
    }

    /// `cond ? t : e`.
    pub fn select(&mut self, cond: ValueId, t: ValueId, e: ValueId) -> ValueId {
        let ty = self.func.ty(t).clone();
        self.push(
            Inst::Select {
                cond,
                then_val: t,
                else_val: e,
            },
            ty,
        )
    }

    /// Call `callee` with `args`; the result type comes from the signatures
    /// supplied via [`with_signatures`](Self::with_signatures) (or `Void` if
    /// unknown).
    pub fn call(&mut self, callee: FuncId, args: Vec<ValueId>) -> ValueId {
        let ret = self
            .signatures
            .get(callee.index())
            .map(|(_, r)| r.clone())
            .unwrap_or(Ty::Void);
        self.push(Inst::Call { callee, args }, ret)
    }

    /// Call a math / PRNG intrinsic.
    pub fn intrinsic(&mut self, kind: Intrinsic, args: Vec<ValueId>) -> ValueId {
        debug_assert_eq!(args.len(), kind.arity(), "intrinsic arity mismatch");
        self.push(Inst::IntrinsicCall { kind, args }, kind.result_ty())
    }

    /// `exp(x)`.
    pub fn exp(&mut self, x: ValueId) -> ValueId {
        self.intrinsic(Intrinsic::Exp, vec![x])
    }

    /// `sqrt(x)`.
    pub fn sqrt(&mut self, x: ValueId) -> ValueId {
        self.intrinsic(Intrinsic::Sqrt, vec![x])
    }

    /// `tanh(x)`.
    pub fn tanh(&mut self, x: ValueId) -> ValueId {
        self.intrinsic(Intrinsic::Tanh, vec![x])
    }

    /// `min(x, y)`.
    pub fn fmin(&mut self, x: ValueId, y: ValueId) -> ValueId {
        self.intrinsic(Intrinsic::FMin, vec![x, y])
    }

    /// `max(x, y)`.
    pub fn fmax(&mut self, x: ValueId, y: ValueId) -> ValueId {
        self.intrinsic(Intrinsic::FMax, vec![x, y])
    }

    /// `|x|`.
    pub fn fabs(&mut self, x: ValueId) -> ValueId {
        self.intrinsic(Intrinsic::FAbs, vec![x])
    }

    /// `pow(x, y)`.
    pub fn pow(&mut self, x: ValueId, y: ValueId) -> ValueId {
        self.intrinsic(Intrinsic::Pow, vec![x, y])
    }

    // ---- memory ----------------------------------------------------------

    /// Allocate one stack slot group of type `ty`; yields a pointer.
    pub fn alloca(&mut self, ty: Ty) -> ValueId {
        let ptr_ty = Ty::ptr(ty.clone());
        self.push(Inst::Alloca { ty }, ptr_ty)
    }

    /// Load a scalar from `ptr`.
    pub fn load(&mut self, ptr: ValueId) -> ValueId {
        let ty = self.func.ty(ptr).pointee().clone();
        self.push(Inst::Load { ptr }, ty)
    }

    /// Store `value` to `ptr`.
    pub fn store(&mut self, ptr: ValueId, value: ValueId) -> ValueId {
        self.push(Inst::Store { ptr, value }, Ty::Void)
    }

    /// Address of a module global.
    ///
    /// Requires the builder to have been given the module's global types via
    /// [`with_global_types`](Self::with_global_types).
    pub fn global_addr(&mut self, global: GlobalId) -> ValueId {
        let ty = self
            .global_types
            .get(global.index())
            .cloned()
            .unwrap_or(Ty::Void);
        self.push(Inst::GlobalAddr { global }, Ty::ptr(ty))
    }

    /// Compute the address of a sub-object of `base` following `indices`.
    ///
    /// # Panics
    /// Panics if an index does not match the aggregate structure (e.g. a
    /// dynamic index into a struct).
    pub fn gep(&mut self, base: ValueId, indices: Vec<GepIndex>) -> ValueId {
        let mut cur = self.func.ty(base).pointee().clone();
        for idx in &indices {
            cur = match (&cur, idx) {
                (Ty::Array(elem, _), _) => (**elem).clone(),
                (Ty::Struct(fields), GepIndex::Const(i)) => fields
                    .get(*i)
                    .unwrap_or_else(|| panic!("gep: struct field {i} out of range"))
                    .clone(),
                (Ty::Struct(_), GepIndex::Dyn(_)) => {
                    panic!("gep: dynamic index into struct")
                }
                (other, _) => panic!("gep: cannot index into scalar type {other}"),
            };
        }
        self.push(Inst::Gep { base, indices }, Ty::ptr(cur))
    }

    /// Convenience: address of field `i` of a struct pointer.
    pub fn field_addr(&mut self, base: ValueId, i: usize) -> ValueId {
        self.gep(base, vec![GepIndex::Const(i)])
    }

    /// Convenience: address of element `idx` (dynamic) of an array pointer.
    pub fn elem_addr(&mut self, base: ValueId, idx: ValueId) -> ValueId {
        self.gep(base, vec![GepIndex::Dyn(idx)])
    }

    /// Convenience: address of element `idx` (constant) of an array pointer.
    pub fn const_elem_addr(&mut self, base: ValueId, idx: usize) -> ValueId {
        self.gep(base, vec![GepIndex::Const(idx)])
    }

    // ---- phi / casts -----------------------------------------------------

    /// Create a phi node of type `ty` with the given incoming edges.
    pub fn phi(&mut self, ty: Ty, incoming: Vec<(BlockId, ValueId)>) -> ValueId {
        self.push(Inst::Phi { ty: ty.clone(), incoming }, ty)
    }

    /// Create an empty phi node whose incoming edges are filled in later via
    /// [`add_phi_incoming`](Self::add_phi_incoming) (needed for loops).
    pub fn empty_phi(&mut self, ty: Ty) -> ValueId {
        self.phi(ty, Vec::new())
    }

    /// Append an incoming edge to an existing phi node.
    ///
    /// # Panics
    /// Panics if `phi` is not a phi node.
    pub fn add_phi_incoming(&mut self, phi: ValueId, block: BlockId, value: ValueId) {
        match self.func.as_inst_mut(phi) {
            Some(Inst::Phi { incoming, .. }) => incoming.push((block, value)),
            _ => panic!("add_phi_incoming on non-phi value"),
        }
    }

    /// Scalar cast.
    pub fn cast(&mut self, kind: CastKind, val: ValueId, to: Ty) -> ValueId {
        self.push(Inst::Cast { kind, val, to: to.clone() }, to)
    }

    /// Integer → float cast.
    pub fn sitofp(&mut self, val: ValueId) -> ValueId {
        self.cast(CastKind::SiToFp, val, Ty::F64)
    }

    /// Float → integer cast (truncating).
    pub fn fptosi(&mut self, val: ValueId) -> ValueId {
        self.cast(CastKind::FpToSi, val, Ty::I64)
    }

    // ---- terminators -----------------------------------------------------

    fn terminate(&mut self, term: Terminator) {
        let blk = self.current_block();
        assert!(
            self.func.block(blk).term.is_none(),
            "block {} already terminated",
            self.func.block(blk).name
        );
        self.func.block_mut(blk).term = Some(term);
    }

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Terminator::Br(target));
    }

    /// Conditional branch.
    pub fn cond_br(&mut self, cond: ValueId, then_blk: BlockId, else_blk: BlockId) {
        self.terminate(Terminator::CondBr {
            cond,
            then_blk,
            else_blk,
        });
    }

    /// Return.
    pub fn ret(&mut self, value: Option<ValueId>) {
        self.terminate(Terminator::Ret(value));
    }

    /// Mark the current block as unreachable.
    pub fn unreachable(&mut self) {
        self.terminate(Terminator::Unreachable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn build_straightline_function() {
        let mut m = Module::new("m");
        let fid = m.declare_function("axpy", vec![Ty::F64, Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            b.switch_to_block(entry);
            let a = b.param(0);
            let x = b.param(1);
            let y = b.param(2);
            let ax = b.fmul(a, x);
            let r = b.fadd(ax, y);
            b.ret(Some(r));
        }
        let f = m.function(fid);
        assert_eq!(f.inst_count(), 2);
        assert!(f.block(f.entry_block().unwrap()).term.is_some());
    }

    #[test]
    fn build_branchy_function_with_phi() {
        let mut m = Module::new("m");
        let fid = m.declare_function("relu", vec![Ty::F64], Ty::F64);
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let entry = b.create_block("entry");
        let pos = b.create_block("pos");
        let neg = b.create_block("neg");
        let join = b.create_block("join");
        b.switch_to_block(entry);
        let x = b.param(0);
        let zero = b.const_f64(0.0);
        let is_pos = b.cmp(CmpPred::FGt, x, zero);
        b.cond_br(is_pos, pos, neg);
        b.switch_to_block(pos);
        b.br(join);
        b.switch_to_block(neg);
        b.br(join);
        b.switch_to_block(join);
        let merged = b.phi(Ty::F64, vec![(pos, x), (neg, zero)]);
        b.ret(Some(merged));
        assert_eq!(m.function(fid).layout.len(), 4);
    }

    #[test]
    fn gep_types_through_nested_aggregates() {
        let mut m = Module::new("m");
        let st = Ty::Struct(vec![Ty::F64, Ty::array(Ty::F64, 4)]);
        let g = m.add_zeroed_global("state", st.clone(), true);
        let global_tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("touch", vec![Ty::I64], Ty::F64);
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f).with_global_types(global_tys);
        let entry = b.create_block("entry");
        b.switch_to_block(entry);
        let base = b.global_addr(g);
        let i = b.param(0);
        let arr = b.field_addr(base, 1);
        assert_eq!(*b.func().ty(arr), Ty::ptr(Ty::array(Ty::F64, 4)));
        let el = b.elem_addr(arr, i);
        assert_eq!(*b.func().ty(el), Ty::ptr(Ty::F64));
        let v = b.load(el);
        b.ret(Some(v));
    }

    #[test]
    #[should_panic]
    fn inserting_into_terminated_block_panics() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![], Ty::Void);
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let entry = b.create_block("entry");
        b.switch_to_block(entry);
        b.ret(None);
        let _ = b.const_f64(1.0); // constants are fine...
        let one = b.const_f64(1.0);
        let _ = b.fadd(one, one); // ...but instructions are not
    }

    #[test]
    fn call_result_type_comes_from_signature() {
        let mut m = Module::new("m");
        let callee = m.declare_function("callee", vec![Ty::F64], Ty::F64);
        let caller = m.declare_function("caller", vec![Ty::F64], Ty::F64);
        let sigs: Vec<(Vec<Ty>, Ty)> = m
            .functions
            .iter()
            .map(|f| (f.params.clone(), f.ret_ty.clone()))
            .collect();
        let f = m.function_mut(caller);
        let mut b = FunctionBuilder::new(f).with_signatures(sigs);
        let entry = b.create_block("entry");
        b.switch_to_block(entry);
        let x = b.param(0);
        let r = b.call(callee, vec![x]);
        assert_eq!(*b.func().ty(r), Ty::F64);
        b.ret(Some(r));
    }
}
