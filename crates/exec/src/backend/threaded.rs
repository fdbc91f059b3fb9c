//! The direct-threaded tier: dispatch over the fused stream via indirect
//! calls instead of the interpreter's big `match`.
//!
//! At prepare time every fused instruction is paired with a **handler
//! function pointer** selected once from its opcode and operand shape, so a
//! block becomes a flat array of `(handler, packed operands)` and the
//! dispatch loop is one indirect call per instruction — the classic
//! direct-threading structure, minus computed goto (not expressible in safe
//! Rust). Handler selection also specializes the hottest shapes (float
//! binops on two registers, integer add with an immediate) down to
//! branch-free bodies, which is where the win over the fused interpreter
//! comes from.
//!
//! Fuel and the `instructions` counter are charged **per block** on entry
//! rather than per op: totals on successful runs are identical to the fused
//! interpreter op-for-op (each op still costs 1, superinstructions still
//! charge their absorbed dispatches inside the handler), but a run that
//! exhausts its budget mid-block fails at the block boundary instead of the
//! exact op. Error *kind* and success/failure behaviour are unchanged — a
//! run succeeds under this tier iff it succeeds under the fused tier.

use super::interp::{
    self, charge_fuel, exec_bin, read_operand, read_reg, enter_block, exec_term, Flow,
};
use crate::decode::{DecodedFunction, DecodedInst, DecodedTerm, Operand, PhiEdge};
use crate::engine::{EngineCtx, ExecError, Frame, Value};
use distill_ir::BinOp;

/// A handler executes one packed op against the engine state and returns
/// the value for the op's destination register. `code` is the whole
/// threaded module, so call handlers can recurse within the tier.
type Handler = fn(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError>;

/// One instruction of the threaded stream: the pre-selected handler plus
/// the packed operands it interprets (the fused instruction, kept whole so
/// generic handlers can destructure it).
#[derive(Debug, Clone)]
pub struct ThreadedOp {
    handler: Handler,
    dst: u32,
    inst: DecodedInst,
}

/// One basic block: the phi tables of the fused form plus the handler
/// array.
#[derive(Debug, Clone)]
pub struct ThreadedBlock {
    pub(crate) has_phis: bool,
    pub(crate) first_phi: u32,
    pub(crate) phi_edges: Box<[(u32, PhiEdge)]>,
    pub(crate) code: Box<[ThreadedOp]>,
    pub(crate) term: DecodedTerm,
}

/// A function lowered to the threaded form.
#[derive(Debug, Clone)]
pub struct ThreadedFunction {
    pub(crate) name: String,
    pub(crate) entry: Option<u32>,
    pub(crate) num_values: u32,
    pub(crate) blocks: Vec<ThreadedBlock>,
}

/// Lower every fused function to its threaded form.
pub(crate) fn thread_module(fused: &[DecodedFunction]) -> Vec<ThreadedFunction> {
    fused.iter().map(thread_function).collect()
}

fn thread_function(df: &DecodedFunction) -> ThreadedFunction {
    ThreadedFunction {
        name: df.name.clone(),
        entry: df.entry,
        num_values: df.num_values,
        blocks: df
            .blocks
            .iter()
            .map(|b| ThreadedBlock {
                has_phis: b.has_phis,
                first_phi: b.first_phi,
                phi_edges: b.phi_edges.clone(),
                code: b
                    .code
                    .iter()
                    .map(|op| ThreadedOp {
                        handler: select_handler(&op.inst),
                        dst: op.dst,
                        inst: op.inst.clone(),
                    })
                    .collect(),
                term: b.term.clone(),
            })
            .collect(),
    }
}

/// Pick the handler for an instruction from its opcode and operand shape.
/// The specialized rows avoid re-matching the opcode and the operand tags
/// at run time; everything else falls back to a per-variant generic.
fn select_handler(inst: &DecodedInst) -> Handler {
    match inst {
        DecodedInst::Bin {
            op,
            lhs: Operand::Reg(_),
            rhs: Operand::Reg(_),
        } => match op {
            BinOp::FAdd => h_fadd_rr,
            BinOp::FSub => h_fsub_rr,
            BinOp::FMul => h_fmul_rr,
            BinOp::FDiv => h_fdiv_rr,
            _ => h_bin,
        },
        DecodedInst::Bin { .. } => h_bin,
        DecodedInst::BinRI { op: BinOp::Add, .. } => h_iadd_ri,
        DecodedInst::BinRI { .. } => h_bin_ri,
        DecodedInst::BinIR { .. } => h_bin_ir,
        DecodedInst::Un { .. } => h_un,
        DecodedInst::Cmp { .. } => h_cmp,
        DecodedInst::Select { .. } => h_select,
        DecodedInst::Call { .. } => h_call,
        DecodedInst::MathCall { .. } => h_math,
        DecodedInst::RandCall { .. } => h_rand,
        DecodedInst::Alloca { .. } => h_alloca,
        DecodedInst::Load { .. } => h_load,
        DecodedInst::Store { .. } => h_store,
        DecodedInst::Gep { .. } => h_gep,
        DecodedInst::InvalidGep { .. } => h_generic,
        DecodedInst::Cast { .. } => h_cast,
        DecodedInst::GlobalAddr { .. } => h_global_addr,
        DecodedInst::LoadAbs { .. } => h_load_abs,
        DecodedInst::StoreAbs { .. } => h_store_abs,
        DecodedInst::GepLoad { .. } => h_gep_load,
        DecodedInst::GepStore { .. } => h_gep_store,
        DecodedInst::LoadBin { .. } => h_load_bin,
        DecodedInst::BinStore { .. } => h_bin_store,
    }
}

/// Call a function within the threaded stream.
pub(crate) fn call_in(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    func: usize,
    args: &[Value],
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    ctx.stats.calls += 1;
    if depth > 256 {
        return Err(ExecError::DepthExceeded);
    }
    let tf = &code[func];
    let Some(entry) = tf.entry else {
        return Err(ExecError::MissingBody(tf.name.clone()));
    };
    let frame_base = ctx.memory.len();
    let mut regs = ctx.acquire_frame(tf.num_values as usize);
    for (i, a) in args.iter().enumerate() {
        regs[i] = Some(*a);
    }
    let result = exec_in(ctx, code, tf, entry, &mut regs, fuel, depth);
    ctx.release_frame(regs);
    ctx.truncate_stack(frame_base);
    result
}

fn exec_in(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    tf: &ThreadedFunction,
    entry: u32,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let mut block = entry as usize;
    let mut prev: Option<u32> = None;
    loop {
        let blk = &tf.blocks[block];
        if blk.has_phis {
            enter_block(ctx, &blk.phi_edges, blk.first_phi, prev, regs)?;
        }

        // Block-granular accounting (see the module docs): one decrement
        // and one add for the whole array, then a straight run of indirect
        // calls.
        let cost = blk.code.len() as u64;
        if *fuel < cost {
            return Err(ExecError::FuelExhausted);
        }
        *fuel -= cost;
        ctx.stats.instructions += cost;
        for op in blk.code.iter() {
            let val = (op.handler)(ctx, code, op, regs, fuel, depth)?;
            regs[op.dst as usize] = Some(val);
        }

        match exec_term(ctx, &blk.term, regs, fuel)? {
            Flow::Goto(next) => {
                prev = Some(block as u32);
                block = next as usize;
            }
            Flow::Ret(v) => return Ok(v),
        }
    }
}

// ---------------------------------------------------------------------------
// Specialized handlers: opcode and operand shape resolved at prepare time.
// ---------------------------------------------------------------------------

/// Destructure the two register indices of a specialized float binop.
#[inline(always)]
fn rr(inst: &DecodedInst) -> (u32, u32) {
    match inst {
        DecodedInst::Bin {
            lhs: Operand::Reg(a),
            rhs: Operand::Reg(b),
            ..
        } => (*a, *b),
        _ => unreachable!("handler selected for reg-reg binop"),
    }
}

#[inline(always)]
fn f64_reg(regs: &Frame, i: u32) -> Result<f64, ExecError> {
    read_reg(regs, i)?
        .as_f64()
        .ok_or_else(|| ExecError::Type("float op".into()))
}

macro_rules! float_rr_handler {
    ($name:ident, $op:tt) => {
        fn $name(
            _ctx: &mut EngineCtx,
            _code: &[ThreadedFunction],
            op: &ThreadedOp,
            regs: &mut Frame,
            _fuel: &mut u64,
            _depth: usize,
        ) -> Result<Value, ExecError> {
            let (a, b) = rr(&op.inst);
            Ok(Value::F64(f64_reg(regs, a)? $op f64_reg(regs, b)?))
        }
    };
}

float_rr_handler!(h_fadd_rr, +);
float_rr_handler!(h_fsub_rr, -);
float_rr_handler!(h_fmul_rr, *);
float_rr_handler!(h_fdiv_rr, /);

/// Integer add with an inline immediate — the loop-counter bump of every
/// counted loop, hot enough for its own row.
fn h_iadd_ri(
    _ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    _fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::BinRI { reg, imm, .. } = &op.inst else {
        unreachable!("handler selected for BinRI");
    };
    let x = read_reg(regs, *reg)?
        .as_i64()
        .ok_or_else(|| ExecError::Type("int op".into()))?;
    let y = imm.as_i64().ok_or_else(|| ExecError::Type("int op".into()))?;
    Ok(Value::I64(x.wrapping_add(y)))
}

// ---------------------------------------------------------------------------
// Per-variant generic handlers: destructure and run the interpreter's arm.
// ---------------------------------------------------------------------------

macro_rules! variant_handler {
    ($name:ident, $pat:pat) => {
        fn $name(
            ctx: &mut EngineCtx,
            code: &[ThreadedFunction],
            op: &ThreadedOp,
            regs: &mut Frame,
            fuel: &mut u64,
            depth: usize,
        ) -> Result<Value, ExecError> {
            debug_assert!(matches!(&op.inst, $pat));
            exec_generic(ctx, code, op, regs, fuel, depth)
        }
    };
}

variant_handler!(h_bin, DecodedInst::Bin { .. });
variant_handler!(h_bin_ir, DecodedInst::BinIR { .. });
variant_handler!(h_un, DecodedInst::Un { .. });
variant_handler!(h_cmp, DecodedInst::Cmp { .. });
variant_handler!(h_select, DecodedInst::Select { .. });
variant_handler!(h_math, DecodedInst::MathCall { .. });
variant_handler!(h_rand, DecodedInst::RandCall { .. });
variant_handler!(h_alloca, DecodedInst::Alloca { .. });
variant_handler!(h_cast, DecodedInst::Cast { .. });
variant_handler!(h_global_addr, DecodedInst::GlobalAddr { .. });

fn h_bin_ri(
    _ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    _fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::BinRI { op: o, reg, imm } = &op.inst else {
        unreachable!("handler selected for BinRI");
    };
    exec_bin(*o, read_reg(regs, *reg)?, *imm)
}

fn h_load(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    _fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Load { ptr } = &op.inst else {
        unreachable!("handler selected for Load");
    };
    ctx.stats.loads += 1;
    let addr = match read_operand(ptr, regs)? {
        Value::Ptr(p) => p,
        other => return Err(ExecError::Type(format!("load from non-pointer {other:?}"))),
    };
    ctx.load_slot(addr)
}

fn h_store(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    _fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Store { ptr, value } = &op.inst else {
        unreachable!("handler selected for Store");
    };
    ctx.stats.stores += 1;
    let addr = match read_operand(ptr, regs)? {
        Value::Ptr(p) => p,
        other => return Err(ExecError::Type(format!("store to non-pointer {other:?}"))),
    };
    let v = read_operand(value, regs)?;
    ctx.store_slot(addr, v)?;
    Ok(Value::Unit)
}

fn h_gep(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    _fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Gep {
        base,
        const_offset,
        dyn_steps,
    } = &op.inst
    else {
        unreachable!("handler selected for Gep");
    };
    Ok(Value::Ptr(interp::gep_addr(
        ctx,
        base,
        *const_offset,
        dyn_steps,
        regs,
    )?))
}

fn h_load_abs(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    _regs: &mut Frame,
    _fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::LoadAbs { addr } = &op.inst else {
        unreachable!("handler selected for LoadAbs");
    };
    ctx.stats.loads += 1;
    ctx.stats.fused_ops += 1;
    ctx.load_slot(*addr)
}

fn h_store_abs(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    _fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::StoreAbs { addr, value } = &op.inst else {
        unreachable!("handler selected for StoreAbs");
    };
    ctx.stats.stores += 1;
    ctx.stats.fused_ops += 1;
    let v = read_operand(value, regs)?;
    ctx.store_slot(*addr, v)?;
    Ok(Value::Unit)
}

fn h_gep_load(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::GepLoad {
        base,
        const_offset,
        dyn_steps,
    } = &op.inst
    else {
        unreachable!("handler selected for GepLoad");
    };
    charge_fuel(fuel)?;
    let addr = interp::gep_addr(ctx, base, *const_offset, dyn_steps, regs)?;
    ctx.stats.loads += 1;
    ctx.stats.fused_ops += 1;
    ctx.load_slot(addr)
}

fn h_gep_store(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::GepStore {
        base,
        const_offset,
        dyn_steps,
        value,
    } = &op.inst
    else {
        unreachable!("handler selected for GepStore");
    };
    charge_fuel(fuel)?;
    let addr = interp::gep_addr(ctx, base, *const_offset, dyn_steps, regs)?;
    ctx.stats.stores += 1;
    ctx.stats.fused_ops += 1;
    let v = read_operand(value, regs)?;
    ctx.store_slot(addr, v)?;
    Ok(Value::Unit)
}

fn h_load_bin(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::LoadBin {
        op: o,
        ptr,
        other,
        load_lhs,
    } = &op.inst
    else {
        unreachable!("handler selected for LoadBin");
    };
    charge_fuel(fuel)?;
    ctx.stats.loads += 1;
    ctx.stats.fused_ops += 1;
    let addr = match read_operand(ptr, regs)? {
        Value::Ptr(p) => p,
        other => return Err(ExecError::Type(format!("load from non-pointer {other:?}"))),
    };
    let loaded = ctx.load_slot(addr)?;
    let v = read_operand(other, regs)?;
    if *load_lhs {
        exec_bin(*o, loaded, v)
    } else {
        exec_bin(*o, v, loaded)
    }
}

fn h_bin_store(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    _depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::BinStore { op: o, lhs, rhs, ptr } = &op.inst else {
        unreachable!("handler selected for BinStore");
    };
    charge_fuel(fuel)?;
    let v = exec_bin(*o, read_operand(lhs, regs)?, read_operand(rhs, regs)?)?;
    ctx.stats.stores += 1;
    ctx.stats.fused_ops += 1;
    let addr = match read_operand(ptr, regs)? {
        Value::Ptr(p) => p,
        other => return Err(ExecError::Type(format!("store to non-pointer {other:?}"))),
    };
    ctx.store_slot(addr, v)?;
    Ok(Value::Unit)
}

/// Calls recurse within the threaded tier, so a threaded call's whole
/// dynamic extent runs threaded.
fn h_call(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    let DecodedInst::Call { callee, args } = &op.inst else {
        unreachable!("handler selected for Call");
    };
    let mut vals = Vec::with_capacity(args.len());
    for a in args.iter() {
        vals.push(read_operand(a, regs)?);
    }
    call_in(ctx, code, *callee as usize, &vals, fuel, depth + 1)
}

/// Fallback for the remaining variants: run the interpreter's arm. Only
/// instruction kinds with no handler of their own land here, so the
/// interpreter's `match` prologue runs once per *rare* op, not per op.
fn exec_generic(
    ctx: &mut EngineCtx,
    _code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    interp::exec_decoded_inst(ctx, &[], &op.inst, regs, fuel, depth)
}

fn h_generic(
    ctx: &mut EngineCtx,
    code: &[ThreadedFunction],
    op: &ThreadedOp,
    regs: &mut Frame,
    fuel: &mut u64,
    depth: usize,
) -> Result<Value, ExecError> {
    exec_generic(ctx, code, op, regs, fuel, depth)
}
