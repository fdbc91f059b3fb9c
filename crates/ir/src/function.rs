//! Functions, basic blocks and the SSA value arena.

use crate::constant::Constant;
use crate::inst::Inst;
use crate::types::Ty;
use std::fmt;

/// Identifier of an SSA value within a [`Function`].
///
/// Values are stored in a per-function arena; the id is the arena index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// Construct a value id from an arena index.
    pub fn from_index(i: usize) -> ValueId {
        ValueId(u32::try_from(i).expect("value arena overflow"))
    }

    /// The arena index of the value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Identifier of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Construct a block id from an arena index.
    pub fn from_index(i: usize) -> BlockId {
        BlockId(u32::try_from(i).expect("block arena overflow"))
    }

    /// The arena index of the block.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// What a value is: a parameter, a constant, or the result of an instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueKind {
    /// The `index`-th function parameter.
    Param(usize),
    /// A compile-time constant.
    Const(Constant),
    /// The result of (or the effect of) an instruction.
    Inst(Inst),
}

/// A value in the per-function arena: its kind, its type and an optional
/// debug name.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueData {
    /// Parameter / constant / instruction payload.
    pub kind: ValueKind,
    /// The value's static type (`Void` for effect-only instructions).
    pub ty: Ty,
    /// Optional human-readable name used by the printer.
    pub name: Option<String>,
}

/// A basic block terminator.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on a `Bool` value.
    CondBr {
        /// The branch condition.
        cond: ValueId,
        /// Successor when the condition is true.
        then_blk: BlockId,
        /// Successor when the condition is false.
        else_blk: BlockId,
    },
    /// Return from the function, with a value unless the return type is
    /// `Void`.
    Ret(Option<ValueId>),
    /// Control never reaches the end of this block.
    Unreachable,
}

impl Terminator {
    /// Successor blocks of the terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr {
                then_blk, else_blk, ..
            } => vec![*then_blk, *else_blk],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }

    /// Value operands of the terminator.
    pub fn operands(&self) -> Vec<ValueId> {
        match self {
            Terminator::CondBr { cond, .. } => vec![*cond],
            Terminator::Ret(Some(v)) => vec![*v],
            _ => vec![],
        }
    }

    /// Rewrite the value operands of the terminator through `f`.
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Terminator::CondBr { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(v)) => *v = f(*v),
            _ => {}
        }
    }

    /// Rewrite the successor blocks of the terminator through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Br(b) => *b = f(*b),
            Terminator::CondBr {
                then_blk, else_blk, ..
            } => {
                *then_blk = f(*then_blk);
                *else_blk = f(*else_blk);
            }
            _ => {}
        }
    }
}

/// A basic block: an ordered list of instruction value ids plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockData {
    /// Debug name of the block.
    pub name: String,
    /// Instruction results in execution order. Phi nodes must come first.
    pub insts: Vec<ValueId>,
    /// The block terminator; `None` only while the block is being built.
    pub term: Option<Terminator>,
}

/// An IR function: typed parameters, a return type, a value arena and a list
/// of basic blocks in layout order.
///
/// Values live in the arena for the function's lifetime; a block schedules
/// an instruction by listing its id. Passes never rewrite uses or unschedule
/// instructions one at a time (each would be a scan of the whole function):
/// they record replacements and removals in a [`Rewrite`](crate::Rewrite)
/// and apply them in one linear commit, which leaves removed definitions in
/// the arena, unscheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name, unique within its [module](crate::Module).
    pub name: String,
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type (`Void` for procedures).
    pub ret_ty: Ty,
    /// The SSA value arena.
    pub values: Vec<ValueData>,
    /// The basic block arena.
    pub blocks: Vec<BlockData>,
    /// Blocks in layout order; `layout[0]` is the entry block.
    pub layout: Vec<BlockId>,
    /// Whether the function is only a declaration (body provided by the
    /// runtime, e.g. baseline helpers); declarations have no blocks.
    pub is_declaration: bool,
}

impl Function {
    /// Create an empty function definition with the given signature.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret_ty: Ty) -> Function {
        let name = name.into();
        let mut values = Vec::new();
        for (i, p) in params.iter().enumerate() {
            values.push(ValueData {
                kind: ValueKind::Param(i),
                ty: p.clone(),
                name: Some(format!("arg{i}")),
            });
        }
        Function {
            name,
            params,
            ret_ty,
            values,
            blocks: Vec::new(),
            layout: Vec::new(),
            is_declaration: false,
        }
    }

    /// The value id of the `index`-th parameter.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn param_value(&self, index: usize) -> ValueId {
        assert!(index < self.params.len(), "parameter index out of range");
        ValueId::from_index(index)
    }

    /// The entry block, if the function has a body.
    pub fn entry_block(&self) -> Option<BlockId> {
        self.layout.first().copied()
    }

    /// Borrow the data of a value.
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.index()]
    }

    /// Mutably borrow the data of a value.
    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueData {
        &mut self.values[id.index()]
    }

    /// The type of a value.
    pub fn ty(&self, id: ValueId) -> &Ty {
        &self.values[id.index()].ty
    }

    /// Borrow a block.
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.index()]
    }

    /// Mutably borrow a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.index()]
    }

    /// Append a new empty block and place it at the end of the layout.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(BlockData {
            name: name.into(),
            insts: Vec::new(),
            term: None,
        });
        self.layout.push(id);
        id
    }

    /// Add a value to the arena and return its id.
    pub fn add_value(&mut self, data: ValueData) -> ValueId {
        let id = ValueId::from_index(self.values.len());
        self.values.push(data);
        id
    }

    /// Intern a constant, reusing the first existing value with the
    /// identical bit pattern when there is one.
    ///
    /// Each call scans the value arena once. Code that interns constants
    /// repeatedly — the [builder](crate::FunctionBuilder), and the passes
    /// that fold or inline — keeps a [`ConstPool`](crate::ConstPool)
    /// instead, which finds the same value by hash.
    pub fn add_constant(&mut self, c: Constant) -> ValueId {
        crate::ConstPool::new(self).intern(self, c)
    }

    /// If `id` is a constant, return it.
    pub fn as_constant(&self, id: ValueId) -> Option<Constant> {
        match &self.value(id).kind {
            ValueKind::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// If `id` is an instruction, borrow it.
    pub fn as_inst(&self, id: ValueId) -> Option<&Inst> {
        match &self.value(id).kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// If `id` is an instruction, mutably borrow it.
    pub fn as_inst_mut(&mut self, id: ValueId) -> Option<&mut Inst> {
        match &mut self.value_mut(id).kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// Iterator over blocks in layout order.
    pub fn block_order(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.layout.iter().copied()
    }

    /// Total number of instructions across all blocks in the layout
    /// (a proxy for code size used by inlining heuristics and Fig. 7).
    pub fn inst_count(&self) -> usize {
        self.layout
            .iter()
            .map(|b| self.block(*b).insts.len())
            .sum()
    }

    /// Number of values in the SSA arena (register-file size for execution).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// Number of parameters (the first `param_count()` arena values).
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Static predecessors of a block: every block (in arena order) whose
    /// terminator lists `id` as a successor. This is the edge set a phi node
    /// can be entered through; the execution engine's decoder builds its
    /// per-edge copy tables from it.
    pub fn static_predecessors(&self, id: BlockId) -> Vec<BlockId> {
        let mut preds = Vec::new();
        for (i, blk) in self.blocks.iter().enumerate() {
            if let Some(term) = &blk.term {
                if term.successors().contains(&id) {
                    preds.push(BlockId::from_index(i));
                }
            }
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, Inst};

    fn sample_function() -> Function {
        let mut f = Function::new("f", vec![Ty::F64, Ty::F64], Ty::F64);
        let entry = f.add_block("entry");
        let a = f.param_value(0);
        let b = f.param_value(1);
        let sum = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Bin {
                op: BinOp::FAdd,
                lhs: a,
                rhs: b,
            }),
            ty: Ty::F64,
            name: None,
        });
        f.block_mut(entry).insts.push(sum);
        f.block_mut(entry).term = Some(Terminator::Ret(Some(sum)));
        f
    }

    #[test]
    fn params_are_first_values() {
        let f = sample_function();
        assert_eq!(f.param_value(0).index(), 0);
        assert_eq!(f.param_value(1).index(), 1);
        assert_eq!(*f.ty(f.param_value(0)), Ty::F64);
    }

    #[test]
    fn constant_interning_is_bitwise() {
        let mut f = Function::new("g", vec![], Ty::Void);
        let a = f.add_constant(Constant::F64(1.0));
        let b = f.add_constant(Constant::F64(1.0));
        let c = f.add_constant(Constant::F64(-0.0));
        let d = f.add_constant(Constant::F64(0.0));
        assert_eq!(a, b);
        assert_ne!(c, d);
    }

    #[test]
    fn static_predecessors_follow_terminators() {
        let mut f = Function::new("g", vec![], Ty::Void);
        let a = f.add_block("a");
        let b = f.add_block("b");
        let c = f.add_block("c");
        let cond = f.add_constant(Constant::Bool(true));
        f.block_mut(a).term = Some(Terminator::CondBr {
            cond,
            then_blk: b,
            else_blk: c,
        });
        f.block_mut(b).term = Some(Terminator::Br(c));
        f.block_mut(c).term = Some(Terminator::Ret(None));
        assert_eq!(f.static_predecessors(a), vec![]);
        assert_eq!(f.static_predecessors(b), vec![a]);
        assert_eq!(f.static_predecessors(c), vec![a, b]);
        assert_eq!(f.param_count(), 0);
        assert!(f.value_count() >= 1);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: ValueId::from_index(0),
            then_blk: BlockId::from_index(1),
            else_blk: BlockId::from_index(2),
        };
        assert_eq!(
            t.successors(),
            vec![BlockId::from_index(1), BlockId::from_index(2)]
        );
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
    }
}
