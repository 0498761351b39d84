//! Functions and basic blocks.

use crate::inst::{Inst, InstId, InstKind, Terminator};
use crate::types::Type;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Index of a function within its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FunctionId(pub u32);

impl FunctionId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a formal parameter of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ParamId(pub u32);

impl ParamId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A basic block: an ordered run of instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// Instructions in execution order. Phi nodes, if any, come first.
    pub insts: Vec<InstId>,
    /// The terminator. `None` only transiently during construction;
    /// the verifier rejects unterminated blocks.
    pub term: Option<Terminator>,
    /// Optional label for diagnostics and the textual format.
    pub name: Option<String>,
}

impl BasicBlock {
    pub fn new() -> Self {
        BasicBlock {
            insts: Vec::new(),
            term: None,
            name: None,
        }
    }

    /// The terminator; panics if the block is unterminated.
    #[inline]
    pub fn terminator(&self) -> &Terminator {
        self.term.as_ref().expect("unterminated basic block")
    }
}

impl Default for BasicBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// A function: parameters, a return type, and a CFG of basic blocks over an
/// instruction arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    pub params: Vec<(String, Type)>,
    pub ret_ty: Type,
    pub blocks: Vec<BasicBlock>,
    pub insts: Vec<Inst>,
    /// Entry block; always `BlockId(0)` for builder-produced functions.
    pub entry: BlockId,
}

impl Function {
    pub fn new(name: impl Into<String>, params: Vec<(String, Type)>, ret_ty: Type) -> Self {
        Function {
            name: name.into(),
            params,
            ret_ty,
            blocks: Vec::new(),
            insts: Vec::new(),
            entry: BlockId(0),
        }
    }

    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    #[inline]
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    #[inline]
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        &mut self.insts[id.index()]
    }

    /// Iterator over all block ids in numeric order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Number of instructions (a proxy for function "size" used by the
    /// default-instrumentation inlining heuristic in `pt-measure`).
    #[inline]
    pub fn size(&self) -> usize {
        self.insts.len()
    }

    /// The type of an operand value in the context of this function.
    pub fn value_type(&self, v: Value) -> Type {
        match v {
            Value::Const(c) => c.ty(),
            Value::Param(p) => self.params[p.index()].1,
            Value::Inst(id) => {
                let inst = self.inst(id);
                inst.result_type(|op| self.operand_type_shallow(op))
            }
        }
    }

    /// Non-recursive operand typing: enough because `result_type` only ever
    /// inspects direct operands, and instruction results are cached through
    /// one level of lookup here.
    fn operand_type_shallow(&self, v: Value) -> Type {
        match v {
            Value::Const(c) => c.ty(),
            Value::Param(p) => self.params[p.index()].1,
            Value::Inst(id) => {
                // One more level; `Bin`/`Un`/`Select` chains terminate because
                // the recursion follows the first operand only and functions
                // are finite DAGs of definitions.
                self.inst(id).result_type(|op| self.value_type(op))
            }
        }
    }

    /// Successor blocks of `b`.
    pub fn successors(&self, b: BlockId) -> Vec<BlockId> {
        match &self.block(b).term {
            Some(t) => t.successors().collect(),
            None => Vec::new(),
        }
    }

    /// Predecessor map for all blocks (index = block index).
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.successors(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Whether any block of the function contains a phi node.
    pub fn has_phis(&self) -> bool {
        self.insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Phi { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::BinOp;

    #[test]
    fn value_typing() {
        let mut b = FunctionBuilder::new(
            "f",
            vec![("a".into(), Type::I64), ("x".into(), Type::F64)],
            Type::I64,
        );
        let a = b.param(0);
        let s = b.bin(BinOp::Add, a, Value::int(1));
        let c = b.cmp(crate::inst::CmpPred::Lt, s, Value::int(10));
        b.ret(Some(s));
        let f = b.finish();
        assert_eq!(f.value_type(a), Type::I64);
        assert_eq!(f.value_type(s), Type::I64);
        assert_eq!(f.value_type(c), Type::Bool);
        assert_eq!(f.value_type(Value::Param(ParamId(1))), Type::F64);
    }

    #[test]
    fn predecessors_and_successors() {
        let mut b = FunctionBuilder::new("g", vec![("n".into(), Type::I64)], Type::Void);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let join = b.new_block();
        let c = b.cmp(crate::inst::CmpPred::Lt, b.param(0), Value::int(5));
        b.cond_br(c, then_bb, else_bb);
        b.switch_to(then_bb);
        b.br(join);
        b.switch_to(else_bb);
        b.br(join);
        b.switch_to(join);
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.successors(BlockId(0)).len(), 2);
        let preds = f.predecessors();
        assert_eq!(preds[join.index()].len(), 2);
        assert!(preds[0].is_empty());
    }
}
