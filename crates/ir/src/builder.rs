//! Structured construction of IR functions.
//!
//! [`FunctionBuilder`] is the only supported way to create functions in this
//! codebase. Its loop helpers emit the canonical rotated-loop pattern
//!
//! ```text
//! pre:    br header
//! header: %iv = phi [pre -> lo, latch -> %iv.next]
//!         %c  = cmp lt %iv, hi
//!         cond_br %c, body, exit
//! body:   ...
//! latch:  %iv.next = add %iv, step
//!         br header
//! exit:
//! ```
//!
//! which is a *natural loop* in the sense of Aho/Sethi/Ullman (single header,
//! one back edge) — the only loop shape the Perf-Taint analysis needs to
//! handle (§4.1 of the paper), and the shape `pt-analysis`' scalar evolution
//! recognizes for constant-trip-count pruning (§5.1).

use crate::function::{BasicBlock, BlockId, Function, FunctionId, ParamId};
use crate::inst::{BinOp, Callee, CmpPred, Inst, InstId, InstKind, Terminator, UnOp};
use crate::types::Type;
use crate::value::Value;

/// Open loop context returned by [`FunctionBuilder::begin_loop`].
#[derive(Debug, Clone, Copy)]
pub struct LoopCtx {
    pub header: BlockId,
    pub body: BlockId,
    pub exit: BlockId,
    /// The induction variable (the header phi).
    pub iv: Value,
    iv_phi: InstId,
    step: Value,
}

/// Incremental builder for one [`Function`].
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Start building a function; an entry block is created and selected.
    pub fn new(name: impl Into<String>, params: Vec<(String, Type)>, ret_ty: Type) -> Self {
        let mut func = Function::new(name, params, ret_ty);
        func.blocks.push(BasicBlock::new());
        FunctionBuilder {
            func,
            current: BlockId(0),
        }
    }

    /// The `i`-th formal parameter as a value.
    #[inline]
    pub fn param(&self, i: u32) -> Value {
        debug_assert!((i as usize) < self.func.params.len());
        Value::Param(ParamId(i))
    }

    /// The block instructions are currently appended to.
    #[inline]
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Create a new, empty block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(BasicBlock::new());
        id
    }

    /// Select the block subsequent instructions are appended to.
    pub fn switch_to(&mut self, b: BlockId) {
        assert!(b.index() < self.func.blocks.len(), "unknown block {b}");
        self.current = b;
    }

    fn push(&mut self, kind: InstKind) -> InstId {
        assert!(
            self.func.block(self.current).term.is_none(),
            "appending to terminated block {} in {}",
            self.current,
            self.func.name
        );
        let id = InstId(self.func.insts.len() as u32);
        self.func.insts.push(Inst {
            kind,
            block: self.current,
        });
        self.func.blocks[self.current.index()].insts.push(id);
        id
    }

    // ---- instructions ----------------------------------------------------

    pub fn bin(&mut self, op: BinOp, lhs: impl Into<Value>, rhs: impl Into<Value>) -> Value {
        Value::Inst(self.push(InstKind::Bin {
            op,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }))
    }

    pub fn add(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.bin(BinOp::Add, a, b)
    }

    pub fn sub(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.bin(BinOp::Sub, a, b)
    }

    pub fn mul(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.bin(BinOp::Mul, a, b)
    }

    pub fn div(&mut self, a: impl Into<Value>, b: impl Into<Value>) -> Value {
        self.bin(BinOp::Div, a, b)
    }

    pub fn un(&mut self, op: UnOp, v: impl Into<Value>) -> Value {
        Value::Inst(self.push(InstKind::Un {
            op,
            operand: v.into(),
        }))
    }

    pub fn cmp(&mut self, pred: CmpPred, lhs: impl Into<Value>, rhs: impl Into<Value>) -> Value {
        Value::Inst(self.push(InstKind::Cmp {
            pred,
            lhs: lhs.into(),
            rhs: rhs.into(),
        }))
    }

    pub fn select(
        &mut self,
        cond: impl Into<Value>,
        then_v: impl Into<Value>,
        else_v: impl Into<Value>,
    ) -> Value {
        Value::Inst(self.push(InstKind::Select {
            cond: cond.into(),
            then_v: then_v.into(),
            else_v: else_v.into(),
        }))
    }

    /// Allocate `words` words of frame memory.
    pub fn alloca(&mut self, words: impl Into<Value>) -> Value {
        Value::Inst(self.push(InstKind::Alloca {
            words: words.into(),
        }))
    }

    pub fn load(&mut self, addr: impl Into<Value>, ty: Type) -> Value {
        Value::Inst(self.push(InstKind::Load {
            addr: addr.into(),
            ty,
        }))
    }

    pub fn store(&mut self, addr: impl Into<Value>, value: impl Into<Value>) {
        self.push(InstKind::Store {
            addr: addr.into(),
            value: value.into(),
        });
    }

    /// `base + index * stride` (word units).
    pub fn gep(&mut self, base: impl Into<Value>, index: impl Into<Value>, stride: u32) -> Value {
        Value::Inst(self.push(InstKind::Gep {
            base: base.into(),
            index: index.into(),
            stride,
        }))
    }

    /// Call a function in the same module.
    pub fn call(&mut self, callee: FunctionId, args: Vec<Value>, ret_ty: Type) -> Value {
        Value::Inst(self.push(InstKind::Call {
            callee: Callee::Internal(callee),
            args,
            ret_ty,
        }))
    }

    /// Call an external runtime symbol.
    pub fn call_external(
        &mut self,
        name: impl Into<String>,
        args: Vec<Value>,
        ret_ty: Type,
    ) -> Value {
        Value::Inst(self.push(InstKind::Call {
            callee: Callee::External(name.into()),
            args,
            ret_ty,
        }))
    }

    /// Insert an (initially empty) phi node; use [`FunctionBuilder::add_incoming`]
    /// to fill it in.
    pub fn phi(&mut self, ty: Type) -> InstId {
        self.push(InstKind::Phi {
            ty,
            incomings: Vec::new(),
        })
    }

    /// Add an incoming edge to a phi node.
    pub fn add_incoming(&mut self, phi: InstId, pred: BlockId, v: impl Into<Value>) {
        match &mut self.func.inst_mut(phi).kind {
            InstKind::Phi { incomings, .. } => incomings.push((pred, v.into())),
            other => panic!("add_incoming on non-phi: {other:?}"),
        }
    }

    // ---- terminators -----------------------------------------------------

    fn terminate(&mut self, t: Terminator) {
        let blk = self.func.block_mut(self.current);
        assert!(
            blk.term.is_none(),
            "double termination of block {} in {}",
            self.current,
            self.func.name
        );
        blk.term = Some(t);
    }

    pub fn br(&mut self, target: BlockId) {
        self.terminate(Terminator::Br(target));
    }

    pub fn cond_br(&mut self, cond: impl Into<Value>, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::CondBr {
            cond: cond.into(),
            then_bb,
            else_bb,
        });
    }

    pub fn ret(&mut self, v: Option<Value>) {
        self.terminate(Terminator::Ret(v));
    }

    pub fn unreachable(&mut self) {
        self.terminate(Terminator::Unreachable);
    }

    // ---- structured helpers ----------------------------------------------

    /// Open a counted loop `for (iv = lo; iv < hi; iv += step)`. The builder
    /// is left positioned in the body block; call [`FunctionBuilder::end_loop`]
    /// when the body is complete.
    pub fn begin_loop(
        &mut self,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
        step: impl Into<Value>,
    ) -> LoopCtx {
        let lo = lo.into();
        let hi = hi.into();
        let step = step.into();
        let pre = self.current;
        let header = self.new_block();
        let body = self.new_block();
        let exit = self.new_block();
        self.br(header);
        self.switch_to(header);
        let iv_phi = self.phi(Type::I64);
        self.add_incoming(iv_phi, pre, lo);
        let iv = Value::Inst(iv_phi);
        let c = self.cmp(CmpPred::Lt, iv, hi);
        self.cond_br(c, body, exit);
        self.switch_to(body);
        LoopCtx {
            header,
            body,
            exit,
            iv,
            iv_phi,
            step,
        }
    }

    /// Close a loop opened with [`FunctionBuilder::begin_loop`]: the current
    /// block becomes the latch; the builder is left positioned in the exit.
    pub fn end_loop(&mut self, ctx: LoopCtx) {
        let latch = self.current;
        let next = self.add(ctx.iv, ctx.step);
        self.br(ctx.header);
        self.add_incoming(ctx.iv_phi, latch, next);
        self.switch_to(ctx.exit);
    }

    /// Closure-style counted loop: `for (iv = lo; iv < hi; iv += step) body(iv)`.
    pub fn for_loop(
        &mut self,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
        step: impl Into<Value>,
        body: impl FnOnce(&mut Self, Value),
    ) {
        let ctx = self.begin_loop(lo, hi, step);
        body(self, ctx.iv);
        self.end_loop(ctx);
    }

    /// `if (cond) { then_body }` — no else branch; builder ends at the join.
    pub fn if_then(&mut self, cond: impl Into<Value>, then_body: impl FnOnce(&mut Self)) {
        let then_bb = self.new_block();
        let join = self.new_block();
        self.cond_br(cond, then_bb, join);
        self.switch_to(then_bb);
        then_body(self);
        if self.func.block(self.current).term.is_none() {
            self.br(join);
        }
        self.switch_to(join);
    }

    /// `if (cond) { a } else { b }` — builder ends at the join.
    pub fn if_then_else(
        &mut self,
        cond: impl Into<Value>,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let then_bb = self.new_block();
        let else_bb = self.new_block();
        let join = self.new_block();
        self.cond_br(cond, then_bb, else_bb);
        self.switch_to(then_bb);
        then_body(self);
        if self.func.block(self.current).term.is_none() {
            self.br(join);
        }
        self.switch_to(else_bb);
        else_body(self);
        if self.func.block(self.current).term.is_none() {
            self.br(join);
        }
        self.switch_to(join);
    }

    /// Finish building; panics (via the verifier) on structurally invalid IR.
    pub fn finish(self) -> Function {
        if let Err(e) = crate::verify::verify_function(&self.func) {
            panic!("invalid function {}: {e}", self.func.name);
        }
        self.func
    }

    /// Finish without verification (used by tests that exercise the verifier).
    pub fn finish_unchecked(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line() {
        let mut b = FunctionBuilder::new("f", vec![("a".into(), Type::I64)], Type::I64);
        let x = b.add(b.param(0), 1i64);
        let y = b.mul(x, 2i64);
        b.ret(Some(y));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.insts.len(), 2);
    }

    #[test]
    fn counted_loop_shape() {
        let mut b = FunctionBuilder::new("loop", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _iv| {
            b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
        });
        b.ret(None);
        let f = b.finish();
        // pre + header + body + exit
        assert_eq!(f.blocks.len(), 4);
        assert!(f.has_phis());
        // header has two predecessors: preheader and latch (here body == latch)
        let preds = f.predecessors();
        assert_eq!(preds[1].len(), 2);
    }

    #[test]
    fn nested_loops() {
        let mut b = FunctionBuilder::new("nest", vec![("n".into(), Type::I64)], Type::Void);
        let n = b.param(0);
        b.for_loop(0i64, n, 1i64, |b, _i| {
            b.for_loop(0i64, n, 1i64, |b, _j| {
                b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
            });
        });
        b.ret(None);
        let f = b.finish();
        assert_eq!(f.blocks.len(), 7);
    }

    #[test]
    fn if_then_else_joins() {
        let mut b = FunctionBuilder::new("sel", vec![("a".into(), Type::I64)], Type::I64);
        let slot = b.alloca(1i64);
        let c = b.cmp(CmpPred::Lt, b.param(0), 10i64);
        b.if_then_else(
            c,
            |b| b.store(slot, Value::int(1)),
            |b| b.store(slot, Value::int(2)),
        );
        let v = b.load(slot, Type::I64);
        b.ret(Some(v));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    #[should_panic(expected = "double termination")]
    fn double_terminate_panics() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "appending to terminated block")]
    fn append_after_terminator_panics() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        b.ret(None);
        b.add(Value::int(1), Value::int(2));
    }
}
