//! Post-decode optimization passes over [`DecodedFunction`] bytecode.
//!
//! [`super::decode_function`] produces a straight translation of one IR
//! function: one [`DInst`] per instruction, one register per instruction
//! result. The passes below rewrite that bytecode in place — once, at
//! static time — so the dispatch loop retires fewer, denser operations.
//! Neither renumbers a register: parameters stay in `0..nparams`, the
//! result of instruction `i` in `nparams + i`, and inlined callee locals
//! are appended after those. Each pass works on one function; the static
//! stage ([`crate::unit`]) runs them per function in this order:
//!
//! * [`fuse`] — **superinstruction fusion**, a peephole over each block:
//!   - `cmp` + `condbr`, when the comparison's only consumer is the
//!     branch, fuse into [`DTerm::CondBrCmp`]: the hot loop-header
//!     pattern (`i < n` → back edge) retires in one dispatch;
//!   - `gep` + `load` / `gep` + `store`, when adjacent and the address is
//!     used exactly once, fuse into [`DOp::LoadIdx`] / [`DOp::StoreIdx`]:
//!     the dominant array-access pattern skips a dispatch and a register
//!     round trip.
//!
//!   Fusion is **observably invisible**: a fused pair still retires two
//!   instructions (count and simulated clock, in the original order), its
//!   label unions happen in the original sequence, and fuel exhaustion
//!   lands on the same instruction boundary — the differential contract
//!   with the reference engine ([`crate::differential`]) stays
//!   bit-identical.
//!
//! * [`inline_calls_in`] — **leaf-call inlining**: a call to a small,
//!   single-block, call-free callee becomes one [`DOp::CallInlined`],
//!   against the callee's [`InlineSpec`] (captured by [`inline_spec_of`]
//!   after fusion). Callees are finished first because [`crate::unit`]
//!   walks the call graph bottom-up.

use super::{DInst, DOp, DTerm, DecodedFunction, Edge, Opnd};
use std::sync::Arc;

/// What the passes did to a function, or — summed — to a module
/// (reported by `taint_throughput`, asserted by tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// `cmp+condbr` pairs fused into [`DTerm::CondBrCmp`].
    pub fused_cmp_br: usize,
    /// `gep+load` pairs fused into [`DOp::LoadIdx`].
    pub fused_loads: usize,
    /// `gep+store` pairs fused into [`DOp::StoreIdx`].
    pub fused_stores: usize,
    /// Leaf call sites flattened into [`DOp::CallInlined`].
    pub inlined_calls: usize,
}

impl std::ops::AddAssign for PassStats {
    fn add_assign(&mut self, o: PassStats) {
        self.fused_cmp_br += o.fused_cmp_br;
        self.fused_loads += o.fused_loads;
        self.fused_stores += o.fused_stores;
        self.inlined_calls += o.inlined_calls;
    }
}

/// Upper bound on the body size of an inlinable callee: beyond this the
/// per-call bookkeeping is already amortized and inlining only bloats the
/// caller's bytecode.
const INLINE_MAX_BODY: usize = 48;

/// A callee eligible for whole-call inlining. Its registers keep the
/// decode layout, so register `nparams + i` is "instruction `i`".
///
/// Kept in each function's unit ([`crate::unit::FunctionUnit`]) so an
/// edited caller can be re-optimized against memoized callees' specs
/// without re-decoding the callees: the spec is exactly the slice of
/// callee state the inlining pass reads.
#[derive(Debug, Clone)]
pub struct InlineSpec {
    pub entry: pt_ir::BlockId,
    pub nparams: usize,
    /// Callee local register count (`nregs - nparams`).
    pub nlocals: usize,
    pub body: Vec<DInst>,
    pub ret: Option<Opnd>,
}

/// The [`InlineSpec`] of `f`, if it qualifies for whole-call inlining:
/// SSA-verified, single-block, call-free, alloca-free, and small. Must be
/// captured after [`fuse`] and before inlining into `f` (inlining into an
/// *eligible* function is vacuous — its body has no calls — so capture
/// order against other functions does not matter).
pub fn inline_spec_of(f: &DecodedFunction) -> Option<InlineSpec> {
    let eligible = f.ssa_clean
        && f.blocks.len() == 1
        && f.blocks[0].insts.len() <= INLINE_MAX_BODY
        && matches!(f.blocks[0].term, DTerm::Ret(_))
        && f.blocks[0].insts.iter().all(|di| inlinable_op(&di.op));
    eligible.then(|| InlineSpec {
        entry: f.entry,
        nparams: f.nparams,
        nlocals: f.nregs - f.nparams,
        body: f.blocks[0].insts.to_vec(),
        ret: match &f.blocks[0].term {
            DTerm::Ret(v) => *v,
            _ => unreachable!("matched above"),
        },
    })
}

/// Whether an operation may appear in an inlined body: pure scalar ops,
/// memory accesses, and host-primitive calls. Excluded: internal and
/// inlined calls (they need real frames), `alloca` (its arena lifetime
/// is the callee frame's), intrinsics (parameter sources interact with
/// frame-level state), and library calls (they charge the caller's
/// *child* time and own a profile entry, which would break the inlined
/// frame's `exclusive == inclusive` invariant — host primitives charge
/// the clock only, so they preserve it).
fn inlinable_op(op: &DOp) -> bool {
    !matches!(
        op,
        DOp::Alloca { .. }
            | DOp::CallInternal { .. }
            | DOp::CallIntrinsic { .. }
            | DOp::CallLibrary { .. }
            | DOp::CallInlined { .. }
    )
}

/// Flatten every call in `f` to a single-block, call-free, alloca-free,
/// SSA-verified callee into a [`DOp::CallInlined`] superinstruction.
/// `specs[i]` is function `i`'s spec: `None` when it is ineligible, or
/// still unfinished within the caller's own SCC (whose members are never
/// eligible anyway, since their bodies contain calls). Returns the number
/// of call sites inlined.
///
/// Arguments are substituted into the body as the caller-space operands
/// of the call (sound because the body cannot write caller registers:
/// its locals are renumbered into fresh slots appended to the caller's
/// frame).
pub fn inline_calls_in(f: &mut DecodedFunction, specs: &[Option<Arc<InlineSpec>>]) -> usize {
    let mut inlined = 0usize;
    let mut nregs = f.nregs;
    for blk in &mut f.blocks {
        for di in blk.insts.iter_mut() {
            let DOp::CallInternal { callee, args } = &di.op else {
                continue;
            };
            let callee = *callee;
            let Some(spec) = specs[callee.index()].as_deref() else {
                continue;
            };
            if args.len() != spec.nparams {
                // Malformed arity: leave the real call so the runtime
                // arity error fires exactly like the reference's.
                continue;
            }
            let args = args.clone();
            let base = nregs as u32;
            let remap = |o: Opnd| -> Opnd {
                match o {
                    Opnd::Reg(r) if (r as usize) < spec.nparams => args[r as usize],
                    Opnd::Reg(r) => Opnd::Reg(base + r - spec.nparams as u32),
                    imm => imm,
                }
            };
            let body: Box<[DInst]> = spec
                .body
                .iter()
                .map(|bi| {
                    let mut op = bi.op.clone();
                    rewrite_op(&mut op, &|o: &mut Opnd| *o = remap(*o));
                    DInst {
                        dst: base + bi.dst - spec.nparams as u32,
                        op,
                    }
                })
                .collect();
            di.op = DOp::CallInlined {
                callee,
                entry: spec.entry,
                body,
                ret: spec.ret.map(remap),
            };
            nregs += spec.nlocals;
            inlined += 1;
        }
    }
    f.nregs = nregs;
    inlined
}

/// Call `visit` with every operand the operation *reads*.
fn for_each_src(op: &DOp, visit: &mut dyn FnMut(Opnd)) {
    match op {
        DOp::BinI { a, b, .. }
        | DOp::BinF { a, b, .. }
        | DOp::CmpI { a, b, .. }
        | DOp::CmpF { a, b, .. } => {
            visit(*a);
            visit(*b);
        }
        DOp::NegI { a }
        | DOp::NegF { a }
        | DOp::NotBool { a }
        | DOp::NotInt { a }
        | DOp::IntToFloat { a }
        | DOp::FloatToInt { a }
        | DOp::Sqrt { a }
        | DOp::AbsI { a }
        | DOp::AbsF { a } => visit(*a),
        DOp::Select { c, t, e } => {
            visit(*c);
            visit(*t);
            visit(*e);
        }
        DOp::Alloca { words } => visit(*words),
        DOp::Load { addr } => visit(*addr),
        DOp::Store { addr, value } => {
            visit(*addr);
            visit(*value);
        }
        DOp::Gep { base, index, .. } | DOp::LoadIdx { base, index, .. } => {
            visit(*base);
            visit(*index);
        }
        DOp::StoreIdx {
            base, index, value, ..
        } => {
            visit(*base);
            visit(*index);
            visit(*value);
        }
        DOp::CallInternal { args, .. }
        | DOp::CallIntrinsic { args, .. }
        | DOp::CallHostPrim { args, .. }
        | DOp::CallLibrary { args, .. } => {
            for a in args.iter() {
                visit(*a);
            }
        }
        DOp::CallInlined { .. } => unreachable!("fusion runs before inlining"),
        DOp::Trap { .. } => {}
    }
}

/// Call `visit` with every non-phi-move operand the terminator reads.
fn for_each_term_src(term: &DTerm, visit: &mut dyn FnMut(Opnd)) {
    match term {
        DTerm::Br(_) | DTerm::Unreachable => {}
        DTerm::CondBr { cond, .. } => visit(*cond),
        DTerm::CondBrCmp { a, b, .. } => {
            visit(*a);
            visit(*b);
        }
        DTerm::Ret(v) => {
            if let Some(o) = v {
                visit(*o)
            }
        }
    }
}

/// Call `visit` with every outgoing edge of the terminator.
fn for_each_edge<'a>(term: &'a DTerm, visit: &mut dyn FnMut(&'a Edge)) {
    match term {
        DTerm::Br(e) => visit(e),
        DTerm::CondBr {
            then_edge,
            else_edge,
            ..
        }
        | DTerm::CondBrCmp {
            then_edge,
            else_edge,
            ..
        } => {
            visit(then_edge);
            visit(else_edge);
        }
        DTerm::Ret(_) | DTerm::Unreachable => {}
    }
}

/// Number of reads of each register anywhere in the function (operands,
/// phi-move sources, terminator operands). Fusion requires the fused-away
/// intermediate to have exactly one reader.
fn use_counts(f: &DecodedFunction) -> Vec<u32> {
    let mut uses = vec![0u32; f.nregs];
    let mut bump = |o: Opnd| {
        if let Opnd::Reg(r) = o {
            uses[r as usize] += 1;
        }
    };
    for blk in &f.blocks {
        for di in blk.insts.iter() {
            for_each_src(&di.op, &mut bump);
        }
        for_each_term_src(&blk.term, &mut bump);
        for_each_edge(&blk.term, &mut |e| {
            for mv in e.moves.iter() {
                bump(mv.src);
            }
        });
    }
    uses
}

/// Superinstruction fusion peephole. Returns
/// `(cmp_br, gep_load, gep_store)` pair counts.
pub fn fuse(f: &mut DecodedFunction) -> (usize, usize, usize) {
    let uses = use_counts(f);
    let single_use = |o: u32| uses[o as usize] == 1;
    let (mut n_cb, mut n_ld, mut n_st) = (0usize, 0usize, 0usize);

    for blk in &mut f.blocks {
        // gep+load / gep+store over adjacent pairs.
        let old = std::mem::take(&mut blk.insts).into_vec();
        let mut insts = Vec::with_capacity(old.len());
        let mut i = 0;
        while i < old.len() {
            if i + 1 < old.len() {
                if let DOp::Gep {
                    base,
                    index,
                    stride,
                } = old[i].op
                {
                    let g = old[i].dst;
                    if single_use(g) {
                        match &old[i + 1].op {
                            DOp::Load { addr: Opnd::Reg(r) } if *r == g => {
                                insts.push(DInst {
                                    dst: old[i + 1].dst,
                                    op: DOp::LoadIdx {
                                        base,
                                        index,
                                        stride,
                                    },
                                });
                                n_ld += 1;
                                i += 2;
                                continue;
                            }
                            // `value` cannot also be the gep result: that
                            // would be a second read, excluded by the
                            // single-use requirement.
                            DOp::Store {
                                addr: Opnd::Reg(r),
                                value,
                            } if *r == g => {
                                insts.push(DInst {
                                    dst: old[i + 1].dst,
                                    op: DOp::StoreIdx {
                                        base,
                                        index,
                                        stride,
                                        value: *value,
                                    },
                                });
                                n_st += 1;
                                i += 2;
                                continue;
                            }
                            _ => {}
                        }
                    }
                }
            }
            insts.push(old[i].clone());
            i += 1;
        }

        // cmp+condbr when the block ends in a compare consumed only by
        // its own conditional branch.
        if let DTerm::CondBr {
            cond: Opnd::Reg(c), ..
        } = &blk.term
        {
            let c = *c;
            let fusable = matches!(
                insts.last(),
                Some(DInst {
                    dst,
                    op: DOp::CmpI { .. } | DOp::CmpF { .. },
                }) if *dst == c && single_use(c)
            );
            if fusable {
                let cmp = insts.pop().expect("matched above");
                let (pred, float, a, b) = match cmp.op {
                    DOp::CmpI { pred, a, b } => (pred, false, a, b),
                    DOp::CmpF { pred, a, b } => (pred, true, a, b),
                    _ => unreachable!("matched above"),
                };
                let DTerm::CondBr {
                    then_edge,
                    else_edge,
                    exiting,
                    join,
                    ..
                } = std::mem::replace(&mut blk.term, DTerm::Unreachable)
                else {
                    unreachable!("matched above");
                };
                blk.term = DTerm::CondBrCmp {
                    pred,
                    float,
                    a,
                    b,
                    then_edge,
                    else_edge,
                    exiting,
                    join,
                };
                n_cb += 1;
            }
        }

        blk.insts = insts.into_boxed_slice();
    }
    (n_cb, n_ld, n_st)
}

/// Rewrite every operand the operation reads with `map`.
fn rewrite_op(op: &mut DOp, map: &impl Fn(&mut Opnd)) {
    match op {
        DOp::BinI { a, b, .. }
        | DOp::BinF { a, b, .. }
        | DOp::CmpI { a, b, .. }
        | DOp::CmpF { a, b, .. } => {
            map(a);
            map(b);
        }
        DOp::NegI { a }
        | DOp::NegF { a }
        | DOp::NotBool { a }
        | DOp::NotInt { a }
        | DOp::IntToFloat { a }
        | DOp::FloatToInt { a }
        | DOp::Sqrt { a }
        | DOp::AbsI { a }
        | DOp::AbsF { a } => map(a),
        DOp::Select { c, t, e } => {
            map(c);
            map(t);
            map(e);
        }
        DOp::Alloca { words } => map(words),
        DOp::Load { addr } => map(addr),
        DOp::Store { addr, value } => {
            map(addr);
            map(value);
        }
        DOp::Gep { base, index, .. } | DOp::LoadIdx { base, index, .. } => {
            map(base);
            map(index);
        }
        DOp::StoreIdx {
            base, index, value, ..
        } => {
            map(base);
            map(index);
            map(value);
        }
        DOp::CallInternal { args, .. }
        | DOp::CallIntrinsic { args, .. }
        | DOp::CallHostPrim { args, .. }
        | DOp::CallLibrary { args, .. } => {
            for a in args.iter_mut() {
                map(a);
            }
        }
        DOp::CallInlined { .. } => unreachable!("inline specs contain no calls"),
        DOp::Trap { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::PreparedFunction;
    use pt_ir::{FunctionBuilder, Module, Type, Value};

    fn decode_one(m: &Module) -> DecodedFunction {
        let f = &m.functions[0];
        let prep = PreparedFunction::compute(f, &pt_analysis::dom::DomTree::dominators(f));
        super::super::decode_function(f, &prep, &super::super::DecodeEnv::of(m))
    }

    /// A builder loop header compares the induction variable and branches
    /// on it: the classic fusion target.
    #[test]
    fn loop_header_cmp_br_fuses() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
        });
        b.ret(None);
        m.add_function(b.finish());
        let mut d = decode_one(&m);
        let (cb, _, _) = fuse(&mut d);
        assert_eq!(cb, 1, "the loop-exit compare fuses into its branch");
        assert!(d
            .blocks
            .iter()
            .any(|blk| matches!(blk.term, DTerm::CondBrCmp { .. })));
        // The standalone compare is gone from the instruction stream.
        assert!(!d
            .blocks
            .iter()
            .flat_map(|blk| blk.insts.iter())
            .any(|di| matches!(di.op, DOp::CmpI { .. })));
    }

    /// Array accesses (`gep` feeding exactly one `load`/`store`) fuse into
    /// addressed memory operations.
    #[test]
    fn gep_load_store_fuse() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![("i".into(), Type::I64)], Type::I64);
        let buf = b.alloca(8i64);
        let a1 = b.gep(buf, b.param(0), 1);
        b.store(a1, Value::int(7));
        let a2 = b.gep(buf, b.param(0), 1);
        let v = b.load(a2, Type::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        let mut d = decode_one(&m);
        let (_, ld, st) = fuse(&mut d);
        assert_eq!((ld, st), (1, 1));
        let ops: Vec<&DOp> = d.blocks[0].insts.iter().map(|i| &i.op).collect();
        assert!(ops.iter().any(|o| matches!(o, DOp::StoreIdx { .. })));
        assert!(ops.iter().any(|o| matches!(o, DOp::LoadIdx { .. })));
        assert!(!ops.iter().any(|o| matches!(o, DOp::Gep { .. })));
    }

    /// A gep with two consumers must NOT fuse — the address register is
    /// still read elsewhere.
    #[test]
    fn multi_use_gep_does_not_fuse() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![("i".into(), Type::I64)], Type::I64);
        let buf = b.alloca(8i64);
        let addr = b.gep(buf, b.param(0), 1);
        let v = b.load(addr, Type::I64);
        let sum = b.add(v, addr); // second read of the address
        b.ret(Some(sum));
        m.add_function(b.finish());
        let mut d = decode_one(&m);
        let (_, ld, st) = fuse(&mut d);
        assert_eq!((ld, st), (0, 0));
    }
}
