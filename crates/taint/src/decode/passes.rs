//! Post-decode optimization passes over [`DecodedFunction`] bytecode.
//!
//! [`super::decode_function`] produces a straight translation of one IR
//! function: one [`DInst`] per instruction, one virtual register per
//! instruction result. The passes below rewrite that bytecode in place —
//! once, at static time — so the dispatch loop retires fewer, denser
//! operations. Each pass works on one function; the static stage
//! ([`crate::unit`]) runs them per function in this order:
//!
//! * [`fold_constants`] — immediate-only operations become
//!   [`DOp::Const`], and constant-index `gep`s get a unit stride.
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
//!   after fusion and before allocation). Callees are finished first
//!   because [`crate::unit`] walks the call graph bottom-up.
//!
//! * [`allocate_registers`] — **linear-scan register allocation**, last
//!   and only on SSA-verified functions: virtual registers are renumbered
//!   by live range so a frame holds the function's true register pressure
//!   instead of one slot per instruction. Pooled frames get
//!   proportionally cheaper to clear and the working set drops to a few
//!   cache lines. Invariants:
//!   - parameters keep slots `0..nparams` (the frame-setup argument copy
//!     relies on it);
//!   - two virtual registers that are ever simultaneously live get
//!     distinct slots (intervals are conservative block-granularity live
//!     ranges, so any interference implies interval overlap);
//!   - a slot freed at position `p` is only reused by an interval
//!     *starting after* `p`, so within one dispatch (reads happen before
//!     the write, and phi parallel copies are staged) no value is
//!     clobbered early.

use super::{DInst, DOp, DTerm, DecodedFunction, Edge, Opnd};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// What the passes did to a function, or — summed — to a module
/// (reported by `taint_throughput`, asserted by tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Immediate-only operations folded into [`DOp::Const`].
    pub folded: usize,
    /// `gep`s with a constant index strength-reduced to a unit stride.
    pub reduced_geps: usize,
    /// `cmp+condbr` pairs fused into [`DTerm::CondBrCmp`].
    pub fused_cmp_br: usize,
    /// `gep+load` pairs fused into [`DOp::LoadIdx`].
    pub fused_loads: usize,
    /// `gep+store` pairs fused into [`DOp::StoreIdx`].
    pub fused_stores: usize,
    /// Leaf call sites flattened into [`DOp::CallInlined`].
    pub inlined_calls: usize,
    /// Total frame registers before register allocation.
    pub regs_before: usize,
    /// Total frame registers after register allocation.
    pub regs_after: usize,
}

impl std::ops::AddAssign for PassStats {
    fn add_assign(&mut self, o: PassStats) {
        self.folded += o.folded;
        self.reduced_geps += o.reduced_geps;
        self.fused_cmp_br += o.fused_cmp_br;
        self.fused_loads += o.fused_loads;
        self.fused_stores += o.fused_stores;
        self.inlined_calls += o.inlined_calls;
        self.regs_before += o.regs_before;
        self.regs_after += o.regs_after;
    }
}

/// Fold operations whose operands are all immediates into [`DOp::Const`],
/// and strength-reduce `gep`s with an immediate index to a unit stride
/// (the scaled offset is precomputed into the index), so the address
/// arithmetic left at run time is a single add. Returns
/// `(folded, reduced_geps)`.
///
/// Every fold computes its value with the *exact* expressions the
/// dispatch loop would have used (wrapping integer ops, IEEE float ops on
/// the same bit patterns), so results — including NaN payloads — are
/// bit-identical. `Div`/`Rem` by an immediate zero stay unfolded so the
/// runtime division-by-zero error (which names the function) fires
/// exactly as before. Label behavior is unchanged: an all-immediate op's
/// label was the union of empty labels — empty, produced without touching
/// the label table (the union early-outs) — which is precisely what
/// [`DOp::Const`] yields. A `select` folds only when its immediate
/// condition chooses an immediate arm (the other arm's label is never
/// read by either engine).
///
/// Folded values are **not** forwarded into downstream operand slots:
/// under control-flow policy `All` the register written by a folded op
/// carries the control context of its program point, which an immediate
/// operand would not — forwarding would change the label unions.
pub fn fold_constants(f: &mut DecodedFunction) -> (usize, usize) {
    use pt_ir::BinOp;
    let (mut folded, mut reduced) = (0usize, 0usize);
    for blk in &mut f.blocks {
        for di in blk.insts.iter_mut() {
            let bits: Option<u64> = match &di.op {
                DOp::BinI {
                    op,
                    a: Opnd::Imm(a),
                    b: Opnd::Imm(b),
                } => {
                    let (x, y) = (*a as i64, *b as i64);
                    match op {
                        BinOp::Add => Some(x.wrapping_add(y) as u64),
                        BinOp::Sub => Some(x.wrapping_sub(y) as u64),
                        BinOp::Mul => Some(x.wrapping_mul(y) as u64),
                        BinOp::Div => (y != 0).then(|| x.wrapping_div(y) as u64),
                        BinOp::Rem => (y != 0).then(|| x.wrapping_rem(y) as u64),
                        BinOp::And => Some((x & y) as u64),
                        BinOp::Or => Some((x | y) as u64),
                        BinOp::Xor => Some((x ^ y) as u64),
                        BinOp::Shl => Some(crate::ops::shl_i64(x, y) as u64),
                        BinOp::Shr => Some(crate::ops::shr_i64(x, y) as u64),
                        BinOp::Min => Some(x.min(y) as u64),
                        BinOp::Max => Some(x.max(y) as u64),
                    }
                }
                DOp::BinF {
                    op,
                    a: Opnd::Imm(a),
                    b: Opnd::Imm(b),
                } => {
                    let (x, y) = (f64::from_bits(*a), f64::from_bits(*b));
                    let r = match op {
                        BinOp::Add => Some(x + y),
                        BinOp::Sub => Some(x - y),
                        BinOp::Mul => Some(x * y),
                        BinOp::Div => Some(x / y),
                        BinOp::Rem => Some(x % y),
                        BinOp::Min => Some(x.min(y)),
                        BinOp::Max => Some(x.max(y)),
                        // Bitwise float ops decode to Trap; unreachable
                        // here, but folding nothing is always sound.
                        _ => None,
                    };
                    r.map(f64::to_bits)
                }
                DOp::NegI { a: Opnd::Imm(a) } => Some((*a as i64).wrapping_neg() as u64),
                DOp::NegF { a: Opnd::Imm(a) } => Some((-f64::from_bits(*a)).to_bits()),
                DOp::NotBool { a: Opnd::Imm(a) } => Some((*a == 0) as u64),
                DOp::NotInt { a: Opnd::Imm(a) } => Some(!(*a as i64) as u64),
                DOp::IntToFloat { a: Opnd::Imm(a) } => Some(((*a as i64) as f64).to_bits()),
                DOp::FloatToInt { a: Opnd::Imm(a) } => {
                    let f = f64::from_bits(*a);
                    let clamped = if f.is_nan() {
                        0
                    } else {
                        f.clamp(i64::MIN as f64, i64::MAX as f64) as i64
                    };
                    Some(clamped as u64)
                }
                DOp::Sqrt { a: Opnd::Imm(a) } => Some(f64::from_bits(*a).max(0.0).sqrt().to_bits()),
                DOp::AbsI { a: Opnd::Imm(a) } => Some((*a as i64).wrapping_abs() as u64),
                DOp::AbsF { a: Opnd::Imm(a) } => Some(f64::from_bits(*a).abs().to_bits()),
                DOp::CmpI {
                    pred,
                    a: Opnd::Imm(a),
                    b: Opnd::Imm(b),
                } => Some(pred.eval(*a as i64, *b as i64) as u64),
                DOp::CmpF {
                    pred,
                    a: Opnd::Imm(a),
                    b: Opnd::Imm(b),
                } => Some(pred.eval(f64::from_bits(*a), f64::from_bits(*b)) as u64),
                DOp::Select {
                    c: Opnd::Imm(c),
                    t,
                    e,
                } => match if *c != 0 { t } else { e } {
                    Opnd::Imm(b) => Some(*b),
                    Opnd::Reg(_) => None,
                },
                DOp::Gep {
                    base: Opnd::Imm(b),
                    index: Opnd::Imm(i),
                    stride,
                } => Some((*b as i64).wrapping_add((*i as i64).wrapping_mul(*stride)) as u64),
                _ => None,
            };
            if let Some(bits) = bits {
                di.op = DOp::Const { bits };
                folded += 1;
                continue;
            }
            // Constant-index gep: precompute `index * stride` so the
            // remaining runtime arithmetic (and the fused LoadIdx /
            // StoreIdx address computation) is `base + k * 1`. Wrapping
            // multiplication is associative with the later `* 1`, so the
            // address bits are unchanged.
            if let DOp::Gep {
                base: Opnd::Reg(_),
                index: index @ Opnd::Imm(_),
                stride,
            } = &mut di.op
            {
                if *stride != 1 {
                    let Opnd::Imm(i) = *index else { unreachable!() };
                    *index = Opnd::Imm((i as i64).wrapping_mul(*stride) as u64);
                    *stride = 1;
                    reduced += 1;
                }
            }
        }
    }
    (folded, reduced)
}

/// Upper bound on the body size of an inlinable callee: beyond this the
/// per-call bookkeeping is already amortized and inlining only bloats the
/// caller's bytecode.
const INLINE_MAX_BODY: usize = 48;

/// A callee eligible for whole-call inlining, captured pre-regalloc so
/// register `nparams + i` is still "instruction `i`".
///
/// Kept in each function's unit ([`crate::unit::FunctionUnit`]) so an
/// edited caller can be re-optimized against memoized callees' specs
/// without re-decoding the callees: the spec is exactly the slice of
/// callee state the inlining pass reads.
#[derive(Debug, Clone)]
pub struct InlineSpec {
    pub entry: pt_ir::BlockId,
    pub nparams: usize,
    /// Callee local register count (`nregs - nparams`, pre-allocation).
    pub nlocals: usize,
    pub body: Vec<DInst>,
    pub ret: Option<Opnd>,
}

/// The [`InlineSpec`] of `f`, if it qualifies for whole-call inlining:
/// SSA-verified, single-block, call-free, alloca-free, and small. Must be
/// captured after [`fuse`] but before [`allocate_registers`] and before
/// inlining into `f` (inlining into an *eligible* function is vacuous —
/// its body has no calls — so capture order against other functions does
/// not matter).
pub fn inline_spec_of(f: &DecodedFunction, clean: bool) -> Option<InlineSpec> {
    let eligible = clean
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
/// frame — which the subsequent register allocation then collapses).
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
        DOp::Const { .. } => {}
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
        DOp::CallInlined { body, ret, .. } => {
            // The whole compound occupies one program point: its internal
            // destinations are visited as reads too, which conservatively
            // pins every body-local register live at this point so the
            // allocator cannot overlap them.
            for bi in body.iter() {
                for_each_src(&bi.op, visit);
                visit(Opnd::Reg(bi.dst));
            }
            if let Some(o) = ret {
                visit(*o);
            }
        }
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

/// Bitset over the function's pre-allocation register space.
#[derive(Clone, PartialEq, Eq)]
struct RegSet(Vec<u64>);

impl RegSet {
    fn new(nregs: usize) -> RegSet {
        RegSet(vec![0; nregs.div_ceil(64)])
    }
    #[inline]
    fn set(&mut self, r: u32) {
        self.0[r as usize / 64] |= 1 << (r % 64);
    }
    #[inline]
    fn clear(&mut self, r: u32) {
        self.0[r as usize / 64] &= !(1 << (r % 64));
    }
    fn union_with(&mut self, other: &RegSet) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| (w * 64 + b) as u32)
        })
    }
}

/// Linear-scan register allocation: renumber registers by live range and
/// shrink `nregs` to the function's true register pressure.
///
/// Liveness is computed per block (phi moves modelled on their edges:
/// sources read at the predecessor's end, destinations defined there and
/// live into the target), then each register gets one conservative
/// interval `[first def/live point, last use/live point]` over the
/// linearized block order. Intervals that overlap get distinct slots;
/// expiry is strict (`end < start`), so a slot is never reused at the
/// position that last read it.
pub fn allocate_registers(f: &mut DecodedFunction) {
    let nold = f.nregs;
    let nparams = f.nparams;
    let nblocks = f.blocks.len();

    // Linear positions: parameters are defined at -1, each instruction
    // takes one position, each terminator (with its edge moves) one more.
    let mut block_start = vec![0i64; nblocks];
    let mut block_term = vec![0i64; nblocks];
    let mut pos = 0i64;
    for (i, blk) in f.blocks.iter().enumerate() {
        block_start[i] = pos;
        pos += blk.insts.len() as i64;
        block_term[i] = pos;
        pos += 1;
    }

    // Block-level liveness to fixpoint.
    let mut livein = vec![RegSet::new(nold); nblocks];
    let mut liveout = vec![RegSet::new(nold); nblocks];
    loop {
        let mut changed = false;
        for b in (0..nblocks).rev() {
            let blk = &f.blocks[b];
            let mut out = RegSet::new(nold);
            for_each_edge(&blk.term, &mut |e| {
                let mut t = livein[e.target.index()].clone();
                for mv in e.moves.iter() {
                    t.clear(mv.dst);
                }
                for mv in e.moves.iter() {
                    if let Opnd::Reg(r) = mv.src {
                        t.set(r);
                    }
                }
                out.union_with(&t);
            });
            let mut live = out.clone();
            for_each_term_src(&blk.term, &mut |o| {
                if let Opnd::Reg(r) = o {
                    live.set(r);
                }
            });
            for di in blk.insts.iter().rev() {
                live.clear(di.dst);
                for_each_src(&di.op, &mut |o| {
                    if let Opnd::Reg(r) = o {
                        live.set(r);
                    }
                });
            }
            if out != liveout[b] {
                liveout[b] = out;
                changed = true;
            }
            if live != livein[b] {
                livein[b] = live;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Conservative intervals.
    let mut start = vec![i64::MAX; nold];
    let mut end = vec![i64::MIN; nold];
    macro_rules! cover {
        ($r:expr, $p:expr) => {{
            let (r, p) = ($r as usize, $p);
            start[r] = start[r].min(p);
            end[r] = end[r].max(p);
        }};
    }
    for r in 0..nparams {
        cover!(r as u32, -1);
    }
    for (b, blk) in f.blocks.iter().enumerate() {
        for (p, di) in (block_start[b]..).zip(blk.insts.iter()) {
            for_each_src(&di.op, &mut |o| {
                if let Opnd::Reg(r) = o {
                    cover!(r, p);
                }
            });
            cover!(di.dst, p);
        }
        let t = block_term[b];
        for_each_term_src(&blk.term, &mut |o| {
            if let Opnd::Reg(r) = o {
                cover!(r, t);
            }
        });
        for_each_edge(&blk.term, &mut |e| {
            for mv in e.moves.iter() {
                if let Opnd::Reg(r) = mv.src {
                    cover!(r, t);
                }
                cover!(mv.dst, t);
            }
        });
        for r in livein[b].iter() {
            cover!(r, block_start[b]);
        }
        for r in liveout[b].iter() {
            cover!(r, block_term[b]);
        }
    }

    // The scan. Parameters are pre-pinned to slots 0..nparams so the
    // frame-setup argument copy stays an index-free memcpy.
    let mut slot_of: Vec<u32> = vec![u32::MAX; nold];
    let mut active: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
    let mut free: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    let mut next_fresh = nparams as u32;
    for r in 0..nparams {
        slot_of[r] = r as u32;
        active.push(Reverse((end[r], r as u32)));
    }
    let mut order: Vec<usize> = (nparams..nold).filter(|&r| start[r] != i64::MAX).collect();
    order.sort_unstable_by_key(|&r| (start[r], r));
    for r in order {
        while let Some(&Reverse((e, s))) = active.peek() {
            if e < start[r] {
                active.pop();
                free.push(Reverse(s));
            } else {
                break;
            }
        }
        let slot = match free.pop() {
            Some(Reverse(s)) => s,
            None => {
                let s = next_fresh;
                next_fresh += 1;
                s
            }
        };
        slot_of[r] = slot;
        active.push(Reverse((end[r], slot)));
    }

    // Rewrite every register reference. Registers with no interval are
    // never referenced (e.g. fused-away gep results) and never appear.
    let map = |o: &mut Opnd| {
        if let Opnd::Reg(r) = o {
            debug_assert_ne!(slot_of[*r as usize], u32::MAX, "referenced reg has a slot");
            *r = slot_of[*r as usize];
        }
    };
    for blk in &mut f.blocks {
        for di in blk.insts.iter_mut() {
            di.dst = slot_of[di.dst as usize];
            rewrite_op(&mut di.op, &map);
        }
        match &mut blk.term {
            DTerm::Br(e) => rewrite_edge(e, &map),
            DTerm::CondBr {
                cond,
                then_edge,
                else_edge,
                ..
            } => {
                map(cond);
                rewrite_edge(then_edge, &map);
                rewrite_edge(else_edge, &map);
            }
            DTerm::CondBrCmp {
                a,
                b,
                then_edge,
                else_edge,
                ..
            } => {
                map(a);
                map(b);
                rewrite_edge(then_edge, &map);
                rewrite_edge(else_edge, &map);
            }
            DTerm::Ret(v) => {
                if let Some(o) = v {
                    map(o);
                }
            }
            DTerm::Unreachable => {}
        }
    }
    f.nregs = next_fresh as usize;
}

fn rewrite_edge(e: &mut Edge, map: &impl Fn(&mut Opnd)) {
    for mv in e.moves.iter_mut() {
        let mut d = Opnd::Reg(mv.dst);
        map(&mut d);
        let Opnd::Reg(nd) = d else { unreachable!() };
        mv.dst = nd;
        map(&mut mv.src);
    }
}

fn rewrite_op(op: &mut DOp, map: &impl Fn(&mut Opnd)) {
    match op {
        DOp::Const { .. } => {}
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
        DOp::CallInlined { body, ret, .. } => {
            for bi in body.iter_mut() {
                let mut d = Opnd::Reg(bi.dst);
                map(&mut d);
                let Opnd::Reg(nd) = d else { unreachable!() };
                bi.dst = nd;
                rewrite_op(&mut bi.op, map);
            }
            if let Some(o) = ret {
                map(o);
            }
        }
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
        let prep = PreparedFunction::compute(f);
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

    /// Register allocation shrinks a long dependency chain to a handful of
    /// slots and keeps parameters pinned at the front of the frame.
    #[test]
    fn regalloc_shrinks_straightline_chain() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![("x".into(), Type::I64)], Type::I64);
        let mut v = b.param(0);
        for k in 0..40 {
            v = b.add(v, Value::int(k));
        }
        b.ret(Some(v));
        m.add_function(b.finish());
        let mut d = decode_one(&m);
        let before = d.nregs;
        allocate_registers(&mut d);
        assert!(d.nregs < before, "chain must shrink ({before} regs before)");
        assert!(
            d.nregs <= 4,
            "a pure chain needs only a couple of slots, got {}",
            d.nregs
        );
        // The parameter still lives in slot 0: the first add reads Reg(0).
        let DOp::BinI { a, .. } = &d.blocks[0].insts[0].op else {
            panic!("first inst is the first add");
        };
        assert_eq!(*a, Opnd::Reg(0));
    }

    /// Values live across a loop keep distinct slots from values defined
    /// inside it (interference via the back edge).
    #[test]
    fn regalloc_respects_loop_live_ranges() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![("n".into(), Type::I64)], Type::I64);
        let acc = b.alloca(1i64); // live across the whole loop
        b.store(acc, Value::int(0));
        b.for_loop(0i64, b.param(0), 1i64, |b, iv| {
            let cur = b.load(acc, Type::I64);
            let nxt = b.add(cur, iv);
            b.store(acc, nxt);
        });
        let out = b.load(acc, Type::I64);
        b.ret(Some(out));
        m.add_function(b.finish());
        let mut d = decode_one(&m);
        allocate_registers(&mut d);
        // Collect the slot the alloca result landed in and every slot
        // written inside the loop body: they must not collide.
        let alloca_slot = d
            .blocks
            .iter()
            .flat_map(|blk| blk.insts.iter())
            .find(|di| matches!(di.op, DOp::Alloca { .. }))
            .map(|di| di.dst)
            .expect("alloca present");
        let writes_alloca_slot = d
            .blocks
            .iter()
            .flat_map(|blk| blk.insts.iter())
            .filter(|di| !matches!(di.op, DOp::Alloca { .. }) && di.dst == alloca_slot);
        assert_eq!(
            writes_alloca_slot.count(),
            0,
            "nothing may clobber the buffer address while the loop lives"
        );
    }
}
