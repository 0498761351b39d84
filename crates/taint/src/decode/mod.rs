//! The decode stage: compile `pt-ir` functions into a flat bytecode.
//!
//! The dynamic taint run is the hot path of the whole system — every paper
//! artifact, every bench scenario, and every `pt-serve` request bottoms out
//! in it. Interpreting the [`pt_ir::InstKind`] tree directly pays per step
//! for work that is entirely static: resolving [`Value`] operands by enum
//! match, chasing `func.inst(iid)` indirections, scanning block prefixes
//! for phi nodes, and hashing `(from, to)` pairs to find loop back edges.
//! Following the Taint Rabbit's observation that pre-generated fast paths
//! are where the order-of-magnitude wins live, this module compiles each
//! function **once** into a [`DecodedFunction`]:
//!
//! * **operands** are pre-resolved to [`Opnd`]: a flat register index
//!   (parameters first, then one register per instruction) or an inline
//!   64-bit immediate — no `Value` matching at run time;
//! * **types are folded into opcodes**: float-vs-int arithmetic, the
//!   bool-vs-int `not`, and statically unsupported combinations (a float
//!   `and`) become distinct [`DOp`] variants, decided once;
//! * **callees are pre-bound**: internal calls carry their [`FunctionId`],
//!   taint intrinsics are dispatched to an [`Intrinsic`] tag, and library
//!   externals carry their pseudo [`FunctionId`] — no string matching per
//!   call;
//! * **per-edge phi move-lists** are precomputed: each CFG [`Edge`] holds
//!   the parallel-copy schedule `(dst register, src operand)` for the
//!   target block's phis, in block order. The interpreter executes them
//!   with a read-all-then-write stage, which handles the swap and
//!   lost-copy hazards of parallel copies by construction;
//! * **branch metadata is inlined**: each edge knows whether it is a loop
//!   back edge or a fresh loop entry, and each conditional branch carries
//!   its exiting-loop list and immediate postdominator — the hot loop
//!   never touches a `HashMap`.
//!
//! Decoding is part of the static stage ([`crate::unit`] drives it, one
//! function at a time), so a `perf_taint::Session` shares the decoded
//! program across every run of a module. After the straight translation
//! below, the [`passes`] rewrite each function in place:
//! superinstruction fusion of the hot `cmp+condbr` and `gep+load` /
//! `gep+store` pairs ([`DOp::LoadIdx`], [`DOp::StoreIdx`],
//! [`DTerm::CondBrCmp`]), then leaf-call inlining. The legacy tree-walker
//! survives as [`crate::reference`], and [`crate::differential`] states
//! the contract between the two: bit-identical run artifacts.

pub mod passes;

use crate::prepared::PreparedFunction;
use pt_analysis::loops::LoopId;
use pt_ir::{
    BinOp, BlockId, Callee, CmpPred, Const, Function, FunctionId, InstKind, Module, Terminator,
    Type, UnOp, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A pre-resolved operand: a frame register or an inline immediate.
///
/// Registers `0..nparams` hold the call arguments; register `nparams + i`
/// holds the result of instruction `i`. Immediates store the value's raw
/// 64-bit representation (the [`crate::memory::TVal`] bit convention) and
/// are always untainted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opnd {
    Reg(u32),
    Imm(u64),
}

/// One parallel-copy move of a CFG edge: write `src` into register `dst`.
#[derive(Debug, Clone, Copy)]
pub struct PhiMove {
    pub dst: u32,
    pub src: Opnd,
}

/// A decoded CFG edge: target block, the target's phi moves for this
/// particular predecessor, and the loop bookkeeping the taint sinks need.
#[derive(Debug, Clone)]
pub struct Edge {
    pub target: BlockId,
    /// Parallel-copy schedule for the target's phi prefix, in block order.
    /// Executed with staged writes (read every source before the first
    /// write), so swap / lost-copy cycles need no special cases.
    pub moves: Box<[PhiMove]>,
    /// `Some(loop)` when this edge is a latch → header back edge.
    pub back_edge: Option<LoopId>,
    /// `Some(loop)` when this edge enters the target's loop from outside
    /// (a fresh loop entry). Mutually exclusive with `back_edge`.
    pub enters: Option<LoopId>,
}

/// Taint intrinsics the interpreter resolves itself, pre-dispatched at
/// decode time so the hot loop never string-matches a callee name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrinsic {
    /// `pt_param_i64(idx) -> i64`: read marked parameter `idx`, tainted.
    ParamI64,
    /// `pt_register_param(addr, idx)`: taint the word at `addr`.
    RegisterParam,
    /// `pt_assert_has_param(v, idx)`: trap unless `v` carries param `idx`.
    AssertHasParam,
    /// `pt_assert_not_param(v, idx)`: trap if `v` carries param `idx`.
    AssertNotParam,
    /// `pt_label_params(v) -> i64`: the value's parameter set as a bitmask.
    LabelParams,
    /// `pt_taint_source(v, id) -> v`: under the security policy, join a
    /// source base label `src#id` into `v`'s label (may-taint); under the
    /// paper policy, an identity pass-through (value *and* label).
    TaintSource,
    /// `pt_sanitize(v) -> v`: under the security policy, clear `v`'s
    /// label to bottom; under the paper policy, identity.
    Sanitize,
    /// `pt_sink_check(v, id) -> v`: pass-through; under the security
    /// policy, record a check (and a violation when `v` is tainted) in
    /// the per-sink ledger.
    SinkCheck,
}

impl Intrinsic {
    /// Decode-time lookup by external symbol name.
    pub fn by_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "pt_param_i64" => Intrinsic::ParamI64,
            "pt_register_param" => Intrinsic::RegisterParam,
            "pt_assert_has_param" => Intrinsic::AssertHasParam,
            "pt_assert_not_param" => Intrinsic::AssertNotParam,
            "pt_label_params" => Intrinsic::LabelParams,
            "pt_taint_source" => Intrinsic::TaintSource,
            "pt_sanitize" => Intrinsic::Sanitize,
            "pt_sink_check" => Intrinsic::SinkCheck,
            _ => return None,
        })
    }
}

/// A decoded operation. Result typing (float vs int, bool vs int `not`)
/// is folded into the variant; operands are pre-resolved [`Opnd`]s.
#[derive(Debug, Clone)]
pub enum DOp {
    /// Integer binary op (wrapping; `Div`/`Rem` trap on zero).
    BinI {
        op: BinOp,
        a: Opnd,
        b: Opnd,
    },
    /// Float binary op (`Add`..`Rem`, `Min`, `Max` only — the bitwise ops
    /// decode to [`DOp::Trap`] when the operands are float).
    BinF {
        op: BinOp,
        a: Opnd,
        b: Opnd,
    },
    NegI {
        a: Opnd,
    },
    NegF {
        a: Opnd,
    },
    /// Logical not of a `Bool`-typed operand.
    NotBool {
        a: Opnd,
    },
    /// Bitwise not of an integer operand.
    NotInt {
        a: Opnd,
    },
    IntToFloat {
        a: Opnd,
    },
    FloatToInt {
        a: Opnd,
    },
    Sqrt {
        a: Opnd,
    },
    AbsI {
        a: Opnd,
    },
    AbsF {
        a: Opnd,
    },
    CmpI {
        pred: CmpPred,
        a: Opnd,
        b: Opnd,
    },
    CmpF {
        pred: CmpPred,
        a: Opnd,
        b: Opnd,
    },
    Select {
        c: Opnd,
        t: Opnd,
        e: Opnd,
    },
    Alloca {
        words: Opnd,
    },
    Load {
        addr: Opnd,
    },
    Store {
        addr: Opnd,
        value: Opnd,
    },
    Gep {
        base: Opnd,
        index: Opnd,
        stride: i64,
    },
    /// Fused `gep+load` ([`passes::fuse`]): load the word at
    /// `base + index * stride`. Retires as **two** instructions (the gep
    /// and the load it replaces) so instruction counts and the simulated
    /// clock stay bit-identical to the reference engine.
    LoadIdx {
        base: Opnd,
        index: Opnd,
        stride: i64,
    },
    /// Fused `gep+store`: store `value` at `base + index * stride`.
    /// Retires as two instructions, like [`DOp::LoadIdx`].
    StoreIdx {
        base: Opnd,
        index: Opnd,
        stride: i64,
        value: Opnd,
    },
    /// Call to a function of the same module, pre-bound to its id.
    CallInternal {
        callee: FunctionId,
        args: Box<[Opnd]>,
    },
    /// A whole leaf call fused into the caller ([`passes::inline_calls_in`]):
    /// the callee is single-block, call-free, and alloca-free, its body's
    /// operands rewritten into the caller's frame (arguments substituted
    /// in place, locals renumbered into fresh caller slots). One dispatch
    /// replaces the entire frame push/pop; the call bookkeeping the
    /// reference engine performs (depth, path interning, executed/visited
    /// marks, probe cost, per-call profile entry, fuel boundaries) is
    /// replayed inline so every observable stays bit-identical.
    CallInlined {
        callee: FunctionId,
        /// The callee's entry (and only) block, for the visited mark.
        entry: BlockId,
        /// Callee body, operands already in caller register space.
        body: Box<[DInst]>,
        /// The callee's return operand, likewise rewritten.
        ret: Option<Opnd>,
    },
    /// One of the interpreter-resolved taint intrinsics.
    CallIntrinsic {
        which: Intrinsic,
        args: Box<[Opnd]>,
    },
    /// A `pt_*` work/host primitive: handled by the external handler, its
    /// cost charged inline to the calling function (no profile entry).
    /// `prim` indexes [`DecodedModule::host_prim_names`]; the interpreter
    /// resolves it to a handler dispatch token once per run, so the hot
    /// path never string-matches the name.
    CallHostPrim {
        name: Box<str>,
        prim: u32,
        args: Box<[Opnd]>,
    },
    /// A library routine (MPI): handled by the external handler, charged
    /// and profiled under its pre-bound pseudo [`FunctionId`].
    CallLibrary {
        name: Box<str>,
        ext_id: FunctionId,
        args: Box<[Opnd]>,
    },
    /// A statically known trap (e.g. float bitwise op); the message was
    /// rendered at decode time and matches the legacy engine's.
    Trap {
        message: Box<str>,
    },
}

/// One decoded instruction: destination register plus operation.
#[derive(Debug, Clone)]
pub struct DInst {
    pub dst: u32,
    pub op: DOp,
}

/// A decoded terminator with its branch metadata inlined.
#[derive(Debug, Clone)]
pub enum DTerm {
    Br(Edge),
    CondBr {
        cond: Opnd,
        then_edge: Edge,
        else_edge: Edge,
        /// Loops for which this block is an exiting block — their exit
        /// conditions are the taint sinks (§4.1).
        exiting: Box<[LoopId]>,
        /// Immediate postdominator: where a control-taint scope opened
        /// here closes (`None`: at function return).
        join: Option<BlockId>,
    },
    /// Fused `cmp+condbr` ([`passes::fuse`]): evaluate the comparison and
    /// branch on it in one dispatch. The comparison half retires as one
    /// instruction (count + clock), exactly where the standalone `cmp`
    /// did, so fuel exhaustion lands on the same instruction boundary as
    /// in the reference engine.
    CondBrCmp {
        pred: CmpPred,
        /// Float comparison (`CmpF`) vs integer (`CmpI`).
        float: bool,
        a: Opnd,
        b: Opnd,
        then_edge: Edge,
        else_edge: Edge,
        exiting: Box<[LoopId]>,
        join: Option<BlockId>,
    },
    Ret(Option<Opnd>),
    Unreachable,
}

/// A decoded basic block: the straight-line (non-phi) instructions and the
/// terminator. Phi nodes live on incoming [`Edge`]s as move lists.
#[derive(Debug, Clone)]
pub struct DecodedBlock {
    pub insts: Box<[DInst]>,
    pub term: DTerm,
}

/// One function's flat bytecode.
#[derive(Debug, Clone)]
pub struct DecodedFunction {
    /// Function name (runtime error messages).
    pub name: String,
    pub nparams: usize,
    /// Frame size in registers: `nparams` argument registers, one per
    /// instruction ([`Opnd`] has the layout), and after
    /// [`passes::inline_calls_in`] the locals of every inlined leaf body,
    /// appended.
    pub nregs: usize,
    /// Whether the function passed semantic SSA verification (definitions
    /// dominate uses, `pt_analysis::ssa_verify`). The interpreter's
    /// skip-the-frame-clear fast path and leaf-call inlining
    /// ([`passes::inline_spec_of`]) are only sound under that property, so
    /// both are gated on it; a function that fails it gets a zeroed frame
    /// per call — exactly the reference engine's observable behavior for
    /// such malformed programs — and is never inlined.
    pub ssa_clean: bool,
    pub entry: BlockId,
    pub blocks: Vec<DecodedBlock>,
}

/// The decoded program of a whole module.
#[derive(Debug)]
pub struct DecodedModule {
    /// Shared with the unit memo's entries when one built the module.
    pub functions: Vec<Arc<DecodedFunction>>,
    /// External symbols called anywhere, in the deterministic
    /// [`Module::used_externals`] order. External `i` gets the pseudo
    /// [`FunctionId`] `module.functions.len() + i` — the convention shared
    /// with the legacy engine, `pt-measure`, and the profile consumers.
    pub extern_names: Vec<String>,
    /// Distinct `pt_*` host-primitive names, indexed by
    /// [`DOp::CallHostPrim::prim`] (sorted [`Module::used_externals`]
    /// order, so the table is a pure function of the module's external
    /// symbol set — decoding functions in any order, or one at a time,
    /// yields identical indices).
    pub host_prim_names: Vec<String>,
}

/// The module-level symbol environment one function's decode depends on:
/// the function-id space (internal calls embed raw ids), the external
/// symbol table (library calls embed pseudo ids `nfuncs + ext_index`),
/// and the host-primitive table. It is a pure function of the module's
/// function-name list and external-symbol set — *not* of any function
/// body — which is what lets a per-function unit memo decode one edited
/// function against an otherwise unchanged environment.
pub struct DecodeEnv {
    pub nfuncs: usize,
    /// [`Module::used_externals`] order (sorted).
    pub extern_names: Vec<String>,
    /// `pt_*` non-intrinsic externals, in `extern_names` (sorted) order.
    pub host_prim_names: Vec<String>,
    ext_index: HashMap<String, u32>,
    prim_index: HashMap<String, u32>,
}

impl DecodeEnv {
    pub fn of(module: &Module) -> DecodeEnv {
        let extern_names: Vec<String> = module
            .used_externals()
            .into_iter()
            .map(String::from)
            .collect();
        let ext_index: HashMap<String, u32> = extern_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let host_prim_names: Vec<String> = extern_names
            .iter()
            .filter(|n| n.starts_with("pt_") && Intrinsic::by_name(n).is_none())
            .cloned()
            .collect();
        let prim_index: HashMap<String, u32> = host_prim_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        DecodeEnv {
            nfuncs: module.functions.len(),
            extern_names,
            host_prim_names,
            ext_index,
            prim_index,
        }
    }
}

impl DecodedModule {
    #[inline]
    pub fn func(&self, id: FunctionId) -> &DecodedFunction {
        &self.functions[id.index()]
    }
}

fn const_bits(c: Const) -> u64 {
    match c {
        Const::Int(i) => i as u64,
        Const::Float(f) => f.to_bits(),
        Const::Bool(b) => b as u64,
    }
}

/// Decode one function against the module symbol environment
/// ([`crate::unit`] calls this once per function).
pub fn decode_function(
    func: &Function,
    prep: &PreparedFunction,
    env: &DecodeEnv,
) -> DecodedFunction {
    let nparams = func.params.len();
    let opnd = |v: Value| -> Opnd {
        match v {
            Value::Const(c) => Opnd::Imm(const_bits(c)),
            Value::Param(p) => Opnd::Reg(p.index() as u32),
            Value::Inst(i) => Opnd::Reg((nparams + i.index()) as u32),
        }
    };

    // Length of the phi prefix of a block (the only place phis may appear;
    // the verifier and the legacy engine share this contract).
    let phi_prefix = |b: BlockId| -> usize {
        func.block(b)
            .insts
            .iter()
            .take_while(|&&iid| matches!(func.inst(iid).kind, InstKind::Phi { .. }))
            .count()
    };

    let make_edge = |from: BlockId, to: BlockId| -> Edge {
        let mut moves = Vec::new();
        for &iid in &func.block(to).insts[..phi_prefix(to)] {
            let InstKind::Phi { incomings, .. } = &func.inst(iid).kind else {
                unreachable!("phi prefix contains only phis");
            };
            let (_, v) = incomings
                .iter()
                .find(|(b, _)| *b == from)
                .unwrap_or_else(|| panic!("phi %{} missing incoming for {from}", iid.0));
            moves.push(PhiMove {
                dst: (nparams + iid.index()) as u32,
                src: opnd(*v),
            });
        }
        let back_edge = prep.back_edges.get(&(from, to)).copied();
        let enters = if back_edge.is_some() {
            None
        } else {
            // Entering a loop header not via a back edge from inside the
            // loop is a fresh entry.
            prep.header_of[to.index()].filter(|&lid| !prep.forest.get(lid).contains(from))
        };
        Edge {
            target: to,
            moves: moves.into_boxed_slice(),
            back_edge,
            enters,
        }
    };

    let mut blocks = Vec::with_capacity(func.blocks.len());
    for bid in func.block_ids() {
        let blk = func.block(bid);
        let prefix = phi_prefix(bid);
        let insts: Vec<DInst> = blk.insts[prefix..]
            .iter()
            .map(|&iid| {
                assert!(
                    !matches!(func.inst(iid).kind, InstKind::Phi { .. }),
                    "phi %{} not in the phi prefix of {bid} in {}",
                    iid.0,
                    func.name
                );
                DInst {
                    dst: (nparams + iid.index()) as u32,
                    op: decode_op(func, prep, iid, &opnd, env),
                }
            })
            .collect();
        let term = match blk.term.as_ref().expect("verified IR") {
            Terminator::Br(t) => DTerm::Br(make_edge(bid, *t)),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => DTerm::CondBr {
                cond: opnd(*cond),
                then_edge: make_edge(bid, *then_bb),
                else_edge: make_edge(bid, *else_bb),
                exiting: prep.exiting_loops[bid.index()].clone().into_boxed_slice(),
                join: prep.ipostdom[bid.index()],
            },
            Terminator::Ret(v) => DTerm::Ret(v.as_ref().map(|&val| opnd(val))),
            Terminator::Unreachable => DTerm::Unreachable,
        };
        blocks.push(DecodedBlock {
            insts: insts.into_boxed_slice(),
            term,
        });
    }

    DecodedFunction {
        name: func.name.clone(),
        nparams,
        nregs: nparams + func.insts.len(),
        // Conservative until the static stage proves dominance.
        ssa_clean: false,
        entry: func.entry,
        blocks,
    }
}

fn decode_op(
    func: &Function,
    prep: &PreparedFunction,
    iid: pt_ir::InstId,
    opnd: &impl Fn(Value) -> Opnd,
    env: &DecodeEnv,
) -> DOp {
    let is_float = prep.operand_float[iid.index()];
    match &func.inst(iid).kind {
        InstKind::Bin { op, lhs, rhs } => {
            let (a, b) = (opnd(*lhs), opnd(*rhs));
            if is_float {
                match op {
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Mul
                    | BinOp::Div
                    | BinOp::Rem
                    | BinOp::Min
                    | BinOp::Max => DOp::BinF { op: *op, a, b },
                    // Same message the legacy engine renders at run time.
                    _ => DOp::Trap {
                        message: format!("float {op:?} unsupported in {}", func.name).into(),
                    },
                }
            } else {
                DOp::BinI { op: *op, a, b }
            }
        }
        InstKind::Un { op, operand } => {
            let a = opnd(*operand);
            match op {
                UnOp::Neg => {
                    if is_float {
                        DOp::NegF { a }
                    } else {
                        DOp::NegI { a }
                    }
                }
                UnOp::Not => {
                    if prep.result_tys[iid.index()] == Type::Bool {
                        DOp::NotBool { a }
                    } else {
                        DOp::NotInt { a }
                    }
                }
                UnOp::IntToFloat => DOp::IntToFloat { a },
                UnOp::FloatToInt => DOp::FloatToInt { a },
                UnOp::Sqrt => DOp::Sqrt { a },
                UnOp::Abs => {
                    if is_float {
                        DOp::AbsF { a }
                    } else {
                        DOp::AbsI { a }
                    }
                }
            }
        }
        InstKind::Cmp { pred, lhs, rhs } => {
            let (a, b) = (opnd(*lhs), opnd(*rhs));
            if is_float {
                DOp::CmpF { pred: *pred, a, b }
            } else {
                DOp::CmpI { pred: *pred, a, b }
            }
        }
        InstKind::Select {
            cond,
            then_v,
            else_v,
        } => DOp::Select {
            c: opnd(*cond),
            t: opnd(*then_v),
            e: opnd(*else_v),
        },
        InstKind::Alloca { words } => DOp::Alloca {
            words: opnd(*words),
        },
        InstKind::Load { addr, .. } => DOp::Load { addr: opnd(*addr) },
        InstKind::Store { addr, value } => DOp::Store {
            addr: opnd(*addr),
            value: opnd(*value),
        },
        InstKind::Gep {
            base,
            index,
            stride,
        } => DOp::Gep {
            base: opnd(*base),
            index: opnd(*index),
            stride: *stride as i64,
        },
        InstKind::Call { callee, args, .. } => {
            let args: Box<[Opnd]> = args.iter().map(|a| opnd(*a)).collect();
            match callee {
                Callee::Internal(fid) => DOp::CallInternal { callee: *fid, args },
                Callee::External(name) => {
                    if let Some(which) = Intrinsic::by_name(name) {
                        DOp::CallIntrinsic { which, args }
                    } else if name.starts_with("pt_") {
                        DOp::CallHostPrim {
                            name: name.as_str().into(),
                            prim: env.prim_index[name.as_str()],
                            args,
                        }
                    } else {
                        let idx = env.ext_index[name.as_str()];
                        DOp::CallLibrary {
                            name: name.as_str().into(),
                            ext_id: FunctionId((env.nfuncs + idx as usize) as u32),
                            args,
                        }
                    }
                }
            }
        }
        InstKind::Phi { .. } => unreachable!("phis decode into edge move lists"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::PreparedModule;
    use pt_ir::FunctionBuilder;

    #[test]
    fn loop_function_decodes_with_edge_metadata() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
        });
        b.ret(None);
        m.add_function(b.finish());
        let p = PreparedModule::compute(&m);
        let d = p.decoded.func(FunctionId(0));
        assert_eq!(d.nparams, 1);
        // One register per parameter and per instruction (no calls, so
        // nothing inlined).
        assert_eq!(d.nregs, 1 + m.function(FunctionId(0)).insts.len());

        // Exactly one back edge and one fresh-entry edge somewhere.
        let mut back = 0;
        let mut enters = 0;
        let mut moves = 0;
        for blk in &d.blocks {
            let mut visit = |e: &Edge| {
                back += e.back_edge.is_some() as usize;
                enters += e.enters.is_some() as usize;
                moves += e.moves.len();
            };
            match &blk.term {
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
                _ => {}
            }
        }
        assert_eq!(back, 1, "one latch back edge");
        assert_eq!(enters, 1, "one fresh loop entry");
        assert!(moves >= 2, "iv phi has a move on entry and latch edges");
    }

    #[test]
    fn calls_are_prebound() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", vec![], Type::Void);
        b.ret(None);
        let leaf = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.call(leaf, vec![], Type::Void);
        b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
        b.call_external("MPI_Barrier", vec![], Type::Void);
        b.ret(None);
        let main = m.add_function(b.finish());
        let p = PreparedModule::compute(&m);
        let d = p.decoded.func(main);
        let ops: Vec<&DOp> = d.blocks[0].insts.iter().map(|i| &i.op).collect();
        // The empty leaf qualifies for whole-call inlining; the binding
        // to its id survives in the fused superinstruction.
        assert!(matches!(ops[0], DOp::CallInlined { callee, .. } if *callee == leaf));
        assert!(matches!(
            ops[1],
            DOp::CallIntrinsic {
                which: Intrinsic::ParamI64,
                ..
            }
        ));
        assert!(matches!(ops[2], DOp::CallHostPrim { name, .. } if &**name == "pt_work_flops"));
        // MPI_Barrier sorts first in used_externals (BTreeSet order), so its
        // pseudo id is functions.len() + 0.
        assert!(matches!(
            ops[3],
            DOp::CallLibrary { ext_id, .. } if ext_id.index() == m.functions.len()
        ));
    }

    #[test]
    fn float_bitwise_decodes_to_trap() {
        let mut b = FunctionBuilder::new("f", vec![("x".into(), Type::F64)], Type::F64);
        let v = b.bin(BinOp::And, b.param(0), b.param(0));
        b.ret(Some(v));
        let f = b.finish();
        let prep = PreparedFunction::compute(&f, &pt_analysis::dom::DomTree::dominators(&f));
        let d = decode_function(&f, &prep, &DecodeEnv::of(&Module::new("empty")));
        assert!(
            matches!(&d.blocks[0].insts[0].op, DOp::Trap { message } if message.contains("float"))
        );
    }
}
