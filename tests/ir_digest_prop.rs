//! Property test of the structural IR digests behind the unit memo: a
//! seeded single-site edit to one function of mini-LULESH, mini-MILC or a
//! `pt_apps::synth` module must
//!
//! * change that function's digest whenever it changes its printed text,
//! * leave every other function's digest alone, and
//! * change the module digest exactly when the printed module changed.
//!
//! Edits include no-ops (a field set to its current value), so the "only
//! when" half of the last property is exercised too.

use proptest::prelude::*;
use pt_apps::synth::{generate, SynthConfig};
use pt_ir::fingerprint::{function_digest, module_digest};
use pt_ir::printer::{print_function, print_module};
use pt_ir::{
    BinOp, BlockId, Callee, CmpPred, Function, FunctionId, InstId, InstKind, Module, ParamId,
    Terminator, Type, UnOp, Value,
};

/// SplitMix64: a tiny deterministic generator for edit choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

const TYPES: [Type; 5] = [Type::I64, Type::F64, Type::Bool, Type::Ptr, Type::Void];
const EXTERNALS: [&str; 3] = ["pt_work_flops", "pt_work_mem", "MPI_Barrier"];

/// A replacement operand for a slot of instruction `at` (`None` for a
/// terminator). Instruction operands refer only to lower ids so the
/// printer's type inference, which follows first operands, stays acyclic.
fn some_value(rng: &mut Rng, f: &Function, at: Option<usize>) -> Value {
    let below = at.unwrap_or(f.insts.len());
    match rng.below(5) {
        0 => Value::int(rng.below(4) as i64 - 1),
        1 => Value::float(rng.pick(&[0.0, -0.0, 1.0, 2.5])),
        2 => Value::bool(rng.below(2) == 1),
        3 if !f.params.is_empty() => Value::Param(ParamId(rng.below(f.params.len()) as u32)),
        _ if below > 0 => Value::Inst(InstId(rng.below(below) as u32)),
        _ => Value::int(0),
    }
}

/// Operand slots of one instruction.
fn operands(kind: &mut InstKind) -> Vec<&mut Value> {
    match kind {
        InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => vec![lhs, rhs],
        InstKind::Un { operand, .. } => vec![operand],
        InstKind::Select {
            cond,
            then_v,
            else_v,
        } => vec![cond, then_v, else_v],
        InstKind::Alloca { words } => vec![words],
        InstKind::Load { addr, .. } => vec![addr],
        InstKind::Store { addr, value } => vec![addr, value],
        InstKind::Gep { base, index, .. } => vec![base, index],
        InstKind::Call { args, .. } => args.iter_mut().collect(),
        InstKind::Phi { incomings, .. } => incomings.iter_mut().map(|(_, v)| v).collect(),
    }
}

/// Edit one field of instruction `i`: an operand, or the op, predicate,
/// type, stride, callee or phi block the instruction carries.
fn edit_inst(rng: &mut Rng, f: &mut Function, i: usize, nfuncs: usize) {
    let nblocks = f.blocks.len() as u32;
    let value = some_value(rng, f, Some(i));
    let kind = &mut f.insts[i].kind;
    if rng.below(2) == 0 {
        let mut slots = operands(kind);
        if !slots.is_empty() {
            let n = slots.len();
            *slots[rng.below(n)] = value;
            return;
        }
    }
    match kind {
        InstKind::Bin { op, .. } => {
            *op = rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Shl, BinOp::Max])
        }
        InstKind::Un { op, .. } => *op = rng.pick(&[UnOp::Neg, UnOp::Not, UnOp::Sqrt, UnOp::Abs]),
        InstKind::Cmp { pred, .. } => {
            *pred = rng.pick(&[CmpPred::Eq, CmpPred::Ne, CmpPred::Lt, CmpPred::Ge])
        }
        InstKind::Load { ty, .. } => *ty = rng.pick(&TYPES[..4]),
        InstKind::Gep { stride, .. } => *stride = rng.below(4) as u32,
        InstKind::Call { callee, ret_ty, .. } => match rng.below(3) {
            0 => *ret_ty = rng.pick(&TYPES),
            1 => *callee = Callee::External(rng.pick(&EXTERNALS).into()),
            _ => *callee = Callee::Internal(FunctionId(rng.below(nfuncs) as u32)),
        },
        InstKind::Phi { ty, incomings } => {
            if incomings.is_empty() || rng.below(2) == 0 {
                *ty = rng.pick(&TYPES[..4]);
            } else {
                let n = incomings.len();
                incomings[rng.below(n)].0 = BlockId(rng.below(nblocks as usize) as u32);
            }
        }
        InstKind::Select { cond, .. } => *cond = value,
        InstKind::Alloca { words } => *words = value,
        InstKind::Store { value: stored, .. } => *stored = value,
    }
}

/// Edit one block: its label or its terminator.
fn edit_block(rng: &mut Rng, f: &mut Function, b: usize) {
    let nblocks = f.blocks.len();
    let value = some_value(rng, f, None);
    let target = BlockId(rng.below(nblocks) as u32);
    let block = &mut f.blocks[b];
    if rng.below(3) == 0 {
        block.name = rng
            .pick(&[None, Some("entry"), Some("loop")])
            .map(Into::into);
        return;
    }
    let term = match block.term.take() {
        Some(Terminator::Br(_)) => Terminator::Br(target),
        Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        }) => match rng.below(3) {
            0 => Terminator::CondBr {
                cond: value,
                then_bb,
                else_bb,
            },
            1 => Terminator::CondBr {
                cond,
                then_bb: target,
                else_bb,
            },
            _ => Terminator::CondBr {
                cond,
                then_bb,
                else_bb: target,
            },
        },
        Some(Terminator::Ret(v)) => match (v, rng.below(2)) {
            (Some(_), 0) => Terminator::Ret(None),
            (_, _) => Terminator::Ret(Some(value)),
        },
        Some(Terminator::Unreachable) | None => Terminator::Br(target),
    };
    block.term = Some(term);
}

/// Edit the header of `f` without renaming it (a rename would change
/// every caller's text too): a parameter name or type, or the return type.
fn edit_header(rng: &mut Rng, f: &mut Function) {
    let ty = rng.pick(&TYPES);
    match (f.params.is_empty(), rng.below(3)) {
        (false, 0) => {
            let p = rng.below(f.params.len());
            f.params[p].0 = rng.pick(&["n", "size", "q"]).into();
        }
        (false, 1) => {
            let p = rng.below(f.params.len());
            f.params[p].1 = rng.pick(&TYPES[..4]);
        }
        _ => f.ret_ty = ty,
    }
}

/// Apply one seeded single-site edit to `m` and check the three digest
/// properties against the printed forms.
fn check_edit(m: &Module, seed: u64) {
    let mut rng = Rng(seed);
    let fid = FunctionId(rng.below(m.functions.len()) as u32);
    let mut edited = m.clone();
    let nfuncs = m.functions.len();
    let f = edited.function_mut(fid);
    match rng.below(4) {
        0 | 1 if !f.insts.is_empty() => {
            let i = rng.below(f.insts.len());
            edit_inst(&mut rng, f, i, nfuncs)
        }
        2 => {
            let b = rng.below(f.blocks.len());
            edit_block(&mut rng, f, b)
        }
        _ => edit_header(&mut rng, f),
    }

    let name = &m.function(fid).name;
    for g in m.function_ids() {
        let (before, after) = (function_digest(m, g), function_digest(&edited, g));
        if g == fid {
            let text_changed = print_function(m.function(g), Some(m))
                != print_function(edited.function(g), Some(&edited));
            if text_changed {
                assert_ne!(before, after, "seed {seed}: edit to {name} kept its digest");
            }
        } else {
            assert_eq!(
                before,
                after,
                "seed {seed}: edit to {name} moved {}",
                m.function(g).name
            );
        }
    }
    let text_changed = print_module(m) != print_module(&edited);
    assert_eq!(
        module_digest(m) != module_digest(&edited),
        text_changed,
        "seed {seed}: module digest must move exactly when the text does (edit to {name})"
    );
}

fn synth(seed: u64) -> Module {
    generate(&SynthConfig {
        seed,
        num_params: 3,
        num_kernels: 4,
        max_depth: 3,
        param_values: vec![2, 3, 4],
    })
    .app
    .module
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lulesh_edits_move_exactly_their_digests(seed in 0u64..1_000_000) {
        check_edit(&pt_apps::lulesh::build().module, seed);
    }

    #[test]
    fn milc_edits_move_exactly_their_digests(seed in 0u64..1_000_000) {
        check_edit(&pt_apps::milc::build().module, seed);
    }

    #[test]
    fn synth_edits_move_exactly_their_digests(seed in 0u64..1_000_000) {
        check_edit(&synth(seed % 16), seed);
    }
}
