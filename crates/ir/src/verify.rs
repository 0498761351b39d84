//! Structural verification of functions and modules.
//!
//! The checks here are purely local/structural: block termination, operand
//! ranges, phi placement and arity, branch-condition typing, call arity
//! against module declarations. The *semantic* SSA property — definitions
//! dominate uses — requires a dominator tree and is verified by
//! `pt_analysis::ssa_verify`.

use crate::function::{BlockId, Function, FunctionId};
use crate::inst::{Callee, InstId, InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
use crate::value::Value;
use std::cell::Cell;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    UnterminatedBlock(BlockId),
    BranchTargetOutOfRange {
        block: BlockId,
        target: BlockId,
    },
    OperandOutOfRange {
        block: BlockId,
        detail: String,
    },
    PhiNotAtBlockStart {
        block: BlockId,
    },
    PhiArityMismatch {
        block: BlockId,
        detail: String,
    },
    NonBoolBranchCondition {
        block: BlockId,
    },
    ReturnTypeMismatch {
        detail: String,
    },
    EmptyFunction,
    CallArityMismatch {
        detail: String,
    },
    UnknownCallee {
        detail: String,
    },
    InstBlockMismatch {
        detail: String,
    },
    /// A result whose type, followed through the operands it is taken
    /// from (`Bin`, `Un`, `Select`), comes back to itself.
    CyclicType(InstId),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnterminatedBlock(b) => write!(f, "block {b} has no terminator"),
            VerifyError::BranchTargetOutOfRange { block, target } => {
                write!(f, "branch in {block} targets nonexistent {target}")
            }
            VerifyError::OperandOutOfRange { block, detail } => {
                write!(f, "operand out of range in {block}: {detail}")
            }
            VerifyError::PhiNotAtBlockStart { block } => {
                write!(f, "phi after non-phi instruction in {block}")
            }
            VerifyError::PhiArityMismatch { block, detail } => {
                write!(f, "phi in {block} inconsistent with predecessors: {detail}")
            }
            VerifyError::NonBoolBranchCondition { block } => {
                write!(f, "cond_br in {block} has non-bool condition")
            }
            VerifyError::ReturnTypeMismatch { detail } => {
                write!(f, "return type mismatch: {detail}")
            }
            VerifyError::EmptyFunction => write!(f, "function has no blocks"),
            VerifyError::CallArityMismatch { detail } => write!(f, "call arity: {detail}"),
            VerifyError::UnknownCallee { detail } => write!(f, "unknown callee: {detail}"),
            VerifyError::InstBlockMismatch { detail } => {
                write!(f, "instruction/block bookkeeping mismatch: {detail}")
            }
            VerifyError::CyclicType(inst) => write!(f, "the type of {inst} depends on itself"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verify one function's structural invariants.
pub fn verify_function(func: &Function) -> Result<(), VerifyError> {
    if func.blocks.is_empty() {
        return Err(VerifyError::EmptyFunction);
    }
    let nblocks = func.blocks.len() as u32;
    let ninsts = func.insts.len() as u32;
    let nparams = func.params.len() as u32;

    let check_value = |v: Value, block: BlockId| -> Result<(), VerifyError> {
        match v {
            Value::Const(_) => Ok(()),
            Value::Param(p) => {
                if p.0 < nparams {
                    Ok(())
                } else {
                    Err(VerifyError::OperandOutOfRange {
                        block,
                        detail: format!("param {} of {}", p.0, nparams),
                    })
                }
            }
            Value::Inst(i) => {
                if i.0 < ninsts {
                    Ok(())
                } else {
                    Err(VerifyError::OperandOutOfRange {
                        block,
                        detail: format!("inst %{} of {}", i.0, ninsts),
                    })
                }
            }
        }
    };

    // `Function::value_type` would never return on such a cycle.
    check_type_sources(func)?;
    let preds = func.predecessors();

    for bid in func.block_ids() {
        let block = func.block(bid);

        // Termination.
        let term = block
            .term
            .as_ref()
            .ok_or(VerifyError::UnterminatedBlock(bid))?;

        // Branch targets and condition typing.
        for target in term.successors() {
            if target.0 >= nblocks {
                return Err(VerifyError::BranchTargetOutOfRange { block: bid, target });
            }
        }
        match term {
            Terminator::CondBr { cond, .. } => {
                check_value(*cond, bid)?;
                if func.value_type(*cond) != Type::Bool {
                    return Err(VerifyError::NonBoolBranchCondition { block: bid });
                }
            }
            Terminator::Ret(v) => match (v, func.ret_ty) {
                (None, Type::Void) => {}
                (Some(val), ty) if ty != Type::Void => {
                    check_value(*val, bid)?;
                    let vt = func.value_type(*val);
                    if vt != ty {
                        return Err(VerifyError::ReturnTypeMismatch {
                            detail: format!("{} returns {vt}, declared {ty}", func.name),
                        });
                    }
                }
                _ => {
                    return Err(VerifyError::ReturnTypeMismatch {
                        detail: format!(
                            "{}: value presence disagrees with declared {}",
                            func.name, func.ret_ty
                        ),
                    })
                }
            },
            _ => {}
        }

        // Instruction membership, phi placement, operand ranges.
        let mut seen_non_phi = false;
        for &iid in &block.insts {
            if iid.0 >= ninsts {
                return Err(VerifyError::InstBlockMismatch {
                    detail: format!("{bid} lists nonexistent %{}", iid.0),
                });
            }
            let inst = func.inst(iid);
            if inst.block != bid {
                return Err(VerifyError::InstBlockMismatch {
                    detail: format!("%{} recorded in {} but listed in {bid}", iid.0, inst.block),
                });
            }
            let is_phi = matches!(inst.kind, InstKind::Phi { .. });
            if is_phi && seen_non_phi {
                return Err(VerifyError::PhiNotAtBlockStart { block: bid });
            }
            if !is_phi {
                seen_non_phi = true;
            }

            let mut operr: Option<VerifyError> = None;
            inst.for_each_operand(|v| {
                if operr.is_none() {
                    if let Err(e) = check_value(v, bid) {
                        operr = Some(e);
                    }
                }
            });
            if let Some(e) = operr {
                return Err(e);
            }

            // Phi incoming blocks must exactly match predecessors.
            if let InstKind::Phi { incomings, .. } = &inst.kind {
                let mut inc: Vec<BlockId> = incomings.iter().map(|(b, _)| *b).collect();
                inc.sort();
                let mut ps = preds[bid.index()].clone();
                ps.sort();
                if inc != ps {
                    return Err(VerifyError::PhiArityMismatch {
                        block: bid,
                        detail: format!("incoming {inc:?} vs preds {ps:?}"),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Reject a result whose type is taken, operand by operand, from itself
/// (`%0 = add %0, 1`). Each instruction's type source is the one operand
/// [`crate::Inst::result_type`] asks about, so the walk is linear.
fn check_type_sources(func: &Function) -> Result<(), VerifyError> {
    const OPEN: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![0u8; func.insts.len()];
    let mut path = Vec::new();
    for start in 0..func.insts.len() {
        let mut i = start;
        let cyclic = loop {
            match state[i] {
                OPEN => break true,
                DONE => break false,
                _ => {}
            }
            state[i] = OPEN;
            path.push(i);
            let source = Cell::new(None);
            func.insts[i].result_type(|v| {
                source.set(v.as_inst());
                Type::Void
            });
            match source.get() {
                Some(next) if next.index() < state.len() => i = next.index(),
                _ => break false,
            }
        };
        if cyclic {
            return Err(VerifyError::CyclicType(InstId(i as u32)));
        }
        for &p in &path {
            state[p] = DONE;
        }
        path.clear();
    }
    Ok(())
}

/// Verify all functions of a module plus inter-procedural call invariants.
pub fn verify_module(module: &Module) -> Result<(), Vec<(String, VerifyError)>> {
    verify_functions(module, module.function_ids())
}

/// Verify the functions `fids` of `module`, in the order given: each one's
/// structure, and the arity of every call it makes. A module whose other
/// functions verified before, with the same headers and externals, then
/// verifies as a whole exactly when this passes.
pub fn verify_functions(
    module: &Module,
    fids: impl IntoIterator<Item = FunctionId>,
) -> Result<(), Vec<(String, VerifyError)>> {
    let mut errors = Vec::new();
    for fid in fids {
        let f = module.function(fid);
        if let Err(e) = verify_function(f) {
            errors.push((f.name.clone(), e));
        }
        for inst in &f.insts {
            if let InstKind::Call { callee, args, .. } = &inst.kind {
                if let Err(e) = check_call(module, callee, args.len()) {
                    errors.push((f.name.clone(), e));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// A call's callee exists and takes `args` arguments. Undeclared
/// externals are allowed: hosts resolve by name, and unknown symbols fail
/// at interpretation time.
fn check_call(module: &Module, callee: &Callee, args: usize) -> Result<(), VerifyError> {
    match callee {
        Callee::Internal(fid) => {
            let Some(callee_fn) = module.functions.get(fid.index()) else {
                return Err(VerifyError::UnknownCallee {
                    detail: format!("internal #{}", fid.0),
                });
            };
            if callee_fn.params.len() != args {
                return Err(VerifyError::CallArityMismatch {
                    detail: format!(
                        "{} expects {}, got {args}",
                        callee_fn.name,
                        callee_fn.params.len()
                    ),
                });
            }
        }
        Callee::External(name) => {
            if let Some(decl) = module.externals.iter().find(|e| &e.name == name) {
                if decl.arity != args {
                    return Err(VerifyError::CallArityMismatch {
                        detail: format!("{name} declared arity {}, got {args}", decl.arity),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{BinOp, CmpPred, Inst};

    #[test]
    fn valid_function_passes() {
        let mut b = FunctionBuilder::new("ok", vec![("n".into(), Type::I64)], Type::I64);
        let s = b.add(b.param(0), 1i64);
        b.ret(Some(s));
        assert!(verify_function(&b.finish_unchecked()).is_ok());
    }

    #[test]
    fn unterminated_block_rejected() {
        let b = FunctionBuilder::new("bad", vec![], Type::Void);
        let f = b.finish_unchecked();
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::UnterminatedBlock(_))
        ));
    }

    #[test]
    fn nonbool_condition_rejected() {
        let mut b = FunctionBuilder::new("bad", vec![("n".into(), Type::I64)], Type::Void);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(b.param(0), t, e); // i64 condition: invalid
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let f = b.finish_unchecked();
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::NonBoolBranchCondition { .. })
        ));
    }

    #[test]
    fn return_type_mismatch_rejected() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::I64);
        b.ret(None);
        let f = b.finish_unchecked();
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::ReturnTypeMismatch { .. })
        ));
    }

    #[test]
    fn operand_out_of_range_rejected() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        b.ret(None);
        let mut f = b.finish_unchecked();
        // Splice in an instruction referencing a nonexistent result.
        f.insts.push(Inst {
            kind: InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::Inst(crate::inst::InstId(99)),
                rhs: Value::int(0),
            },
            block: BlockId(0),
        });
        f.blocks[0].insts.insert(0, crate::inst::InstId(0));
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::OperandOutOfRange { .. })
        ));
    }

    #[test]
    fn self_typed_result_rejected() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::I64);
        let s = b.add(1i64, 2i64);
        let t = b.mul(s, 3i64);
        b.ret(Some(t));
        let mut f = b.finish_unchecked();
        // `%0 = add %1, 2` and `%1 = mul %0, 3`: each typed by the other.
        if let InstKind::Bin { lhs, .. } = &mut f.insts[0].kind {
            *lhs = t;
        }
        assert_eq!(verify_function(&f), Err(VerifyError::CyclicType(InstId(0))));
    }

    #[test]
    fn phi_pred_mismatch_rejected() {
        let mut b = FunctionBuilder::new("bad", vec![("n".into(), Type::I64)], Type::Void);
        let next = b.new_block();
        b.br(next);
        b.switch_to(next);
        let phi = b.phi(Type::I64);
        // Claim an incoming edge from a block that is not a predecessor.
        b.add_incoming(phi, next, Value::int(0));
        b.ret(None);
        let f = b.finish_unchecked();
        assert!(matches!(
            verify_function(&f),
            Err(VerifyError::PhiArityMismatch { .. })
        ));
    }

    #[test]
    fn module_call_arity_checked() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", vec![("a".into(), Type::I64)], Type::Void);
        b.ret(None);
        let leaf = m.add_function(b.finish_unchecked());
        let mut b = FunctionBuilder::new("root", vec![], Type::Void);
        b.call(leaf, vec![], Type::Void); // missing argument
        b.ret(None);
        m.add_function(b.finish_unchecked());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|(f, e)| f == "root" && matches!(e, VerifyError::CallArityMismatch { .. })));
    }

    #[test]
    fn external_arity_checked_when_declared() {
        let mut m = Module::new("m");
        m.declare_external("MPI_Barrier", 1, Type::Void);
        let mut b = FunctionBuilder::new("root", vec![], Type::Void);
        b.call_external("MPI_Barrier", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish_unchecked());
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn loop_function_verifies() {
        let mut b = FunctionBuilder::new("loop", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, iv| {
            let _ = b.cmp(CmpPred::Eq, iv, 3i64);
        });
        b.ret(None);
        assert!(verify_function(&b.finish_unchecked()).is_ok());
    }
}
