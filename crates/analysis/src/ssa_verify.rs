//! Semantic SSA verification: definitions dominate uses.
//!
//! Complements the structural checks in `pt_ir::verify`. For a normal use in
//! block `B` at position `i`, the defining instruction must either be in a
//! strictly dominating block, or earlier in `B`. For a phi incoming value
//! `(P, v)`, the definition of `v` must dominate the *end* of predecessor
//! `P`.

use crate::dom::DomTree;
use pt_ir::{BlockId, Function, InstId, InstKind, Terminator, Value};

/// An SSA dominance violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsaViolation {
    pub func: String,
    pub inst: Option<InstId>,
    pub message: String,
}

/// Check that all uses are dominated by their definitions; `dt` is
/// `func`'s dominator tree.
pub fn verify_ssa(func: &Function, dt: &DomTree) -> Result<(), Vec<SsaViolation>> {
    // Position of each instruction within its block.
    let mut pos_in_block = vec![usize::MAX; func.insts.len()];
    for bid in func.block_ids() {
        for (i, &iid) in func.block(bid).insts.iter().enumerate() {
            pos_in_block[iid.index()] = i;
        }
    }
    let mut violations = Vec::new();

    let check_use = |def: InstId,
                     use_block: BlockId,
                     use_pos: usize,
                     user: Option<InstId>,
                     violations: &mut Vec<SsaViolation>| {
        let def_block = func.inst(def).block;
        let ok = if def_block == use_block {
            pos_in_block[def.index()] < use_pos
        } else {
            dt.dominates(def_block, use_block)
        };
        if !ok {
            violations.push(SsaViolation {
                func: func.name.clone(),
                inst: user,
                message: format!(
                    "use of %{} in {use_block} not dominated by its definition in {def_block}",
                    def.0
                ),
            });
        }
    };

    for bid in func.block_ids() {
        if !dt.is_reachable(bid) {
            continue; // dead code is structurally checked only
        }
        let block = func.block(bid);
        for (i, &iid) in block.insts.iter().enumerate() {
            let inst = func.inst(iid);
            if let InstKind::Phi { incomings, .. } = &inst.kind {
                for (pred, v) in incomings {
                    if let Value::Inst(def) = v {
                        // Must dominate the end of the predecessor: position
                        // beyond any instruction index in that block.
                        check_use(*def, *pred, usize::MAX, Some(iid), &mut violations);
                    }
                }
            } else {
                inst.for_each_operand(|v| {
                    if let Value::Inst(def) = v {
                        check_use(def, bid, i, Some(iid), &mut violations);
                    }
                });
            }
        }
        if let Some(term) = &block.term {
            let use_pos = block.insts.len();
            match term {
                Terminator::CondBr {
                    cond: Value::Inst(def),
                    ..
                } => {
                    check_use(*def, bid, use_pos, None, &mut violations);
                }
                Terminator::Ret(Some(Value::Inst(def))) => {
                    check_use(*def, bid, use_pos, None, &mut violations);
                }
                _ => {}
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{BinOp, CmpPred, FunctionBuilder, Inst, Type, Value};

    fn verify_ssa_of(func: &Function) -> Result<(), Vec<SsaViolation>> {
        verify_ssa(func, &DomTree::dominators(func))
    }

    #[test]
    fn builder_loops_are_ssa_clean() {
        let mut b = FunctionBuilder::new("l", vec![("n".into(), Type::I64)], Type::I64);
        let acc = b.alloca(1i64);
        b.store(acc, Value::int(0));
        b.for_loop(0i64, b.param(0), 1i64, |b, iv| {
            let cur = b.load(acc, Type::I64);
            let nxt = b.add(cur, iv);
            b.store(acc, nxt);
        });
        let out = b.load(acc, Type::I64);
        b.ret(Some(out));
        assert!(verify_ssa_of(&b.finish()).is_ok());
    }

    #[test]
    fn sibling_branch_use_rejected() {
        // Value defined in the then-branch used in the else-branch.
        let mut b = FunctionBuilder::new("bad", vec![("a".into(), Type::I64)], Type::I64);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let c = b.cmp(CmpPred::Lt, b.param(0), 0i64);
        b.cond_br(c, then_bb, else_bb);
        b.switch_to(then_bb);
        let x = b.add(b.param(0), 1i64);
        b.ret(Some(x));
        b.switch_to(else_bb);
        let y = b.add(x, 1i64); // uses value from a non-dominating block
        b.ret(Some(y));
        let f = b.finish_unchecked();
        assert!(pt_ir::verify_function(&f).is_ok(), "structurally fine");
        assert!(verify_ssa_of(&f).is_err(), "semantically broken");
    }

    #[test]
    fn use_before_def_in_same_block_rejected() {
        let mut b = FunctionBuilder::new("bad", vec![], Type::Void);
        b.ret(None);
        let mut f = b.finish_unchecked();
        // %0 = add %1, 1 ; %1 = add 0, 0  (reverse order)
        f.insts.push(Inst {
            kind: pt_ir::InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::Inst(pt_ir::InstId(1)),
                rhs: Value::int(1),
            },
            block: pt_ir::BlockId(0),
        });
        f.insts.push(Inst {
            kind: pt_ir::InstKind::Bin {
                op: BinOp::Add,
                lhs: Value::int(0),
                rhs: Value::int(0),
            },
            block: pt_ir::BlockId(0),
        });
        f.blocks[0].insts = vec![pt_ir::InstId(0), pt_ir::InstId(1)];
        assert!(verify_ssa_of(&f).is_err());
    }

    #[test]
    fn phi_incoming_checked_against_pred_end() {
        // Loop phi referencing the increment defined in the latch is valid.
        let mut b = FunctionBuilder::new("l", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        assert!(verify_ssa_of(&b.finish()).is_ok());
    }
}
