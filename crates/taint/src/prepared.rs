//! Per-function static facts precomputed for the interpreter.
//!
//! The dynamic taint run needs, at every conditional branch, to know (a)
//! which loops this branch can exit (those conditions are the taint *sinks*,
//! §4.1), (b) whether a CFG edge is a loop back edge (for iteration
//! counting), and (c) the immediate postdominator of the branch block (the
//! join point where a control-flow taint scope closes, §5.2 control-flow
//! tainting). All of that is static and function-local:
//! [`PreparedFunction::compute`] derives it from one function body.
//!
//! A [`PreparedModule`] holds those facts for every function next to the
//! decoded, optimized program ([`crate::decode`]). It is assembled by the
//! static stage's one entry point, [`PreparedModule::build`] (see
//! [`crate::unit`]); [`PreparedModule::compute`] is that call without a
//! unit memo. Anything that shares a `PreparedModule` (a
//! `perf_taint::Session`'s static artifacts, the analysis service) shares
//! the decoded program too.

use crate::decode::passes::PassStats;
use crate::decode::DecodedModule;
use pt_analysis::dom::DomTree;
use pt_analysis::loops::{LoopForest, LoopId};
use pt_analysis::scev::{all_trip_counts, TripCount};
use pt_ir::{BlockId, Function, FunctionId, InstKind, Module, Type};
use std::collections::HashMap;
use std::sync::Arc;

/// Static facts about one function.
///
/// Everything in here is a pure function of the function body alone (no
/// module-level inputs), which is what lets a unit memo reuse it per
/// function; a [`PreparedModule`] assembled from memoized units shares it
/// by `Arc`.
#[derive(Debug)]
pub struct PreparedFunction {
    pub forest: LoopForest,
    pub trip_counts: Vec<TripCount>,
    /// For each block: the loops for which this block is an exiting block.
    pub exiting_loops: Vec<Vec<LoopId>>,
    /// Back edges `(latch, header) → loop`.
    pub back_edges: HashMap<(BlockId, BlockId), LoopId>,
    /// For each block: the loop it heads, if any.
    pub header_of: Vec<Option<LoopId>>,
    /// Immediate postdominator per block (None = function exit).
    pub ipostdom: Vec<Option<BlockId>>,
    /// Cached result type per instruction (interpreter dispatch).
    pub result_tys: Vec<Type>,
    /// Whether the operands of arithmetic/compare instruction `i` are f64.
    pub operand_float: Vec<bool>,
}

impl PreparedFunction {
    /// The facts of `func`, given its dominator tree.
    pub fn compute(func: &Function, dominators: &DomTree) -> PreparedFunction {
        let forest = LoopForest::compute(func, dominators);
        let postdom = DomTree::postdominators(func);
        let trip_counts = all_trip_counts(func, &forest);

        let nblocks = func.blocks.len();
        let mut exiting_loops = vec![Vec::new(); nblocks];
        let mut back_edges = HashMap::new();
        let mut header_of = vec![None; nblocks];
        for l in &forest.loops {
            for &b in &l.exiting {
                exiting_loops[b.index()].push(l.id);
            }
            for &latch in &l.latches {
                back_edges.insert((latch, l.header), l.id);
            }
            header_of[l.header.index()] = Some(l.id);
        }
        let ipostdom = (0..nblocks)
            .map(|i| postdom.ipostdom_of(BlockId(i as u32)))
            .collect();

        let mut result_tys = Vec::with_capacity(func.insts.len());
        let mut operand_float = Vec::with_capacity(func.insts.len());
        for inst in &func.insts {
            result_tys.push(inst.result_type(|v| func.value_type(v)));
            let fl = match &inst.kind {
                InstKind::Bin { lhs, .. }
                | InstKind::Cmp { lhs, .. }
                | InstKind::Un { operand: lhs, .. } => func.value_type(*lhs) == Type::F64,
                InstKind::Select { then_v, .. } => func.value_type(*then_v) == Type::F64,
                _ => false,
            };
            operand_float.push(fl);
        }

        PreparedFunction {
            forest,
            trip_counts,
            exiting_loops,
            back_edges,
            header_of,
            ipostdom,
            result_tys,
            operand_float,
        }
    }

    /// Whether the loop's trip count is a compile-time constant (such loops
    /// are pruned statically and their sink records carry no information).
    pub fn loop_is_constant(&self, id: LoopId) -> bool {
        self.trip_counts[id.index()].is_constant()
    }
}

/// Static facts for every function of a module, plus the decoded program.
pub struct PreparedModule {
    /// Shared with the unit memo's entries when one built the module.
    pub functions: Vec<Arc<PreparedFunction>>,
    /// The flat bytecode the interpreter's hot loop executes: decoded,
    /// superinstruction-fused and leaf-call-inlined (frames keep the
    /// decode layout; see [`crate::decode::DecodedFunction::nregs`]).
    pub decoded: DecodedModule,
    /// What the post-decode passes ([`crate::decode::passes`]) did:
    /// fused pairs and inlined calls, summed over the functions.
    pub pass_stats: PassStats,
}

impl PreparedModule {
    /// Loop facts and the optimized program for every function of
    /// `module`: [`PreparedModule::build`] with no unit memo.
    pub fn compute(module: &Module) -> PreparedModule {
        PreparedModule::build(module, None).0
    }

    #[inline]
    pub fn func(&self, id: FunctionId) -> &PreparedFunction {
        &self.functions[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{FunctionBuilder, Type};

    #[test]
    fn loop_facts_prepared() {
        let mut b = FunctionBuilder::new("f", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.for_loop(0i64, 4i64, 1i64, |_, _| {});
        b.ret(None);
        let f = b.finish();
        let p = PreparedFunction::compute(&f, &DomTree::dominators(&f));
        assert_eq!(p.forest.len(), 2);
        assert_eq!(p.back_edges.len(), 2);
        // One loop parametric, one constant.
        let consts: Vec<bool> = (0..2)
            .map(|i| p.loop_is_constant(LoopId(i as u32)))
            .collect();
        assert_eq!(consts.iter().filter(|c| **c).count(), 1);
        // Headers have an exiting entry.
        let total_exiting: usize = p.exiting_loops.iter().map(|v| v.len()).sum();
        assert_eq!(total_exiting, 2);
    }

    #[test]
    fn module_prepared_per_function() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("a", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("b", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        m.add_function(b.finish());
        let p = PreparedModule::compute(&m);
        assert_eq!(p.functions.len(), 2);
        assert_eq!(p.func(FunctionId(0)).forest.len(), 0);
        assert_eq!(p.func(FunctionId(1)).forest.len(), 1);
    }
}
