//! Static function classification (§5.1 of the paper).
//!
//! At compile time Perf-Taint identifies all functions whose performance
//! model is *known* to be independent of any program parameter: functions
//! that contain no loops, or only loops with constant, statically resolvable
//! trip counts — unless they (transitively) call library routines known to be
//! performance-relevant (e.g. MPI), in which case they must stay.
//!
//! The classification is interprocedural: it runs bottom-up over the call
//! graph, so a loop-free getter that calls a parametric kernel is *not*
//! pruned. Recursive functions are conservatively kept and flagged (the
//! volume composition of §4.2 requires recursion-freedom).

use crate::callgraph::CallGraph;
use crate::loops::LoopForest;
use crate::scev::TripCount;
use pt_ir::{Callee, FunctionId, InstKind, Module};

/// Why a function was kept (not statically pruned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeepReason {
    /// Contains a loop whose trip count is not a compile-time constant.
    NonConstantLoop,
    /// Calls a performance-relevant external (library database hit).
    RelevantExternal(String),
    /// Calls a function that is itself kept.
    ParametricCallee(String),
    /// Participates in recursion (analysis over-approximates; warn).
    Recursive,
    /// Contains irreducible control flow (analysis over-approximates; warn).
    Irreducible,
}

/// Classification of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionClass {
    /// Provably parameter-independent: prune from instrumentation, model as
    /// constant.
    StaticallyConstant,
    /// Potentially parameter-dependent: keep for the dynamic analysis.
    PotentiallyParametric(Vec<KeepReason>),
}

impl FunctionClass {
    pub fn is_constant(&self) -> bool {
        matches!(self, FunctionClass::StaticallyConstant)
    }
}

/// Per-function loop statistics feeding Table 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopStats {
    pub total: usize,
    pub constant_trip: usize,
}

/// Result of classifying a whole module.
#[derive(Debug, Clone)]
pub struct StaticClassification {
    pub classes: Vec<FunctionClass>,
    pub loop_stats: Vec<LoopStats>,
    /// Functions flagged because of recursion.
    pub recursion_warnings: Vec<FunctionId>,
    /// Functions flagged because of irreducible control flow.
    pub irreducible_warnings: Vec<FunctionId>,
}

impl StaticClassification {
    pub fn class(&self, f: FunctionId) -> &FunctionClass {
        &self.classes[f.index()]
    }

    /// Number of statically pruned (constant) functions.
    pub fn pruned_count(&self) -> usize {
        self.classes.iter().filter(|c| c.is_constant()).count()
    }

    /// Total and constant-trip loop counts over the whole module.
    pub fn module_loop_totals(&self) -> (usize, usize) {
        self.loop_stats
            .iter()
            .fold((0, 0), |(t, c), s| (t + s.total, c + s.constant_trip))
    }
}

/// Classify every function of `module`. `loops(f)` yields function `f`'s
/// loop forest and trip counts: the static stage already derives them for
/// the taint run, so classification reads those facts instead of
/// recomputing them. `is_relevant(name)` asks the library database
/// (§5.3) whether the external symbol `name` is performance-relevant:
/// the MPI routines whose cost depends on the implicit parameter `p` or
/// on a message count, not the environment queries.
pub fn classify_module<'a>(
    module: &Module,
    loops: impl Fn(FunctionId) -> (&'a LoopForest, &'a [TripCount]),
    is_relevant: impl Fn(&str) -> bool,
) -> StaticClassification {
    let _span = pt_util::trace::span("analysis", "classify");
    let n = module.functions.len();
    let cg = CallGraph::build(module);

    let mut classes: Vec<Option<FunctionClass>> = vec![None; n];
    let mut loop_stats = vec![LoopStats::default(); n];
    // Bottom-up, so a caller sees its callees' classes: a caller of a
    // parametric function is parametric. Within an SCC the callee may
    // still be unresolved; recursion reasons already keep both sides.
    for fid in cg.bottom_up_order() {
        let (forest, trips) = loops(fid);
        loop_stats[fid.index()] = LoopStats {
            total: forest.len(),
            constant_trip: trips.iter().filter(|t| t.is_constant()).count(),
        };
        let mut reasons = Vec::new();
        if trips.contains(&TripCount::Unknown) {
            reasons.push(KeepReason::NonConstantLoop);
        }
        if !forest.irreducible.is_empty() {
            reasons.push(KeepReason::Irreducible);
        }
        if cg.is_recursive(fid) {
            reasons.push(KeepReason::Recursive);
        }
        let mut keep = |reason: KeepReason| {
            if !reasons.contains(&reason) {
                reasons.push(reason);
            }
        };
        for inst in &module.function(fid).insts {
            if let InstKind::Call {
                callee: Callee::External(name),
                ..
            } = &inst.kind
            {
                if is_relevant(name) {
                    keep(KeepReason::RelevantExternal(name.clone()));
                }
            }
        }
        // The self edge is already flagged as recursion.
        for &callee in cg.callees[fid.index()].iter().filter(|&&c| c != fid) {
            if let Some(FunctionClass::PotentiallyParametric(_)) = &classes[callee.index()] {
                keep(KeepReason::ParametricCallee(
                    module.function(callee).name.clone(),
                ));
            }
        }
        classes[fid.index()] = Some(if reasons.is_empty() {
            FunctionClass::StaticallyConstant
        } else {
            FunctionClass::PotentiallyParametric(reasons)
        });
    }

    StaticClassification {
        classes: classes.into_iter().map(|c| c.unwrap()).collect(),
        loop_stats,
        recursion_warnings: module
            .function_ids()
            .filter(|&f| cg.is_recursive(f))
            .collect(),
        irreducible_warnings: module
            .function_ids()
            .filter(|&f| !loops(f).0.irreducible.is_empty())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::DomTree;
    use crate::scev::all_trip_counts;
    use pt_ir::{FunctionBuilder, Type, Value};

    fn relevant(name: &str) -> bool {
        ["MPI_Allreduce", "pt_work_flops"].contains(&name)
    }

    fn classify(m: &Module) -> StaticClassification {
        let facts: Vec<(LoopForest, Vec<TripCount>)> = m
            .functions
            .iter()
            .map(|f| {
                let forest = LoopForest::compute(f, &DomTree::dominators(f));
                let trips = all_trip_counts(f, &forest);
                (forest, trips)
            })
            .collect();
        classify_module(
            m,
            |f| (&facts[f.index()].0, &facts[f.index()].1[..]),
            relevant,
        )
    }

    #[test]
    fn loop_free_function_is_constant() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("getter", vec![("d".into(), Type::Ptr)], Type::I64);
        let v = b.load(b.param(0), Type::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        let c = classify(&m);
        assert!(c.classes[0].is_constant());
        assert_eq!(c.pruned_count(), 1);
    }

    #[test]
    fn constant_trip_loop_is_constant() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("unrolled", vec![], Type::Void);
        b.for_loop(0i64, 8i64, 1i64, |_, _| {});
        b.ret(None);
        m.add_function(b.finish());
        let c = classify(&m);
        assert!(c.classes[0].is_constant());
        let (total, konst) = c.module_loop_totals();
        assert_eq!((total, konst), (1, 1));
    }

    #[test]
    fn parametric_loop_is_kept() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        m.add_function(b.finish());
        let c = classify(&m);
        match &c.classes[0] {
            FunctionClass::PotentiallyParametric(rs) => {
                assert!(rs.contains(&KeepReason::NonConstantLoop));
            }
            _ => panic!("kernel must be kept"),
        }
    }

    #[test]
    fn mpi_caller_is_kept_even_without_loops() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("comm", vec![], Type::Void);
        b.call_external(
            "MPI_Allreduce",
            vec![Value::int(0), Value::int(0), Value::int(1)],
            Type::Void,
        );
        b.ret(None);
        m.add_function(b.finish());
        let c = classify(&m);
        match &c.classes[0] {
            FunctionClass::PotentiallyParametric(rs) => {
                assert!(rs
                    .iter()
                    .any(|r| matches!(r, KeepReason::RelevantExternal(n) if n == "MPI_Allreduce")));
            }
            _ => panic!("comm must be kept"),
        }
    }

    #[test]
    fn irrelevant_external_does_not_keep() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("logger", vec![], Type::Void);
        b.call_external("print_banner", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let c = classify(&m);
        assert!(c.classes[0].is_constant());
    }

    #[test]
    fn parametric_callee_propagates_to_caller() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("wrapper", vec![("n".into(), Type::I64)], Type::Void);
        b.call(kernel, vec![b.param(0)], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let c = classify(&m);
        assert!(!c.classes[0].is_constant());
        match &c.classes[1] {
            FunctionClass::PotentiallyParametric(rs) => {
                assert!(rs
                    .iter()
                    .any(|r| matches!(r, KeepReason::ParametricCallee(n) if n == "kernel")));
            }
            _ => panic!("wrapper must be kept"),
        }
    }

    #[test]
    fn recursion_is_flagged() {
        let mut m = Module::new("m");
        let self_id = pt_ir::FunctionId(0);
        let mut b = FunctionBuilder::new("rec", vec![("n".into(), Type::I64)], Type::Void);
        b.call(self_id, vec![b.param(0)], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let c = classify(&m);
        assert!(!c.classes[0].is_constant());
        assert_eq!(c.recursion_warnings.len(), 1);
    }

    #[test]
    fn deep_call_chain_propagation() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let mut prev = kernel;
        for i in 0..5 {
            let mut b =
                FunctionBuilder::new(format!("w{i}"), vec![("n".into(), Type::I64)], Type::Void);
            b.call(prev, vec![b.param(0)], Type::Void);
            b.ret(None);
            prev = m.add_function(b.finish());
        }
        let c = classify(&m);
        assert_eq!(c.pruned_count(), 0);
    }
}
