//! Dependency extraction: from taint-run records to per-function
//! dependency structures.
//!
//! A function's (exclusive-cost) dependency structure is the set of
//! monomials of its own non-constant loops. Because the interpreter
//! propagates control-context labels across calls, each recorded loop label
//! set is *already* the fully composed monomial of its enclosing loop nest
//! — including loops in callers (the interprocedural aggregation of §4.3).
//! Constant-trip loops are dropped: they were pruned statically (§5.1).
//!
//! Library-database dependencies (§5.3) are merged in: any function calling
//! a performance-relevant MPI routine gains an implicit `{p}` monomial, and
//! tainted message-count arguments extend it (e.g. a halo exchange of
//! `size²` words yields `{p, size}`).

use crate::volume::DepStructure;
use pt_ir::{Callee, FunctionId, InstKind, Module};
use pt_mpisim::libdb::{self, Routine};
use pt_taint::prepared::PreparedModule;
use pt_taint::{LabelTable, ParamSet, TaintRecords};
use std::collections::BTreeMap;

/// The §5.3 monomial of calling `routine`: `{p}` when its cost depends on
/// the implicit parameter `p` (index `p`, if marked), united with the
/// labels `args()` observed on its arguments when it takes a message count.
fn library_monomial(
    routine: &Routine,
    p: Option<usize>,
    args: impl FnOnce() -> ParamSet,
) -> ParamSet {
    let mut monomial = ParamSet::EMPTY;
    if routine.cost_depends_on_p {
        if let Some(p) = p {
            monomial = monomial.union(ParamSet::single(p));
        }
    }
    if routine.has_count {
        monomial = monomial.union(args());
    }
    monomial
}

/// Extract the dependency structure of every function.
pub fn extract_deps(
    module: &Module,
    prepared: &PreparedModule,
    records: &TaintRecords,
    labels: &LabelTable,
) -> BTreeMap<FunctionId, DepStructure> {
    let mut out: BTreeMap<FunctionId, DepStructure> = BTreeMap::new();
    for f in module.function_ids() {
        out.insert(f, DepStructure::constant());
    }

    // Own loops (skip statically-constant trip counts).
    for ((func, loop_id), rec) in records.loops_by_function() {
        if func.index() >= module.functions.len() {
            continue; // pseudo-ids of externals carry no loops
        }
        if prepared.func(func).loop_is_constant(loop_id) {
            continue;
        }
        if rec.params.is_empty() {
            continue;
        }
        out.get_mut(&func)
            .expect("function present")
            .merge(&DepStructure::from_monomials(vec![rec.params]));
    }

    // Library database: implicit communicator-size dependency and tainted
    // count arguments.
    let p_idx = labels.param_index("p");
    for f in module.function_ids() {
        let mut lib_monomials: Vec<ParamSet> = Vec::new();
        for inst in &module.function(f).insts {
            if let InstKind::Call {
                callee: Callee::External(name),
                ..
            } = &inst.kind
            {
                let Some(routine) = libdb::lookup(name) else {
                    continue;
                };
                let monomial = library_monomial(routine, p_idx, || {
                    let args = records.extern_args.get(&(f, name.clone()));
                    args.copied().unwrap_or(ParamSet::EMPTY)
                });
                if !monomial.is_empty() {
                    lib_monomials.push(monomial);
                }
            }
        }
        if !lib_monomials.is_empty() {
            out.get_mut(&f)
                .expect("function present")
                .merge(&DepStructure::from_monomials(lib_monomials));
        }
    }
    out
}

/// Dependency structures for the external (MPI) routines themselves, keyed
/// by symbol name: implicit `{p}` plus any tainted count arguments observed
/// at any call site.
pub fn extern_deps(
    module: &Module,
    records: &TaintRecords,
    labels: &LabelTable,
) -> BTreeMap<String, DepStructure> {
    let p_idx = labels.param_index("p");
    let mut out = BTreeMap::new();
    for name in module.used_externals() {
        let Some(routine) = libdb::lookup(name) else {
            continue;
        };
        let monomial = library_monomial(routine, p_idx, || {
            records
                .extern_args
                .iter()
                .filter(|((_, ext), _)| ext == name)
                .fold(ParamSet::EMPTY, |acc, (_, args)| acc.union(*args))
        });
        let dep = if monomial.is_empty() {
            DepStructure::constant()
        } else {
            DepStructure::from_monomials(vec![monomial])
        };
        out.insert(name.to_string(), dep);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{FunctionBuilder, Type, Value};
    use pt_mpisim::{MachineConfig, MpiHandler};
    use pt_taint::{InterpConfig, Interpreter, PreparedModule};

    /// kernel(n): loop n; comm(): allreduce; halo(s): send s*s words.
    fn test_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![Value::int(10)], Type::Void);
        });
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("halo", vec![("s".into(), Type::I64)], Type::Void);
        let msg = b.mul(b.param(0), b.param(0));
        b.call_external("MPI_Send", vec![msg], Type::Void);
        b.ret(None);
        let halo = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        let pslot = b.alloca(1i64);
        b.call_external("MPI_Comm_size", vec![pslot], Type::Void);
        b.call(kernel, vec![n], Type::Void);
        b.call(halo, vec![n], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn loop_and_library_deps_extracted() {
        let m = test_module();
        let prepared = PreparedModule::compute(&m);
        let handler = MpiHandler::new(MachineConfig::default().with_ranks(4));
        let out = Interpreter::new(
            &m,
            &prepared,
            handler,
            vec![("size".into(), 6), ("p".into(), 4)],
            InterpConfig::default(),
        )
        .run_named("main", &[])
        .unwrap();

        let deps = extract_deps(&m, &prepared, &out.records, &out.labels);
        let kernel = m.function_by_name("kernel").unwrap();
        let halo = m.function_by_name("halo").unwrap();
        let size_idx = out.labels.param_index("size").unwrap();
        let p_idx = out.labels.param_index("p").unwrap();

        assert!(deps[&kernel].depends_on(size_idx));
        assert!(!deps[&kernel].depends_on(p_idx));
        // halo has no loops but calls MPI_Send with a size²-tainted count:
        // its monomial is {p, size}.
        let hd = &deps[&halo];
        assert!(hd.depends_on(p_idx));
        assert!(hd.depends_on(size_idx));
        assert!(hd.has_multiplicative());

        let ext = extern_deps(&m, &out.records, &out.labels);
        assert!(ext["MPI_Send"].depends_on(p_idx));
        assert!(ext["MPI_Send"].depends_on(size_idx));
        // Environment queries have constant cost (§B1).
        assert!(ext["MPI_Comm_size"].is_constant());
    }

    #[test]
    fn constant_functions_have_empty_deps() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("getter", vec![("d".into(), Type::Ptr)], Type::I64);
        let v = b.load(b.param(0), Type::I64);
        b.ret(Some(v));
        let getter = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let slot = b.alloca(1i64);
        b.store(slot, Value::int(3));
        b.call(getter, vec![slot], Type::I64);
        b.ret(None);
        m.add_function(b.finish());
        let prepared = PreparedModule::compute(&m);
        let handler = MpiHandler::new(MachineConfig::default());
        let out = Interpreter::new(&m, &prepared, handler, vec![], InterpConfig::default())
            .run_named("main", &[])
            .unwrap();
        let deps = extract_deps(&m, &prepared, &out.records, &out.labels);
        assert!(deps[&getter].is_constant());
    }
}
