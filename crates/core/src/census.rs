//! Function and loop censuses: the data behind Tables 2 and 3.

use crate::volume::DepStructure;
use pt_analysis::classify::StaticClassification;
use pt_ir::{Callee, FunctionId, InstKind, Module};
use pt_mpisim::libdb;
use pt_taint::prepared::PreparedModule;
use pt_taint::{ParamSet, TaintRecords};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Final classification of one internal function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FuncKind {
    /// Proven constant at compile time (Table 2 "Pruned Statically").
    ConstantStatic,
    /// Not statically provable, but never executed in the representative
    /// run (Table 2 "Pruned Dynamically").
    ConstantDynamic,
    /// Executed, performance-relevant, calls MPI directly.
    Comm,
    /// Executed, performance-relevant computation.
    Kernel,
}

/// Classify every internal function. A function counts as a communication
/// routine when it directly calls a *performance-relevant* library routine
/// (per the §5.3 database) — environment queries like `MPI_Comm_rank` do
/// not make their caller a comm routine.
pub fn classify_kinds(
    module: &Module,
    classification: &StaticClassification,
    records: &TaintRecords,
) -> Vec<FuncKind> {
    module
        .function_ids()
        .map(|f| {
            if classification.class(f).is_constant() {
                FuncKind::ConstantStatic
            } else if !records.executed[f.index()] {
                FuncKind::ConstantDynamic
            } else if calls_relevant_mpi(module, f) {
                FuncKind::Comm
            } else {
                FuncKind::Kernel
            }
        })
        .collect()
}

fn calls_relevant_mpi(module: &Module, f: FunctionId) -> bool {
    module.function(f).insts.iter().any(|i| {
        matches!(
            &i.kind,
            InstKind::Call {
                callee: Callee::External(name),
                ..
            } if libdb::is_relevant(name)
        )
    })
}

/// The Table 2 row for one application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2 {
    /// All functions: internal + MPI routines used.
    pub functions_total: usize,
    pub pruned_static: usize,
    pub pruned_dynamic: usize,
    pub kernels: usize,
    pub comm_routines: usize,
    pub mpi_functions: usize,
    pub loops_total: usize,
    pub loops_pruned_static: usize,
    /// Loops with an observed parameter dependency.
    pub loops_relevant: usize,
}

impl Table2 {
    /// Fraction of functions classified constant (paper: 86.2% / 87.7%).
    pub fn constant_fraction(&self) -> f64 {
        (self.pruned_static + self.pruned_dynamic) as f64 / self.functions_total as f64
    }
}

/// Compute Table 2 for a module.
pub fn table2(
    module: &Module,
    prepared: &PreparedModule,
    kinds: &[FuncKind],
    classification: &StaticClassification,
    records: &TaintRecords,
) -> Table2 {
    let mpi_functions = module
        .used_externals()
        .iter()
        .filter(|e| e.starts_with("MPI_"))
        .count();
    let (loops_total, loops_pruned_static) = classification.module_loop_totals();
    let loops_relevant = records
        .loops_by_function()
        .iter()
        .filter(|((f, l), rec)| {
            f.index() < module.functions.len()
                && !prepared.func(*f).loop_is_constant(*l)
                && !rec.params.is_empty()
        })
        .count();
    Table2 {
        functions_total: module.functions.len() + mpi_functions,
        pruned_static: kinds
            .iter()
            .filter(|k| **k == FuncKind::ConstantStatic)
            .count(),
        pruned_dynamic: kinds
            .iter()
            .filter(|k| **k == FuncKind::ConstantDynamic)
            .count(),
        kernels: kinds.iter().filter(|k| **k == FuncKind::Kernel).count(),
        comm_routines: kinds.iter().filter(|k| **k == FuncKind::Comm).count(),
        mpi_functions,
        loops_total,
        loops_pruned_static,
        loops_relevant,
    }
}

/// One column of Table 3: how many kernels/loops a parameter affects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamCoverage {
    pub functions: usize,
    pub loops: usize,
}

/// Table 3: per-parameter coverage over computational kernels (communication
/// routines excluded, as in the paper), plus the union over a chosen
/// parameter pair.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Table3 {
    pub per_param: BTreeMap<String, ParamCoverage>,
    pub union_pair: (String, String),
    pub union_coverage: ParamCoverage,
    pub total_functions: usize,
    pub total_loops: usize,
}

/// Compute Table 3.
pub fn table3(
    module: &Module,
    prepared: &PreparedModule,
    kinds: &[FuncKind],
    deps: &BTreeMap<FunctionId, DepStructure>,
    records: &TaintRecords,
    param_names: &[String],
    pair: (&str, &str),
) -> Table3 {
    let is_counted =
        |f: FunctionId| kinds[f.index()] == FuncKind::Kernel || kinds[f.index()] == FuncKind::Comm;
    let loop_records = records.loops_by_function();

    let mut per_param = BTreeMap::new();
    let mut union_cov = ParamCoverage::default();
    let pair_idx: Vec<usize> = [pair.0, pair.1]
        .iter()
        .filter_map(|n| param_names.iter().position(|p| p == *n))
        .collect();
    let pair_mask = pair_idx
        .iter()
        .fold(ParamSet::EMPTY, |a, &i| a.union(ParamSet::single(i)));

    for (idx, name) in param_names.iter().enumerate() {
        let mut cov = ParamCoverage::default();
        for f in module.function_ids() {
            if !is_counted(f) || kinds[f.index()] == FuncKind::Comm {
                continue;
            }
            if deps[&f].depends_on(idx) {
                cov.functions += 1;
            }
        }
        for ((f, l), rec) in &loop_records {
            if f.index() >= module.functions.len()
                || prepared.func(*f).loop_is_constant(*l)
                || kinds[f.index()] == FuncKind::Comm
                || !is_counted(*f)
            {
                continue;
            }
            if rec.params.contains(idx) {
                cov.loops += 1;
            }
        }
        per_param.insert(name.clone(), cov);
    }

    let mut total_functions = 0;
    for f in module.function_ids() {
        if !is_counted(f) || kinds[f.index()] == FuncKind::Comm {
            continue;
        }
        total_functions += 1;
        if !deps[&f].params().intersect(pair_mask).is_empty() {
            union_cov.functions += 1;
        }
    }
    let mut total_loops = 0;
    for ((f, l), rec) in &loop_records {
        if f.index() >= module.functions.len()
            || prepared.func(*f).loop_is_constant(*l)
            || kinds[f.index()] == FuncKind::Comm
            || !is_counted(*f)
        {
            continue;
        }
        total_loops += 1;
        if !rec.params.intersect(pair_mask).is_empty() {
            union_cov.loops += 1;
        }
    }

    Table3 {
        per_param,
        union_pair: (pair.0.to_string(), pair.1.to_string()),
        union_coverage: union_cov,
        total_functions,
        total_loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use pt_ir::{FunctionBuilder, Type, Value};
    use pt_mpisim::{MachineConfig, MpiHandler};
    use pt_taint::{InterpConfig, Interpreter};

    fn test_module() -> Module {
        let mut m = Module::new("t");
        // A constant getter.
        let mut b = FunctionBuilder::new("getter", vec![("d".into(), Type::Ptr)], Type::I64);
        let v = b.load(b.param(0), Type::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        // A kernel.
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
        });
        b.ret(None);
        let kernel = m.add_function(b.finish());
        // A comm routine.
        let mut b = FunctionBuilder::new("comm", vec![], Type::Void);
        b.call_external("MPI_Allreduce", vec![Value::int(1)], Type::Void);
        b.ret(None);
        let comm = m.add_function(b.finish());
        // A dead parametric function.
        let mut b = FunctionBuilder::new("dead_io", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        m.add_function(b.finish());
        // main
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        let slot = b.alloca(1i64);
        b.store(slot, Value::int(1));
        let pslot = b.alloca(1i64);
        b.call_external("MPI_Comm_size", vec![pslot], Type::Void);
        b.call(kernel, vec![n], Type::Void);
        b.call(comm, vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn kinds_and_table2() {
        let m = test_module();
        let statics = SessionBuilder::new(&m, "main").build().static_analysis();
        let handler = MpiHandler::new(MachineConfig::default().with_ranks(4));
        let out = Interpreter::new(
            &m,
            &statics.prepared,
            handler,
            vec![("n".into(), 5), ("p".into(), 4)],
            InterpConfig::default(),
        )
        .run_named("main", &[])
        .unwrap();

        let kinds = classify_kinds(&m, &statics.classification, &out.records);
        assert_eq!(kinds[0], FuncKind::ConstantStatic, "getter");
        assert_eq!(kinds[1], FuncKind::Kernel, "kernel");
        assert_eq!(kinds[2], FuncKind::Comm, "comm");
        assert_eq!(kinds[3], FuncKind::ConstantDynamic, "dead_io");
        assert_eq!(kinds[4], FuncKind::Kernel, "main");

        let t2 = table2(
            &m,
            &statics.prepared,
            &kinds,
            &statics.classification,
            &out.records,
        );
        assert_eq!(t2.pruned_static, 1);
        assert_eq!(t2.pruned_dynamic, 1);
        assert_eq!(t2.kernels, 2);
        assert_eq!(t2.comm_routines, 1);
        assert_eq!(t2.mpi_functions, 2);
        assert_eq!(t2.functions_total, 5 + 2);
        // kernel's loop + dead_io's loop = 2 total; relevant = kernel's only.
        assert_eq!(t2.loops_total, 2);
        assert_eq!(t2.loops_relevant, 1);
    }

    #[test]
    fn table3_counts_param_coverage() {
        let m = test_module();
        let statics = SessionBuilder::new(&m, "main").build().static_analysis();
        let handler = MpiHandler::new(MachineConfig::default().with_ranks(4));
        let out = Interpreter::new(
            &m,
            &statics.prepared,
            handler,
            vec![("n".into(), 5), ("p".into(), 4)],
            InterpConfig::default(),
        )
        .run_named("main", &[])
        .unwrap();
        let kinds = classify_kinds(&m, &statics.classification, &out.records);
        let deps = crate::deps::extract_deps(&m, &statics.prepared, &out.records, &out.labels);
        let names: Vec<String> = out.labels.param_names().to_vec();
        let t3 = table3(
            &m,
            &statics.prepared,
            &kinds,
            &deps,
            &out.records,
            &names,
            ("p", "n"),
        );
        assert_eq!(t3.per_param["n"].functions, 1, "kernel depends on n");
        assert_eq!(t3.per_param["n"].loops, 1);
        assert_eq!(t3.union_coverage.functions, 1);
    }
}
