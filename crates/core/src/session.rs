//! The staged session API (Fig. 2 of the paper, as an object).
//!
//! The pipeline is explicitly staged — static analysis → dynamic taint run
//! → dependency extraction — and the static stage depends only on the
//! module, not on parameter values or the taint policy. A [`Session`]
//! owns that observation: it memoizes the static artifacts
//! ([`StaticArtifacts`]: the §5.1 classification and the precomputed
//! per-function facts) and lets any number of taint runs —
//! sequential via [`Session::taint_run`] or fanned across threads via
//! [`Session::analyze_batch`] — share them, and sessions over one module
//! may share them too through a [`StaticSlot`]. Related systems lean on
//! the same amortization: the Taint Rabbit caches pre-generated fast paths
//! across runs, and partial-instrumentation tracking computes its scope
//! once and reuses it.
//!
//! ```
//! use perf_taint::SessionBuilder;
//! # use pt_ir::{FunctionBuilder, Module, Type, Value};
//! # let mut m = Module::new("doc");
//! # let mut b = FunctionBuilder::new("main", vec![], Type::Void);
//! # let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
//! # b.for_loop(0i64, n, 1i64, |b, _| {
//! #     b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
//! # });
//! # b.ret(None);
//! # m.add_function(b.finish());
//! let session = SessionBuilder::new(&m, "main").build();
//! let a = session.taint_run(vec![("n".into(), 8)]).unwrap();
//! let b = session.taint_run(vec![("n".into(), 16)]).unwrap();
//! // Both runs shared one static stage:
//! assert!(std::sync::Arc::ptr_eq(&a.statics, &b.statics));
//! ```

use crate::census::{classify_kinds, table2, table3, FuncKind, Table2, Table3};
use crate::deps::{extern_deps, extract_deps};
use crate::error::PtError;
use crate::incremental::{FunctionArtifactCache, ReuseStats};
use crate::validate::BranchObservations;
use crate::volume::DepStructure;
use pt_analysis::classify::{classify_module, StaticClassification};
use pt_extrap::Restriction;
use pt_ir::parser::{Base, Reparsed};
use pt_ir::{FunctionId, Module};
use pt_mpisim::{libdb, MachineConfig, MpiHandler};
use pt_taint::prepared::PreparedModule;
use pt_taint::unit::UnitMemo;
use pt_taint::{InterpConfig, Interpreter, LabelTable, PolicyKind, TaintRecords};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Parse textual IR into a verified [`Module`]. A syntax error is
/// [`PtError::Parse`]; text that parses but fails
/// [`pt_ir::verify_module`] (say, a phi that lacks an incoming edge) is
/// [`PtError::Config`] naming the first issue, so the static stage never
/// decodes unverified IR.
pub fn parse_module(text: &str) -> Result<Module, PtError> {
    reparse_module(text, None).map(|reparsed| reparsed.module)
}

/// [`parse_module`] against a base, an earlier parse of another text.
/// Functions the edit left byte-identical are shared with the base, and
/// only the re-parsed ones are verified, with the calls they make; every
/// other input goes through a full parse, and any error is exactly
/// [`parse_module`]'s (see [`pt_ir::parser::reparse_module`]). The
/// result's [`Reparsed::spans`] let it serve as the next base.
pub fn reparse_module(text: &str, base: Option<Base>) -> Result<Reparsed, PtError> {
    let reparsed = pt_ir::parser::reparse_module(text, base)?;
    let module = &reparsed.module;
    let mut verified = pt_ir::verify_functions(module, reparsed.parsed.iter().copied());
    if verified.is_err() && reparsed.parsed.len() < module.functions.len() {
        // The error names the first issue and counts all of them, so it
        // comes from verifying every function.
        verified = pt_ir::verify_module(module);
    }
    if let Err(errors) = verified {
        let (func, err) = &errors[0];
        return Err(PtError::Config(format!(
            "module failed verification: {func}: {err} ({} issue(s) total)",
            errors.len()
        )));
    }
    Ok(reparsed)
}

/// Everything the static stage (§5.1) produces: computed once per
/// [`StaticSlot`], shared by every taint run through an [`Arc`].
pub struct StaticArtifacts {
    /// Interprocedural constant-function classification.
    pub classification: StaticClassification,
    /// Precomputed per-function facts (loops, postdominators, trip counts).
    pub prepared: PreparedModule,
    /// How this stage was obtained, unit by unit: recomputed from scratch,
    /// or taken from the per-function unit memo (see
    /// [`crate::incremental`]); classification is always recomputed.
    /// Accounting only — never part of any deterministic summary.
    pub reuse: ReuseStats,
}

/// A module's static stage, computed at most once by whichever session
/// asks first and then shared by every session holding the slot.
///
/// The stage depends only on the module, never on parameter values or the
/// taint policy, so sessions over the same module (under any policy) may
/// share one slot: pass it to [`SessionBuilder::statics`]. `OnceLock` makes
/// concurrent first callers wait for one computation. A plain session
/// gets a fresh slot of its own.
pub type StaticSlot = Arc<OnceLock<Arc<StaticArtifacts>>>;

/// Builder for a [`Session`]. Taint runs use the MPI library database
/// ([`pt_mpisim::libdb`]) and the default machine
/// ([`MachineConfig::default`]), whose rank count follows the `p`
/// parameter when present.
pub struct SessionBuilder<'m> {
    module: &'m Module,
    entry: String,
    interp: InterpConfig,
    units: Option<Arc<FunctionArtifactCache>>,
    statics: StaticSlot,
}

impl<'m> SessionBuilder<'m> {
    pub fn new(module: &'m Module, entry: impl Into<String>) -> SessionBuilder<'m> {
        SessionBuilder {
            module,
            entry: entry.into(),
            interp: InterpConfig::default(),
            units: None,
            statics: StaticSlot::default(),
        }
    }

    /// Replace the interpreter configuration the session's taint runs use
    /// (default: [`InterpConfig::default`]).
    pub fn interp(mut self, interp: InterpConfig) -> SessionBuilder<'m> {
        self.interp = interp;
        self
    }

    /// Select the taint policy the session's runs execute under (see
    /// [`pt_taint::policy`]). Shorthand for setting [`InterpConfig::taint`]
    /// to `Some(policy)`; the default is [`PolicyKind::from_env`].
    pub fn policy(mut self, policy: PolicyKind) -> SessionBuilder<'m> {
        self.interp.taint = Some(policy);
        self
    }

    /// Run the static stage against a shared per-function unit memo, so
    /// only units whose content keys are new get computed (see
    /// [`crate::incremental`]).
    pub fn units(mut self, cache: Arc<FunctionArtifactCache>) -> SessionBuilder<'m> {
        self.units = Some(cache);
        self
    }

    /// Share `slot`'s static stage: computed by the first session over it
    /// that asks, reused by every other. The slot must belong to this
    /// module (see [`StaticSlot`]).
    pub fn statics(mut self, slot: StaticSlot) -> SessionBuilder<'m> {
        self.statics = slot;
        self
    }

    pub fn build(self) -> Session<'m> {
        Session {
            module: self.module,
            entry: self.entry,
            interp: self.interp,
            units: self.units,
            statics: self.statics,
        }
    }
}

/// A reusable analysis session over one module: the static stage is
/// computed lazily, exactly once, and shared by all taint runs.
pub struct Session<'m> {
    module: &'m Module,
    entry: String,
    interp: InterpConfig,
    units: Option<Arc<FunctionArtifactCache>>,
    statics: StaticSlot,
}

impl<'m> Session<'m> {
    pub fn module(&self) -> &'m Module {
        self.module
    }

    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// Stage 1 (§5.1): classification + precomputed facts, memoized.
    /// The first call computes; later calls (from any thread) are free.
    pub fn static_analysis(&self) -> Arc<StaticArtifacts> {
        self.statics
            .get_or_init(|| {
                let _span = pt_util::trace::span("session", "static_stage");
                // One path for every session: with a shared memo it
                // recomputes only the units whose content keys changed.
                // Classification reads the loop facts `build` just
                // produced, inside the same `decode` span.
                let _decode = pt_util::trace::span("taint", "decode");
                let memo = self.units.as_deref().map(|cache| cache as &dyn UnitMemo);
                let (prepared, reused) = PreparedModule::build(self.module, memo);
                let classification = classify_module(
                    self.module,
                    |f| {
                        let facts = prepared.func(f);
                        (&facts.forest, &facts.trip_counts[..])
                    },
                    libdb::is_relevant,
                );
                let total = self.module.functions.len();
                Arc::new(StaticArtifacts {
                    classification,
                    prepared,
                    reuse: ReuseStats {
                        total,
                        reused_memory: reused,
                        recomputed: total - reused,
                    },
                })
            })
            .clone()
    }

    /// Stages 2–3 (§5.2–§5.3): one representative taint run plus dependency
    /// extraction, against the memoized static artifacts.
    pub fn taint_run(&self, params: Vec<(String, i64)>) -> Result<Analysis, PtError> {
        if self.module.function_by_name(&self.entry).is_none() {
            return Err(PtError::EntryNotFound {
                entry: self.entry.clone(),
            });
        }
        // The label domain carries at most 64 base labels; reject oversized
        // parameter vectors up front with a configuration error instead of
        // surfacing a mid-run [`pt_taint::InterpError::LabelCapacity`].
        if params.len() > 64 {
            return Err(PtError::Config(format!(
                "at most 64 marked parameters supported, got {}",
                params.len()
            )));
        }
        let statics = self.static_analysis();

        // The machine's rank count follows the `p` parameter when present.
        let mut machine = MachineConfig::default();
        if let Some((_, p)) = params.iter().find(|(n, _)| n == "p") {
            machine.ranks = u32::try_from(*p).ok().filter(|&r| r > 0).ok_or_else(|| {
                PtError::Config(format!(
                    "parameter p must be a positive rank count, got {p}"
                ))
            })?;
        }
        let ranks = machine.ranks;
        let handler = MpiHandler::new(machine);
        let interp = Interpreter::new(
            self.module,
            &statics.prepared,
            handler,
            params,
            self.interp.clone(),
        );
        let exec_span = pt_util::trace::span("session", "exec");
        let t_exec = std::time::Instant::now();
        let out = interp
            .run_named(&self.entry, &[])
            .map_err(|source| PtError::TaintRun {
                entry: self.entry.clone(),
                source,
            })?;
        let taint_wall_seconds = t_exec.elapsed().as_secs_f64();
        // Per-function self-time attribution: scale the profile's
        // simulated exclusive seconds onto the measured exec wall and lay
        // the shares out sequentially inside the exec span. The *shares*
        // are exact (the profile is deterministic); the placement is
        // synthetic — these children attribute duration, not timeline
        // position.
        if let Some(parent) = exec_span.id() {
            let trace_id = pt_util::trace::current_context().trace_id;
            let total = out.profile.total_exclusive();
            if total > 0.0 {
                let exec_start = pt_util::trace::nanos_since_epoch(t_exec);
                let exec_nanos = (taint_wall_seconds * 1e9) as u64;
                let mut by_fn: Vec<_> = out.profile.by_function().into_values().collect();
                by_fn.sort_by_key(|e| e.func);
                let mut cursor = exec_start;
                for entry in by_fn {
                    let share = ((entry.exclusive / total) * exec_nanos as f64) as u64;
                    // Ids past the function table are the interpreter's
                    // pseudo-externals (MPI calls, work intrinsics).
                    let idx = entry.func.index();
                    let name = match self.module.functions.get(idx) {
                        Some(f) => f.name.clone(),
                        None => statics
                            .prepared
                            .decoded
                            .extern_names
                            .get(idx - self.module.functions.len())
                            .cloned()
                            .unwrap_or_else(|| format!("extern#{idx}")),
                    };
                    pt_util::trace::record_span(
                        trace_id,
                        parent,
                        "function",
                        name,
                        cursor,
                        cursor + share,
                    );
                    cursor += share;
                }
            }
        }
        drop(exec_span);

        let deps = extract_deps(self.module, &statics.prepared, &out.records, &out.labels);
        let ext_deps = extern_deps(self.module, &out.records, &out.labels);
        let kinds = classify_kinds(self.module, &statics.classification, &out.records);
        let t2 = table2(
            self.module,
            &statics.prepared,
            &kinds,
            &statics.classification,
            &out.records,
        );

        Ok(Analysis {
            param_names: out.labels.param_names().to_vec(),
            statics,
            kinds,
            deps,
            extern_deps: ext_deps,
            table2: t2,
            records: out.records,
            labels: out.labels,
            taint_run_time: out.time,
            taint_run_core_hours: out.time * ranks as f64 / 3600.0,
        })
    }

    /// Run one taint analysis per parameter set, fanned across worker
    /// threads, all sharing this session's static artifacts. Results keep
    /// the input order; each entry fails independently.
    pub fn analyze_batch(
        &self,
        param_sets: &[Vec<(String, i64)>],
    ) -> Vec<Result<Analysis, PtError>> {
        // Force the static stage once, outside the workers, so no two
        // threads race to compute it redundantly.
        self.static_analysis();

        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        pt_util::parallel_map(param_sets, workers, |params| self.taint_run(params.clone()))
    }
}

/// Everything one taint run learned about the program, on top of the
/// session's shared static artifacts.
pub struct Analysis {
    /// Marked parameter names, in taint-index order.
    pub param_names: Vec<String>,
    /// The session's static stage (shared across runs; compare with
    /// [`Arc::ptr_eq`] to verify memoization).
    pub statics: Arc<StaticArtifacts>,
    pub kinds: Vec<FuncKind>,
    /// Per-function dependency structures (internal functions).
    pub deps: BTreeMap<FunctionId, DepStructure>,
    /// Dependency structures of the MPI routines used.
    pub extern_deps: BTreeMap<String, DepStructure>,
    pub table2: Table2,
    pub records: TaintRecords,
    pub labels: LabelTable,
    /// Simulated duration of the taint run (seconds).
    pub taint_run_time: f64,
    /// Core-hours spent on the taint run (§A3 accounting).
    pub taint_run_core_hours: f64,
}

impl std::fmt::Debug for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analysis")
            .field("param_names", &self.param_names)
            .field("functions", &self.kinds.len())
            .field("taint_run_time", &self.taint_run_time)
            .finish_non_exhaustive()
    }
}

impl Analysis {
    /// The static classification (shared with the session).
    pub fn classification(&self) -> &StaticClassification {
        &self.statics.classification
    }

    /// The precomputed static facts (shared with the session; reusable by
    /// measurement runs without recomputing).
    pub fn prepared(&self) -> &PreparedModule {
        &self.statics.prepared
    }

    /// Index of a parameter in taint order.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.param_names.iter().position(|p| p == name)
    }

    /// The `(app-parameter index, model-axis index)` pairs of the marked
    /// parameters among `model_params`.
    fn axis_mapping(&self, model_params: &[String]) -> Vec<(usize, usize)> {
        model_params
            .iter()
            .enumerate()
            .filter_map(|(axis, name)| self.param_index(name).map(|app| (app, axis)))
            .collect()
    }

    /// Per-function search-space restrictions for the hybrid modeler,
    /// keyed by function name (internal functions and MPI routines).
    pub fn restrictions(
        &self,
        module: &Module,
        model_params: &[String],
    ) -> BTreeMap<String, Restriction> {
        let mapping = self.axis_mapping(model_params);
        let mut out = BTreeMap::new();
        for f in module.function_ids() {
            let restriction = match self.kinds[f.index()] {
                FuncKind::ConstantStatic | FuncKind::ConstantDynamic => Restriction::constant(),
                _ => self.deps[&f].remap(&mapping).to_restriction(),
            };
            // Single clone at the insertion point; the decision above only
            // borrowed the function.
            out.insert(module.function(f).name.clone(), restriction);
        }
        for (name, dep) in &self.extern_deps {
            out.insert(name.clone(), dep.remap(&mapping).to_restriction());
        }
        out
    }

    /// Union dependency structure over all relevant functions, projected
    /// onto the model axes — the input to experiment design (§A2).
    pub fn global_deps(&self, model_params: &[String]) -> DepStructure {
        let mapping = self.axis_mapping(model_params);
        let mut global = DepStructure::constant();
        for dep in self.deps.values() {
            global.merge(&dep.remap(&mapping));
        }
        for dep in self.extern_deps.values() {
            global.merge(&dep.remap(&mapping));
        }
        global
    }

    /// Names of the functions the taint-based filter instruments: executed,
    /// not provably constant (§A3).
    pub fn relevant_functions(&self, module: &Module) -> Vec<String> {
        module
            .function_ids()
            .filter(|f| matches!(self.kinds[f.index()], FuncKind::Kernel | FuncKind::Comm))
            .map(|f| module.function(f).name.clone())
            .collect()
    }

    /// Branch coverage in the shape `validate::detect_segmentation` expects.
    pub fn branch_observations(&self, module: &Module) -> BranchObservations {
        let mut out = BTreeMap::new();
        for ((f, block), rec) in &self.records.branches {
            if f.index() >= module.functions.len() {
                continue;
            }
            let names: Vec<String> = rec
                .params
                .iter()
                .filter_map(|i| self.param_names.get(i).cloned())
                .collect();
            out.insert(
                (module.function(*f).name.clone(), *block),
                (rec.taken_true, rec.taken_false, names),
            );
        }
        out
    }

    /// §4.4: code paths never visited during the representative run, inside
    /// functions that *were* executed — parameter-based algorithm selection
    /// leaves exactly this signature (one side of a tainted branch dead).
    /// Returns `(function name, unvisited block)` pairs.
    pub fn never_visited_paths(&self, module: &Module) -> Vec<(String, pt_ir::BlockId)> {
        let mut out = Vec::new();
        for f in module.function_ids() {
            if !self.records.executed[f.index()] {
                continue; // whole function dead: reported as pruned-dynamic
            }
            let func = module.function(f);
            for (i, visited) in self.records.visited_blocks.func(f).iter().enumerate() {
                if !visited {
                    out.push((func.name.clone(), pt_ir::BlockId(i as u32)));
                }
            }
        }
        out.sort();
        out
    }

    /// Table 3 for a chosen parameter pair.
    pub fn table3(&self, module: &Module, pair: (&str, &str)) -> Table3 {
        table3(
            module,
            &self.statics.prepared,
            &self.kinds,
            &self.deps,
            &self.records,
            &self.param_names,
            pair,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{FunctionBuilder, Type, Value};

    /// The one-shot form: a throwaway session and one taint run.
    fn analyze(
        module: &Module,
        entry: &str,
        params: Vec<(String, i64)>,
    ) -> Result<Analysis, PtError> {
        SessionBuilder::new(module, entry).build().taint_run(params)
    }

    fn tiny_app() -> Module {
        let mut m = Module::new("tiny");
        let mut b = FunctionBuilder::new("getter", vec![("d".into(), Type::Ptr)], Type::I64);
        let v = b.load(b.param(0), Type::I64);
        b.ret(Some(v));
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![Value::int(5)], Type::Void);
        });
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("comm", vec![("n".into(), Type::I64)], Type::Void);
        b.call_external("MPI_Allreduce", vec![b.param(0)], Type::Void);
        b.ret(None);
        let comm = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        let pslot = b.alloca(1i64);
        b.call_external("MPI_Comm_size", vec![pslot], Type::Void);
        let slot = b.alloca(1i64);
        b.store(slot, Value::int(7));
        b.call(kernel, vec![n], Type::Void);
        b.call(comm, vec![n], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn end_to_end_analysis() {
        let m = tiny_app();
        let analysis = analyze(&m, "main", vec![("size".into(), 6), ("p".into(), 4)]).unwrap();

        assert_eq!(analysis.param_names, vec!["size", "p"]);
        let kernel = m.function_by_name("kernel").unwrap();
        let comm = m.function_by_name("comm").unwrap();
        let getter = m.function_by_name("getter").unwrap();
        assert_eq!(analysis.kinds[kernel.index()], FuncKind::Kernel);
        assert_eq!(analysis.kinds[comm.index()], FuncKind::Comm);
        assert_eq!(analysis.kinds[getter.index()], FuncKind::ConstantStatic);

        // Restrictions projected onto ["p", "size"]: kernel → size only.
        let model_params = vec!["p".to_string(), "size".to_string()];
        let r = analysis.restrictions(&m, &model_params);
        assert!(r["getter"].forbids_everything());
        assert!(r["kernel"].allows_mask(0b10), "kernel may use size");
        assert!(!r["kernel"].allows_mask(0b01), "kernel must not use p");
        // comm calls MPI with a size-tainted count → {p, size}.
        assert!(r["comm"].allows_mask(0b11));
        assert!(r["MPI_Allreduce"].allows_mask(0b11));
        // Environment queries are constant (§B1's MPI_Comm_rank finding).
        assert!(r["MPI_Comm_size"].forbids_everything());

        // Global structure: multiplicative (comm's {p·size}).
        let global = analysis.global_deps(&model_params);
        assert!(global.has_multiplicative());

        // Instrumentation list: kernel + comm + main.
        let relevant = analysis.relevant_functions(&m);
        assert!(relevant.contains(&"kernel".to_string()));
        assert!(relevant.contains(&"comm".to_string()));
        assert!(relevant.contains(&"main".to_string()));
        assert!(!relevant.contains(&"getter".to_string()));

        // Census sanity.
        assert_eq!(analysis.table2.pruned_static, 1);
        assert_eq!(analysis.table2.kernels, 2);
        assert_eq!(analysis.table2.comm_routines, 1);
        assert!(analysis.taint_run_core_hours > 0.0);
    }

    #[test]
    fn machine_ranks_follow_p_parameter() {
        let m = tiny_app();
        let analysis = analyze(&m, "main", vec![("size".into(), 2), ("p".into(), 16)]).unwrap();
        // core-hours = time × 16 ranks; just verify the plumbing ran.
        assert!(analysis.taint_run_core_hours > 0.0);
        assert_eq!(analysis.param_index("p"), Some(1));
    }

    #[test]
    fn user_errors_surface_as_pt_error_not_panics() {
        let m = tiny_app();
        // Unknown entry: named in the error, no panic.
        let err = analyze(&m, "no_such_entry", vec![]).unwrap_err();
        assert_eq!(
            err,
            crate::PtError::EntryNotFound {
                entry: "no_such_entry".into()
            }
        );
        // Nonsensical rank counts: Config errors (zero, and u32 overflow —
        // never a silent truncation).
        let err = analyze(&m, "main", vec![("p".into(), 0)]).unwrap_err();
        assert!(matches!(err, crate::PtError::Config(_)), "{err}");
        let err = analyze(&m, "main", vec![("p".into(), u32::MAX as i64 + 2)]).unwrap_err();
        assert!(matches!(err, crate::PtError::Config(_)), "{err}");
    }

    /// Each row of the library database, called once from a `main` that
    /// also loops over `n` (so it is never pruned), with a count tainted by
    /// `n` (or a pointer, for the environment queries): the handler
    /// resolves the row, the static stage keeps `main` for it and `main`
    /// is a communication routine exactly when the row is relevant, and the
    /// routine's own dependency structure holds `p` exactly when its cost
    /// depends on `p` and `n` exactly when it takes a count.
    #[test]
    fn every_library_routine_resolves_classifies_and_depends_as_its_row_says() {
        use pt_analysis::classify::{FunctionClass, KeepReason};
        use pt_mpisim::{CostModel, MPI_ROUTINES};
        use pt_taint::{ExternalHandler, ParamSet};
        let handler = MpiHandler::new(MachineConfig::default());
        for row in &MPI_ROUTINES {
            assert!(handler.resolve(row.name).is_some(), "{}", row.name);
            let mut m = Module::new("one_call");
            let mut b = FunctionBuilder::new("main", vec![], Type::Void);
            let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
            let slot = b.alloca(1i64);
            let arg = match row.cost {
                CostModel::CommSize | CostModel::CommRank => slot,
                _ => n,
            };
            b.call_external(row.name, vec![arg], Type::Void);
            b.for_loop(0i64, n, 1i64, |b, _| {
                b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
            });
            b.ret(None);
            let main = m.add_function(b.finish());

            let params = vec![("n".into(), 3), ("p".into(), 4)];
            let analysis = analyze(&m, "main", params).unwrap();
            let FunctionClass::PotentiallyParametric(reasons) =
                analysis.classification().class(main)
            else {
                panic!("main loops over n");
            };
            let kept_for_row = reasons.contains(&KeepReason::RelevantExternal(row.name.into()));
            assert_eq!(kept_for_row, row.is_relevant(), "{}", row.name);
            let comm = analysis.kinds[main.index()] == FuncKind::Comm;
            assert_eq!(comm, row.is_relevant(), "{}", row.name);
            let mut monomial = ParamSet::EMPTY;
            if row.cost_depends_on_p {
                monomial = monomial.union(ParamSet::single(1));
            }
            if row.has_count {
                monomial = monomial.union(ParamSet::single(0));
            }
            let expected = if monomial.is_empty() {
                DepStructure::constant()
            } else {
                DepStructure::from_monomials(vec![monomial])
            };
            assert_eq!(analysis.extern_deps[row.name], expected, "{}", row.name);
        }
    }
}
