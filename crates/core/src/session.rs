//! The staged session API (Fig. 2 of the paper, as an object).
//!
//! The pipeline is explicitly staged — static analysis → dynamic taint run
//! → dependency extraction — and the static stage depends only on the
//! module and the library database, not on parameter values. A [`Session`]
//! owns that observation: it memoizes the static artifacts
//! ([`StaticArtifacts`]: the §5.1 classification and the precomputed
//! per-function facts) and lets any number of taint runs — sequential via
//! [`Session::taint_run`] or fanned across threads via
//! [`Session::analyze_batch`] — share them. Related systems lean on the
//! same amortization: the Taint Rabbit caches pre-generated fast paths
//! across runs, and partial-instrumentation tracking computes its scope
//! once and reuses it.
//!
//! ```
//! use perf_taint::{SessionBuilder, PipelineConfig};
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
use crate::incremental::{FunctionArtifactCache, ReuseStats, UnitStore};
use crate::pipeline::PipelineConfig;
use crate::validate::BranchObservations;
use crate::volume::DepStructure;
use pt_analysis::classify::{classify_module, StaticClassification};
use pt_extrap::Restriction;
use pt_ir::{FunctionId, Module};
use pt_mpisim::MpiHandler;
use pt_taint::prepared::PreparedModule;
use pt_taint::{Interpreter, LabelTable, PolicyKind, TaintRecords};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};

/// Parse textual IR into a [`Module`], wrapping failures in [`PtError`].
pub fn parse_module(text: &str) -> Result<Module, PtError> {
    pt_ir::parser::parse_module(text).map_err(PtError::from)
}

/// Everything the static stage (§5.1) produces: computed once per
/// [`Session`], shared by every taint run through an [`Arc`].
pub struct StaticArtifacts {
    /// Interprocedural constant-function classification.
    pub classification: StaticClassification,
    /// Precomputed per-function facts (loops, postdominators, trip counts).
    pub prepared: PreparedModule,
    /// How this stage was obtained, unit by unit: recomputed from scratch,
    /// or assembled from the per-function artifact cache (see
    /// [`crate::incremental`]). Accounting only — never part of any
    /// deterministic summary.
    pub reuse: ReuseStats,
}

/// Builder for a [`Session`]. Defaults to the MPI library database and
/// machine ([`PipelineConfig::with_mpi_defaults`]).
pub struct SessionBuilder<'m> {
    module: &'m Module,
    entry: String,
    config: PipelineConfig,
    units: Option<Arc<FunctionArtifactCache>>,
}

impl<'m> SessionBuilder<'m> {
    pub fn new(module: &'m Module, entry: impl Into<String>) -> SessionBuilder<'m> {
        SessionBuilder {
            module,
            entry: entry.into(),
            config: PipelineConfig::with_mpi_defaults(),
            units: None,
        }
    }

    /// Replace the whole pipeline configuration.
    pub fn config(mut self, config: PipelineConfig) -> SessionBuilder<'m> {
        self.config = config;
        self
    }

    /// Select the taint policy the session's runs execute under (see
    /// [`pt_taint::policy`]). Shorthand for mutating
    /// [`PipelineConfig::interp`]'s `taint_policy`; the default is
    /// [`PolicyKind::from_env`].
    pub fn policy(mut self, policy: PolicyKind) -> SessionBuilder<'m> {
        self.config.interp.taint_policy = policy;
        self
    }

    /// Run the static stage incrementally against a shared per-function
    /// artifact cache instead of recomputing it whole (see
    /// [`crate::incremental`]). [`SessionCache`] wires this automatically.
    pub fn units(mut self, cache: Arc<FunctionArtifactCache>) -> SessionBuilder<'m> {
        self.units = Some(cache);
        self
    }

    pub fn build(self) -> Session<'m> {
        Session {
            module: self.module,
            entry: self.entry,
            config: self.config,
            units: self.units,
            statics: OnceLock::new(),
        }
    }
}

/// A reusable analysis session over one module: the static stage is
/// computed lazily, exactly once, and shared by all taint runs.
pub struct Session<'m> {
    module: &'m Module,
    entry: String,
    config: PipelineConfig,
    units: Option<Arc<FunctionArtifactCache>>,
    statics: OnceLock<Arc<StaticArtifacts>>,
}

impl<'m> Session<'m> {
    pub fn module(&self) -> &'m Module {
        self.module
    }

    pub fn entry(&self) -> &str {
        &self.entry
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Stage 1 (§5.1): classification + precomputed facts, memoized.
    /// The first call computes; later calls (from any thread) are free.
    pub fn static_analysis(&self) -> Arc<StaticArtifacts> {
        self.statics
            .get_or_init(|| {
                let _span = pt_util::trace::span("session", "static_stage");
                let relevant: HashSet<String> =
                    self.config.db.relevant_names().map(String::from).collect();
                Arc::new(match &self.units {
                    // Incremental: assemble from the per-function artifact
                    // cache, recomputing only what the content keys say
                    // changed. Bit-identical to the plain path below.
                    Some(cache) => {
                        cache.compute(self.module, &relevant, self.config.interp.taint_policy)
                    }
                    None => StaticArtifacts {
                        classification: classify_module(self.module, &relevant),
                        prepared: PreparedModule::compute(self.module),
                        reuse: ReuseStats::all_recomputed(self.module.functions.len()),
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
        let mut machine = self.config.machine.clone();
        if let Some((_, p)) = params.iter().find(|(n, _)| n == "p") {
            machine.ranks = u32::try_from(*p).ok().filter(|&r| r > 0).ok_or_else(|| {
                PtError::Config(format!(
                    "parameter p must be a positive rank count, got {p}"
                ))
            })?;
        }
        if machine.ranks == 0 {
            return Err(PtError::Config("machine has zero ranks".into()));
        }
        let ranks = machine.ranks;
        let handler = MpiHandler::new(machine);
        let interp = Interpreter::new(
            self.module,
            &statics.prepared,
            handler,
            params,
            self.config.interp.clone(),
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

        let deps = extract_deps(
            self.module,
            &statics.prepared,
            &out.records,
            &out.labels,
            &self.config.db,
        );
        let ext_deps = extern_deps(self.module, &out.records, &out.labels, &self.config.db);
        let kinds = classify_kinds(
            self.module,
            &statics.classification,
            &out.records,
            &self.config.db,
        );
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
            taint_wall_seconds,
            axis_cache: Mutex::new(Vec::new()),
        })
    }

    /// Seed the memoized static stage with artifacts computed elsewhere
    /// (a [`SessionCache`] hit). No-op if this session already computed
    /// its own. The artifacts must come from a session over the *same
    /// module* — the cache keys by module name to ensure this.
    fn seed_statics(&self, statics: Arc<StaticArtifacts>) {
        let _ = self.statics.set(statics);
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

/// A cross-app cache of static-stage artifacts, keyed by module *content*.
///
/// A [`Session`] memoizes the static stage for *one* module, but its
/// lifetime is tied to the borrow of that module — callers that create
/// sessions on demand (the bench scenario registry runs 12 scenarios over
/// the same two apps; the analysis service accepts modules from many
/// clients) would recompute the §5.1 classification every time. The cache
/// outlives the sessions: [`SessionCache::get_or_compute`] is the single
/// entry point, and the first session obtained for a module content hash
/// computes the artifacts while every later one is seeded with the shared
/// [`Arc`], whatever its lifetime.
///
/// Two granularities of sharing compose here:
/// * **whole-module**: an unchanged module resubmitted under any name hits
///   the content-keyed slot and pays nothing;
/// * **per-function**: an *edited* module misses the slot but assembles
///   its static stage from the [`FunctionArtifactCache`] the sessions
///   share, recomputing only the edited function's invalidation cone (see
///   [`crate::incremental`]) — and persisting units through a
///   [`UnitStore`] when the cache was built
///   [`with_store`](SessionCache::with_store), so reuse survives process
///   restarts.
///
/// One caveat: cached sessions use the default MPI pipeline configuration
/// — custom configurations (e.g. ablated taint policies) change what the
/// static stage may legitimately observe downstream, so build those
/// sessions directly via [`SessionBuilder`] instead.
pub struct SessionCache {
    statics: Mutex<CacheMap>,
    units: Arc<FunctionArtifactCache>,
    /// Maximum number of module-content entries kept in memory (`None` =
    /// unbounded, the pre-LRU behavior).
    capacity: Option<usize>,
    evictions: pt_util::metrics::Counter,
}

/// The module-content map plus the logical clock backing its LRU order.
struct CacheMap {
    entries: BTreeMap<String, CacheEntry>,
    tick: u64,
}

struct CacheEntry {
    slot: Arc<OnceLock<Arc<StaticArtifacts>>>,
    last_used: u64,
}

impl Default for SessionCache {
    fn default() -> SessionCache {
        SessionCache::new()
    }
}

impl SessionCache {
    pub fn new() -> SessionCache {
        SessionCache::with_units(Arc::new(FunctionArtifactCache::new()))
    }

    /// A cache whose per-function artifacts are additionally persisted
    /// through `store`, extending reuse across process restarts.
    pub fn with_store(store: Arc<dyn UnitStore>) -> SessionCache {
        SessionCache::with_units(Arc::new(FunctionArtifactCache::with_store(store)))
    }

    fn with_units(units: Arc<FunctionArtifactCache>) -> SessionCache {
        SessionCache {
            statics: Mutex::new(CacheMap {
                entries: BTreeMap::new(),
                tick: 0,
            }),
            units,
            capacity: None,
            evictions: pt_util::metrics::Counter::new(),
        }
    }

    /// Bound the module map to `entries` distinct module contents,
    /// evicting least-recently-used entries past the cap (each counted in
    /// [`SessionCache::evictions`]). A capacity of 0 is treated as 1 —
    /// the entry being requested is never evicted under its requester.
    /// Eviction is pure degradation: a dropped module recomputes its
    /// static stage on the next request (assembled from the per-function
    /// unit cache, which this bound does not touch).
    pub fn with_capacity(mut self, entries: Option<usize>) -> SessionCache {
        self.capacity = entries.map(|n| n.max(1));
        self
    }

    /// A session over `module` whose static stage is shared with every
    /// other session this cache produced for the same module *content* —
    /// and assembled incrementally from the per-function artifact cache
    /// when the content is new.
    pub fn get_or_compute<'m>(&self, module: &'m Module, entry: &str) -> Session<'m> {
        self.get_or_compute_with_policy(module, entry, PolicyKind::from_env())
    }

    /// [`SessionCache::get_or_compute`] under an explicit taint policy.
    /// The cache slot is keyed by module content *and* policy, so sessions
    /// under different policies never share static artifacts (their unit
    /// keys differ too — see [`crate::incremental`]).
    pub fn get_or_compute_with_policy<'m>(
        &self,
        module: &'m Module,
        entry: &str,
        policy: PolicyKind,
    ) -> Session<'m> {
        let key = format!(
            "{}|{}",
            pt_ir::fingerprint::module_digest(module),
            policy.name()
        );
        let session = SessionBuilder::new(module, entry)
            .policy(policy)
            .units(self.units.clone())
            .build();
        // Reserve the per-key slot under the lock, compute outside it:
        // `OnceLock::get_or_init` blocks concurrent first callers until the
        // winner finishes, so the static stage runs exactly once per key
        // even when many sessions are requested at the same time.
        let slot = {
            let mut map = self.statics.lock().unwrap();
            map.tick += 1;
            let tick = map.tick;
            let slot = {
                let entry = map
                    .entries
                    .entry(key.clone())
                    .or_insert_with(|| CacheEntry {
                        slot: Arc::default(),
                        last_used: 0,
                    });
                entry.last_used = tick;
                entry.slot.clone()
            };
            // LRU bound: evict coldest-first until within capacity. The
            // just-touched key holds the newest tick, so it survives; a
            // concurrently computing entry another thread holds a slot
            // Arc for merely drops out of the map — the computation
            // finishes on the orphaned slot unharmed.
            if let Some(cap) = self.capacity {
                while map.entries.len() > cap {
                    let coldest = map
                        .entries
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone())
                        .expect("map is non-empty past its cap");
                    map.entries.remove(&coldest);
                    self.evictions.inc();
                }
            }
            slot
        };
        let statics = slot.get_or_init(|| session.static_analysis()).clone();
        // No-op when this session was the one that just computed them.
        session.seed_statics(statics);
        session
    }

    /// Cumulative per-function reuse accounting over every static stage
    /// this cache computed (the observable `pt-serve` reports in `stats`).
    pub fn unit_reuse(&self) -> ReuseStats {
        self.units.cumulative()
    }

    /// Module-map entries evicted by the LRU bound so far (0 when
    /// unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// The configured module-map bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of distinct module contents cached so far.
    pub fn len(&self) -> usize {
        self.statics.lock().unwrap().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Pairs of `(app-parameter index, model-axis index)` shared through the
/// per-`Analysis` projection cache.
type AxisMapping = Arc<Vec<(usize, usize)>>;

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
    /// Real wall-clock seconds the dynamic taint run took on the decoded
    /// engine (nondeterministic — excluded from served summaries; see
    /// [`crate::report::EngineTiming`]).
    pub taint_wall_seconds: f64,
    /// Memoized app-parameter → model-axis mappings, keyed by the
    /// `model_params` vector they were computed for.
    axis_cache: Mutex<Vec<(Vec<String>, AxisMapping)>>,
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

    /// Wall seconds the decode stage of the shared static artifacts took
    /// (paid once per module, amortized over every run).
    pub fn decode_seconds(&self) -> f64 {
        self.statics.prepared.decode_seconds
    }

    /// Index of a parameter in taint order.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.param_names.iter().position(|p| p == name)
    }

    /// The mapping from app-parameter indices to model-axis indices,
    /// memoized per `model_params` (every projection method needs it, and
    /// harnesses call those in tight loops over the same axes).
    fn axis_mapping(&self, model_params: &[String]) -> AxisMapping {
        let mut cache = self.axis_cache.lock().unwrap();
        if let Some((_, mapping)) = cache.iter().find(|(key, _)| key == model_params) {
            return mapping.clone();
        }
        let mapping: AxisMapping = Arc::new(
            model_params
                .iter()
                .enumerate()
                .filter_map(|(axis, name)| self.param_index(name).map(|app| (app, axis)))
                .collect(),
        );
        cache.push((model_params.to_vec(), mapping.clone()));
        mapping
    }

    /// A function's dependency structure projected onto the model axes.
    pub fn model_deps(&self, f: FunctionId, model_params: &[String]) -> DepStructure {
        self.deps[&f].remap(&self.axis_mapping(model_params))
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
