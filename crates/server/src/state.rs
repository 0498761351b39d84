//! Request routing and shared server state.
//!
//! One [`ServerState`] is shared by every worker thread. It owns the
//! persistent [`Store`], one table of served modules keyed by content
//! hash, each next to the slot its static stage is computed in (at most
//! once per module *per process*, under any policy), and the unit memo
//! every static stage shares. The store keeps what a process cannot
//! rebuild from memory: submitted modules, taint-run answers and model
//! fits. `static_analysis` is answered from the module's slot alone.
//!
//! Every handler returns `Result<Value, ServeError>`; the connection layer
//! wraps dispatch in `catch_unwind`, so a bug in a handler costs one error
//! response, never the server.

use crate::ops::{Ops, METHODS};
use crate::protocol::{ServeError, PROTOCOL_MINOR, PROTOCOL_VERSION};
use crate::store::{Store, StoreKey};
use perf_taint::report::{analysis_summary, static_summary};
use perf_taint::{
    parse_module, reparse_module, FunctionArtifactCache, PolicyKind, PtError, Session,
    SessionBuilder, StaticSlot,
};
use pt_extrap::{fit_multi_param, MeasurementSet, Restriction, SearchSpace};
use pt_ir::fingerprint::Digest;
use pt_ir::parser::{Base, Spans};
use pt_ir::Module;
use pt_util::trace::SpanEvent;
use serde::json::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A method handler in the dispatch table.
type Handler = fn(&ServerState, &Value) -> Result<Value, ServeError>;

/// Per-policy taint-run counters (protocol v1.4): one slot per
/// [`PolicyKind`], indexed in [`PolicyKind::ALL`] order.
#[derive(Default)]
struct PolicyTotals {
    runs: [AtomicU64; PolicyKind::ALL.len()],
}

impl PolicyTotals {
    fn record(&self, policy: PolicyKind) {
        let idx = PolicyKind::ALL.iter().position(|&p| p == policy).unwrap();
        self.runs[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            PolicyKind::ALL
                .iter()
                .zip(&self.runs)
                .map(|(p, n)| {
                    (
                        p.name().to_string(),
                        Value::int(n.load(Ordering::Relaxed) as i64),
                    )
                })
                .collect(),
        )
    }
}

/// Most parameters a `fit_model` request may name. The search's
/// candidate pool grows as 4^m − 1 with `m` parameters and its hypotheses
/// as the pool's square: 2,017 hypotheses at 3 parameters, 523,777 at 5.
pub const MAX_FIT_PARAMS: usize = 3;

/// Most points a `fit_model` request may carry. Every hypothesis costs
/// O(points²) (one leave-one-out fold per point, each over every other
/// point). A fit at both limits (an 8×8×8 grid) takes about 1.2 s in a
/// release build on one core of a 2-vCPU Intel Xeon host.
pub const MAX_FIT_POINTS: usize = 512;

/// Stage-name cardinality bound of the sampled profile: stage names come
/// from our own instrumentation (a small fixed set once per-function
/// spans are folded, see [`profile_stage`]), but the bound makes the
/// memory ceiling explicit no matter what future spans appear.
const MAX_PROFILE_STAGES: usize = 64;

/// The sampled-profile stage a span counts under: its name, except that
/// the per-function spans (`unit` computes and memo hits, `function` exec
/// shares) are named after a function each, so they fold under their
/// category instead. The `trace` method still reports them by name.
fn profile_stage(ev: &SpanEvent) -> &str {
    match ev.cat {
        "unit" | "function" => ev.cat,
        _ => ev.name.as_ref(),
    }
}

/// One stage's aggregate across every sampled request (protocol v1.4).
#[derive(Debug, Clone, Copy, Default)]
struct StageTotal {
    count: u64,
    total_ms: f64,
    max_ms: f64,
}

/// The sampled always-on request profile (protocol v1.4): every Nth
/// request runs under the request tracer, and its per-stage wall totals
/// are folded into this bounded in-memory aggregate. Unlike the `trace`
/// method (client opts in per request), this keeps a continuous
/// low-overhead picture of where *typical* request time goes; `metrics`
/// reports it.
#[derive(Default)]
struct SampledProfile {
    /// Requests seen by the sampling decision (traced or not).
    seen: AtomicU64,
    /// Requests actually traced into the profile.
    sampled: AtomicU64,
    stages: Mutex<BTreeMap<String, StageTotal>>,
}

impl SampledProfile {
    /// Fold one traced request's stage totals. The root span `traced`
    /// opens is the `request` stage: it covers the whole request.
    fn record(&self, events: &[SpanEvent]) {
        let stages = pt_util::trace::stage_totals_ms_by(events, profile_stage);
        self.sampled.fetch_add(1, Ordering::Relaxed);
        let mut map = self.stages.lock().unwrap();
        for (name, ms) in stages {
            if map.len() >= MAX_PROFILE_STAGES && !map.contains_key(&name) {
                continue; // bounded: never grow past the cap
            }
            let slot = map.entry(name).or_default();
            slot.count += 1;
            slot.total_ms += ms;
            slot.max_ms = slot.max_ms.max(ms);
        }
    }

    fn to_json(&self, sample_every: Option<u64>) -> Value {
        let stages = self
            .stages
            .lock()
            .unwrap()
            .iter()
            .map(|(name, t)| {
                (
                    name.clone(),
                    Value::obj(vec![
                        ("count", Value::int(t.count as i64)),
                        ("total_ms", Value::Num(t.total_ms)),
                        ("mean_ms", Value::Num(t.total_ms / t.count.max(1) as f64)),
                        ("max_ms", Value::Num(t.max_ms)),
                    ]),
                )
            })
            .collect();
        Value::obj(vec![
            (
                "sample_every",
                match sample_every {
                    Some(n) => Value::int(n as i64),
                    None => Value::Null,
                },
            ),
            (
                "requests_seen",
                Value::int(self.seen.load(Ordering::Relaxed) as i64),
            ),
            (
                "requests_sampled",
                Value::int(self.sampled.load(Ordering::Relaxed) as i64),
            ),
            ("stages", Value::Obj(stages)),
        ])
    }
}

/// A submitted text, the module parsed from it and where its functions
/// sit: the parts of a [`Base`].
struct Submission {
    text: String,
    module: Arc<Module>,
    spans: Spans,
}

/// A served module and the slot its static stage is computed in, once,
/// for every request under every policy.
struct Served {
    module: Arc<Module>,
    statics: StaticSlot,
}

impl Served {
    fn new(module: Arc<Module>) -> Served {
        Served {
            module,
            statics: StaticSlot::default(),
        }
    }
}

/// Everything the worker threads share.
pub struct ServerState {
    store: Store,
    /// Served modules by the content hash their key names (loaded lazily
    /// from the store, so a restarted server can serve hashes submitted to
    /// a previous process). Never evicted.
    modules: Mutex<HashMap<Digest, Arc<Served>>>,
    /// The last module `submit_module` accepted, with its text: the base
    /// the next submission is parsed against, so an edit re-parses only
    /// the functions it changed. One slot: a submission of another module
    /// misses (a full parse, after comparing the texts up to where they
    /// part) and takes the slot.
    last_submit: Mutex<Option<Arc<Submission>>>,
    /// The per-function unit memo every static stage runs against, so an
    /// edited module recomputes only the edited function's cone.
    units: Arc<FunctionArtifactCache>,
    /// Worker threads available to `analyze_batch` fan-out.
    pub workers: usize,
    /// Connection-queue bound (reported in `stats`).
    pub queue_capacity: usize,
    requests: AtomicU64,
    /// Responses answered from the persistent store without touching the
    /// pipeline (the acceptance observable for warm requests).
    served_from_store: AtomicU64,
    /// Operational self-observation: uptime, queue depth, shed counts,
    /// per-method counters and latency histograms (read out by `metrics`).
    ops: Ops,
    /// Overload stance of the accept path: `true` sheds arrivals at a
    /// full queue (see [`crate::ServerConfig::shed`]), `false` blocks.
    pub shed: bool,
    /// Serializes `analyze_batch` fan-outs: each batch uses the full
    /// worker budget, so concurrent batches must queue here rather than
    /// multiply to workers² simultaneous taint runs.
    batch_gate: Mutex<()>,
    stopping: AtomicBool,
    /// Close connections idle longer than this (keep-alive limit).
    pub idle_timeout: Option<std::time::Duration>,
    /// Close connections after serving this many requests.
    pub max_requests_per_connection: Option<u64>,
    /// Sampled always-on tracing (protocol v1.4): every Nth request is
    /// traced into the bounded per-stage sample profile. `None` = off.
    pub trace_sample_every: Option<u64>,
    /// Per-policy taint-run counters (protocol v1.4).
    policy_runs: PolicyTotals,
    /// The bounded per-stage aggregate behind `trace_sample_every`.
    sampled: SampledProfile,
}

impl ServerState {
    pub fn new(store: Store, workers: usize, queue_capacity: usize) -> ServerState {
        ServerState {
            store,
            modules: Mutex::new(HashMap::new()),
            last_submit: Mutex::new(None),
            units: Arc::default(),
            workers: workers.max(1),
            queue_capacity,
            requests: AtomicU64::new(0),
            served_from_store: AtomicU64::new(0),
            ops: Ops::new(),
            shed: false,
            batch_gate: Mutex::new(()),
            stopping: AtomicBool::new(false),
            idle_timeout: None,
            max_requests_per_connection: None,
            trace_sample_every: None,
            policy_runs: PolicyTotals::default(),
            sampled: SampledProfile::default(),
        }
    }

    /// Set the connection keep-alive limits (see [`crate::ServerConfig`]).
    pub fn with_keepalive_limits(
        mut self,
        idle_timeout: Option<std::time::Duration>,
        max_requests_per_connection: Option<u64>,
    ) -> ServerState {
        self.idle_timeout = idle_timeout;
        self.max_requests_per_connection = max_requests_per_connection;
        self
    }

    /// Set the overload stance (see [`crate::ServerConfig::shed`]).
    pub fn with_shedding(mut self, shed: bool) -> ServerState {
        self.shed = shed;
        self
    }

    /// Trace every Nth request into the sampled profile `metrics` reports
    /// (`None` disables sampling; see [`crate::handle_line`]).
    pub fn with_trace_sampling(mut self, every: Option<u64>) -> ServerState {
        self.trace_sample_every = every.map(|n| n.max(1));
        self
    }

    /// Sampling decision for one incoming request: true every Nth call.
    /// (The first request is sampled, so short-lived servers still leave
    /// a profile behind.)
    pub fn sampling_due(&self) -> bool {
        let Some(every) = self.trace_sample_every else {
            return false;
        };
        self.sampled.seen.fetch_add(1, Ordering::Relaxed) % every == 0
    }

    /// Fold one sampled request's per-stage totals (from the spans it
    /// recorded) into the bounded profile.
    pub fn record_sample(&self, events: &[SpanEvent]) {
        self.sampled.record(events);
    }

    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Operational metrics (the acceptor and tests read/poke these too).
    pub fn ops(&self) -> &Ops {
        &self.ops
    }

    /// Has a `shutdown` request been served?
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    /// Route one request. Counts it (call count before the handler runs,
    /// latency + error count after), then dispatches by method name.
    /// Unrecognized names all share one bounded `unknown` metrics slot —
    /// cardinality must stay fixed no matter what clients send.
    pub fn dispatch(&self, method: &str, params: &Value) -> Result<Value, ServeError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let handler: Option<Handler> = match method {
            "submit_module" => Some(ServerState::submit_module),
            "static_analysis" => Some(ServerState::static_analysis),
            "taint_run" => Some(ServerState::taint_run),
            "analyze_batch" => Some(ServerState::analyze_batch),
            "fit_model" => Some(ServerState::fit_model),
            "trace" => Some(ServerState::trace_request),
            "stats" => Some(|state, _| state.stats()),
            "metrics" => Some(|state, _| state.metrics()),
            "shutdown" => Some(|state, _| state.shutdown()),
            _ => None,
        };
        debug_assert!(
            handler.is_none() || METHODS.contains(&method),
            "dispatch table and ops::METHODS must agree on '{method}'"
        );
        let slot = self
            .ops
            .method(if handler.is_some() { method } else { "unknown" });
        slot.calls.inc();
        let started = Instant::now();
        let outcome = match handler {
            Some(run) => run(self, params),
            None => Err(ServeError::BadRequest(format!("unknown method '{method}'"))),
        };
        slot.latency.record(started.elapsed());
        if outcome.is_err() {
            slot.errors.inc();
        }
        outcome
    }

    // ---- submit_module ---------------------------------------------------

    /// Parse, verify, and persist a module; the returned content hash is
    /// how every later request names it. The text is parsed against the
    /// last accepted submission ([`reparse_module`]).
    fn submit_module(&self, params: &Value) -> Result<Value, ServeError> {
        let text = require_str(params, "text")?;
        // Protocol v1.4: an optional `policy` is validated and echoed, so
        // a client can probe support before running anything.
        let policy = policy_of(params)?;
        let last = self.last_submit.lock().unwrap().clone();
        let base = last.as_deref().map(|last| Base {
            text: &last.text,
            module: &last.module,
            spans: &last.spans,
        });
        let reparsed = reparse_module(text, base).map_err(ServeError::from)?;
        let module = Arc::new(reparsed.module);
        *self.last_submit.lock().unwrap() = Some(Arc::new(Submission {
            text: text.to_string(),
            module: module.clone(),
            spans: reparsed.spans,
        }));
        let key = StoreKey::module(text);
        let known = self.store.contains(key.kind, &key.hash);
        if !known {
            self.store
                .put(key.kind, &key.hash, text)
                .map_err(|e| ServeError::Internal(format!("store write failed: {e}")))?;
        }
        let functions = module.functions.len();
        let name = module.name.clone();
        // A resubmitted module keeps its entry, and with it the static
        // stage already computed for it.
        self.modules
            .lock()
            .unwrap()
            .entry(digest_of(&key.hash)?)
            .or_insert_with(|| Arc::new(Served::new(module)));
        Ok(Value::obj(vec![
            ("module", Value::str(&key.hash)),
            ("name", Value::str(name)),
            ("functions", Value::int(functions as i64)),
            ("known", Value::Bool(known)),
            ("policy", Value::str(policy.name())),
        ]))
    }

    /// Resolve a module key: in-memory first, then the persistent store
    /// (how a restarted server recovers modules submitted to an earlier
    /// process).
    fn served(&self, key: Digest) -> Result<Arc<Served>, ServeError> {
        if let Some(served) = self.modules.lock().unwrap().get(&key) {
            return Ok(served.clone());
        }
        let hash = key.hex();
        let k = StoreKey::module_by_hash(&hash).ok_or_else(not_a_module_hash)?;
        let text = self.store.get(k.kind, &k.hash).ok_or_else(|| {
            ServeError::BadRequest(format!("unknown module '{hash}' (submit_module it first)"))
        })?;
        let module = parse_module(&text).map_err(|e| {
            ServeError::Internal(format!("stored module '{hash}' no longer parses: {e}"))
        })?;
        let served = Arc::new(Served::new(Arc::new(module)));
        Ok(self
            .modules
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(served)
            .clone())
    }

    /// A session over `served` that shares its static-stage slot and the
    /// unit memo.
    fn session<'m>(&self, served: &'m Served, entry: &str, policy: PolicyKind) -> Session<'m> {
        SessionBuilder::new(&served.module, entry)
            .policy(policy)
            .units(self.units.clone())
            .statics(served.statics.clone())
            .build()
    }

    // ---- static_analysis -------------------------------------------------

    /// The module's static stage, computed once in its slot and shared by
    /// every entry and policy, so a warm request touches no file and
    /// builds no session. The entry is still validated on every request.
    fn static_analysis(&self, params: &Value) -> Result<Value, ServeError> {
        let module_key = require_module_key(params)?;
        let entry = require_str(params, "entry")?;
        let policy = policy_of(params)?;
        let served = self.served(module_key)?;
        if served.module.function_by_name(entry).is_none() {
            return Err(ServeError::Pt(PtError::EntryNotFound {
                entry: entry.to_string(),
            }));
        }
        let statics = match served.statics.get() {
            Some(statics) => statics.clone(),
            // Only a cold slot needs a session.
            None => self.session(&served, entry, policy).static_analysis(),
        };
        Ok(static_summary(&statics, &served.module))
    }

    // ---- taint_run -------------------------------------------------------

    fn taint_run(&self, params: &Value) -> Result<Value, ServeError> {
        let module_key = require_module_key(params)?;
        let entry = require_str(params, "entry")?;
        let policy = policy_of(params)?;
        let run_params = param_pairs(params.get("params"))?;
        self.taint_run_inner(module_key, entry, &run_params, policy)
    }

    fn taint_run_inner(
        &self,
        module_key: Digest,
        entry: &str,
        run_params: &[(String, i64)],
        policy: PolicyKind,
    ) -> Result<Value, ServeError> {
        let key = StoreKey::analysis(
            &module_key.hex(),
            entry,
            &canonical_params(run_params),
            policy.name(),
        );
        if let Some(value) = self.stored(&key) {
            return Ok(value);
        }
        let served = self.served(module_key)?;
        let analysis = self
            .session(&served, entry, policy)
            .taint_run(run_params.to_vec())
            .map_err(ServeError::from)?;
        self.policy_runs.record(policy);
        let summary = analysis_summary(&analysis, &served.module);
        self.persist(&key, &summary);
        Ok(summary)
    }

    // ---- analyze_batch ---------------------------------------------------

    /// One taint run per parameter set, fanned across this server's worker
    /// budget. Each entry succeeds or fails independently, exactly like
    /// `Session::analyze_batch` — and each entry goes through the same
    /// persistent cache as a lone `taint_run`.
    fn analyze_batch(&self, params: &Value) -> Result<Value, ServeError> {
        let module_key = require_module_key(params)?;
        let entry = require_str(params, "entry")?;
        let policy = policy_of(params)?;
        let sets = params
            .get("param_sets")
            .and_then(Value::as_arr)
            .ok_or_else(|| ServeError::BadRequest("missing array 'param_sets'".into()))?;
        let parsed: Vec<Result<Vec<(String, i64)>, ServeError>> =
            sets.iter().map(|s| param_pairs(Some(s))).collect();
        // Resolve the module once up front so a bad hash fails the whole
        // request instead of failing N times in parallel.
        self.served(module_key)?;
        // One batch fans out at a time; the lock is not poisoned in
        // practice (parallel_map catches worker panics), but recover
        // rather than unwrap to keep the no-panics-across-the-wire rule.
        let _fan_out = self
            .batch_gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let results: Vec<Value> = pt_util::parallel_map(&parsed, self.workers, |set| {
            let outcome = set
                .clone()
                .and_then(|run| self.taint_run_inner(module_key, entry, &run, policy));
            match outcome {
                Ok(result) => Value::obj(vec![("ok", Value::Bool(true)), ("result", result)]),
                Err(e) => Value::obj(vec![("ok", Value::Bool(false)), ("error", e.to_json())]),
            }
        });
        Ok(Value::obj(vec![
            ("entries", Value::int(results.len() as i64)),
            ("results", Value::Arr(results)),
        ]))
    }

    // ---- fit_model -------------------------------------------------------

    /// Fit an Extra-P model to measurements, under an optional taint-derived
    /// restriction (§4.5). Cached by the canonical request content. A
    /// request past [`MAX_FIT_PARAMS`] or [`MAX_FIT_POINTS`] is a
    /// `bad_request`, whatever the store holds.
    fn fit_model(&self, params: &Value) -> Result<Value, ServeError> {
        let names: Vec<String> = params
            .get("param_names")
            .and_then(Value::as_arr)
            .ok_or_else(|| ServeError::BadRequest("missing array 'param_names'".into()))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(String::from)
                    .ok_or_else(|| ServeError::BadRequest("'param_names' must be strings".into()))
            })
            .collect::<Result<_, _>>()?;
        if names.is_empty() {
            return Err(ServeError::BadRequest("'param_names' is empty".into()));
        }
        if names.len() > MAX_FIT_PARAMS {
            return Err(ServeError::BadRequest(format!(
                "'param_names' has {} entries; fit_model takes at most {MAX_FIT_PARAMS} parameters",
                names.len()
            )));
        }
        let points = params
            .get("points")
            .and_then(Value::as_arr)
            .ok_or_else(|| ServeError::BadRequest("missing array 'points'".into()))?;
        if points.len() > MAX_FIT_POINTS {
            return Err(ServeError::BadRequest(format!(
                "'points' has {} entries; fit_model takes at most {MAX_FIT_POINTS} points",
                points.len()
            )));
        }
        let mut ms = MeasurementSet::new(names.clone());
        for (i, point) in points.iter().enumerate() {
            let coords = f64_array(point.get("coords"), &format!("points[{i}].coords"))?;
            let reps = f64_array(point.get("reps"), &format!("points[{i}].reps"))?;
            if coords.len() != names.len() {
                return Err(ServeError::BadRequest(format!(
                    "points[{i}].coords has {} values for {} parameter(s)",
                    coords.len(),
                    names.len()
                )));
            }
            if reps.is_empty() {
                return Err(ServeError::BadRequest(format!("points[{i}].reps is empty")));
            }
            ms.push(coords, reps);
        }
        if ms.points.is_empty() {
            return Err(ServeError::BadRequest("'points' is empty".into()));
        }
        let restriction = match params.get("restriction") {
            None | Some(Value::Null) => None,
            Some(v) => {
                let masks = v.as_arr().ok_or_else(|| {
                    ServeError::BadRequest(
                        "'restriction' must be an array of monomial masks".into(),
                    )
                })?;
                let monomials = masks
                    .iter()
                    .map(|m| {
                        m.as_u64().ok_or_else(|| {
                            ServeError::BadRequest(
                                "'restriction' masks must be non-negative integers".into(),
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(Restriction::from_monomials(monomials))
            }
        };

        let key = StoreKey::model(&params.render());
        if let Some(value) = self.stored(&key) {
            return Ok(value);
        }
        let fitted = fit_multi_param(&ms, &SearchSpace::small(), restriction.as_ref());
        let summary = Value::obj(vec![
            ("model", Value::str(fitted.model.render(&names))),
            ("cv_smape", Value::Num(fitted.quality.cv_smape)),
            ("smape", Value::Num(fitted.quality.smape)),
            ("r2", Value::Num(fitted.quality.r2)),
            ("hypotheses", Value::int(fitted.quality.hypotheses as i64)),
        ]);
        self.persist(&key, &summary);
        Ok(summary)
    }

    // ---- trace -----------------------------------------------------------

    /// Protocol v1.3: run any other method under a request-scoped tracer
    /// and return its structured span tree alongside the result. Params:
    /// `{"method": <inner method>, "params": <inner params>}`. The inner
    /// dispatch goes through the normal table, so it is counted in the
    /// per-method metrics exactly like an untraced call; `trace` itself is
    /// counted too (the cost of the wrapper is itself observable).
    ///
    /// The request runs under [`traced`]: its fresh trace id keeps its
    /// spans — including those from `analyze_batch` workers — separate
    /// from any concurrent traced request.
    fn trace_request(&self, params: &Value) -> Result<Value, ServeError> {
        let method = require_str(params, "method")?;
        if method == "trace" {
            return Err(ServeError::BadRequest("'trace' cannot wrap itself".into()));
        }
        let empty = Value::Obj(Vec::new());
        let inner = params.get("params").unwrap_or(&empty);
        if !matches!(inner, Value::Obj(_)) {
            return Err(ServeError::BadRequest("'params' must be an object".into()));
        }
        let run = traced(|| self.dispatch(method, inner));
        let result = run.outcome?;
        let stages = pt_util::trace::stage_totals_ms(&run.events)
            .into_iter()
            .map(|(name, ms)| (name, Value::Num(ms)))
            .collect();
        Ok(Value::obj(vec![
            ("trace_id", Value::int(run.trace_id as i64)),
            ("method", Value::str(method)),
            ("wall_us", Value::Num(run.wall.as_secs_f64() * 1e6)),
            ("events", Value::int(run.events.len() as i64)),
            ("stages_ms", Value::Obj(stages)),
            ("spans", pt_util::trace::report(&run.events)),
            ("result", result),
        ]))
    }

    // ---- stats / metrics / shutdown --------------------------------------

    /// Protocol v1.2: the `functions` object reports the per-function
    /// static-stage ledger — of all function units the static stage has
    /// needed, how many were reused from memory or recomputed. An edit
    /// loop is warm exactly when `recomputed` grows by the edited cone
    /// only.
    fn function_reuse_json(&self) -> Value {
        let reuse = self.units.cumulative();
        Value::obj(vec![
            ("total", Value::int(reuse.total as i64)),
            ("reused_memory", Value::int(reuse.reused_memory as i64)),
            ("recomputed", Value::int(reuse.recomputed as i64)),
        ])
    }

    /// Protocol v1.3: the in-process session cache — since v1.8 the
    /// number of served modules whose static stage this process holds
    /// (one per module, whatever policies its requests named).
    fn session_cache_json(&self) -> Value {
        let entries = self
            .modules
            .lock()
            .unwrap()
            .values()
            .filter(|served| served.statics.get().is_some())
            .count();
        Value::obj(vec![("entries", Value::int(entries as i64))])
    }

    /// The store's counters, as `stats` and `metrics` both report them.
    fn store_fields(&self) -> Vec<(&'static str, Value)> {
        let store = self.store.stats();
        vec![
            ("hits", Value::int(store.hits as i64)),
            ("misses", Value::int(store.misses as i64)),
            ("writes", Value::int(store.writes as i64)),
            ("evictions", Value::int(store.evictions as i64)),
            ("objects", Value::int(self.store.total_objects() as i64)),
        ]
    }

    /// The reuse ledgers `stats` and `metrics` both report, in order.
    fn reuse_fields(&self) -> [(&'static str, Value); 3] {
        [
            ("functions", self.function_reuse_json()),
            ("session_cache", self.session_cache_json()),
            ("policies", self.policy_runs.to_json()),
        ]
    }

    fn stats(&self) -> Result<Value, ServeError> {
        let mut fields = vec![
            ("protocol", Value::int(PROTOCOL_VERSION as i64)),
            ("protocol_minor", Value::int(PROTOCOL_MINOR as i64)),
            ("uptime_seconds", Value::Num(self.ops.uptime_seconds())),
            (
                "requests_total",
                Value::int(self.requests.load(Ordering::Relaxed) as i64),
            ),
            ("methods", Value::Obj(self.ops.method_counts())),
            (
                "served_from_store",
                Value::int(self.served_from_store.load(Ordering::Relaxed) as i64),
            ),
            ("store", Value::obj(self.store_fields())),
        ];
        fields.extend(self.reuse_fields());
        fields.extend([
            (
                "modules_in_memory",
                Value::int(self.modules.lock().unwrap().len() as i64),
            ),
            ("workers", Value::int(self.workers as i64)),
            ("queue_capacity", Value::int(self.queue_capacity as i64)),
            ("queue_depth", Value::int(self.ops.queue_depth.get().max(0))),
        ]);
        Ok(Value::obj(fields))
    }

    /// The protocol-v1.1+ observability surface: everything `stats` knows
    /// is a counter; this adds uptime, queue occupancy, shed totals, store
    /// sizing (bytes / budget / evictions), per-method latency histograms
    /// (p50/p99/p999, milliseconds), and — since v1.2 — the per-function
    /// static-stage reuse ledger.
    fn metrics(&self) -> Result<Value, ServeError> {
        let mut store = self.store_fields();
        store.extend([
            ("bytes", Value::int(self.store.total_bytes() as i64)),
            (
                "budget_bytes",
                match self.store.budget_bytes() {
                    Some(b) => Value::int(b as i64),
                    None => Value::Null,
                },
            ),
        ]);
        let mut fields = vec![
            ("protocol", Value::int(PROTOCOL_VERSION as i64)),
            ("protocol_minor", Value::int(PROTOCOL_MINOR as i64)),
            ("uptime_seconds", Value::Num(self.ops.uptime_seconds())),
            (
                "queue",
                Value::obj(vec![
                    ("depth", Value::int(self.ops.queue_depth.get().max(0))),
                    ("capacity", Value::int(self.queue_capacity as i64)),
                    ("shed_total", Value::int(self.ops.shed_total.get() as i64)),
                ]),
            ),
            ("methods", self.ops.methods_json()),
            ("store", Value::obj(store)),
            (
                "served_from_store",
                Value::int(self.served_from_store.load(Ordering::Relaxed) as i64),
            ),
        ];
        fields.extend(self.reuse_fields());
        fields.extend([
            (
                "sampled_profile",
                self.sampled.to_json(self.trace_sample_every),
            ),
            ("workers", Value::int(self.workers as i64)),
        ]);
        Ok(Value::obj(fields))
    }

    fn shutdown(&self) -> Result<Value, ServeError> {
        self.stopping.store(true, Ordering::Relaxed);
        Ok(Value::obj(vec![("stopping", Value::Bool(true))]))
    }

    // ---- shared helpers --------------------------------------------------

    /// Fetch and parse a stored artifact. Our renderer and parser are
    /// mutually inverse on documents the renderer produced, so the served
    /// bytes equal the originally computed bytes. A missing *or corrupt*
    /// object is a miss, not an error — the pipeline is deterministic, so
    /// the caller recomputes and overwrites (mirroring the write side's
    /// "a broken store degrades to compute-always" stance). Only a
    /// successful parse counts as store-served.
    fn stored(&self, key: &StoreKey) -> Option<Value> {
        let text = self.store.get(key.kind, &key.hash)?;
        match Value::parse(&text) {
            Ok(value) => {
                self.served_from_store.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Err(_) => None,
        }
    }

    /// Best-effort persist: a full disk degrades the service to
    /// compute-always, it does not fail requests.
    fn persist(&self, key: &StoreKey, doc: &Value) {
        let _ = self.store.put(key.kind, &key.hash, &doc.render());
    }
}

/// One request run under its own trace (see [`traced`]).
pub(crate) struct TracedRun<R> {
    pub outcome: R,
    pub trace_id: u64,
    /// Wall time of the traced closure alone.
    pub wall: std::time::Duration,
    /// Every span and event the request recorded, taken from the sink.
    pub events: Vec<pt_util::trace::SpanEvent>,
}

/// Run `f` as one traced request: tracing on for its duration, a fresh
/// trace id bound to this thread and a `server`/`request` root span
/// around it. The `trace` method and sampled requests
/// ([`crate::handle_line`]) both go through here.
pub(crate) fn traced<R>(f: impl FnOnce() -> R) -> TracedRun<R> {
    let _on = pt_util::trace::enable_scoped();
    let trace_id = pt_util::trace::next_trace_id();
    let started = Instant::now();
    let outcome = {
        let _bind = pt_util::trace::set_thread_trace(trace_id);
        let _root = pt_util::trace::span("server", "request");
        f()
    };
    let wall = started.elapsed();
    // The root guard dropped above, flushing this thread's buffer, and
    // `analyze_batch` workers flushed when their scope closed — the sink
    // now holds the complete trace.
    TracedRun {
        outcome,
        trace_id,
        wall,
        events: pt_util::trace::take_trace(trace_id),
    }
}

/// The optional `policy` request field (protocol v1.4): absent or `null`
/// means the default param-set policy; an unknown name is a `bad_request`
/// naming the known policies.
fn policy_of(params: &Value) -> Result<PolicyKind, ServeError> {
    match params.get("policy") {
        None | Some(Value::Null) => Ok(PolicyKind::ParamSet),
        Some(v) => {
            let s = v.as_str().ok_or_else(|| {
                ServeError::BadRequest("'policy' must be a string when present".into())
            })?;
            PolicyKind::parse(s).ok_or_else(|| {
                let known = PolicyKind::ALL
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ");
                ServeError::BadRequest(format!("unknown policy '{s}' (known: {known})"))
            })
        }
    }
}

/// The `module` request field, a hash `submit_module` returned, parsed
/// once into the digest it names. The hash names a file under the store
/// root, so anything not shaped like a content key (a path, `..`, ...)
/// is refused here, before the store is touched.
fn require_module_key(params: &Value) -> Result<Digest, ServeError> {
    digest_of(require_str(params, "module")?)
}

/// The digest a content key names.
fn digest_of(hash: &str) -> Result<Digest, ServeError> {
    Digest::from_hex(hash).ok_or_else(not_a_module_hash)
}

fn not_a_module_hash() -> ServeError {
    ServeError::BadRequest(
        "'module' must be a module hash from submit_module (32 lowercase hex digits)".into(),
    )
}

fn require_str<'v>(params: &'v Value, field: &str) -> Result<&'v str, ServeError> {
    params
        .get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::BadRequest(format!("missing string '{field}'")))
}

/// Parameter pairs from a JSON object, preserving the client's field order
/// (the order defines taint indices, exactly like the `Vec` the in-process
/// API takes).
fn param_pairs(v: Option<&Value>) -> Result<Vec<(String, i64)>, ServeError> {
    let fields = match v {
        None => return Ok(Vec::new()),
        Some(Value::Obj(fields)) => fields,
        Some(_) => {
            return Err(ServeError::BadRequest(
                "'params' must be an object of integer parameter values".into(),
            ))
        }
    };
    fields
        .iter()
        .map(|(name, value)| {
            value.as_i64().map(|n| (name.clone(), n)).ok_or_else(|| {
                ServeError::BadRequest(format!("parameter '{name}' must be an integer"))
            })
        })
        .collect()
}

/// Canonical text of a parameter list for key derivation.
fn canonical_params(params: &[(String, i64)]) -> String {
    Value::Obj(
        params
            .iter()
            .map(|(n, v)| (n.clone(), Value::int(*v)))
            .collect(),
    )
    .render()
}

fn f64_array(v: Option<&Value>, what: &str) -> Result<Vec<f64>, ServeError> {
    v.and_then(Value::as_arr)
        .ok_or_else(|| ServeError::BadRequest(format!("missing array '{what}'")))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| ServeError::BadRequest(format!("'{what}' must hold numbers")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resubmitted module keeps its served entry: the module first
    /// parsed and the slot its static stage was computed in, so the
    /// stage is neither recomputed nor held twice.
    #[test]
    fn a_resubmitted_module_keeps_its_slot() {
        let dir = std::env::temp_dir().join(format!("pt-state-resubmit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
        let text = crate::demo_module_text();
        let submit = Value::obj(vec![("text", Value::str(&text))]);
        let submitted = state.dispatch("submit_module", &submit).expect("submit");
        let hash = submitted.get("module").and_then(Value::as_str).unwrap();
        let key = Digest::from_hex(hash).unwrap();
        let analyse = Value::obj(vec![
            ("module", Value::str(hash)),
            ("entry", Value::str("main")),
        ]);
        state.dispatch("static_analysis", &analyse).expect("static");
        let served = |state: &ServerState| state.modules.lock().unwrap()[&key].clone();
        let first = served(&state);
        let stage = first.statics.get().expect("stage computed").clone();

        state.dispatch("submit_module", &submit).expect("resubmit");
        let again = served(&state);
        assert!(Arc::ptr_eq(&first, &again), "the entry was replaced");
        assert!(Arc::ptr_eq(&first.statics, &again.statics));
        assert!(Arc::ptr_eq(&stage, again.statics.get().unwrap()));
        assert_eq!(state.modules.lock().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `static_analysis` is answered from the module's slot: a warm one
    /// reads, writes and stamps nothing in the store, and the store has
    /// no directory for static summaries.
    #[test]
    fn a_warm_static_analysis_does_no_store_io() {
        let dir = std::env::temp_dir().join(format!("pt-state-warm-static-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
        assert!(!dir.join("statics").exists());
        let submit = Value::obj(vec![("text", Value::str(crate::demo_module_text()))]);
        let submitted = state.dispatch("submit_module", &submit).expect("submit");
        let analyse = Value::obj(vec![
            ("module", submitted.get("module").cloned().unwrap()),
            ("entry", Value::str("main")),
        ]);
        let cold = state.dispatch("static_analysis", &analyse).expect("cold");
        let before = state.store().stats();
        let warm = state.dispatch("static_analysis", &analyse).expect("warm");
        assert_eq!(warm.render(), cold.render());
        assert_eq!(
            state.store().stats(),
            before,
            "a warm request touched the store"
        );
        assert!(!dir.join("statics").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
