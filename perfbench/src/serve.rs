//! `serve_cold` / `serve_edit_mix`: closed loop over one loopback
//! connection to a `pt_server::Server` with one worker, in this process.
//!
//! Both workloads run in rounds. A round stands up a fresh server on an
//! empty store, runs a fixed, seed-derived sequence of ops, and shuts the
//! server down. Cold-op cost grows with the number of objects already in
//! the store, so a fixed op count per round (and complete rounds only)
//! keeps p50 and tail independent of how long a run lasts; round 0 is an
//! untimed warm-up.

use crate::{mean, median, mix, ms_since, percentile, Args, Outcome};
use perf_taint::report::static_summary;
use perf_taint::{parse_module, SessionBuilder};
use pt_server::{Client, Server, ServerConfig};
use serde::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ops per `serve_cold` round.
const COLD_OPS: usize = 40;
/// Kernels per generated `serve_cold` module.
const COLD_KERNELS: usize = 6;
/// Ops per `serve_edit_mix` round.
const EDIT_OPS: usize = 40;
/// Kernels in the `serve_edit_mix` module.
const EDIT_FUNCS: usize = 32;
/// Warm reads following each edit.
const READS_PER_EDIT: usize = 2;
/// The pipeline methods whose latency the traced run breaks down.
const METHODS: [&str; 4] = ["submit_module", "static_analysis", "taint_run", "fit_model"];

/// One server lifetime: fresh store, one worker, one connection.
struct Round {
    client: Client,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
    /// Held for the whole round when traced, so the acceptor→worker
    /// `queue_wait` span is recorded too.
    tracing: Option<pt_util::trace::EnableGuard>,
    /// Client-observed milliseconds per method (untraced rounds).
    client_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per-stage milliseconds of the current op (traced rounds).
    op_stages: BTreeMap<String, f64>,
}

impl Round {
    fn open(dir: &Path, traced: bool) -> Result<Round, String> {
        let tracing = traced.then(pt_util::trace::enable_scoped);
        let mut config = ServerConfig::loopback(dir, 1);
        // `loopback` samples every 64th request into the tracer; the
        // end-to-end numbers are taken with tracing off.
        config.trace_sample_every = None;
        let server = Server::bind(&config).map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Round {
            client,
            thread,
            dir: dir.to_path_buf(),
            tracing,
            client_ms: BTreeMap::new(),
            op_stages: BTreeMap::new(),
        })
    }

    /// One pipeline request: wrapped in the server's `trace` method in a
    /// traced round (stage totals land in `op_stages`), timed from the
    /// client otherwise.
    fn call(&mut self, method: &'static str, params: Value) -> Result<Value, String> {
        if self.tracing.is_some() {
            let traced = self
                .client
                .trace(method, params)
                .map_err(|e| format!("{method}: {e}"))?;
            if let Some(Value::Obj(stages)) = traced.get("stages_ms") {
                for (name, ms) in stages {
                    *self.op_stages.entry(name.clone()).or_default() += ms.as_f64().unwrap_or(0.0);
                }
            }
            return traced
                .get("result")
                .cloned()
                .ok_or_else(|| format!("{method}: traced response without result"));
        }
        let t = Instant::now();
        let result = self
            .client
            .request(method, params)
            .map_err(|e| format!("{method}: {e}"))?;
        self.client_ms.entry(method).or_default().push(ms_since(t));
        Ok(result)
    }

    fn submit(&mut self, text: &str) -> Result<String, String> {
        let result = self.call(
            "submit_module",
            Value::obj(vec![("text", Value::str(text))]),
        )?;
        result
            .get("module")
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| "submit_module: no module key".into())
    }

    fn counters(&mut self) -> Result<Counters, String> {
        let stats = self.client.stats().map_err(|e| format!("stats: {e}"))?;
        let at = |a: &str, b: &str| {
            stats
                .get(a)
                .and_then(|o| o.get(b))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        Ok(Counters {
            writes: at("store", "writes"),
            hits: at("store", "hits"),
            objects: at("store", "objects"),
            units_total: at("functions", "total"),
            units_recomputed: at("functions", "recomputed"),
        })
    }

    /// Handler-side (count, total ms) per pipeline method, from `metrics`.
    fn handler_ms(&mut self) -> Result<BTreeMap<&'static str, (f64, f64)>, String> {
        let metrics = self.client.metrics().map_err(|e| format!("metrics: {e}"))?;
        Ok(METHODS
            .iter()
            .filter_map(|&m| {
                let slot = metrics.get("methods")?.get(m)?;
                let count = slot.get("count")?.as_f64()?;
                Some((m, (count, count * slot.get("mean_ms")?.as_f64()?)))
            })
            .collect())
    }

    fn sidecar_kib(&self) -> f64 {
        std::fs::metadata(self.dir.join("lru-index"))
            .map(|m| m.len() as f64 / 1024.0)
            .unwrap_or(0.0)
    }

    /// Shut the server down. Returns the traced round's `queue_wait`
    /// spans (milliseconds).
    fn close(mut self) -> Result<Vec<f64>, String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("server: {e}")),
            Err(_) => return Err("server thread panicked".into()),
        }
        let mut queue_wait = Vec::new();
        if self.tracing.take().is_some() {
            for ev in pt_util::trace::drain_all() {
                if ev.name == "queue_wait" {
                    queue_wait.push(ev.duration_nanos() as f64 / 1e6);
                }
            }
        }
        Ok(queue_wait)
    }
}

#[derive(Clone, Copy, Default)]
struct Counters {
    writes: u64,
    hits: u64,
    objects: u64,
    units_total: u64,
    units_recomputed: u64,
}

/// Per-layer figures gathered across a run's rounds.
#[derive(Default)]
struct LayerLog {
    parse_ms: Vec<f64>,
    stages: Vec<BTreeMap<String, f64>>,
    queue_wait_ms: Vec<f64>,
    client_ms: BTreeMap<&'static str, Vec<f64>>,
    handler: BTreeMap<&'static str, (f64, f64)>,
    /// Store and unit-ledger deltas of one untraced round, per op.
    store: Option<(Counters, Counters, f64)>,
    hypotheses: Vec<f64>,
}

impl LayerLog {
    fn absorb_untraced(
        &mut self,
        round: &mut Round,
        before: Counters,
        ops: usize,
    ) -> Result<(), String> {
        let after = round.counters()?;
        if self.store.is_none() {
            self.store = Some((before, after, ops as f64));
        }
        for (m, (count, total)) in round.handler_ms()? {
            let slot = self.handler.entry(m).or_default();
            slot.0 += count;
            slot.1 += total;
        }
        for (m, v) in std::mem::take(&mut round.client_ms) {
            self.client_ms.entry(m).or_default().extend(v);
        }
        Ok(())
    }

    fn finish(self, out: &mut Outcome, sidecar_kib: f64) {
        let stage = |name: &str| -> f64 {
            let per_op: Vec<f64> = self
                .stages
                .iter()
                .map(|s| s.get(name).copied().unwrap_or(0.0))
                .collect();
            median(&per_op)
        };
        let ls = &mut out.layers;
        ls.insert("ir.parse_ms", median(&self.parse_ms));
        ls.insert("static.ms", stage("static_stage"));
        ls.insert("static.classify_ms", stage("classify"));
        // On the incremental path the `decode` span encloses the
        // per-function passes and classification.
        ls.insert("static.prepare_ms", stage("decode") - stage("classify"));
        ls.insert("taint.run_ms", stage("exec"));
        ls.insert("extrap.fit_ms", stage("fit"));
        for (metric, span) in [
            ("stage.decode_ms", "decode"),
            ("stage.passes_ms", "passes"),
            ("stage.classify_ms", "classify"),
            ("stage.exec_ms", "exec"),
            ("stage.fit_ms", "fit"),
        ] {
            ls.insert(metric, stage(span));
        }
        ls.insert("stage.queue_wait_ms", median(&self.queue_wait_ms));
        if !self.hypotheses.is_empty() {
            ls.insert("extrap.models_per_op", 1.0);
            ls.insert("extrap.hypotheses_per_op", mean(&self.hypotheses));
        }
        let (mut client_total, mut handler_total, mut requests) = (0.0, 0.0, 0.0);
        for (m, v) in &self.client_ms {
            let key = match *m {
                "submit_module" => ("serve.submit_module_ms", "serve.handler_submit_module_ms"),
                "static_analysis" => (
                    "serve.static_analysis_ms",
                    "serve.handler_static_analysis_ms",
                ),
                "taint_run" => ("serve.taint_run_ms", "serve.handler_taint_run_ms"),
                _ => ("serve.fit_model_ms", "serve.handler_fit_model_ms"),
            };
            ls.insert(key.0, percentile(v, 50.0));
            if let Some(&(count, total)) = self.handler.get(m) {
                ls.insert(key.1, total / count.max(1.0));
                handler_total += total;
            }
            client_total += v.iter().sum::<f64>();
            requests += v.len() as f64;
        }
        if requests > 0.0 {
            ls.insert("serve.wire_ms", (client_total - handler_total) / requests);
        }
        if let Some((before, after, ops)) = self.store {
            let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
            ls.insert("store.writes_per_op", d(after.writes, before.writes) / ops);
            ls.insert("store.hits_per_op", d(after.hits, before.hits) / ops);
            ls.insert("store.objects", after.objects as f64);
            ls.insert("store.sidecar_kb", sidecar_kib);
            let recomputed = d(after.units_recomputed, before.units_recomputed);
            ls.insert("incremental.recomputed_per_op", recomputed / ops);
            ls.insert(
                "incremental.recompute_frac",
                recomputed / d(after.units_total, before.units_total).max(1.0),
            );
        }
    }
}

/// The round loop shared by both workloads. Each round gets a fresh store
/// directory under `--store-dir`, and none is deleted: deleting files on
/// a filesystem that discards freed blocks slows later store writes, in
/// this run or the next (see README.md), so the stores are left for the
/// user to remove.
///
/// `setup` runs on a fresh round and returns per-round state; `op` runs
/// op `i` and returns its deferred check, which runs after the op's clock
/// stops.
fn rounds<S>(
    args: &Args,
    ops_per_round: usize,
    mut setup: impl FnMut(&mut Round) -> Result<S, String>,
    mut op: impl FnMut(&mut Round, &mut S, usize) -> Result<Check, String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut log = LayerLog::default();
    let mut sidecar_kib = 0.0;
    let run_dir = args
        .store_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    let started = Instant::now();
    let mut round_no = 0usize;
    // Round 0 is the warm-up; at least one measured round (one of each
    // kind when traced) always runs.
    let min_rounds = if args.trace { 3 } else { 2 };
    while round_no < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        let warm_up = round_no == 0;
        let traced = args.trace && round_no % 2 == 0 && !warm_up;
        let t = Instant::now();
        let mut round = Round::open(&run_dir.join(format!("round-{round_no}")), traced)?;
        let mut state = setup(&mut round)?;
        if !warm_up && !traced {
            out.setup_s.push(t.elapsed().as_secs_f64());
        }
        let before = round.counters()?;
        let mut round_ms = Vec::new();
        for i in 0..ops_per_round {
            round.op_stages.clear();
            let t = Instant::now();
            let result = op(&mut round, &mut state, i);
            let wall = ms_since(t);
            let checked = result.and_then(|check| check(&mut log));
            if out.record(checked) && !warm_up {
                if traced {
                    out.traced_ms.push(wall);
                    log.stages.push(std::mem::take(&mut round.op_stages));
                } else {
                    round_ms.push(wall);
                }
            }
        }
        if !round_ms.is_empty() {
            out.rounds.push(round_ms);
        }
        if !warm_up && !traced && args.trace {
            log.absorb_untraced(&mut round, before, ops_per_round)?;
        }
        if !warm_up {
            sidecar_kib = round.sidecar_kib();
        }
        log.queue_wait_ms.extend(round.close()?);
        round_no += 1;
    }
    if args.trace {
        log.finish(&mut out, sidecar_kib);
    }
    Ok(out)
}

/// A check deferred until after the op's clock stops; it may also log
/// untimed per-layer measurements of the op's inputs.
type Check = Box<dyn FnOnce(&mut LayerLog) -> Result<(), String>>;

/// Time `perf_taint::parse_module` on an op's IR text (traced rounds).
fn log_parse(log: &mut LayerLog, text: &str) -> Result<(), String> {
    let t = Instant::now();
    parse_module(text).map_err(|e| format!("parse: {e}"))?;
    log.parse_ms.push(ms_since(t));
    Ok(())
}

// ---- serve_cold ----------------------------------------------------------

struct ColdInput {
    text: String,
    truth: BTreeMap<String, Vec<u64>>,
    run_params: Value,
    fit_seed: u64,
}

fn cold_inputs(seed: u64) -> Vec<ColdInput> {
    (0..COLD_OPS)
        .map(|i| {
            let synth = pt_apps::synth::generate(&pt_apps::synth::SynthConfig {
                seed: mix(seed, 2, i as u64),
                num_params: 3,
                num_kernels: COLD_KERNELS,
                max_depth: 3,
                param_values: vec![3, 4, 5],
            });
            let run_params = Value::Obj(
                synth
                    .app
                    .taint_run_params()
                    .into_iter()
                    .map(|(n, v)| (n, Value::int(v)))
                    .collect(),
            );
            ColdInput {
                text: pt_ir::printer::print_module(&synth.app.module),
                truth: synth.truth,
                run_params,
                fit_seed: mix(seed, 5, i as u64),
            }
        })
        .collect()
}

/// Parse a served dependency rendering (`{q0, q1} + {q2}` or `constant`)
/// into monomial bitmasks over `names`.
fn dep_masks(rendered: &str, names: &[String]) -> Result<Vec<u64>, String> {
    if rendered == "constant" {
        return Ok(Vec::new());
    }
    rendered
        .split(" + ")
        .map(|mono| {
            mono.trim_matches(|c| c == '{' || c == '}')
                .split(", ")
                .try_fold(0u64, |mask, name| {
                    names
                        .iter()
                        .position(|n| n == name)
                        .map(|k| mask | 1 << k)
                        .ok_or_else(|| format!("unknown parameter '{name}' in '{rendered}'"))
                })
        })
        .collect()
}

/// The `fit_model` request for kernel 0: a 5×5 (q0, q1) grid of noisy
/// measurements shaped by the generator's own truth, restricted by the
/// served taint result.
fn fit_request(truth: &[u64], served: &[u64], seed: u64) -> Value {
    let axis = [2.0, 4.0, 6.0, 8.0, 10.0];
    let mut points = Vec::new();
    for (a, &q0) in axis.iter().enumerate() {
        for (b, &q1) in axis.iter().enumerate() {
            let x = [q0, q1, 4.0];
            let cost: f64 = 1.0
                + truth
                    .iter()
                    .map(|&m| {
                        (0..3)
                            .filter(|k| m & 1 << k != 0)
                            .map(|k| x[k])
                            .product::<f64>()
                    })
                    .sum::<f64>();
            let reps = (0..3)
                .map(|r| {
                    let u = mix(seed, (a * 5 + b) as u64, r) as f64 / u64::MAX as f64;
                    Value::Num(1e-6 * cost * (0.99 + 0.02 * u))
                })
                .collect();
            points.push(Value::obj(vec![
                ("coords", Value::Arr(vec![Value::Num(q0), Value::Num(q1)])),
                ("reps", Value::Arr(reps)),
            ]));
        }
    }
    let mut masks: Vec<u64> = served
        .iter()
        .map(|m| m & 0b11)
        .filter(|&m| m != 0)
        .collect();
    masks.sort_unstable();
    masks.dedup();
    Value::obj(vec![
        (
            "param_names",
            Value::Arr(vec![Value::str("q0"), Value::str("q1")]),
        ),
        ("points", Value::Arr(points)),
        (
            "restriction",
            Value::Arr(masks.into_iter().map(|m| Value::int(m as i64)).collect()),
        ),
    ])
}

/// Served per-kernel dependencies must match the generator's truth:
/// every true monomial covered, no parameter invented.
fn check_deps(run: &Value, truth: &BTreeMap<String, Vec<u64>>) -> Result<(), String> {
    let names: Vec<String> = run
        .get("param_names")
        .and_then(Value::as_arr)
        .ok_or("taint_run: no param_names")?
        .iter()
        .filter_map(|v| v.as_str().map(String::from))
        .collect();
    for (kernel, want) in truth {
        let rendered = run
            .get("functions")
            .and_then(|f| f.get(kernel))
            .and_then(|f| f.get("deps"))
            .and_then(Value::as_str)
            .ok_or_else(|| format!("taint_run: no deps for {kernel}"))?;
        let got = dep_masks(rendered, &names)?;
        let want_params = want.iter().fold(0, |a, m| a | m);
        let sound = want.iter().all(|t| got.iter().any(|g| g & t == *t));
        let precise = got.iter().all(|g| g & !want_params == 0);
        if !sound || !precise {
            return Err(format!(
                "{kernel}: served deps '{rendered}' do not match the generator's truth {want:?}"
            ));
        }
    }
    Ok(())
}

pub fn run_cold(args: &Args) -> Result<Outcome, String> {
    let inputs = std::rc::Rc::new(cold_inputs(args.seed));
    rounds(
        args,
        COLD_OPS,
        |_| Ok(()),
        |round, _, i| {
            let input = &inputs[i];
            let traced = round.tracing.is_some();
            let module = round.submit(&input.text)?;
            let target = |m: &str| {
                Value::obj(vec![
                    ("module", Value::str(m)),
                    ("entry", Value::str("main")),
                ])
            };
            let statics = round.call("static_analysis", target(&module))?;
            let mut params = target(&module);
            if let Value::Obj(fields) = &mut params {
                fields.push(("params".into(), input.run_params.clone()));
            }
            let run = round.call("taint_run", params)?;
            let names: Vec<String> = ["q0", "q1", "q2"].map(String::from).to_vec();
            let served0 = run
                .get("functions")
                .and_then(|f| f.get("kernel_0"))
                .and_then(|f| f.get("deps"))
                .and_then(Value::as_str)
                .map(|r| dep_masks(r, &names))
                .ok_or("taint_run: no deps for kernel_0")??;
            let fit = round.call(
                "fit_model",
                fit_request(&input.truth["kernel_0"], &served0, input.fit_seed),
            )?;
            let hypotheses = fit.get("hypotheses").and_then(Value::as_f64).unwrap_or(0.0);
            let inputs = inputs.clone();
            Ok(Box::new(move |log: &mut LayerLog| {
                let input = &inputs[i];
                if traced {
                    log_parse(log, &input.text)?;
                } else {
                    log.hypotheses.push(hypotheses);
                }
                let total = statics.get("functions_total").and_then(Value::as_u64);
                if total != Some(COLD_KERNELS as u64 + 1) {
                    return Err(format!("static_analysis: functions_total {total:?}"));
                }
                check_deps(&run, &input.truth)?;
                if hypotheses < 1.0 || fit.get("model").and_then(Value::as_str).is_none() {
                    return Err("fit_model: no model or no hypotheses searched".into());
                }
                Ok(())
            }) as Check)
        },
    )
}

// ---- serve_edit_mix ------------------------------------------------------

/// The editable app: `EDIT_FUNCS` loop kernels called from `main`, each
/// spinning `n` iterations of a constant amount of work; `edits` overrides
/// kernel constants.
fn edit_module_text(edits: &BTreeMap<usize, i64>) -> String {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new("edit_app");
    let mut ids = Vec::new();
    for i in 0..EDIT_FUNCS {
        let flops = edits.get(&i).copied().unwrap_or(3 + (i as i64 % 7));
        let mut b = FunctionBuilder::new(
            format!("work_{i:03}"),
            vec![("n".into(), Type::I64)],
            Type::Void,
        );
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![IrValue::int(flops)], Type::Void);
        });
        b.ret(None);
        ids.push(m.add_function(b.finish()));
    }
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
    for &f in &ids {
        b.call(f, vec![n], Type::Void);
    }
    b.ret(None);
    m.add_function(b.finish());
    pt_ir::printer::print_module(&m)
}

/// One served answer the mix may re-request: method, params, bytes.
type Served = (&'static str, Value, String);

/// Per-round state: the answers served so far, in order.
struct EditState {
    served: Vec<Served>,
}

/// Round set-up: the 32-kernel module computed once, plus two taint
/// runs, so the first warm reads have answers to re-request.
fn base_setup(round: &mut Round, base: &str) -> Result<EditState, String> {
    let module = round.submit(base)?;
    let mut served = Vec::new();
    let statics = round.call("static_analysis", target(&module))?;
    served.push(("static_analysis", target(&module), statics.render()));
    for n in [4, 6] {
        let mut params = target(&module);
        if let Value::Obj(fields) = &mut params {
            fields.push(("params".into(), Value::obj(vec![("n", Value::int(n))])));
        }
        let run = round.call("taint_run", params.clone())?;
        served.push(("taint_run", params, run.render()));
    }
    Ok(EditState { served })
}

/// Request params naming `module`'s `main` entry.
fn target(module: &str) -> Value {
    Value::obj(vec![
        ("module", Value::str(module)),
        ("entry", Value::str("main")),
    ])
}

/// The seeded schedule, identical in every round: op `i` sets kernel
/// `target` to a constant never used before, then re-requests the
/// answers at `reads` (indices into everything served before the op).
struct EditOp {
    text: String,
    reads: [u64; READS_PER_EDIT],
}

fn edit_schedule(seed: u64) -> (String, Vec<EditOp>) {
    let mut edits = BTreeMap::new();
    let base = edit_module_text(&edits);
    let ops = (0..EDIT_OPS)
        .map(|i| {
            let target = (mix(seed, 3, i as u64) % EDIT_FUNCS as u64) as usize;
            edits.insert(target, 1000 + i as i64);
            EditOp {
                text: edit_module_text(&edits),
                reads: std::array::from_fn(|r| mix(seed, 4, (i * READS_PER_EDIT + r) as u64)),
            }
        })
        .collect();
    (base, ops)
}

/// The cold truth for a static summary: a throwaway in-process session.
fn cold_static_bytes(text: &str) -> Result<String, String> {
    let module = parse_module(text).map_err(|e| format!("parse: {e}"))?;
    let session = SessionBuilder::new(&module, "main").build();
    Ok(static_summary(&session.static_analysis(), &module).render())
}

pub fn run_edit_mix(args: &Args) -> Result<Outcome, String> {
    let (base, schedule) = edit_schedule(args.seed);
    let schedule = std::rc::Rc::new(schedule);
    rounds(
        args,
        EDIT_OPS,
        |round| base_setup(round, &base),
        |round, state, i| {
            let op = &schedule[i];
            let module = round.submit(&op.text)?;
            let statics = round.call("static_analysis", target(&module))?;
            let mut mismatched = Vec::new();
            for &pick in &op.reads {
                let (method, params, bytes) =
                    &state.served[(pick % state.served.len() as u64) as usize];
                let again = round.call(method, params.clone())?;
                if again.render() != *bytes {
                    mismatched.push(*method);
                }
            }
            let served = statics.render();
            state
                .served
                .push(("static_analysis", target(&module), served.clone()));
            let traced = round.tracing.is_some();
            let schedule = schedule.clone();
            Ok(Box::new(move |log: &mut LayerLog| {
                if traced {
                    log_parse(log, &schedule[i].text)?;
                }
                if !mismatched.is_empty() {
                    return Err(format!(
                        "edit {i}: warm re-reads changed bytes: {mismatched:?}"
                    ));
                }
                if served != cold_static_bytes(&schedule[i].text)? {
                    return Err(format!(
                        "edit {i}: served summary differs from a cold recompute"
                    ));
                }
                Ok(())
            }) as Check)
        },
    )
}
