//! Behavioral tests of the taint interpreter: the propagation rules of
//! §3.2/§5.2 of the paper, sinks, call paths, profiling, and error handling.

use pt_ir::{CmpPred, FunctionBuilder, FunctionId, Module, Type, Value};
use pt_taint::{
    CtlFlowPolicy, InterpConfig, InterpError, Interpreter, PreparedModule, RunOutput,
    WorkOnlyHandler,
};

fn run_module(
    m: &Module,
    params: Vec<(String, i64)>,
    config: InterpConfig,
) -> Result<RunOutput, InterpError> {
    let prepared = PreparedModule::compute(m);
    Interpreter::new(m, &prepared, WorkOnlyHandler::default(), params, config)
        .run_named("main", &[])
}

fn run_default(m: &Module, params: Vec<(String, i64)>) -> RunOutput {
    run_module(m, params, InterpConfig::default()).expect("run failed")
}

#[test]
fn arithmetic_and_return() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let x = b.add(40i64, 1i64);
    let y = b.mul(x, 2i64);
    let z = b.sub(y, 41i64);
    b.ret(Some(z));
    m.add_function(b.finish());
    let out = run_default(&m, vec![]);
    assert_eq!(out.ret.unwrap().as_i64(), 41);
    assert_eq!(out.insts, 3);
}

#[test]
fn float_arithmetic() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::F64);
    let x = b.add(Value::float(1.5), Value::float(2.5));
    let y = b.div(x, Value::float(2.0));
    let s = b.un(pt_ir::UnOp::Sqrt, y);
    b.ret(Some(s));
    m.add_function(b.finish());
    let out = run_default(&m, vec![]);
    assert!((out.ret.unwrap().as_f64() - 2.0f64.sqrt()).abs() < 1e-12);
}

#[test]
fn conversions_and_unops() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let f = b.un(pt_ir::UnOp::IntToFloat, Value::int(7));
    let half = b.div(f, Value::float(2.0));
    let i = b.un(pt_ir::UnOp::FloatToInt, half); // 3.5 -> 3
    let n = b.un(pt_ir::UnOp::Neg, i);
    let a = b.un(pt_ir::UnOp::Abs, n);
    b.ret(Some(a));
    m.add_function(b.finish());
    assert_eq!(run_default(&m, vec![]).ret.unwrap().as_i64(), 3);
}

#[test]
fn memory_round_trip_and_gep() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let buf = b.alloca(8i64);
    b.for_loop(0i64, 8i64, 1i64, |b, iv| {
        let slot = b.gep(buf, iv, 1);
        let sq = b.mul(iv, iv);
        b.store(slot, sq);
    });
    let slot5 = b.gep(buf, 5i64, 1);
    let v = b.load(slot5, Type::I64);
    b.ret(Some(v));
    m.add_function(b.finish());
    assert_eq!(run_default(&m, vec![]).ret.unwrap().as_i64(), 25);
}

#[test]
fn division_by_zero_traps() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let z = b.sub(1i64, 1i64);
    let d = b.div(5i64, z);
    b.ret(Some(d));
    m.add_function(b.finish());
    let err = run_module(&m, vec![], InterpConfig::default()).unwrap_err();
    assert!(matches!(err, InterpError::DivisionByZero { .. }));
}

#[test]
fn fuel_exhaustion() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    b.for_loop(0i64, 1_000_000i64, 1i64, |_, _| {});
    b.ret(None);
    m.add_function(b.finish());
    let cfg = InterpConfig {
        fuel: 1000,
        ..Default::default()
    };
    assert!(matches!(
        run_module(&m, vec![], cfg),
        Err(InterpError::OutOfFuel)
    ));
}

#[test]
fn dataflow_taint_through_arithmetic() {
    // d = 2*a -> d tainted by "a" (paper §3.2 example, data-flow part).
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let a = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let d = b.mul(2i64, a);
    b.call_external("pt_assert_has_param", vec![d, Value::int(0)], Type::Void);
    let unrelated = b.add(1i64, 2i64);
    b.call_external(
        "pt_assert_not_param",
        vec![unrelated, Value::int(0)],
        Type::Void,
    );
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("a".into(), 5)]);
}

#[test]
fn taint_flows_through_memory() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let a = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let slot = b.alloca(1i64);
    b.store(slot, a);
    let v = b.load(slot, Type::I64);
    b.call_external("pt_assert_has_param", vec![v, Value::int(0)], Type::Void);
    // Overwriting with a constant clears the taint.
    b.store(slot, Value::int(0));
    let v2 = b.load(slot, Type::I64);
    b.call_external("pt_assert_not_param", vec![v2, Value::int(0)], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("a".into(), 5)]);
}

#[test]
fn register_param_taints_existing_memory() {
    // The paper's register_variable(&opts.nx, "size") idiom.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let opts = b.alloca(4i64);
    b.store(opts, Value::int(30)); // opts.nx = 30 (untainted so far)
    b.call_external("pt_register_param", vec![opts, Value::int(0)], Type::Void);
    let nx = b.load(opts, Type::I64);
    b.call_external("pt_assert_has_param", vec![nx, Value::int(0)], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("size".into(), 30)]);
}

#[test]
fn pointer_label_combines_on_load() {
    // A[i] with tainted i taints the loaded value (DFSan default).
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let a = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let buf = b.alloca(16i64);
    let idx = b.bin(pt_ir::BinOp::Rem, a, 16i64);
    let slot = b.gep(buf, idx, 1);
    let v = b.load(slot, Type::I64);
    b.call_external("pt_assert_has_param", vec![v, Value::int(0)], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("a".into(), 5)]);
}

#[test]
fn explicit_control_dependence_captured() {
    // Paper §3.2: if (b) d++; else d--;  -- d control-depends on b.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let bp = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let d = b.alloca(1i64);
    b.store(d, Value::int(10));
    let c = b.cmp(CmpPred::Ne, bp, 0i64);
    b.if_then_else(
        c,
        |b| {
            let v = b.load(d, Type::I64);
            let v1 = b.add(v, 1i64);
            b.store(d, v1);
        },
        |b| {
            let v = b.load(d, Type::I64);
            let v1 = b.sub(v, 1i64);
            b.store(d, v1);
        },
    );
    let dv = b.load(d, Type::I64);
    b.call_external("pt_assert_has_param", vec![dv, Value::int(0)], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("b".into(), 1)]);
    run_default(&m, vec![("b".into(), 0)]);
}

#[test]
fn control_scope_closes_at_join() {
    // After the join point, newly computed unrelated values are clean.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let bp = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let c = b.cmp(CmpPred::Ne, bp, 0i64);
    b.if_then(c, |b| {
        let _ = b.add(1i64, 1i64);
    });
    let clean = b.add(2i64, 2i64);
    b.call_external(
        "pt_assert_not_param",
        vec![clean, Value::int(0)],
        Type::Void,
    );
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("b".into(), 1)]);
}

#[test]
fn loop_counter_histogram_dependence() {
    // The LULESH regElemSize example of §5.2: a value incremented once per
    // iteration of a loop whose trip count is tainted becomes tainted.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let counter = b.alloca(1i64);
    b.store(counter, Value::int(0));
    b.for_loop(0i64, n, 1i64, |b, _| {
        let v = b.load(counter, Type::I64);
        let v1 = b.add(v, 1i64);
        b.store(counter, v1);
    });
    let total = b.load(counter, Type::I64);
    b.call_external(
        "pt_assert_has_param",
        vec![total, Value::int(0)],
        Type::Void,
    );
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("size".into(), 7)]);

    // Pure data-flow DFSan (policy Off) misses this dependence -> the
    // assertion fires. This is exactly why the paper extends DFSan.
    let cfg = InterpConfig {
        policy: CtlFlowPolicy::Off,
        ..Default::default()
    };
    let err = run_module(&m, vec![("size".into(), 7)], cfg).unwrap_err();
    assert!(matches!(err, InterpError::Trap(_)));

    // StoresOnly is sufficient for this store-based pattern.
    let cfg = InterpConfig {
        policy: CtlFlowPolicy::StoresOnly,
        ..Default::default()
    };
    run_module(&m, vec![("size".into(), 7)], cfg).expect("StoresOnly captures histogram");
}

#[test]
fn loop_sink_records_params_and_iterations() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let p = b.call_external("pt_param_i64", vec![Value::int(1)], Type::I64);
    b.for_loop(0i64, n, 1i64, |_, _| {});
    b.for_loop(0i64, p, 1i64, |_, _| {});
    b.ret(None);
    m.add_function(b.finish());
    let out = run_default(&m, vec![("n".into(), 6), ("p".into(), 3)]);
    let loops = out.records.loops_by_function();
    assert_eq!(loops.len(), 2);
    let mut iter_counts: Vec<(u64, Vec<usize>)> = loops
        .values()
        .map(|r| (r.iterations, r.params.iter().collect()))
        .collect();
    iter_counts.sort();
    assert_eq!(iter_counts[0], (3, vec![1]));
    assert_eq!(iter_counts[1], (6, vec![0]));
    for r in loops.values() {
        assert_eq!(r.entries, 1);
    }
}

#[test]
fn nested_loop_conservative_multiplicative_labels() {
    // Inner loop exit condition observed under the outer control scope
    // carries both labels — the conservative multiplicative dependency of
    // §5.2.
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let s = b.call_external("pt_param_i64", vec![Value::int(1)], Type::I64);
    b.for_loop(0i64, n, 1i64, |b, _| {
        b.for_loop(0i64, s, 1i64, |_, _| {});
    });
    b.ret(None);
    m.add_function(b.finish());
    let out = run_default(&m, vec![("n".into(), 4), ("s".into(), 5)]);
    let loops = out.records.loops_by_function();
    let mut recs: Vec<(u64, usize)> = loops
        .values()
        .map(|r| (r.iterations, r.params.len()))
        .collect();
    recs.sort();
    // Outer: 4 iterations, depends on {n} only.
    assert_eq!(recs[0], (4, 1));
    // Inner: 20 iterations total, labels {n, s} (control context).
    assert_eq!(recs[1], (20, 2));
    // And the inner loop was entered once per outer iteration.
    let inner = loops.values().find(|r| r.iterations == 20).unwrap();
    assert_eq!(inner.entries, 4);
}

#[test]
fn call_paths_distinguish_contexts() {
    let mut m = Module::new("t");
    // helper(k): loop k times.
    let mut b = FunctionBuilder::new("helper", vec![("k".into(), Type::I64)], Type::Void);
    b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
    b.ret(None);
    let helper = m.add_function(b.finish());
    // f calls helper(n); g calls helper(3) — constant.
    let mut b = FunctionBuilder::new("f", vec![("n".into(), Type::I64)], Type::Void);
    b.call(helper, vec![b.param(0)], Type::Void);
    b.ret(None);
    let f = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("g", vec![], Type::Void);
    b.call(helper, vec![Value::int(3)], Type::Void);
    b.ret(None);
    let g = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.call(f, vec![n], Type::Void);
    b.call(g, vec![], Type::Void);
    b.ret(None);
    m.add_function(b.finish());

    let out = run_default(&m, vec![("n".into(), 9)]);
    // Two distinct call paths to helper's loop with different dependencies.
    let helper_loops: Vec<_> = out
        .records
        .loops
        .iter()
        .filter(|(k, _)| k.func == helper)
        .collect();
    assert_eq!(helper_loops.len(), 2, "context-sensitive records");
    let (via_f, via_g): (Vec<_>, Vec<_>) = helper_loops
        .iter()
        .copied()
        .partition::<Vec<_>, _>(|(k, _)| out.records.paths.chain(k.path).contains(&f));
    assert_eq!(via_f.len(), 1);
    assert_eq!(via_g.len(), 1);
    assert!(via_f[0].1.params.contains(0), "helper-via-f depends on n");
    assert!(via_g[0].1.params.is_empty(), "helper-via-g is constant");
    assert!(out.records.paths.chain(via_g[0].0.path).contains(&g));
}

#[test]
fn profile_accounts_inclusive_exclusive() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("leaf", vec![], Type::Void);
    b.call_external("pt_work_flops", vec![Value::int(1000)], Type::Void);
    b.ret(None);
    let leaf = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    b.call(leaf, vec![], Type::Void);
    b.call(leaf, vec![], Type::Void);
    b.ret(None);
    m.add_function(b.finish());

    let out = run_default(&m, vec![]);
    let by_fn = out.profile.by_function();
    let leaf_entry = by_fn[&leaf];
    assert_eq!(leaf_entry.calls, 2);
    // leaf inclusive includes the work-charged time (2 * 1000 flops * 1ns).
    assert!(leaf_entry.inclusive >= 2e-6);
    let main_id = m.function_by_name("main").unwrap();
    let main_entry = by_fn[&main_id];
    assert!(main_entry.inclusive > main_entry.exclusive);
    // Total exclusive equals wall clock.
    assert!((out.profile.total_exclusive() - out.time).abs() < 1e-12);
}

#[test]
fn probe_costs_inflate_instrumented_functions() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("tiny", vec![], Type::Void);
    b.ret(None);
    let tiny = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    b.for_loop(0i64, 100i64, 1i64, |b, _| {
        b.call(tiny, vec![], Type::Void);
    });
    b.ret(None);
    let main_id = m.add_function(b.finish());

    let base = run_default(&m, vec![]);
    let mut probe = vec![0.0; m.functions.len()];
    probe[tiny.index()] = 1e-6;
    let cfg = InterpConfig {
        probe_cost: probe,
        ..Default::default()
    };
    let instr = run_module(&m, vec![], cfg).unwrap();
    let delta = instr.time - base.time;
    assert!(
        (delta - 100.0 * 1e-6).abs() < 1e-9,
        "probe cost charged once per call: delta={delta}"
    );
    let by_fn = instr.profile.by_function();
    assert!(by_fn[&tiny].exclusive > by_fn[&main_id].exclusive * 0.5);
}

#[test]
fn branch_coverage_records_tainted_branches() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let p = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let c = b.cmp(CmpPred::Lt, p, 8i64);
    b.if_then_else(
        c,
        |b| {
            b.call_external("pt_work_flops", vec![Value::int(10)], Type::Void);
        },
        |b| {
            b.call_external("pt_work_flops", vec![Value::int(20)], Type::Void);
        },
    );
    b.ret(None);
    m.add_function(b.finish());

    let out = run_default(&m, vec![("p".into(), 4)]);
    assert_eq!(out.records.branches.len(), 1);
    let rec = out.records.branches.values().next().unwrap();
    assert!(rec.params.contains(0));
    assert_eq!((rec.taken_true, rec.taken_false), (1, 0));
    assert!(rec.one_sided());
}

#[test]
fn never_executed_functions_reported() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("dead_code", vec![], Type::Void);
    b.ret(None);
    let dead = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    let out = run_default(&m, vec![]);
    assert!(out.records.never_executed().contains(&dead));
    assert!(!out.records.executed[dead.index()]);
}

#[test]
fn taint_disabled_runs_clean_and_fast() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.for_loop(0i64, n, 1i64, |_, _| {});
    b.ret(None);
    m.add_function(b.finish());
    let cfg = InterpConfig {
        taint: None,
        ..Default::default()
    };
    let out = run_module(&m, vec![("n".into(), 50)], cfg).unwrap();
    assert!(
        out.records.loops.is_empty(),
        "no sink records without taint"
    );
    // Only the pre-interned base label for "n" exists; no unions happened.
    assert_eq!(out.labels.len(), 2, "no union labels allocated");
    assert!(out.time > 0.0, "time still accounted");
}

#[test]
fn select_propagates_condition_taint() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let p = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let c = b.cmp(CmpPred::Lt, p, 100i64);
    let v = b.select(c, 1i64, 2i64);
    b.call_external("pt_assert_has_param", vec![v, Value::int(0)], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    run_default(&m, vec![("p".into(), 4)]);
}

#[test]
fn recursion_depth_guard() {
    let mut m = Module::new("t");
    let rec_id = FunctionId(0);
    let mut b = FunctionBuilder::new("main", vec![("n".into(), Type::I64)], Type::Void);
    b.call(rec_id, vec![b.param(0)], Type::Void);
    b.ret(None);
    m.add_function(b.finish_unchecked());
    let prepared = PreparedModule::compute(&m);
    let out = Interpreter::new(
        &m,
        &prepared,
        WorkOnlyHandler::default(),
        vec![],
        InterpConfig::default(),
    )
    .run(rec_id, &[1]);
    assert!(matches!(out, Err(InterpError::CallDepthExceeded)));
}

#[test]
fn unknown_external_is_reported() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    b.call_external("mystery_symbol", vec![], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    let err = run_module(&m, vec![], InterpConfig::default()).unwrap_err();
    assert!(matches!(err, InterpError::ExternalFailed { name, .. } if name == "mystery_symbol"));
}

#[test]
fn work_charges_simulated_time_scaled_by_argument() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.for_loop(0i64, n, 1i64, |b, _| {
        b.call_external("pt_work_flops", vec![Value::int(100)], Type::Void);
    });
    b.ret(None);
    m.add_function(b.finish());
    let t10 = run_default(&m, vec![("n".into(), 10)]).time;
    let t100 = run_default(&m, vec![("n".into(), 100)]).time;
    let ratio = t100 / t10;
    assert!(
        (8.0..12.0).contains(&ratio),
        "time scales ~linearly with n: ratio={ratio}"
    );
}
