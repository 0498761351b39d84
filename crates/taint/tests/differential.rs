//! Differential suite: the decode-once engine vs the legacy tree-walker
//! over IR-level edge-case programs.
//!
//! Every test runs the same module through both engines and asserts the
//! bit-identity contract of `pt_taint::differential` — including programs
//! that exercise the parallel-copy hazards of per-edge phi move lists
//! (swap, lost copy, self-loop phi), nested tainted control, every
//! control-flow policy, and the error paths (division, fuel, traps).

use pt_ir::{BinOp, CmpPred, FunctionBuilder, Module, Type, UnOp, Value};
use pt_taint::differential::compare_results;
use pt_taint::{
    CtlFlowPolicy, InterpConfig, InterpError, Interpreter, MemError, PreparedModule,
    ReferenceInterpreter, RunOutput, WorkOnlyHandler,
};

fn run_both(
    m: &Module,
    params: Vec<(String, i64)>,
    config: InterpConfig,
) -> (
    Result<RunOutput, InterpError>,
    Result<RunOutput, InterpError>,
) {
    let prepared = PreparedModule::compute(m);
    let decoded = Interpreter::new(
        m,
        &prepared,
        WorkOnlyHandler::default(),
        params.clone(),
        config.clone(),
    )
    .run_named("main", &[]);
    let legacy =
        ReferenceInterpreter::new(m, &prepared, WorkOnlyHandler::default(), params, config)
            .run_named("main", &[]);
    (decoded, legacy)
}

/// Run both engines and assert the full bit-identity contract; returns the
/// decoded engine's output for additional semantic assertions.
fn assert_identical(m: &Module, params: Vec<(String, i64)>, config: InterpConfig) -> RunOutput {
    let (decoded, legacy) = run_both(m, params, config);
    compare_results(&decoded, &legacy).expect("engines must be bit-identical");
    decoded.expect("run succeeds")
}

fn assert_identical_failure(
    m: &Module,
    params: Vec<(String, i64)>,
    config: InterpConfig,
) -> InterpError {
    let (decoded, legacy) = run_both(m, params, config);
    compare_results(&decoded, &legacy).expect("engines must fail identically");
    decoded.expect_err("run fails")
}

/// A fresh builder for a parameterless `main`.
fn tainted_main(ret_ty: Type) -> FunctionBuilder {
    FunctionBuilder::new("main", vec![], ret_ty)
}

// ---- phi parallel-copy hazards -----------------------------------------

/// The classic swap: two phis whose incomings reference *each other* on
/// the back edge. A naive sequential copy would clobber one of them.
#[test]
fn phi_swap_hazard_matches_reference() {
    let mut b = tainted_main(Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);

    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let entry = b.current_block();
    b.br(header);

    b.switch_to(header);
    let x = b.phi(Type::I64);
    let y = b.phi(Type::I64);
    let i = b.phi(Type::I64);
    b.add_incoming(x, entry, Value::int(1));
    b.add_incoming(y, entry, n);
    b.add_incoming(i, entry, Value::int(0));
    let cond = b.cmp(CmpPred::Lt, Value::Inst(i), Value::int(5));
    b.cond_br(cond, body, exit);

    b.switch_to(body);
    let i2 = b.add(Value::Inst(i), Value::int(1));
    // Swap: x' = y, y' = x — both must read the pre-copy values.
    b.add_incoming(x, b.current_block(), Value::Inst(y));
    b.add_incoming(y, b.current_block(), Value::Inst(x));
    b.add_incoming(i, b.current_block(), i2);
    b.br(header);

    b.switch_to(exit);
    // After 5 swaps (odd): x = n, y = 1.
    let sum = b.mul(Value::Inst(x), Value::int(1000));
    let out = b.add(sum, Value::Inst(y));
    b.ret(Some(out));

    let mut m = Module::new("phi-swap");
    m.add_function(b.finish());
    let out = assert_identical(&m, vec![("n".into(), 7)], InterpConfig::default());
    assert_eq!(out.ret.unwrap().as_i64(), 7 * 1000 + 1, "swap semantics");
}

/// The lost-copy hazard: a phi whose value is *used after* the back edge
/// overwrites it. The use must see the previous iteration's value.
#[test]
fn phi_lost_copy_hazard_matches_reference() {
    let mut b = tainted_main(Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);

    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let entry = b.current_block();
    b.br(header);

    b.switch_to(header);
    let acc = b.phi(Type::I64);
    let i = b.phi(Type::I64);
    b.add_incoming(acc, entry, Value::int(0));
    b.add_incoming(i, entry, Value::int(0));
    let cond = b.cmp(CmpPred::Lt, Value::Inst(i), n);
    b.cond_br(cond, body, exit);

    b.switch_to(body);
    // acc' = acc + i uses the current acc; the edge copy must not clobber
    // it before the next header evaluates the exit condition on i'.
    let acc2 = b.add(Value::Inst(acc), Value::Inst(i));
    let i2 = b.add(Value::Inst(i), Value::int(1));
    b.add_incoming(acc, b.current_block(), acc2);
    b.add_incoming(i, b.current_block(), i2);
    b.br(header);

    b.switch_to(exit);
    // The *lost copy*: using the phi after the loop must yield its final
    // header value, not the body's update of the last iteration shifted.
    b.ret(Some(Value::Inst(acc)));

    let mut m = Module::new("phi-lost-copy");
    m.add_function(b.finish());
    let out = assert_identical(&m, vec![("n".into(), 6)], InterpConfig::default());
    assert_eq!(out.ret.unwrap().as_i64(), (0..6).sum::<i64>());
}

/// A self-loop phi: the block is its own predecessor, so the move list of
/// the self edge reads the phi's own register.
#[test]
fn phi_self_loop_matches_reference() {
    let mut b = tainted_main(Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);

    let looped = b.new_block();
    let exit = b.new_block();
    let entry = b.current_block();
    b.br(looped);

    b.switch_to(looped);
    let i = b.phi(Type::I64);
    let doubled = b.phi(Type::I64);
    b.add_incoming(i, entry, Value::int(0));
    b.add_incoming(doubled, entry, Value::int(1));
    let i2 = b.add(Value::Inst(i), Value::int(1));
    let d2 = b.mul(Value::Inst(doubled), Value::int(2));
    b.add_incoming(i, looped, i2);
    b.add_incoming(doubled, looped, d2);
    let cond = b.cmp(CmpPred::Lt, i2, n);
    b.cond_br(cond, looped, exit);

    b.switch_to(exit);
    b.ret(Some(Value::Inst(doubled)));

    let mut m = Module::new("phi-self-loop");
    m.add_function(b.finish());
    let out = assert_identical(&m, vec![("n".into(), 5)], InterpConfig::default());
    // doubled holds 2^(n-1): the phi is read before the self-edge copy.
    assert_eq!(out.ret.unwrap().as_i64(), 16);
}

/// Phi values chosen under a *tainted* branch pick up the control scope's
/// label identically in both engines (the ordering of label unions is part
/// of the contract).
#[test]
fn phi_under_tainted_control_matches_reference() {
    for policy in [
        CtlFlowPolicy::All,
        CtlFlowPolicy::StoresOnly,
        CtlFlowPolicy::Off,
    ] {
        let mut b = tainted_main(Type::I64);
        let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        let t = b.new_block();
        let e = b.new_block();
        let join = b.new_block();
        let cond = b.cmp(CmpPred::Gt, n, Value::int(3));
        b.cond_br(cond, t, e);
        b.switch_to(t);
        let from_t = b.add(n, Value::int(10));
        b.br(join);
        b.switch_to(e);
        let from_e = b.add(n, Value::int(20));
        b.br(join);
        b.switch_to(join);
        let merged = b.phi(Type::I64);
        b.add_incoming(merged, t, from_t);
        b.add_incoming(merged, e, from_e);
        b.ret(Some(Value::Inst(merged)));

        let mut m = Module::new("phi-ctl");
        m.add_function(b.finish());
        let config = InterpConfig {
            policy,
            ..Default::default()
        };
        let out = assert_identical(&m, vec![("n".into(), 7)], config);
        assert_eq!(out.ret.unwrap().as_i64(), 17);
    }
}

// ---- broader IR edge cases ---------------------------------------------

/// Nested tainted branches, stores under control scopes, memory taint, and
/// every unary/binary shape in one program.
#[test]
fn kitchen_sink_program_matches_reference() {
    let mut b = tainted_main(Type::F64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let m_p = b.call_external("pt_param_i64", vec![Value::int(1)], Type::I64);
    let slot = b.alloca(4i64);

    // Nested tainted control: outer on n, inner untainted.
    let outer = b.cmp(CmpPred::Gt, n, Value::int(2));
    b.if_then_else(
        outer,
        |b| {
            let inner = b.cmp(CmpPred::Lt, Value::int(3), Value::int(9));
            b.if_then(inner, |b| {
                b.store(Value::int(0), Value::int(0)); // dead: never taken? no — executes, traps? addr 0!
            });
        },
        |b| {
            b.store(Value::int(1), Value::int(1));
        },
    );
    b.ret(Some(Value::float(0.0)));
    let _ = (m_p, slot);
    // The program above would trap on a null store when n > 2 — which is
    // itself a differential case: both engines must fail identically.
    let mut m = Module::new("trap-null");
    m.add_function(b.finish_unchecked());
    let params = vec![("n".to_string(), 5), ("m".to_string(), 9)];
    let err = assert_identical_failure(&m, params, InterpConfig::default());
    assert!(matches!(err, InterpError::Mem(_)));
}

#[test]
fn arithmetic_and_memory_matches_reference() {
    let mut b = tainted_main(Type::F64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let buf = b.alloca(8i64);

    // Integer ops on a tainted value.
    let a1 = b.bin(BinOp::Mul, n, Value::int(3));
    let a2 = b.bin(BinOp::Xor, a1, Value::int(0x55));
    let a3 = b.bin(BinOp::Shl, a2, Value::int(2));
    let a4 = b.bin(BinOp::Min, a3, Value::int(1000));
    let a5 = b.bin(BinOp::Rem, a4, Value::int(97));
    let neg = b.un(UnOp::Neg, a5);
    let abs = b.un(UnOp::Abs, neg);

    // Floats through conversion, sqrt, float min/max.
    let f = b.un(UnOp::IntToFloat, abs);
    let fs = b.un(UnOp::Sqrt, f);
    let fm = b.bin(BinOp::Max, fs, Value::float(1.5));
    let fr = b.bin(BinOp::Rem, fm, Value::float(2.25));
    let back = b.un(UnOp::FloatToInt, fr);

    // Memory round trip with a tainted index (pointer-label combining).
    let idx = b.bin(BinOp::And, n, Value::int(3));
    let addr = b.gep(buf, idx, 2);
    b.store(addr, back);
    let loaded = b.load(addr, Type::I64);
    let sel_cond = b.cmp(CmpPred::Ge, loaded, Value::int(1));
    let sel = b.select(sel_cond, fm, Value::float(-1.0));
    b.call_external("pt_work_flops", vec![loaded], Type::Void);
    b.ret(Some(sel));

    let mut m = Module::new("arith-mem");
    m.add_function(b.finish());
    for policy in [
        CtlFlowPolicy::All,
        CtlFlowPolicy::StoresOnly,
        CtlFlowPolicy::Off,
    ] {
        let config = InterpConfig {
            policy,
            ..Default::default()
        };
        assert_identical(&m, vec![("n".into(), 6)], config);
    }
}

#[test]
fn call_tree_and_loop_records_match_reference() {
    let mut m = Module::new("calls");
    // kernel(k): loop 0..k charging work.
    let mut b = FunctionBuilder::new("kernel", vec![("k".into(), Type::I64)], Type::I64);
    let acc = b.alloca(1i64);
    b.store(acc, Value::int(0));
    b.for_loop(0i64, b.param(0), 1i64, |b, iv| {
        let cur = b.load(acc, Type::I64);
        let nxt = b.add(cur, iv);
        b.store(acc, nxt);
        b.call_external("pt_work_flops", vec![Value::int(2)], Type::Void);
    });
    let out = b.load(acc, Type::I64);
    b.ret(Some(out));
    let kernel = m.add_function(b.finish());

    // main: calls kernel under a tainted branch and from two contexts.
    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let r1 = b.call(kernel, vec![n], Type::I64);
    let half = b.div(n, Value::int(2));
    let r2 = b.call(kernel, vec![half], Type::I64);
    let merged = b.add(r1, r2);
    b.ret(Some(merged));
    m.add_function(b.finish());

    let out = assert_identical(&m, vec![("n".into(), 9)], InterpConfig::default());
    // Both call sites share one calling context (main → kernel), so the
    // records aggregate: 9 + 9/2 back-edge traversals over 2 entries.
    let agg = out.records.loops_by_function();
    let rec = agg.values().next().expect("kernel loop recorded");
    assert_eq!(rec.iterations, 9 + 4);
    assert_eq!(rec.entries, 2);
}

#[test]
fn division_by_zero_fails_identically() {
    let mut b = tainted_main(Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let z = b.sub(n, n);
    let d = b.div(Value::int(7), z);
    b.ret(Some(d));
    let mut m = Module::new("div0");
    m.add_function(b.finish());
    let err = assert_identical_failure(&m, vec![("n".into(), 4)], InterpConfig::default());
    assert!(matches!(err, InterpError::DivisionByZero { .. }));
}

#[test]
fn fuel_exhaustion_fails_identically() {
    let mut b = tainted_main(Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.for_loop(0i64, n, 1i64, |b, _| {
        b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
    });
    b.ret(None);
    let mut m = Module::new("fuel");
    m.add_function(b.finish());
    // Sweep the fuel budget across the loop body so exhaustion lands on
    // phis, straight-line code, and terminators alike.
    for fuel in [0u64, 1, 2, 3, 5, 8, 13, 21, 34] {
        let config = InterpConfig {
            fuel,
            ..Default::default()
        };
        let (decoded, legacy) = run_both(&m, vec![("n".into(), 50)], config);
        compare_results(&decoded, &legacy).unwrap_or_else(|e| panic!("fuel {fuel} diverges: {e}"));
    }
}

#[test]
fn float_bitwise_op_traps_identically() {
    let mut b = tainted_main(Type::F64);
    let v = b.bin(BinOp::And, Value::float(1.0), Value::float(2.0));
    b.ret(Some(v));
    let mut m = Module::new("float-and");
    m.add_function(b.finish_unchecked());
    let err = assert_identical_failure(&m, vec![], InterpConfig::default());
    assert!(matches!(err, InterpError::Trap(ref msg) if msg.contains("float")));
}

#[test]
fn taint_disabled_and_no_coverage_match_reference() {
    let mut b = tainted_main(Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.for_loop(0i64, n, 1i64, |b, _| {
        b.call_external("pt_work_mem", vec![Value::int(3)], Type::Void);
    });
    b.ret(None);
    let mut m = Module::new("no-taint");
    m.add_function(b.finish());
    let config = InterpConfig {
        taint: false,
        coverage: false,
        ..Default::default()
    };
    let out = assert_identical(&m, vec![("n".into(), 12)], config);
    assert!(out.records.loops.is_empty(), "no sinks without taint");
}

#[test]
fn taint_assertions_match_reference() {
    let mut b = tainted_main(Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.call_external("pt_assert_has_param", vec![n, Value::int(0)], Type::Void);
    let clean = b.add(Value::int(1), Value::int(2));
    b.call_external(
        "pt_assert_not_param",
        vec![clean, Value::int(0)],
        Type::Void,
    );
    let mask = b.call_external("pt_label_params", vec![n], Type::I64);
    b.ret(Some(mask));
    let mut m = Module::new("asserts");
    m.add_function(b.finish());
    let out = assert_identical(&m, vec![("n".into(), 3)], InterpConfig::default());
    assert_eq!(out.ret.unwrap().as_i64(), 1, "param 0 bitmask");
}

/// External calls wider than the interpreter's stack argument buffer must
/// still pass every argument through — the taint of a 9th argument has to
/// reach the extern-args record exactly like the reference engine's.
#[test]
fn wide_external_calls_match_reference() {
    let mut b = tainted_main(Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let mut args: Vec<Value> = (0..9).map(|_| Value::int(1)).collect();
    args.push(n); // tainted 10th argument
    b.call_external("pt_work_flops", args, Type::Void);
    b.ret(None);
    let mut m = Module::new("wide-call");
    m.add_function(b.finish());
    let out = assert_identical(&m, vec![("n".into(), 4)], InterpConfig::default());
    assert_eq!(
        out.records.extern_args.len(),
        1,
        "the tainted trailing argument must be recorded"
    );
}

/// Entering a function with fewer arguments than parameters is a defined
/// error in both engines (PR 4 shipped this as a documented divergence:
/// the reference panicked on the read, the decoded engine yielded an
/// untainted zero — both now fail identically at frame setup).
#[test]
fn missing_arguments_fail_identically() {
    let mut b = FunctionBuilder::new("main", vec![("n".into(), Type::I64)], Type::I64);
    let v = b.add(b.param(0), Value::int(1));
    b.ret(Some(v));
    let mut m = Module::new("missing-arg");
    m.add_function(b.finish());
    // `run_named("main", &[])` passes no arguments to a unary function.
    let err = assert_identical_failure(&m, vec![], InterpConfig::default());
    assert!(
        matches!(
            err,
            InterpError::ArityMismatch {
                expected: 1,
                got: 0,
                ..
            }
        ),
        "got {err:?}"
    );
}

/// Shift semantics are defined in one shared helper (`pt_taint::ops`):
/// amounts reduced modulo 64 over the sole 64-bit integer domain, `shr`
/// arithmetic. Locked in differentially at the boundary amounts.
#[test]
fn shift_amounts_match_reference() {
    for amount in [31i64, 32, 63, 64] {
        let mut b = tainted_main(Type::I64);
        let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        let shl = b.bin(BinOp::Shl, n, Value::int(amount));
        let shr = b.bin(BinOp::Shr, shl, Value::int(amount));
        let neg = b.sub(Value::int(0), n);
        let sar = b.bin(BinOp::Shr, neg, Value::int(amount));
        let out = b.add(shr, sar);
        b.ret(Some(out));
        let mut m = Module::new("shifts");
        m.add_function(b.finish());
        let out = assert_identical(&m, vec![("n".into(), 3)], InterpConfig::default());
        let expect = pt_taint::ops::shr_i64(pt_taint::ops::shl_i64(3, amount), amount)
            + pt_taint::ops::shr_i64(-3, amount);
        assert_eq!(out.ret.unwrap().as_i64(), expect, "amount {amount}");
    }
}

/// Array accesses with a tainted index exercise the fused `gep+load` /
/// `gep+store` superinstructions under every control-flow policy — the
/// pointer-label combining and control-context unions must happen in the
/// reference engine's exact order.
#[test]
fn fused_indexed_memory_matches_reference() {
    for policy in [
        CtlFlowPolicy::All,
        CtlFlowPolicy::StoresOnly,
        CtlFlowPolicy::Off,
    ] {
        let mut b = tainted_main(Type::I64);
        let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        let buf = b.alloca(8i64);
        let idx = b.bin(BinOp::And, n, Value::int(3));
        // Store through a tainted index under a tainted branch, then load
        // it back: gep+store and gep+load both fuse.
        let cond = b.cmp(CmpPred::Gt, n, Value::int(0));
        b.if_then(cond, |b| {
            let a1 = b.gep(buf, idx, 1);
            b.store(a1, n);
        });
        let a2 = b.gep(buf, idx, 1);
        let v = b.load(a2, Type::I64);
        b.ret(Some(v));
        let mut m = Module::new("fused-mem");
        m.add_function(b.finish());
        let config = InterpConfig {
            policy,
            ..Default::default()
        };
        let out = assert_identical(&m, vec![("n".into(), 6)], config);
        assert_eq!(out.ret.unwrap().as_i64(), 6);
    }
}

/// A hot leaf call (single-block, call-free accessor) is flattened into a
/// `CallInlined` superinstruction — its per-call profile entries, path
/// interning, executed marks, and fuel boundaries must stay bit-identical
/// to the reference's real frames.
#[test]
fn inlined_leaf_calls_match_reference() {
    let mut m = Module::new("leaf-inline");
    // leaf(x): single block, pure arithmetic — inlinable.
    let mut b = FunctionBuilder::new("leaf", vec![("x".into(), Type::I64)], Type::I64);
    let t = b.mul(b.param(0), Value::int(3));
    let r = b.add(t, Value::int(1));
    b.ret(Some(r));
    let leaf = m.add_function(b.finish());

    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let acc = b.alloca(1i64);
    b.store(acc, Value::int(0));
    b.for_loop(0i64, n, 1i64, |b, iv| {
        let leafv = b.call(leaf, vec![iv], Type::I64);
        let cur = b.load(acc, Type::I64);
        let nxt = b.add(cur, leafv);
        b.store(acc, nxt);
    });
    let out = b.load(acc, Type::I64);
    b.ret(Some(out));
    m.add_function(b.finish());

    // The pass must actually fire for this shape.
    let prepared = PreparedModule::compute(&m);
    assert!(prepared.pass_stats.inlined_calls >= 1, "leaf call inlined");

    // Fuel swept across the inlined body so exhaustion lands on the same
    // instruction boundary inside the flattened call.
    for fuel in [u64::MAX, 0, 3, 5, 8, 13, 21] {
        let config = InterpConfig {
            fuel,
            ..Default::default()
        };
        let (decoded, legacy) = run_both(&m, vec![("n".into(), 5)], config);
        compare_results(&decoded, &legacy).unwrap_or_else(|e| panic!("fuel {fuel}: {e}"));
    }
    let out = assert_identical(&m, vec![("n".into(), 5)], InterpConfig::default());
    assert_eq!(
        out.ret.unwrap().as_i64(),
        (0..5).map(|i| 3 * i + 1).sum::<i64>()
    );
    // The leaf still gets its own per-context profile entry.
    assert!(
        out.profile.by_function().keys().any(|fid| *fid == leaf),
        "leaf profiled despite inlining"
    );
}

/// An inlined leaf runs over its caller's frame, but its errors still
/// belong to the leaf: a division by zero inside the flattened body must
/// name `leaf`, exactly as the reference engine's real call frame does.
#[test]
fn division_by_zero_in_inlined_leaf_names_the_leaf() {
    let mut m = Module::new("leaf-div0");
    // leaf(x) = 100 / x: single block, pure arithmetic — inlinable.
    let mut b = FunctionBuilder::new("leaf", vec![("x".into(), Type::I64)], Type::I64);
    let q = b.div(Value::int(100), b.param(0));
    b.ret(Some(q));
    let leaf = m.add_function(b.finish());

    let mut b = tainted_main(Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let r = b.call(leaf, vec![n], Type::I64);
    b.ret(Some(r));
    m.add_function(b.finish());

    let prepared = PreparedModule::compute(&m);
    assert!(prepared.pass_stats.inlined_calls >= 1, "leaf call inlined");

    for taint in [true, false] {
        let config = InterpConfig {
            taint,
            ..Default::default()
        };
        let (decoded, legacy) = run_both(&m, vec![("n".into(), 0)], config);
        for (engine, result) in [("decoded", decoded), ("reference", legacy)] {
            match result {
                Err(InterpError::DivisionByZero { func }) => {
                    assert_eq!(func, "leaf", "{engine} engine, taint {taint}")
                }
                other => panic!("{engine} engine, taint {taint}: {other:?}"),
            }
        }
    }
}

#[test]
fn unreachable_traps_identically() {
    let mut b = tainted_main(Type::Void);
    b.unreachable();
    let mut m = Module::new("unreach");
    m.add_function(b.finish_unchecked());
    let err = assert_identical_failure(&m, vec![], InterpConfig::default());
    assert!(matches!(err, InterpError::Trap(ref msg) if msg.contains("unreachable")));
}

// ---- pure-work primitives ----------------------------------------------

/// Run `m` through both engines in measurement mode and in a taint run,
/// asserting bit-identity each time; returns `[measure, taint]` outputs.
/// The decoded engine charges `pt_work_*` in place while the reference
/// engine calls the handler by name, so this pins the one to the other.
fn assert_identical_measure_and_taint(m: &Module, params: Vec<(String, i64)>) -> [RunOutput; 2] {
    [false, true].map(|taint| {
        let config = InterpConfig {
            taint,
            coverage: taint,
            ..Default::default()
        };
        let (decoded, legacy) = run_both(m, params.clone(), config);
        compare_results(&decoded, &legacy)
            .unwrap_or_else(|e| panic!("taint {taint}: engines diverge: {e}"));
        decoded.expect("run succeeds")
    })
}

/// A negative work count computed at run time charges nothing, in both
/// engines, while its taint still reaches the extern-args record.
#[test]
fn negative_work_count_from_a_register_matches_reference() {
    let mut b = tainted_main(Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let neg = b.sub(Value::int(0), n);
    b.call_external("pt_work_flops", vec![neg], Type::Void);
    b.call_external("pt_work_mem", vec![neg], Type::Void);
    b.ret(None);
    let mut m = Module::new("negative-work");
    m.add_function(b.finish());
    let [measure, taint] = assert_identical_measure_and_taint(&m, vec![("n".into(), 5)]);
    let insts_only = measure.insts as f64 * InterpConfig::default().inst_cost;
    assert!(measure.time <= insts_only * 1.000_001, "no work charged");
    assert_eq!(taint.records.extern_args.len(), 2, "both calls recorded");
}

/// `pt_work_flops()` with no argument reads its count as 0.
#[test]
fn zero_argument_work_call_matches_reference() {
    let mut b = tainted_main(Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.for_loop(0i64, n, 1i64, |b, _| {
        b.call_external("pt_work_flops", vec![], Type::Void);
    });
    b.ret(None);
    let mut m = Module::new("zero-arg-work");
    m.add_function(b.finish());
    let [_, taint] = assert_identical_measure_and_taint(&m, vec![("n".into(), 6)]);
    assert!(
        taint.records.extern_args.is_empty(),
        "no argument, no record"
    );
}

/// Extra arguments are charged by the first alone but all reach the
/// extern-args record, and a repeat inside a loop takes the memo.
#[test]
fn work_call_with_extra_arguments_matches_reference() {
    let mut b = tainted_main(Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let k = b.call_external("pt_param_i64", vec![Value::int(1)], Type::I64);
    b.for_loop(0i64, n, 1i64, |b, i| {
        b.call_external("pt_work_mem", vec![i, k, Value::int(3)], Type::Void);
        b.call_external("pt_work_flops", vec![Value::int(7), n], Type::Void);
    });
    b.ret(None);
    let mut m = Module::new("extra-arg-work");
    m.add_function(b.finish());
    let params = vec![("n".into(), 9), ("k".into(), -2)];
    let [_, taint] = assert_identical_measure_and_taint(&m, params);
    let sets: Vec<_> = taint.records.extern_args.values().copied().collect();
    assert_eq!(sets.len(), 2);
    assert!(sets.iter().all(|s| !s.is_empty()));
}

/// `alloca 2^60` overflows the arena's byte size: a defined memory error
/// in both engines, not a "capacity overflow" panic.
#[test]
fn oversized_alloca_fails_identically() {
    let mut b = tainted_main(Type::Void);
    b.alloca(1i64 << 60);
    b.ret(None);
    let mut m = Module::new("huge-alloca");
    m.add_function(b.finish());
    for taint in [false, true] {
        let config = InterpConfig {
            taint,
            ..Default::default()
        };
        let err = assert_identical_failure(&m, vec![], config);
        assert!(
            matches!(err, InterpError::Mem(MemError::AllocFailed { words, .. }) if words == 1 << 60),
            "{err:?}"
        );
    }
}
