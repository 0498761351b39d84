//! Property-based differential fuzzing: structured random IR programs run
//! through both execution engines must produce bit-identical outputs.
//!
//! The generator builds *verified* programs (every `finish()` runs the
//! structural verifier; the builder's loop/if helpers keep dominance by
//! construction) exercising the shapes the pass pipeline rewrites: loop
//! nests with tainted and untainted bounds, phi webs from if/else merges,
//! leaf calls that the inliner flattens, array traffic through fused
//! `gep+load`/`gep+store`, shift/compare chains, and tainted branches
//! driving control scopes — across every `CtlFlowPolicy`, both taint
//! modes, and both *taint policies* (param-set and security; every
//! generated program calls the source/sanitize/sink intrinsics, so the
//! security lattice is exercised, and under param-set those calls must be
//! pure pass-throughs). The vendored proptest samples deterministically
//! (seeded from the test's module path), so the CI `taint-differential`
//! job runs a fixed-seed slice of this space on every PR.

use proptest::prelude::*;
use pt_ir::{BinOp, CmpPred, FunctionBuilder, Module, Type, UnOp, Value};
use pt_taint::differential::compare_results;
use pt_taint::{
    CtlFlowPolicy, InterpConfig, Interpreter, PolicyKind, PreparedModule, ReferenceInterpreter,
    WorkOnlyHandler,
};

/// Tiny deterministic RNG so one proptest-sampled `u64` seed expands into
/// a whole program shape.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An arithmetic expression over the values in scope, mixing tainted and
/// untainted operands. Division is by a guaranteed-nonzero constant so
/// generated programs only trap when the fuel budget says so.
fn arith(b: &mut FunctionBuilder, rng: &mut Rng, scope: &[Value]) -> Value {
    let v = |rng: &mut Rng, scope: &[Value]| scope[rng.pick(scope.len() as u64) as usize];
    let x = v(rng, scope);
    let y = v(rng, scope);
    match rng.pick(10) {
        0 => b.add(x, y),
        1 => b.sub(x, y),
        2 => b.mul(x, Value::int(1 + rng.pick(5) as i64)),
        3 => b.bin(BinOp::Xor, x, y),
        4 => b.bin(BinOp::And, x, Value::int(0xff)),
        // The shift-boundary amounts the shared helper defines.
        5 => b.bin(
            BinOp::Shl,
            x,
            Value::int([31, 32, 63, 64][rng.pick(4) as usize]),
        ),
        6 => b.bin(
            BinOp::Shr,
            x,
            Value::int([31, 32, 63, 64][rng.pick(4) as usize]),
        ),
        7 => b.bin(BinOp::Min, x, y),
        8 => b.div(x, Value::int(1 + rng.pick(7) as i64)),
        _ => b.un(UnOp::Neg, x),
    }
}

/// One structured random module: a couple of inlinable leaf helpers, and
/// a `main` with loop nests, phi webs, memory traffic, and tainted
/// control, calling the leaves and charging host work.
fn build_module(seed: u64) -> Module {
    let mut rng = Rng(seed);
    let mut m = Module::new("prop");

    // Leaf helpers: single-block, call-free — inliner bait. Their bodies
    // deliberately cover the whole scalar op set (integer chains, float
    // chains through conversions, sqrt/abs/not, compares and selects):
    // the interpreter executes inlined bodies through a second dispatch
    // copy (`exec_inlined_body`), and this is what pins its per-op
    // semantics to the main loop's via the reference engine.
    let mut leaves = Vec::new();
    for li in 0..1 + rng.pick(2) {
        let mut b = FunctionBuilder::new(
            format!("leaf{li}"),
            vec![("a".into(), Type::I64), ("b".into(), Type::I64)],
            Type::I64,
        );
        let mut scope = vec![b.param(0), b.param(1), Value::int(3)];
        for _ in 0..1 + rng.pick(6) {
            let v = arith(&mut b, &mut rng, &scope);
            scope.push(v);
        }
        // Float excursion: i64 → f64 chain → i64.
        let base = scope[rng.pick(scope.len() as u64) as usize];
        let f = b.un(UnOp::IntToFloat, base);
        let f = match rng.pick(4) {
            0 => b.bin(BinOp::Mul, f, Value::float(1.5)),
            1 => b.bin(BinOp::Max, f, Value::float(-2.0)),
            2 => b.un(UnOp::Sqrt, f),
            _ => b.un(UnOp::Abs, f),
        };
        let f = b.bin(BinOp::Add, f, Value::float(0.25));
        let back = b.un(UnOp::FloatToInt, f);
        scope.push(back);
        // Compare / select / logical-not, plus integer unaries.
        let x = scope[rng.pick(scope.len() as u64) as usize];
        let y = scope[rng.pick(scope.len() as u64) as usize];
        let preds = [CmpPred::Lt, CmpPred::Ge, CmpPred::Eq, CmpPred::Ne];
        let c = b.cmp(preds[rng.pick(4) as usize], x, y);
        let nc = b.un(UnOp::Not, c);
        let sel = b.select(nc, x, y);
        let abs = b.un(UnOp::Abs, sel);
        let inv = b.un(UnOp::Not, abs);
        scope.push(inv);
        let out = arith(&mut b, &mut rng, &scope);
        b.ret(Some(out));
        leaves.push(m.add_function(b.finish()));
    }

    let mut b = FunctionBuilder::new("main", vec![], Type::I64);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    let k = b.call_external("pt_param_i64", vec![Value::int(1)], Type::I64);
    let buf = b.alloca(8i64);
    let mut scope = vec![n, k, Value::int(2), Value::int(-5)];

    // A phi web: if/else producing merged values off a tainted condition.
    let cond = b.cmp(CmpPred::Gt, n, Value::int(rng.pick(6) as i64));
    let sel = b.select(cond, n, k);
    scope.push(sel);
    let merged = {
        let t = b.new_block();
        let e = b.new_block();
        let join = b.new_block();
        b.cond_br(cond, t, e);
        b.switch_to(t);
        let tv = b.add(n, Value::int(10));
        b.br(join);
        b.switch_to(e);
        let ev = b.mul(k, Value::int(3));
        b.br(join);
        b.switch_to(join);
        let phi = b.phi(Type::I64);
        b.add_incoming(phi, t, tv);
        b.add_incoming(phi, e, ev);
        Value::Inst(phi)
    };
    scope.push(merged);

    // Loop nest: bounds tainted (n, k) or constant, bodies mixing leaf
    // calls, fused array traffic, arithmetic, and host work.
    let depth = 1 + rng.pick(2);
    let outer_bound = if rng.pick(2) == 0 {
        n
    } else {
        Value::int(3 + rng.pick(4) as i64)
    };
    let leaf0 = leaves[rng.pick(leaves.len() as u64) as usize];
    let inner_seed = rng.next();
    b.for_loop(0i64, outer_bound, 1i64, |b, iv| {
        let mut rng = Rng(inner_seed);
        let idx = b.bin(BinOp::And, iv, Value::int(3));
        let addr = b.gep(buf, idx, 1);
        let lv = b.call(leaf0, vec![iv, sel], Type::I64);
        b.store(addr, lv);
        let addr2 = b.gep(buf, idx, 1);
        let back = b.load(addr2, Type::I64);
        let mixed = b.add(back, merged);
        b.call_external("pt_work_flops", vec![mixed], Type::Void);
        // Security-policy intrinsics: mark, sometimes sanitize, always
        // sink-check, and store the result so the label (or its absence)
        // flows onward through memory. Under the param-set policy all
        // three are identity pass-throughs.
        let marked = b.call_external(
            "pt_taint_source",
            vec![mixed, Value::int(1 + (inner_seed % 3) as i64)],
            Type::I64,
        );
        let cleaned = if rng.pick(2) == 0 {
            b.call_external("pt_sanitize", vec![marked], Type::I64)
        } else {
            marked
        };
        let checked = b.call_external(
            "pt_sink_check",
            vec![cleaned, Value::int((inner_seed % 2) as i64)],
            Type::I64,
        );
        let addr3 = b.gep(buf, idx, 1);
        b.store(addr3, checked);
        if depth > 1 {
            let inner_bound = if rng.pick(2) == 0 {
                k
            } else {
                Value::int(2 + rng.pick(3) as i64)
            };
            b.for_loop(0i64, inner_bound, 1i64, |b, jv| {
                let t = b.mul(jv, iv);
                b.call_external("pt_work_mem", vec![t], Type::Void);
            });
        }
    });

    for _ in 0..rng.pick(5) {
        let v = arith(&mut b, &mut rng, &scope);
        scope.push(v);
    }
    let final_addr = b.gep(buf, Value::int(1), 1);
    let final_load = b.load(final_addr, Type::I64);
    let out = b.add(*scope.last().unwrap(), final_load);
    let out = b.call_external("pt_sink_check", vec![out, Value::int(7)], Type::I64);
    b.ret(Some(out));
    m.add_function(b.finish());
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both engines, bit-identical, over random structured programs ×
    /// all policies × taint on/off × a fuel slice × both taint policies.
    #[test]
    fn engines_agree_on_generated_programs(
        seed in 0u64..1 << 48,
        policy_idx in 0usize..3,
        taint in proptest::bool::ANY,
        n in 1i64..7,
        k in 1i64..5,
        tight_fuel in proptest::bool::ANY,
        security in proptest::bool::ANY,
    ) {
        let m = build_module(seed);
        let policy = [CtlFlowPolicy::All, CtlFlowPolicy::StoresOnly, CtlFlowPolicy::Off][policy_idx];
        // A tight fuel budget lands exhaustion mid-program (including
        // inside inlined bodies and fused pairs); a loose one completes.
        let fuel = if tight_fuel { 40 + seed % 200 } else { u64::MAX };
        // The taint-policy dimension: the same programs under the
        // security lattice (sources/sanitizers/sinks live) and the
        // paper's param-set domain (the intrinsics are pass-throughs).
        let taint_policy = if security { PolicyKind::Security } else { PolicyKind::ParamSet };
        let config = InterpConfig { policy, taint, coverage: taint, fuel, taint_policy, ..Default::default() };
        let params = vec![("n".to_string(), n), ("k".to_string(), k)];

        let prepared = PreparedModule::compute(&m);
        let decoded = Interpreter::new(
            &m, &prepared, WorkOnlyHandler::default(), params.clone(), config.clone(),
        ).run_named("main", &[]);
        let legacy = ReferenceInterpreter::new(
            &m, &prepared, WorkOnlyHandler::default(), params, config,
        ).run_named("main", &[]);
        prop_assert!(
            compare_results(&decoded, &legacy).is_ok(),
            "seed {seed} policy {policy:?} taint {taint} fuel {fuel}: {}",
            compare_results(&decoded, &legacy).unwrap_err()
        );
    }
}
