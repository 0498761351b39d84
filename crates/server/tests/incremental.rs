//! Function-granular incremental analysis through the server: editing one
//! function of a 20-function module recomputes only that function's cone
//! (the function plus its callers) within one process. Neither units nor
//! static summaries are persisted, so after a restart the first module
//! analysed recomputes every unit, and each later one only what the memo
//! does not hold yet. The served static summary is byte-identical to a
//! cold recompute every time.

use pt_server::{ServerState, Store};
use serde::json::Value;

/// The editable app: `KERNELS` loop kernels plus `main` (20 functions).
/// `edited` replaces one kernel's work constant — the smallest edit, whose
/// cone is exactly {kernel, main}.
const KERNELS: usize = 19;

fn module_text(edited: Option<(usize, i64)>) -> String {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new("edit_app");
    let mut ids = Vec::new();
    for i in 0..KERNELS {
        let flops = match edited {
            Some((j, v)) if j == i => v,
            _ => 2 + (i as i64 % 5),
        };
        let mut b = FunctionBuilder::new(
            format!("work_{i:02}"),
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

fn fresh_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-serve-incr-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn state_on(dir: &std::path::Path) -> ServerState {
    ServerState::new(Store::open(dir).expect("store opens"), 2, 4)
}

/// Submit `text` and return (module hash, rendered static summary).
fn submit_and_static(state: &ServerState, text: &str) -> (String, String) {
    let params = Value::obj(vec![("text", Value::str(text))]);
    let resp = state.dispatch("submit_module", &params).expect("submit");
    let hash = resp
        .get("module")
        .and_then(Value::as_str)
        .expect("module hash")
        .to_string();
    let params = Value::obj(vec![
        ("module", Value::str(&hash)),
        ("entry", Value::str("main")),
    ]);
    let summary = state
        .dispatch("static_analysis", &params)
        .expect("static_analysis");
    (hash, summary.render())
}

/// The `functions` reuse ledger from `stats`, as (total, memory,
/// recomputed).
fn ledger(state: &ServerState) -> (u64, u64, u64) {
    let stats = state.dispatch("stats", &Value::Null).expect("stats");
    let f = stats.get("functions").expect("v1.2 functions object");
    let field = |name: &str| f.get(name).and_then(Value::as_u64).expect(name);
    (field("total"), field("reused_memory"), field("recomputed"))
}

/// What a process that has never seen any of this would serve: a fresh
/// state over a fresh store. The incremental answers must match its bytes.
fn cold_bytes(text: &str, tag: &str) -> String {
    let dir = fresh_store_dir(tag);
    let (_, summary) = submit_and_static(&state_on(&dir), text);
    let _ = std::fs::remove_dir_all(&dir);
    summary
}

/// The static stage reads no taint policy: a taint run under `security`
/// after a `param-set` static analysis reuses the module's stage, so the
/// unit ledger does not move, and the process holds one stage.
#[test]
fn a_policy_change_reuses_the_static_stage() {
    let dir = fresh_store_dir("policy");
    let state = state_on(&dir);
    let n = KERNELS as u64 + 1;
    let (hash, _) = submit_and_static(&state, &module_text(None));
    assert_eq!(ledger(&state), (n, 0, n));
    let run = Value::obj(vec![
        ("module", Value::str(&hash)),
        ("entry", Value::str("main")),
        ("policy", Value::str("security")),
        ("params", Value::obj(vec![("n", Value::int(4))])),
    ]);
    state
        .dispatch("taint_run", &run)
        .expect("security taint_run");
    assert_eq!(ledger(&state), (n, 0, n), "no unit was looked up again");
    let stats = state.dispatch("stats", &Value::Null).expect("stats");
    assert_eq!(
        stats.get("session_cache").map(Value::render),
        Some(r#"{"entries":1}"#.to_string()),
        "one static stage for the module under both policies"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_function_recomputes_only_its_cone_in_process() {
    let dir = fresh_store_dir("inproc");
    let state = state_on(&dir);
    let n = KERNELS + 1;

    // Cold submission: every function is computed once.
    let base = module_text(None);
    let (base_hash, base_summary) = submit_and_static(&state, &base);
    assert_eq!(ledger(&state), (n as u64, 0, n as u64));
    assert_eq!(base_summary, cold_bytes(&base, "inproc-cold0"));

    // Edit one kernel: a new module hash, but only {kernel, main} is
    // recomputed — the other 18 functions come from the in-memory cache.
    let edited = module_text(Some((7, 1234)));
    let (edit_hash, edit_summary) = submit_and_static(&state, &edited);
    assert_ne!(edit_hash, base_hash, "an edit is a new module identity");
    let (total, mem, recomputed) = ledger(&state);
    assert_eq!(total, 2 * n as u64);
    assert_eq!(recomputed, n as u64 + 2, "edited kernel + its caller only");
    assert_eq!(mem, n as u64 - 2, "all untouched functions reused");

    // Incrementality must be invisible in the output.
    assert_eq!(edit_summary, cold_bytes(&edited, "inproc-cold1"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_server_recomputes_statics_against_its_unit_memo() {
    let dir = fresh_store_dir("restart");
    let n = KERNELS as u64 + 1;

    // First process: submit and analyse the base module.
    let base = module_text(None);
    {
        let state = state_on(&dir);
        submit_and_static(&state, &base);
        assert_eq!(ledger(&state), (n, 0, n));
    }

    // Second process, same store, an edit it has never analyzed: units
    // live only in memory, so every function of the edit is recomputed.
    let edited = module_text(Some((3, 4321)));
    let restarted = state_on(&dir);
    let (_, edit_summary) = submit_and_static(&restarted, &edited);
    let after_edit = ledger(&restarted);
    assert_eq!(after_edit, (n, 0, n));

    // Byte-identical to what a never-cached process would serve.
    assert_eq!(edit_summary, cold_bytes(&edited, "restart-cold"));

    // Resubmitting the *base* module recomputes its stage, but only the
    // base's cone of the edit, {work_03, main}: every other unit comes
    // from the memo the edit filled. The bytes still match a cold process.
    let (_, base_summary) = submit_and_static(&restarted, &base);
    let (total, mem, recomputed) = ledger(&restarted);
    assert_eq!(
        (
            total - after_edit.0,
            mem - after_edit.1,
            recomputed - after_edit.2
        ),
        (n, n - 2, 2)
    );
    assert_eq!(base_summary, cold_bytes(&base, "restart-cold2"));
    let _ = std::fs::remove_dir_all(&dir);
}
