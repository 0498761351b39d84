//! The protocol v1.3 `trace` method, end to end: a traced `taint_run`
//! served over TCP must return a span tree whose root `request` span
//! encloses nonzero decode / passes / classify / exec stages — the
//! pipeline's own per-stage attribution, fetched by a client — and the
//! tracer must stay out of the way otherwise (warm requests trace thin,
//! `trace` cannot wrap itself, untraced requests are unaffected).

use pt_server::{Client, Server, ServerConfig};
use serde::json::Value;
use std::sync::atomic::{AtomicUsize, Ordering};

fn fresh_store_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pt-serve-trace-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sum of `dur_us` over every node (at any depth) with the given name.
fn total_dur_us(node: &Value, name: &str) -> f64 {
    let own = match node.get("name").and_then(Value::as_str) {
        Some(n) if n == name => node.get("dur_us").and_then(Value::as_f64).unwrap_or(0.0),
        _ => 0.0,
    };
    let children = node
        .get("children")
        .and_then(Value::as_arr)
        .map(|kids| kids.iter().map(|k| total_dur_us(k, name)).sum::<f64>())
        .unwrap_or(0.0);
    own + children
}

#[test]
fn traced_taint_run_returns_a_nested_stage_tree() {
    let store_dir = fresh_store_dir("tree");
    let server = Server::bind(&ServerConfig::loopback(&store_dir, 2)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));

    let mut client = Client::connect(addr).expect("connect");
    let module_key = client
        .submit_module(&pt_server::demo_module_text())
        .expect("submit");

    // Cold traced run: the full pipeline executes under the tracer.
    let traced = client
        .trace(
            "taint_run",
            Value::obj(vec![
                ("module", Value::str(&module_key)),
                ("entry", Value::str("main")),
                ("params", Value::obj(vec![("n", Value::int(2_048))])),
            ]),
        )
        .expect("traced taint_run");

    assert!(traced.get("trace_id").and_then(Value::as_u64).unwrap() > 0);
    assert_eq!(
        traced.get("method").and_then(Value::as_str),
        Some("taint_run")
    );
    // The inner result is the ordinary taint_run summary.
    let result = traced.get("result").expect("inner result");
    assert!(
        result.get("classifications").is_some() || result.get("functions").is_some(),
        "inner result should be the analysis summary: {}",
        result.render()
    );

    let spans = traced.get("spans").and_then(Value::as_arr).expect("spans");
    assert_eq!(spans.len(), 1, "one request root: {}", traced.render());
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(Value::as_str), Some("request"));
    assert_eq!(root.get("cat").and_then(Value::as_str), Some("server"));
    let root_dur = root.get("dur_us").and_then(Value::as_f64).unwrap();
    let wall_us = traced.get("wall_us").and_then(Value::as_f64).unwrap();
    assert!(root_dur > 0.0 && root_dur <= wall_us * 1.001);

    // Every pipeline stage appears, with nonzero duration, nested under
    // the request root — and no stage outlasts the request.
    for stage in ["static_stage", "decode", "passes", "classify", "exec"] {
        let child_total: f64 = root
            .get("children")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|k| total_dur_us(k, stage))
            .sum();
        assert!(
            child_total > 0.0,
            "stage '{stage}' missing under the request root: {}",
            traced.render()
        );
        assert!(
            child_total <= root_dur * 1.001,
            "stage '{stage}' ({child_total} us) outlasts the request ({root_dur} us)"
        );
    }
    // The stage totals echo the tree.
    let stages = traced.get("stages_ms").expect("stages_ms");
    assert!(stages.get("decode").and_then(Value::as_f64).unwrap() > 0.0);
    assert!(stages.get("exec").and_then(Value::as_f64).unwrap() > 0.0);

    // Warm traced run: served from the store, so the tree is just the
    // request root — tracing shows the cache hit as the absence of work.
    let warm = client
        .trace(
            "taint_run",
            Value::obj(vec![
                ("module", Value::str(&module_key)),
                ("entry", Value::str("main")),
                ("params", Value::obj(vec![("n", Value::int(2_048))])),
            ]),
        )
        .expect("warm traced taint_run");
    let warm_spans = warm.get("spans").and_then(Value::as_arr).unwrap();
    assert_eq!(warm_spans.len(), 1);
    assert_eq!(
        total_dur_us(&warm_spans[0], "decode"),
        0.0,
        "warm run decodes nothing"
    );

    // Untraced requests still work while nothing is traced.
    assert!(client.stats().is_ok());

    // trace cannot wrap itself.
    let err = client
        .trace("trace", Value::obj(vec![("method", Value::str("stats"))]))
        .expect_err("trace of trace");
    assert_eq!(err.remote_kind(), Some("bad_request"));

    client.shutdown().expect("shutdown");
    handle.join().expect("serve loop exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn traced_batch_keeps_worker_spans_in_the_request_trace() {
    // `analyze_batch` fans out over `parallel_map` workers; their spans
    // must land in the traced request's tree (context propagation), not
    // vanish into trace id 0.
    let store_dir = fresh_store_dir("batch");
    let server = Server::bind(&ServerConfig::loopback(&store_dir, 4)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));

    let mut client = Client::connect(addr).expect("connect");
    let module_key = client
        .submit_module(&pt_server::demo_module_text())
        .expect("submit");

    let sets: Vec<Value> = (0..4)
        .map(|i| Value::obj(vec![("n", Value::int(512 + i))]))
        .collect();
    let traced = client
        .trace(
            "analyze_batch",
            Value::obj(vec![
                ("module", Value::str(&module_key)),
                ("entry", Value::str("main")),
                ("param_sets", Value::Arr(sets)),
            ]),
        )
        .expect("traced analyze_batch");

    let spans = traced.get("spans").and_then(Value::as_arr).expect("spans");
    assert_eq!(spans.len(), 1, "all worker spans nest under the one root");
    // Four distinct parameter sets → four exec spans somewhere in the tree.
    let execs = count_named(&spans[0], "exec");
    assert_eq!(execs, 4, "one exec per batch entry: {}", traced.render());

    client.shutdown().expect("shutdown");
    handle.join().expect("serve loop exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

fn count_named(node: &Value, name: &str) -> usize {
    let own = usize::from(node.get("name").and_then(Value::as_str) == Some(name));
    let children = node
        .get("children")
        .and_then(Value::as_arr)
        .map(|kids| kids.iter().map(|k| count_named(k, name)).sum::<usize>())
        .unwrap_or(0);
    own + children
}

/// The sampled profile names each stage once, whatever the module: its
/// per-function spans (`unit` computes, `function` exec shares) fold under
/// their category, so a 33-function module cannot fill the stage cap and
/// a stage first seen later (`fit`) is still recorded.
#[test]
fn sampled_profile_folds_per_function_spans() {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    use pt_server::protocol::request_envelope;
    use pt_server::{handle_line, ServerState, Store};

    let mut m = Module::new("wide");
    let mut kernels = Vec::new();
    for i in 0..32 {
        let mut b = FunctionBuilder::new(
            format!("work_{i:02}"),
            vec![("n".into(), Type::I64)],
            Type::Void,
        );
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![IrValue::int(3)], Type::Void);
        });
        b.ret(None);
        kernels.push(m.add_function(b.finish()));
    }
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
    for &f in &kernels {
        b.call(f, vec![n], Type::Void);
    }
    b.ret(None);
    m.add_function(b.finish());

    let store_dir = fresh_store_dir("sampled");
    let state = ServerState::new(Store::open(&store_dir).expect("store"), 1, 4)
        .with_trace_sampling(Some(1));
    let mut id = 0;
    let mut call = |method: &str, params: Value| {
        id += 1;
        let response = handle_line(&state, &request_envelope(id, method, params).render());
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{}",
            response.render()
        );
        response.get("result").cloned().expect("result")
    };
    let text = pt_ir::printer::print_module(&m);
    let submitted = call(
        "submit_module",
        Value::obj(vec![("text", Value::str(text))]),
    );
    let module = submitted.get("module").and_then(Value::as_str).unwrap();
    let target = |extra: Vec<(&'static str, Value)>| {
        let mut fields = vec![
            ("module", Value::str(module)),
            ("entry", Value::str("main")),
        ];
        fields.extend(extra);
        Value::obj(fields)
    };
    call("static_analysis", target(vec![]));
    call(
        "taint_run",
        target(vec![("params", Value::obj(vec![("n", Value::int(4))]))]),
    );
    call(
        "fit_model",
        Value::parse(
            r#"{"param_names":["n"],"points":[
                {"coords":[4],"reps":[4.1]},{"coords":[8],"reps":[8.0]},
                {"coords":[16],"reps":[16.2]},{"coords":[32],"reps":[31.9]}]}"#,
        )
        .unwrap(),
    );
    let metrics = call("metrics", Value::Obj(Vec::new()));
    let stages = metrics
        .get("sampled_profile")
        .and_then(|p| p.get("stages"))
        .expect("sampled stages");
    let names: Vec<&str> = match stages {
        Value::Obj(fields) => fields.iter().map(|(name, _)| name.as_str()).collect(),
        other => panic!("stages is not an object: {}", other.render()),
    };
    assert!(names.contains(&"fit"), "fit was dropped: {names:?}");
    for folded in ["unit", "function"] {
        assert!(names.contains(&folded), "{folded} missing: {names:?}");
    }
    assert!(
        !names.iter().any(|name| name.contains("work_")),
        "a per-function stage name leaked: {names:?}"
    );
    // Each sampled request's root span is its one `request` stage.
    let sampled = metrics
        .get("sampled_profile")
        .and_then(|p| p.get("requests_sampled"))
        .and_then(Value::as_u64)
        .expect("requests_sampled");
    assert_eq!(
        stages
            .get("request")
            .and_then(|r| r.get("count"))
            .and_then(Value::as_u64),
        Some(sampled),
        "the request stage is counted once per sampled request"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}
