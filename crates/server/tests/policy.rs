//! Protocol v1.4: the `policy` field end to end — a security-policy
//! module served over the wire, with per-policy run counters and
//! policy-salted analysis store keys.

use pt_server::{Client, Server, ServerConfig};
use serde::json::Value;
use std::net::SocketAddr;
use std::path::PathBuf;

fn fresh_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pt-serve-policy-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(store_dir: &PathBuf) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig::loopback(store_dir, 4)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle)
}

fn get<'v>(v: &'v Value, path: &[&str]) -> &'v Value {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing field {key} in {}", v.render()));
    }
    cur
}

/// A module with the three security intrinsics: every request payload is
/// marked at source 1, alternately sanitized, and checked at sink 1.
fn security_module_text() -> String {
    use pt_ir::{BinOp, CmpPred, FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new("policy_demo");
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
    let pslot = b.alloca(1i64);
    b.call_external("MPI_Comm_size", vec![pslot], Type::Void);
    b.for_loop(0i64, n, 1i64, |b, i| {
        let scaled = b.bin(BinOp::Mul, i, 3i64);
        let raw = b.add(scaled, 1i64);
        let v = b.call_external("pt_taint_source", vec![raw, IrValue::int(1)], Type::I64);
        let clean = b.call_external("pt_sanitize", vec![v], Type::I64);
        let parity = b.bin(BinOp::Rem, i, 2i64);
        let even = b.cmp(CmpPred::Eq, parity, 0i64);
        let picked = b.select(even, clean, v);
        b.call_external("pt_sink_check", vec![picked, IrValue::int(1)], Type::I64);
        b.call_external("pt_work_flops", vec![IrValue::int(5)], Type::Void);
    });
    b.call_external("MPI_Allreduce", vec![n], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    pt_ir::printer::print_module(&m)
}

#[test]
fn security_policy_roundtrip() {
    let store_dir = fresh_store_dir("roundtrip");
    let (addr, handle) = start_server(&store_dir);
    let mut client = Client::connect(addr).expect("connect");

    let module_key = client
        .submit_module(&security_module_text())
        .expect("submit");
    let params = vec![("n".to_string(), 6), ("p".to_string(), 4)];

    // --- the same module under both policies -----------------------------
    let default_run = client
        .taint_run(&module_key, "main", &params)
        .expect("param-set run");
    assert!(
        default_run.get("sink_checks").is_none(),
        "the default policy must record no sink activity: {}",
        default_run.render()
    );

    let security_run = client
        .taint_run_with_policy(&module_key, "main", &params, Some("security"))
        .expect("security run");
    let sink = get(&security_run, &["sink_checks", "1"]);
    assert_eq!(
        get(sink, &["checks"]).as_u64(),
        Some(6),
        "every request reaches the audit sink: {}",
        security_run.render()
    );
    assert!(
        get(sink, &["violations"]).as_u64().unwrap() >= 3,
        "the unsanitized half must violate: {}",
        security_run.render()
    );

    // Everything outside the sink ledger is policy-independent (the
    // security policy is a strict superset of param-set).
    for field in ["functions", "table2", "taint_run_time"] {
        assert_eq!(
            get(&default_run, &[field]).render(),
            get(&security_run, &[field]).render(),
            "field {field} must not depend on the policy"
        );
    }

    // --- analysis keys are policy-salted: warm repeats stay byte-identical
    // per policy and never bleed across policies.
    let warm_security = client
        .taint_run_with_policy(&module_key, "main", &params, Some("security"))
        .expect("warm security");
    assert_eq!(warm_security.render(), security_run.render());
    let warm_default = client
        .taint_run(&module_key, "main", &params)
        .expect("warm param-set");
    assert_eq!(warm_default.render(), default_run.render());
    let stats = client.stats().expect("stats");
    assert!(
        get(&stats, &["served_from_store"]).as_u64().unwrap() >= 2,
        "both warm repeats come from the store: {}",
        stats.render()
    );

    // --- per-policy run counters (cold computes only) --------------------
    assert_eq!(get(&stats, &["policies", "param-set"]).as_u64(), Some(1));
    assert_eq!(get(&stats, &["policies", "security"]).as_u64(), Some(1));

    // --- analyze_batch carries the policy to every entry ------------------
    let batch = client
        .analyze_batch_with_policy(
            &module_key,
            "main",
            &[
                vec![("n".to_string(), 6), ("p".to_string(), 4)], // warm
                vec![("n".to_string(), 8), ("p".to_string(), 4)], // cold
            ],
            Some("security"),
        )
        .expect("security batch");
    let results = get(&batch, &["results"]).as_arr().unwrap();
    assert_eq!(
        get(&results[0], &["result"]).render(),
        security_run.render()
    );
    let cold = get(&results[1], &["result", "sink_checks", "1"]);
    assert_eq!(get(cold, &["checks"]).as_u64(), Some(8));

    // --- explicit "param-set" equals the omitted default ------------------
    let explicit = client
        .taint_run_with_policy(&module_key, "main", &params, Some("param-set"))
        .expect("explicit param-set");
    assert_eq!(explicit.render(), default_run.render());

    // --- unknown policy is a bad_request, not a crash ---------------------
    let err = client
        .taint_run_with_policy(&module_key, "main", &params, Some("strict"))
        .expect_err("unknown policy");
    assert_eq!(err.remote_kind(), Some("bad_request"));

    // --- sampled always-on profile shows up in metrics --------------------
    // loopback() samples every 64th request starting with the first, so at
    // least one request of this test is profiled.
    let metrics = client.metrics().expect("metrics");
    let profile = get(&metrics, &["sampled_profile"]);
    assert_eq!(get(profile, &["sample_every"]).as_u64(), Some(64));
    assert!(get(profile, &["requests_sampled"]).as_u64().unwrap() >= 1);
    assert!(
        get(profile, &["stages", "request", "count"])
            .as_u64()
            .unwrap()
            >= 1,
        "sampled profile must carry the synthetic request stage: {}",
        profile.render()
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}
