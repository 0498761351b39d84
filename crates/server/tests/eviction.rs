//! Store eviction under a size budget, end to end: a server capped at
//! 1 MiB keeps its on-disk store within budget no matter how many large
//! modules are submitted, and evicted artifacts degrade to cache misses —
//! recomputed byte-identically after a resubmission, including across a
//! server restart (the case where the in-memory module cache can't help).

use pt_server::{Client, Server, ServerConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const BUDGET: u64 = 1 << 20; // 1 MiB

fn fresh_store_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pt-serve-evict-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Total object bytes on disk (excluding any in-flight temp files) — the
/// quantity the budget bounds.
fn object_bytes_on_disk(root: &Path) -> u64 {
    ["modules", "analyses", "models"]
        .iter()
        .filter_map(|ns| std::fs::read_dir(root.join(ns)).ok())
        .flatten()
        .filter_map(Result::ok)
        .filter(|e| !e.file_name().to_str().is_some_and(|n| n.contains(".tmp.")))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// A distinct ~60 KB module per index: the demo pipeline shape (marked
/// parameter, parametric kernel, MPI exchange) plus hundreds of filler
/// functions to give the stored object real size.
fn big_module_text(idx: usize) -> String {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new(format!("evict_demo_{idx}"));
    for j in 0..700 {
        let mut b = FunctionBuilder::new(
            format!("pad_{idx}_{j}"),
            vec![("x".into(), Type::I64)],
            Type::I64,
        );
        let doubled = b.add(b.param(0), b.param(0));
        let v = b.add(doubled, IrValue::int(j as i64));
        b.ret(Some(v));
        m.add_function(b.finish());
    }
    let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
    b.for_loop(0i64, b.param(0), 1i64, |b, _| {
        b.call_external("pt_work_flops", vec![IrValue::int(5)], Type::Void);
    });
    b.ret(None);
    let kernel = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
    b.call(kernel, vec![n], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    pt_ir::printer::print_module(&m)
}

#[test]
fn budget_is_never_exceeded_and_evicted_artifacts_recompute_identically() {
    let store_dir = fresh_store_dir("budget");
    let config = ServerConfig {
        store_budget_bytes: Some(BUDGET),
        ..ServerConfig::loopback(&store_dir, 2)
    };
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    let mut client = Client::connect(addr).expect("connect");

    // The artifact whose eviction we will prove recomputes identically.
    let first_text = big_module_text(0);
    assert!(
        first_text.len() > 30_000,
        "filler must give modules real size ({}B)",
        first_text.len()
    );
    let first_key = client.submit_module(&first_text).expect("submit first");
    let params = vec![("n".to_string(), 17i64)];
    let baseline = client
        .taint_run(&first_key, "main", &params)
        .expect("cold taint_run")
        .render();

    // Flood the store with several budgets' worth of distinct modules. The
    // invariant is continuous: after *every* submission the on-disk object
    // bytes fit the budget.
    let flood = (BUDGET as usize * 5 / 2) / first_text.len() + 2;
    for i in 1..=flood {
        client
            .submit_module(&big_module_text(i))
            .expect("submit flood module");
        let on_disk = object_bytes_on_disk(&store_dir);
        assert!(
            on_disk <= BUDGET,
            "store exceeded budget after submission {i}: {on_disk} > {BUDGET}"
        );
    }

    // The flood must actually have forced evictions, visible in metrics.
    let metrics = client.metrics().expect("metrics");
    let evictions = metrics
        .get("store")
        .and_then(|s| s.get("evictions"))
        .and_then(serde::json::Value::as_u64)
        .unwrap();
    assert!(evictions > 0, "flood of {flood} modules never evicted");
    assert_eq!(
        metrics
            .get("store")
            .and_then(|s| s.get("budget_bytes"))
            .and_then(serde::json::Value::as_u64),
        Some(BUDGET)
    );
    let bytes = metrics
        .get("store")
        .and_then(|s| s.get("bytes"))
        .and_then(serde::json::Value::as_u64)
        .unwrap();
    assert!(bytes <= BUDGET, "indexed bytes {bytes} over budget");

    // Same process: the first module's store objects are long evicted
    // (coldest), but the request must still answer — byte-identical — via
    // the in-memory module cache and recomputation.
    let warm = client
        .taint_run(&first_key, "main", &params)
        .expect("post-eviction taint_run")
        .render();
    assert_eq!(warm, baseline, "recomputed result must be byte-identical");

    // That recomputation re-warmed the first module's *analysis* object in
    // the store. Flood again so the analysis is evicted too — the restart
    // below must find nothing of module 0 on disk.
    for i in flood + 1..=2 * flood {
        client
            .submit_module(&big_module_text(i))
            .expect("submit second flood module");
    }
    assert!(object_bytes_on_disk(&store_dir) <= BUDGET);

    client.shutdown().expect("shutdown");
    handle.join().expect("serve loop exits");

    // --- restart: eviction is visible, resubmission heals ----------------
    let server = Server::bind(&config).expect("rebind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    let mut client = Client::connect(addr).expect("reconnect");

    // The evicted module is genuinely gone: a fresh process can't know it.
    let err = client
        .taint_run(&first_key, "main", &params)
        .expect_err("evicted module is unknown to a fresh process");
    assert_eq!(err.remote_kind(), Some("bad_request"));

    // Resubmitting the same text yields the same content key, and the
    // recomputed analysis is byte-identical to the original cold run.
    let resubmitted = client.submit_module(&first_text).expect("resubmit");
    assert_eq!(resubmitted, first_key, "content addressing is stable");
    let healed = client
        .taint_run(&first_key, "main", &params)
        .expect("healed taint_run")
        .render();
    assert_eq!(healed, baseline, "healed result must be byte-identical");
    assert!(object_bytes_on_disk(&store_dir) <= BUDGET);

    client.shutdown().expect("shutdown");
    handle.join().expect("serve loop exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}
