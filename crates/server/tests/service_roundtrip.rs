//! The acceptance round trip: a live server over a loopback socket, driven
//! by the real [`pt_server::Client`].
//!
//! Proves the PR's contract end to end: `submit_module` → `taint_run`
//! twice gives byte-identical results, equal to the in-process
//! [`perf_taint::Session`] path; the second request is served from the
//! persistent store (observable via `stats`) — including from a *fresh
//! server process-equivalent* (new `Server`, same store directory) that
//! never saw the submission.

use pt_server::{Client, Server, ServerConfig};
use serde::json::Value;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique store directory per test (tests in one binary share a pid).
fn fresh_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pt-serve-it-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bind a server on an ephemeral loopback port and run it on a background
/// thread. Returns the address and the join handle (joined after
/// `shutdown` to prove the serve loop actually exits).
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

#[test]
fn full_roundtrip_with_store_hits_and_restart() {
    let store_dir = fresh_store_dir("roundtrip");
    let (addr, handle) = start_server(&store_dir);
    let mut client = Client::connect(addr).expect("connect");

    // --- submit_module ---------------------------------------------------
    let text = pt_server::demo_module_text();
    let module_key = client.submit_module(&text).expect("submit");
    assert_eq!(module_key.len(), 32);

    // --- static_analysis -------------------------------------------------
    let statics = client.static_analysis(&module_key, "main").expect("static");
    assert_eq!(
        get(&statics, &["functions_total"]).as_u64(),
        Some(4),
        "{}",
        statics.render()
    );

    // --- taint_run twice: byte-identical, second from the store ----------
    let params = vec![("n".to_string(), 6), ("p".to_string(), 4)];
    let r1 = client
        .taint_run(&module_key, "main", &params)
        .expect("cold run");
    let r2 = client
        .taint_run(&module_key, "main", &params)
        .expect("warm run");
    assert_eq!(
        r1.render(),
        r2.render(),
        "warm result must be byte-identical"
    );

    // ...and byte-identical to the in-process Session path.
    let module = perf_taint::parse_module(&text).unwrap();
    let session = perf_taint::SessionBuilder::new(&module, "main").build();
    let analysis = session.taint_run(params.clone()).unwrap();
    let local = perf_taint::analysis_summary(&analysis, &module).render();
    assert_eq!(
        r1.render(),
        local,
        "served result must match the library path"
    );

    // The warm run is observable in stats: at least one response served
    // from the persistent store.
    let stats = client.stats().expect("stats");
    let served = get(&stats, &["served_from_store"]).as_u64().unwrap();
    assert!(
        served >= 1,
        "expected a store-served response: {}",
        stats.render()
    );
    // The module and the one analysis; static summaries are not stored.
    assert_eq!(get(&stats, &["store", "objects"]).as_u64(), Some(2));

    // --- analyze_batch: mixed success/failure, per-entry envelopes --------
    let batch = client
        .analyze_batch(
            &module_key,
            "main",
            &[
                vec![("n".to_string(), 6), ("p".to_string(), 4)], // warm
                vec![("n".to_string(), 12), ("p".to_string(), 8)], // cold
                vec![("n".to_string(), 6), ("p".to_string(), 0)], // invalid ranks
            ],
        )
        .expect("batch");
    let results = get(&batch, &["results"]).as_arr().unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(get(&results[0], &["ok"]).as_bool(), Some(true));
    // The warm batch entry equals the direct run byte for byte.
    assert_eq!(get(&results[0], &["result"]).render(), r1.render());
    assert_eq!(get(&results[1], &["ok"]).as_bool(), Some(true));
    assert_eq!(get(&results[2], &["ok"]).as_bool(), Some(false));
    assert_eq!(
        get(&results[2], &["error", "kind"]).as_str(),
        Some("config")
    );

    // --- fit_model: cold then warm ----------------------------------------
    let fit_params = Value::parse(
        r#"{"param_names":["p","n"],"points":[
            {"coords":[4,8],"reps":[8.1,8.0]},
            {"coords":[4,16],"reps":[16.2,15.9]},
            {"coords":[4,32],"reps":[32.1,32.0]},
            {"coords":[8,8],"reps":[8.2]},
            {"coords":[8,16],"reps":[16.1]},
            {"coords":[8,32],"reps":[31.9]}],
           "restriction":[2]}"#,
    )
    .unwrap();
    let fit1 = client
        .request("fit_model", fit_params.clone())
        .expect("fit cold");
    let fit2 = client.request("fit_model", fit_params).expect("fit warm");
    assert_eq!(fit1.render(), fit2.render());
    assert!(get(&fit1, &["model"]).as_str().is_some());

    // --- error mapping across the wire ------------------------------------
    let err = client
        .taint_run("feedfacefeedfacefeedfacefeedface", "main", &[])
        .expect_err("unknown module");
    assert_eq!(err.remote_kind(), Some("bad_request"));
    let err = client
        .taint_run(&module_key, "nope", &[])
        .expect_err("unknown entry");
    assert_eq!(err.remote_kind(), Some("entry_not_found"));

    // --- shutdown: the serve loop exits ------------------------------------
    client.shutdown().expect("shutdown ack");
    handle.join().expect("server thread exits cleanly");

    // --- restart: same store, fresh process-equivalent ---------------------
    // No resubmission: the second server must serve the module hash and the
    // warm analysis straight from the persistent store.
    let (addr, handle) = start_server(&store_dir);
    let mut client = Client::connect(addr).expect("reconnect");
    let r3 = client
        .taint_run(&module_key, "main", &params)
        .expect("warm after restart");
    assert_eq!(
        r3.render(),
        r1.render(),
        "restart must not change served bytes"
    );
    let stats = client.stats().expect("stats after restart");
    assert!(
        get(&stats, &["served_from_store"]).as_u64().unwrap() >= 1,
        "restarted server must serve from the store: {}",
        stats.render()
    );
    // static_analysis recomputes the module's stage from the stored module
    // with the same bytes, and submit_module reports the module as already
    // known.
    let statics2 = client
        .static_analysis(&module_key, "main")
        .expect("static warm");
    assert_eq!(statics2.render(), statics.render());
    let resubmit = client
        .request(
            "submit_module",
            Value::obj(vec![("text", Value::str(&text))]),
        )
        .expect("resubmit");
    assert_eq!(get(&resubmit, &["known"]).as_bool(), Some(true));
    assert_eq!(
        get(&resubmit, &["module"]).as_str(),
        Some(module_key.as_str())
    );

    client.shutdown().expect("shutdown 2");
    handle.join().expect("server 2 exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn corrupt_store_objects_fall_back_to_recompute() {
    let store_dir = fresh_store_dir("corrupt");
    let (addr, handle) = start_server(&store_dir);
    let mut client = Client::connect(addr).expect("connect");
    let module_key = client
        .submit_module(&pt_server::demo_module_text())
        .expect("submit");
    let params = vec![("n".to_string(), 4), ("p".to_string(), 2)];
    let r1 = client
        .taint_run(&module_key, "main", &params)
        .expect("cold");

    // Corrupt every stored analysis object on disk.
    for entry in std::fs::read_dir(store_dir.join("analyses")).expect("analyses dir") {
        std::fs::write(entry.expect("entry").path(), "{truncated").expect("corrupt");
    }

    // The pipeline is deterministic: a corrupt object is a miss, the run
    // recomputes, answers identically, and heals the store.
    let r2 = client
        .taint_run(&module_key, "main", &params)
        .expect("recompute");
    assert_eq!(r2.render(), r1.render());
    let r3 = client
        .taint_run(&module_key, "main", &params)
        .expect("healed warm");
    assert_eq!(r3.render(), r1.render());
    let stats = client.stats().expect("stats");
    assert!(
        get(&stats, &["served_from_store"]).as_u64().unwrap() >= 1,
        "healed object serves warm again: {}",
        stats.render()
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn shutdown_completes_while_another_client_idles() {
    let store_dir = fresh_store_dir("idle-shutdown");
    let (addr, handle) = start_server(&store_dir);
    // An idle client parks a worker in a blocking read...
    let _idle = Client::connect(addr).expect("idle client");
    // ...but shutdown must still complete: reads poll the stop flag.
    let mut client = Client::connect(addr).expect("active client");
    client.shutdown().expect("shutdown ack");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("server must exit despite the idle connection")
        .expect("serve loop exits cleanly");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn concurrent_clients_share_one_static_stage() {
    let store_dir = fresh_store_dir("concurrent");
    let (addr, handle) = start_server(&store_dir);

    let text = pt_server::demo_module_text();
    let module_key = Client::connect(addr)
        .expect("connect")
        .submit_module(&text)
        .expect("submit");

    // Eight clients race distinct cold taint runs; every one must succeed
    // and the server must stay consistent under the contention.
    let runs: Vec<i64> = (1..=8).collect();
    let renders = pt_util::parallel_map(&runs, 8, |&n| {
        let mut client = Client::connect(addr).expect("connect worker");
        client
            .taint_run(
                &module_key,
                "main",
                &[("n".to_string(), n), ("p".to_string(), 4)],
            )
            .expect("worker run")
            .render()
    });
    assert_eq!(renders.len(), 8);
    // Distinct parameters give distinct analyses...
    let unique: std::collections::BTreeSet<&String> = renders.iter().collect();
    assert_eq!(unique.len(), 8);

    // ...all eight analyses landed in the store...
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    let objects = get(&stats, &["store", "objects"]).as_u64().unwrap();
    assert!(objects >= 9, "8 analyses + module, saw {objects}");

    // ...and a repeat of any of them is served from the store.
    let warm = client
        .taint_run(
            &module_key,
            "main",
            &[("n".to_string(), 3), ("p".to_string(), 4)],
        )
        .expect("warm");
    assert_eq!(&warm.render(), &renders[2]);

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn module_hashes_that_are_paths_never_reach_the_filesystem() {
    // Layout: <base>/store is the store root; the victims sit next to it,
    // reachable from <base>/store/modules as "../../rel-victim.txt" and by
    // absolute path.
    let base = fresh_store_dir("paths");
    let store_dir = base.join("store");
    std::fs::create_dir_all(&store_dir).expect("store dir");
    let secret = "SECRET-FIRST-LINE-do-not-echo";
    let body = format!("{secret}\n{}\n", "x".repeat(200));
    let abs_victim = base.join("abs-victim.txt");
    let rel_victim = base.join("rel-victim.txt");
    std::fs::write(&abs_victim, &body).expect("write victim");
    std::fs::write(&rel_victim, &body).expect("write victim");

    // A budget smaller than any victim: anything indexed gets evicted.
    let mut config = ServerConfig::loopback(&store_dir, 2);
    config.store_budget_bytes = Some(64);
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    let mut client = Client::connect(addr).expect("connect");
    let module_key = client
        .submit_module(&pt_server::demo_module_text())
        .expect("submit");

    let abs = abs_victim.to_str().expect("utf-8 temp path").to_string();
    for bad in [abs.as_str(), "../../rel-victim.txt"] {
        let errors = [
            client.static_analysis(bad, "main").expect_err("static"),
            client.taint_run(bad, "main", &[]).expect_err("taint_run"),
        ];
        for err in errors {
            assert_eq!(err.remote_kind(), Some("bad_request"), "{bad}: {err}");
            assert!(!err.to_string().contains(secret), "{bad} leaked: {err}");
        }
    }

    // Force evictions: every cold run writes an analysis past the budget.
    for n in 1..=4 {
        client
            .taint_run(
                &module_key,
                "main",
                &[("n".to_string(), n), ("p".to_string(), 2)],
            )
            .expect("cold run");
    }
    let stats = client.stats().expect("stats");
    assert!(get(&stats, &["store", "evictions"]).as_u64().unwrap() >= 4);
    assert!(
        abs_victim.exists(),
        "eviction deleted a file outside the store"
    );
    assert!(
        rel_victim.exists(),
        "eviction deleted a file outside the store"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn large_lines_cross_the_wire_without_a_delayed_ack_stall() {
    // A request or response line larger than one TCP segment used to sit
    // out the peer's ~40 ms delayed ACK: its trailing bytes went out as a
    // separate write with Nagle's algorithm on. Twenty such round trips
    // took over a second; without the stall they take a few milliseconds
    // each.
    let store_dir = fresh_store_dir("nagle");
    let (addr, handle) = start_server(&store_dir);
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.stream().nodelay().ok(), Some(true));

    let app = pt_apps::lulesh::build();
    let text = pt_ir::printer::print_module(&app.module);
    let params = app.taint_run_params();
    assert!(
        text.len() >= 16 * 1024,
        "LULESH text is {} bytes",
        text.len()
    );
    let module_key = client.submit_module(&text).expect("submit");
    let cold = client
        .taint_run(&module_key, &app.entry, &params)
        .expect("cold run");
    assert!(
        cold.render().len() >= 16 * 1024,
        "LULESH taint_run response is {} bytes",
        cold.render().len()
    );

    let started = std::time::Instant::now();
    for _ in 0..10 {
        assert_eq!(client.submit_module(&text).expect("resubmit"), module_key);
        let warm = client
            .taint_run(&module_key, &app.entry, &params)
            .expect("warm run");
        assert_eq!(warm.render().len(), cold.render().len());
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(20 * 20),
        "20 large round trips took {elapsed:?}"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("server exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}
