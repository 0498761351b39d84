//! Admission control under saturation: a deliberately tiny server (one
//! worker, one queue slot, shedding on) driven at far more than 2× its
//! capacity must (a) answer the overflow *immediately* with `overloaded`
//! envelopes carrying an adaptive `retry_after_ms` hint, (b) keep serving
//! the admitted requests to completion with bounded latency, and (c)
//! account for every event in the v1.1 `metrics` readout — histogram
//! counts matching the requests actually dispatched, shed totals matching
//! the `overloaded` replies observed client-side.

use pt_server::ops::{MAX_RETRY_HINT_MS, MIN_RETRY_HINT_MS};
use pt_server::{Client, ClientError, Server, ServerConfig};
use serde::json::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How long a shed client of the storm waits before retrying; shorter
/// than most hints, so the test stays fast.
const BACKOFF_MS: u64 = 25;

fn fresh_store_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pt-serve-ovl-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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
fn saturating_load_sheds_with_retry_hint_while_admitted_requests_complete() {
    let store_dir = fresh_store_dir("saturate");
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        shed: true,
        ..ServerConfig::loopback(&store_dir, 1)
    };
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));

    // Stage the module over a quiet connection before the storm.
    let text = pt_server::demo_module_text();
    let module_key = {
        let mut client = Client::connect(addr).expect("connect");
        client.submit_module(&text).expect("submit")
    };

    // Offered load: 12 connection-per-request threads against a capacity
    // of 2 (1 worker + 1 queue slot) — ≥ 6× capacity. Every taint_run uses
    // a unique `n`, so each admitted request pays a real (cold) pipeline
    // computation and the worker stays busy.
    const THREADS: usize = 12;
    const PER_THREAD: usize = 4;
    let ok = AtomicUsize::new(0);
    let overloaded = AtomicUsize::new(0);
    let gave_up = AtomicUsize::new(0);
    let bad = Mutex::new(Vec::<String>::new());
    let latencies = Mutex::new(Vec::<f64>::new());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (module_key, ok, overloaded, gave_up, bad, latencies) =
                (&module_key, &ok, &overloaded, &gave_up, &bad, &latencies);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let n = 5_000 + (t * PER_THREAD + i) as i64;
                    let mut attempts = 0;
                    loop {
                        attempts += 1;
                        if attempts > 100 {
                            gave_up.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        // Connection-per-request: each attempt arrives at
                        // the admission queue fresh, like a new client.
                        let Ok(mut client) = Client::connect(addr) else {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            continue;
                        };
                        let t0 = Instant::now();
                        match client.taint_run(module_key, "main", &[("n".into(), n)]) {
                            Ok(_) => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                latencies.lock().unwrap().push(t0.elapsed().as_secs_f64());
                                break;
                            }
                            Err(e) if e.remote_kind() == Some("overloaded") => {
                                overloaded.fetch_add(1, Ordering::Relaxed);
                                // The backoff hint is machine-readable and
                                // inside the adaptive hint's clamp.
                                let hint = e
                                    .retry_after_ms()
                                    .expect("overloaded envelope must carry retry_after_ms");
                                assert!(
                                    (MIN_RETRY_HINT_MS..=MAX_RETRY_HINT_MS).contains(&hint),
                                    "hint {hint} ms outside its clamp bounds"
                                );
                                std::thread::sleep(std::time::Duration::from_millis(BACKOFF_MS));
                            }
                            Err(ClientError::Io(_)) | Err(ClientError::Protocol(_)) => {
                                // Raced the shed write/close; treat like a
                                // shed without a hint.
                                std::thread::sleep(std::time::Duration::from_millis(BACKOFF_MS));
                            }
                            Err(e) => bad.lock().unwrap().push(e.to_string()),
                        }
                    }
                }
            });
        }
    });

    let ok = ok.load(Ordering::Relaxed);
    let overloaded = overloaded.load(Ordering::Relaxed);
    assert!(bad.lock().unwrap().is_empty(), "{:?}", bad.lock().unwrap());
    assert_eq!(gave_up.load(Ordering::Relaxed), 0, "requests starved out");
    assert_eq!(ok, THREADS * PER_THREAD, "every request eventually lands");
    assert!(
        overloaded > 0,
        "≥6× offered load over a 2-slot server must shed"
    );
    // Graceful degradation: admitted requests are bounded by the short
    // queue (at most ~2 cold computations ahead of any admitted request),
    // not by the offered load. The generous ceiling guards against
    // pathological blocking (e.g. the acceptor waiting on the queue),
    // which would show up as multi-second waits under this storm.
    let latencies = latencies.lock().unwrap();
    let p99 = pt_util::metrics::exact_quantile_seconds(&latencies, 0.99);
    assert!(p99 < 30.0, "admitted p99 unbounded: {p99}s");

    // --- the metrics method accounts for everything ----------------------
    let mut client = Client::connect(addr).expect("connect for metrics");
    let metrics = client.metrics().expect("metrics");
    assert_eq!(get(&metrics, &["protocol"]).as_u64(), Some(1));
    assert_eq!(get(&metrics, &["protocol_minor"]).as_u64(), Some(9));
    assert!(get(&metrics, &["uptime_seconds"]).as_f64().unwrap() > 0.0);
    // Shed requests never reach dispatch, so the taint_run histogram holds
    // exactly the requests that were admitted and served.
    assert_eq!(
        get(&metrics, &["methods", "taint_run", "count"]).as_u64(),
        Some(ok as u64),
        "histogram count must match served requests: {}",
        metrics.render()
    );
    assert_eq!(
        get(&metrics, &["methods", "taint_run", "errors"]).as_u64(),
        Some(0)
    );
    assert!(
        get(&metrics, &["methods", "taint_run", "p99_ms"])
            .as_f64()
            .unwrap()
            > 0.0
    );
    // Every overloaded reply the clients saw is a shed the server counted
    // (the server may additionally have shed raced connections whose
    // envelope write failed, so ≥).
    let shed_total = get(&metrics, &["queue", "shed_total"]).as_u64().unwrap();
    assert!(
        shed_total >= overloaded as u64,
        "server counted {shed_total} sheds, clients saw {overloaded}"
    );
    assert_eq!(get(&metrics, &["queue", "capacity"]).as_u64(), Some(1));

    // --- stats satellite: uptime + live queue depth ----------------------
    let stats = client.stats().expect("stats");
    assert!(get(&stats, &["uptime_seconds"]).as_f64().unwrap() > 0.0);
    assert!(get(&stats, &["queue_depth"]).as_i64().unwrap() >= 0);
    assert_eq!(get(&stats, &["protocol_minor"]).as_u64(), Some(9));

    client.shutdown().expect("shutdown");
    handle.join().expect("serve loop exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn adaptive_retry_hint_derives_from_observed_service_time() {
    // Protocol v1.3: shed envelopes carry a hint derived from the worst
    // observed per-method p99 — bounded to [25, 5000] ms — instead of a
    // hardcoded constant.
    let store_dir = fresh_store_dir("adaptive");
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        shed: true,
        ..ServerConfig::loopback(&store_dir, 1)
    };
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));

    // Seed the histograms with real service time (a cold taint_run), then
    // release the worker.
    let text = pt_server::demo_module_text();
    {
        let mut client = Client::connect(addr).expect("connect");
        let module_key = client.submit_module(&text).expect("submit");
        client
            .taint_run(&module_key, "main", &[("n".into(), 4_096)])
            .expect("taint_run");
    }

    // Capture the worker with an idle connection, park a second connection
    // in the single queue slot, and let further arrivals hit the shed path.
    let hold_worker = std::net::TcpStream::connect(addr).expect("hold worker");
    std::thread::sleep(std::time::Duration::from_millis(200));
    let hold_queue = std::net::TcpStream::connect(addr).expect("hold queue");
    std::thread::sleep(std::time::Duration::from_millis(200));

    let mut hint = None;
    for _ in 0..50 {
        let Ok(mut probe) = Client::connect(addr) else {
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        };
        match probe.stats() {
            Err(e) if e.remote_kind() == Some("overloaded") => {
                hint = Some(e.retry_after_ms().expect("shed envelope carries a hint"));
                break;
            }
            // Raced the queue (or the shed write); try again.
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let hint = hint.expect("a shed with an adaptive hint");
    assert!(
        (MIN_RETRY_HINT_MS..=MAX_RETRY_HINT_MS).contains(&hint),
        "adaptive hint {hint} ms outside its clamp bounds"
    );

    drop(hold_worker);
    drop(hold_queue);
    // The released worker may take one idle-poll tick to notice the EOFs;
    // retry the shutdown through any residual sheds.
    let mut shut = false;
    for _ in 0..100 {
        if Client::connect(addr)
            .ok()
            .and_then(|mut c| c.shutdown().ok())
            .is_some()
        {
            shut = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(shut, "shutdown never admitted");
    handle.join().expect("serve loop exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn default_config_still_blocks_instead_of_shedding() {
    // The pre-v1.1 stance is preserved: without --shed, a full queue makes
    // arrivals wait; nobody is answered `overloaded`.
    let store_dir = fresh_store_dir("blocking");
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::loopback(&store_dir, 1)
    };
    assert!(!config.shed, "blocking backpressure is the default");
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));

    let text = pt_server::demo_module_text();
    let module_key = {
        let mut client = Client::connect(addr).expect("connect");
        client.submit_module(&text).expect("submit")
    };
    let overloaded = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let (module_key, ok, overloaded) = (&module_key, &ok, &overloaded);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                match client.taint_run(module_key, "main", &[("n".into(), 900 + t as i64)]) {
                    Ok(_) => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.remote_kind() == Some("overloaded") => {
                        overloaded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected failure: {e}"),
                }
            });
        }
    });
    assert_eq!(overloaded.load(Ordering::Relaxed), 0);
    assert_eq!(ok.load(Ordering::Relaxed), 8);

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("serve loop exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}
