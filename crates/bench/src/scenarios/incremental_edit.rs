//! `incremental_edit` — the content-addressed edit loop, through a real
//! loopback socket.
//!
//! Stands a `pt-server` up with a throwaway store, submits an N-function
//! module, then drives an editor's inner loop: change one function's
//! constant, resubmit, re-request the static analysis. Every resubmission
//! is a new module hash (so the response store cannot answer it), but the
//! per-function artifact cache behind the server's `SessionCache` reuses
//! every untouched function, so the recomputed share of the static stage
//! (`edit_recompute_fraction`, from the server's `stats` ledger) tracks the
//! edited cones, not the module size. The served bytes are checked against
//! a cold in-process recompute on every iteration: incrementality must
//! never change a single byte of output. `perfbench`'s `serve_edit_mix`
//! times the same loop.

use super::{outln, Scenario, ScenarioCtx, ScenarioResult};
use perf_taint::report::static_summary;
use perf_taint::{PtError, SessionBuilder};
use pt_server::{Client, Server, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct IncrementalEdit;

/// The edit loop: function-granular reuse across module resubmissions.
impl Scenario for IncrementalEdit {
    fn name(&self) -> &'static str {
        "incremental_edit"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["service", "infra", "incremental"]
    }

    fn summary(&self) -> &'static str {
        "pt-serve edit loop: per-function artifact reuse across module resubmissions"
    }

    fn run(&self, cx: &ScenarioCtx) -> Result<ScenarioResult, PtError> {
        let mut r = ScenarioResult::new();
        let io_err = |what: &str, e: &dyn std::fmt::Display| {
            PtError::Config(format!("incremental_edit: {what}: {e}"))
        };

        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let store_dir = std::env::temp_dir().join(format!(
            "pt-edit-bench-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&store_dir);

        let server = Server::bind(&ServerConfig::loopback(&store_dir, cx.threads.max(2)))
            .map_err(|e| io_err("cannot bind loopback server", &e))?;
        let addr = server
            .local_addr()
            .map_err(|e| io_err("cannot read bound address", &e))?;
        let server_thread = std::thread::spawn(move || server.run());

        let outcome = drive(&mut r, addr, cx.quick);

        let mut shutdown = Err("never attempted".to_string());
        for _ in 0..10 {
            shutdown = Client::connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|mut c| c.shutdown().map(|_| ()).map_err(|e| e.to_string()));
            if shutdown.is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        if shutdown.is_ok() {
            let _ = server_thread.join();
        }
        let _ = std::fs::remove_dir_all(&store_dir);
        outcome?;
        shutdown.map_err(|e| io_err("shutdown failed", &e))?;
        Ok(r)
    }
}

/// The synthetic editable app: `funcs` loop kernels all called from
/// `main`, each spinning `n` iterations of a distinct constant amount of
/// work. `edited` replaces one kernel's constant — the smallest realistic
/// edit, invalidating exactly that kernel and its caller.
fn module_text(funcs: usize, edited: Option<(usize, i64)>) -> String {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new("edit_app");
    let mut ids = Vec::new();
    for i in 0..funcs {
        let flops = match edited {
            Some((j, v)) if j == i => v,
            _ => 3 + (i as i64 % 7),
        };
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

/// The cold truth: a throwaway in-process session over the same text. The
/// server's incremental answer must render to these exact bytes.
fn cold_summary_bytes(text: &str) -> Result<String, PtError> {
    let module = perf_taint::parse_module(text)?;
    let session = SessionBuilder::new(&module, "main").build();
    Ok(static_summary(&session.static_analysis(), &module).render())
}

fn drive(r: &mut ScenarioResult, addr: std::net::SocketAddr, quick: bool) -> Result<(), PtError> {
    let client_err =
        |what: &str, e: &dyn std::fmt::Display| PtError::Config(format!("{what}: {e}"));
    let (funcs, edits) = if quick { (12, 4) } else { (32, 12) };

    let mut client = Client::connect(addr).map_err(|e| client_err("connect", &e))?;

    // Cold: the first submission computes every function.
    let base = module_text(funcs, None);
    let key = client
        .submit_module(&base)
        .map_err(|e| client_err("cold submit_module", &e))?;
    let served = client
        .static_analysis(&key, "main")
        .map_err(|e| client_err("cold static_analysis", &e))?;
    if served.render() != cold_summary_bytes(&base)? {
        return Err(PtError::Config(
            "cold served summary differs from in-process compute".into(),
        ));
    }

    // Warm loop: each iteration edits one kernel's constant and replays
    // submit + static_analysis. The response store never hits (every edit
    // is a fresh module hash); only per-function reuse avoids recomputing
    // the untouched functions.
    for e in 0..edits {
        let text = module_text(funcs, Some((e % funcs, 1000 + e as i64)));
        let key = client
            .submit_module(&text)
            .map_err(|e| client_err("warm submit_module", &e))?;
        let served = client
            .static_analysis(&key, "main")
            .map_err(|e| client_err("warm static_analysis", &e))?;
        if served.render() != cold_summary_bytes(&text)? {
            return Err(PtError::Config(format!(
                "edit {e}: served summary differs from a cold recompute"
            )));
        }
    }

    // The v1.2 ledger: how much of the static stage the edits recomputed.
    let stats = client.stats().map_err(|e| client_err("stats", &e))?;
    let ledger = |field: &str| {
        stats
            .get("functions")
            .and_then(|f| f.get(field))
            .and_then(serde::json::Value::as_u64)
            .unwrap_or(0)
    };
    let (total, reused_mem, recomputed) = (
        ledger("total"),
        ledger("reused_memory"),
        ledger("recomputed"),
    );
    let recompute_fraction = if total > 0 {
        recomputed as f64 / total as f64
    } else {
        1.0
    };

    outln!(r, "pt-serve incremental edit loop (loopback {addr})");
    outln!(r, "  module: {funcs} kernels + main, {edits} edit(s)");
    outln!(
        r,
        "  function units: {total} needed = {reused_mem} memory + {recomputed} recomputed"
    );
    outln!(
        r,
        "  recompute fraction: {:.3} (edited cones only)",
        recompute_fraction
    );
    outln!(r, "  served bytes byte-identical to cold recompute: yes");

    // The share of the static stage the edit loop recomputed.
    r.metric("edit_recompute_fraction", recompute_fraction);
    Ok(())
}
