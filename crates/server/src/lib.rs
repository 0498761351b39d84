//! # pt-serve — the perf-taint pipeline as a standing service
//!
//! The library pipeline (taint-based classification → clean measurements →
//! Extra-P model fitting) is reachable in-process through
//! [`perf_taint::Session`]; this crate makes that amortization durable and
//! network-reachable. `pt-server` is a long-running, multi-client TCP
//! service speaking newline-delimited JSON ([`protocol`]). It holds each
//! served module once, beside its static stage; a persistent
//! content-addressed artifact [`store`] keeps submitted modules,
//! taint-run analyses, and fitted models on disk, so repeat taint runs
//! and fits skip the pipeline entirely, across clients *and* across
//! server restarts.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//! acceptor ──▶ BoundedQueue<TcpStream> ──▶ N worker threads
//!     │          (backpressure when full)     └─ per line: parse → dispatch
//!     └─ shed mode: full queue answers           (catch_unwind; PtError →
//!        `overloaded` + retry_after_ms            error envelope) → respond
//! ```
//!
//! The request catalogue (`submit_module`, `static_analysis`, `taint_run`,
//! `analyze_batch`, `fit_model`, `trace`, `stats`, `metrics`, `shutdown`)
//! lives in [`state`]; production-operations concerns — per-method latency
//! metrics, admission control, store eviction budgets and request tracing
//! — live in [`ops`], [`store`], and [`pt_util::trace`]; the wire shapes
//! are documented in `crates/server/README.md`.

pub mod client;
pub mod ops;
pub mod protocol;
pub mod state;
pub mod store;

pub use client::{Client, ClientError};
pub use protocol::{ServeError, PROTOCOL_MINOR, PROTOCOL_VERSION};
pub use state::ServerState;
pub use store::{content_key, ArtifactKind, Store, StoreKey, CONFIG_FINGERPRINT};

use pt_util::{BoundedQueue, TryPushError};
use serde::json::Value;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;

/// How a [`Server`] is stood up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (read it back via
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Root of the persistent artifact store.
    pub store_dir: PathBuf,
    /// Worker threads serving connections (also the `analyze_batch` fan-out
    /// budget).
    pub workers: usize,
    /// Bound of the pending-connection queue; acceptors block (backpressure)
    /// when it is full.
    pub queue_capacity: usize,
    /// Keep-alive limit: a connection idle (no complete request) for
    /// longer than this is closed, releasing its worker. `None` keeps
    /// connections forever (the pre-limit behavior).
    pub idle_timeout: Option<std::time::Duration>,
    /// Keep-alive limit: a connection is closed after serving this many
    /// requests; the client reconnects (cheap) and the workers rotate
    /// fairly across chatty clients. `None` = unlimited.
    pub max_requests_per_connection: Option<u64>,
    /// `true`: a full connection queue sheds new arrivals with an
    /// `overloaded` envelope (protocol v1.1) instead of blocking the
    /// accept loop. The envelope's `retry_after_ms` hint is derived from
    /// the worst observed per-method p99 service time
    /// ([`ops::Ops::derived_retry_hint_ms`]). `false` (default): classic
    /// blocking backpressure.
    pub shed: bool,
    /// Size budget for the artifact store; when total object bytes exceed
    /// it, the coldest objects are evicted (LRU). `None` = unbounded.
    pub store_budget_bytes: Option<u64>,
    /// Sampled always-on tracing (protocol v1.4): every Nth request runs
    /// under the request tracer and its per-stage wall totals are folded
    /// into a bounded in-memory profile that `metrics` reports as
    /// `sampled_profile`, a continuous picture of where *typical* request
    /// time goes at 1/N of tracing's bookkeeping cost. `None` = off.
    pub trace_sample_every: Option<u64>,
}

impl ServerConfig {
    /// Loopback on an ephemeral port, `workers` threads, store at
    /// `store_dir`.
    pub fn loopback(store_dir: impl Into<PathBuf>, workers: usize) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            store_dir: store_dir.into(),
            workers,
            queue_capacity: 64,
            idle_timeout: None,
            max_requests_per_connection: None,
            shed: false,
            store_budget_bytes: None,
            trace_sample_every: Some(64),
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks the calling
/// thread until a `shutdown` request is served.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listener and open the store.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let store = Store::open(&config.store_dir)?.with_budget(config.store_budget_bytes);
        let state = Arc::new(
            ServerState::new(store, config.workers, config.queue_capacity)
                .with_keepalive_limits(config.idle_timeout, config.max_requests_per_connection)
                .with_shedding(config.shed)
                .with_trace_sampling(config.trace_sample_every),
        );
        Ok(Server { listener, state })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state (stats introspection for harnesses/tests).
    pub fn state(&self) -> Arc<ServerState> {
        self.state.clone()
    }

    /// Serve until a `shutdown` request arrives: the acceptor pushes
    /// connections onto a bounded queue, workers pop and serve them one
    /// request-line at a time. Already-queued connections are drained
    /// before the workers exit, and idle connections are released when
    /// shutdown starts (reads poll the stop flag on a short timeout), so
    /// `run` returns even while other clients are connected.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        // The shutdown nudge must be a connectable address: a wildcard
        // bind (0.0.0.0 / ::) is not connectable on every platform, so
        // redirect it to the matching loopback.
        let nudge_addr = if addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = match addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            };
            SocketAddr::new(loopback, addr.port())
        } else {
            addr
        };
        // Connections carry their accept instant so the time spent waiting
        // for a worker is attributable ("server"/"queue_wait" spans in the
        // `--trace-out` export).
        let queue = BoundedQueue::<(TcpStream, std::time::Instant)>::new(self.state.queue_capacity);
        let state = &self.state;
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(state.workers);
            for _ in 0..state.workers {
                let queue = &queue;
                workers.push(scope.spawn(move || {
                    while let Some((stream, accepted)) = queue.pop() {
                        state.ops().queue_depth.dec();
                        if pt_util::trace::enabled() {
                            pt_util::trace::record_span(
                                0,
                                0,
                                "server",
                                "queue_wait",
                                pt_util::trace::nanos_since_epoch(accepted),
                                pt_util::trace::nanos_since_epoch(std::time::Instant::now()),
                            );
                        }
                        handle_connection(state, stream, nudge_addr);
                    }
                }));
            }
            'accept: for incoming in self.listener.incoming() {
                if state.stopping() {
                    break;
                }
                match incoming {
                    Ok(stream) if state.shed => {
                        // Admission control: never block the accept path. A
                        // full queue answers the newcomer immediately with
                        // `overloaded` + retry_after_ms and moves on.
                        match queue.try_push((stream, std::time::Instant::now())) {
                            Ok(()) => state.ops().queue_depth.inc(),
                            Err(TryPushError::Full((stream, _))) => {
                                state.ops().shed_total.inc();
                                ops::shed_connection(stream, state.ops().derived_retry_hint_ms());
                            }
                            Err(TryPushError::Closed(_)) => break 'accept,
                        }
                    }
                    Ok(stream) => {
                        // Classic backpressure: block until a slot frees.
                        if queue.push((stream, std::time::Instant::now())).is_err() {
                            break;
                        }
                        state.ops().queue_depth.inc();
                    }
                    // Transient accept failures (EMFILE, aborted handshake)
                    // should not kill the service.
                    Err(_) => continue,
                }
            }
            queue.close();
            // Join explicitly: the scope's implicit join waits only for the
            // closures to return, not for the threads to exit, so `run`
            // could return while a worker still holds its malloc arena and
            // the next server in this process would get a fresh one.
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        Ok(())
    }
}

/// How often an idle connection's read wakes to poll the stop flag.
const IDLE_POLL: std::time::Duration = std::time::Duration::from_millis(200);

/// Hard cap on one request line. Large modules fit comfortably (the demo
/// module is ~2 KB; the biggest evaluation app renders well under 1 MB);
/// a client streaming newline-free bytes must not grow server memory
/// without bound.
const MAX_REQUEST_BYTES: usize = 64 * 1024 * 1024;

/// Serve one connection: newline-delimited requests, one response line
/// each, until the client hangs up or shutdown begins. Reads run on a
/// short timeout so a worker parked on an idle client still observes the
/// stop flag. After serving the `shutdown` request itself, the worker
/// nudges the acceptor awake with a throwaway connection so the blocking
/// `accept` observes the flag too.
fn handle_connection(state: &ServerState, stream: TcpStream, nudge_addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    // Each response is one write (`protocol::write_line`); without
    // `TCP_NODELAY` one sent right after the previous response would wait
    // for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    // Keep-alive accounting: idleness is measured from the last completed
    // response (or connection start) — a slow *computation* is not idle.
    let mut last_activity = std::time::Instant::now();
    let mut served: u64 = 0;
    loop {
        // Read raw bytes, not `read_line`: `read_until` keeps partially
        // read bytes in `buf` across timeouts unconditionally, whereas
        // `read_line` discards a call's bytes when a timeout lands
        // mid-UTF-8-character. UTF-8 is validated once per complete line.
        // The reader is capped per iteration so `read_until` cannot grow
        // `buf` past the request bound inside its own loop, no matter how
        // fast a newline-free flood arrives; hitting the cap surfaces as
        // an over-limit `buf` below.
        let allowed = (MAX_REQUEST_BYTES + 1).saturating_sub(buf.len()) as u64;
        match std::io::Read::take(&mut reader, allowed).read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF: client hung up
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if state.stopping() {
                    break;
                }
                // Idle-connection limit: drop clients that sit silent
                // (mid-request bytes count as activity only once the full
                // line lands — a trickling client is still bounded).
                if let Some(limit) = state.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        break;
                    }
                }
                continue;
            }
            Err(_) => break,
        }
        if buf.len() > MAX_REQUEST_BYTES {
            // Oversized request: answer once, then drop the connection
            // (the rest of the line is unread garbage).
            let response = protocol::error_response(
                &Value::Null,
                &ServeError::BadRequest(format!("request exceeds {MAX_REQUEST_BYTES} bytes")),
            );
            let _ = protocol::write_line(&mut writer, &response);
            break;
        }
        let was_stopping = state.stopping();
        let response = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => {
                // Blank lines are not requests, but they must not bypass
                // the connection limits either: a blank-line flood neither
                // resets the idle clock nor dodges shutdown.
                buf.clear();
                if state.stopping() {
                    break;
                }
                if let Some(limit) = state.idle_timeout {
                    if last_activity.elapsed() >= limit {
                        break;
                    }
                }
                continue;
            }
            Ok(line) => handle_line(state, line),
            Err(_) => protocol::error_response(
                &Value::Null,
                &ServeError::BadRequest("request line is not valid UTF-8".into()),
            ),
        };
        buf.clear();
        if protocol::write_line(&mut writer, &response).is_err() {
            break;
        }
        served += 1;
        last_activity = std::time::Instant::now();
        // Per-connection request budget: close after the response so the
        // client sees a clean EOF and reconnects.
        if state
            .max_requests_per_connection
            .is_some_and(|limit| served >= limit)
        {
            break;
        }
        if state.stopping() {
            // Close every connection once shutdown starts — a busy client
            // must not pin its worker past its in-flight request. Only the
            // initiating request nudges the acceptor awake.
            if !was_stopping {
                let _ = TcpStream::connect(nudge_addr);
            }
            break;
        }
    }
}

/// One request line → one response document. Dispatch runs under
/// `catch_unwind`: a handler bug costs the client an `internal` error
/// envelope, never the server process ("no panics across the wire").
///
/// With sampling configured (`trace_sample_every`), every Nth request
/// runs under its own trace and its per-stage totals are folded into the
/// bounded profile `metrics` reports.
pub fn handle_line(state: &ServerState, line: &str) -> Value {
    let request = match protocol::parse_request(line) {
        Ok(r) => r,
        Err((id, e)) => return protocol::error_response(&id, &e),
    };
    let dispatch = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.dispatch(&request.method, &request.params)
        }))
    };
    let outcome = if state.sampling_due() {
        let run = state::traced(dispatch);
        state.record_sample(&run.events);
        run.outcome
    } else {
        dispatch()
    };
    match outcome {
        Ok(Ok(result)) => protocol::ok_response(&request.id, result),
        Ok(Err(e)) => protocol::error_response(&request.id, &e),
        Err(payload) => {
            let message = pt_util::panic_message(payload.as_ref(), "unknown payload");
            protocol::error_response(
                &request.id,
                &ServeError::Internal(format!("handler panicked: {message}")),
            )
        }
    }
}

/// The canonical demo module, shared by `pt-client demo`, the bench
/// scenario, the integration tests, and the CI smoke job: a small program
/// with a marked parameter `n`, an implicit rank count `p`, a parametric
/// kernel, an MPI-calling comm routine, and a statically constant getter —
/// every classification the pipeline distinguishes.
pub fn demo_module_text() -> String {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new("pt_serve_demo");
    let mut b = FunctionBuilder::new("getter", vec![("d".into(), Type::Ptr)], Type::I64);
    let v = b.load(b.param(0), Type::I64);
    b.ret(Some(v));
    m.add_function(b.finish());
    let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
    b.for_loop(0i64, b.param(0), 1i64, |b, _| {
        b.call_external("pt_work_flops", vec![IrValue::int(5)], Type::Void);
    });
    b.ret(None);
    let kernel = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("exchange", vec![("n".into(), Type::I64)], Type::Void);
    b.call_external("MPI_Allreduce", vec![b.param(0)], Type::Void);
    b.ret(None);
    let exchange = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
    let pslot = b.alloca(1i64);
    b.call_external("MPI_Comm_size", vec![pslot], Type::Void);
    b.call(kernel, vec![n], Type::Void);
    b.call(exchange, vec![n], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    pt_ir::printer::print_module(&m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_module_parses_and_verifies() {
        let text = demo_module_text();
        let m = perf_taint::parse_module(&text).expect("demo parses");
        assert!(pt_ir::verify_module(&m).is_ok());
        assert_eq!(m.functions.len(), 4);
        assert!(m.function_by_name("main").is_some());
    }

    #[test]
    fn handle_line_maps_panics_to_internal_errors() {
        let dir = std::env::temp_dir().join(format!("pt-serve-panic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = ServerState::new(Store::open(&dir).unwrap(), 1, 4);
        // An unknown method is a bad_request, not a panic.
        let resp = handle_line(&state, r#"{"v":1,"id":1,"method":"nope"}"#);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("bad_request")
        );
        // Malformed JSON still yields a well-formed envelope with id null.
        let resp = handle_line(&state, "{nope");
        assert_eq!(resp.get("id"), Some(&Value::Null));
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
