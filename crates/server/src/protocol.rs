//! The wire protocol: newline-delimited JSON, version 1 (revision 1.10).
//!
//! One request per line, one response per line, both single JSON objects
//! rendered compactly (the renderer escapes every control character, so a
//! document never contains a raw newline). Shapes:
//!
//! ```text
//! → {"v":1,"id":7,"method":"taint_run","params":{...}}
//! ← {"v":1,"id":7,"ok":true,"result":{...}}
//! ← {"v":1,"id":7,"ok":false,"error":{"kind":"entry_not_found","message":"..."}}
//! ```
//!
//! `id` is echoed verbatim (any JSON value; `null` when a request was too
//! malformed to carry one). `kind` is a stable machine-readable error
//! family — see [`ServeError`] — and `message` is the human-readable
//! rendering of the underlying [`PtError`] (or harness failure). The full
//! request/response catalogue is documented in `crates/server/README.md`.

use perf_taint::PtError;
use serde::json::Value;
use std::io::{self, Write};

/// Version of the wire protocol. Served in every response and checked on
/// every request (a request naming a different version is rejected with
/// kind `bad_request` before dispatch).
pub const PROTOCOL_VERSION: u64 = 1;

/// Backward-compatible revision within [`PROTOCOL_VERSION`]. Revision 1
/// ("protocol v1.1") added the `metrics` method and the `overloaded`
/// error envelope (with `retry_after_ms`). Revision 2 ("protocol v1.2")
/// added the `functions` object to `stats` and `metrics` — the
/// per-function static-stage reuse ledger (`total` / `reused_memory` /
/// `reused_store` / `recomputed`) behind the content-addressed edit loop.
/// Revision 3 ("protocol v1.3") added the `trace` method — run any other
/// method under a request-scoped tracer and get its structured span tree
/// back alongside the result — plus the `session_cache` object in `stats`
/// and `metrics`, and adaptive `retry_after_ms` hints derived from
/// observed per-method p99 latency when no fixed hint is configured.
/// Revision 4 ("protocol v1.4") added the optional `policy` field on
/// `submit_module`, `static_analysis`, `taint_run`, and `analyze_batch`
/// — selecting the taint policy (`"param-set"`, the default, or
/// `"security"`) the run executes under — plus per-policy run counters
/// and the sampled always-on request profile in `stats`/`metrics`.
/// Revision 5 ("protocol v1.5") removed the undocumented `tier` object
/// from `stats`/`metrics`: the execution tier it counted no longer
/// exists. The per-policy `policies` counters still count taint runs.
/// Revision 6 ("protocol v1.6") removed `reused_store` from the
/// `functions` ledger: per-function units are no longer persisted, so
/// the ledger is `total` = `reused_memory` + `recomputed`. It also
/// rejects a `module` field that is not a 32-digit lowercase hex hash
/// with `bad_request`.
/// Revision 7 ("protocol v1.7") removed `capacity` and `evictions` from
/// the `session_cache` object in `stats`/`metrics`: the session cache is
/// no longer boundable, so only `entries` remains. Shed envelopes always
/// carry the adaptive hint; the fixed-hint setting is gone.
/// Revision 8 ("protocol v1.8") keys the static stage by module alone:
/// it reads no taint policy, so requests under every policy share one
/// computed stage per module and one stored `static_analysis` summary
/// (summaries stored under the older policy-salted keys are no longer
/// read). `session_cache.entries` keeps its name and counts the modules
/// whose static stage the process holds; for single-policy traffic the
/// value is unchanged.
/// Revision 9 ("protocol v1.9") stops storing `static_analysis` summaries:
/// the server answers them from the module's in-memory static stage, so
/// `served_from_store` and the `store` counters no longer count them (a
/// restarted server recomputes a module's stage on its first request).
/// Every response keeps its shape and bytes.
/// Revision 10 ("protocol v1.10") bounds `fit_model`: a request naming
/// more than `MAX_FIT_PARAMS` (3) parameters or carrying more than
/// `MAX_FIT_POINTS` (512) points is a `bad_request` naming the limit.
/// Every admitted fit keeps its bytes.
/// No other documented field changed shape; v1 clients are unaffected —
/// the wire `v` field stays `1`.
pub const PROTOCOL_MINOR: u64 = 10;

/// A parsed request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed back verbatim in the response.
    pub id: Value,
    pub method: String,
    /// Method parameters (defaults to an empty object).
    pub params: Value,
}

/// Any failure the service maps onto the wire — the service-side superset
/// of [`PtError`]. Nothing else crosses the wire: handler panics are caught
/// and reported as [`ServeError::Internal`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request itself is unusable: malformed JSON, missing fields,
    /// unknown method, unknown module hash, wrong protocol version.
    BadRequest(String),
    /// The pipeline rejected the work.
    Pt(PtError),
    /// Admission control shed the request: the queue was full and the
    /// server chose to answer immediately instead of making the client
    /// wait unboundedly. `retry_after_ms` is the server's backoff hint,
    /// carried as its own envelope field.
    Overloaded { retry_after_ms: u64 },
    /// A handler panicked; the payload message, never a propagated panic.
    Internal(String),
}

impl ServeError {
    /// The stable `kind` string of the error envelope.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Pt(PtError::Parse(_)) => "parse",
            ServeError::Pt(PtError::EntryNotFound { .. }) => "entry_not_found",
            ServeError::Pt(PtError::TaintRun { .. }) => "taint_run",
            ServeError::Pt(PtError::Config(_)) => "config",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Internal(_) => "internal",
        }
    }

    pub fn message(&self) -> String {
        match self {
            ServeError::BadRequest(m) | ServeError::Internal(m) => m.clone(),
            ServeError::Pt(e) => e.to_string(),
            ServeError::Overloaded { retry_after_ms } => {
                format!("server overloaded (admission queue full); retry after {retry_after_ms} ms")
            }
        }
    }

    /// The error envelope: `{"kind": ..., "message": ...}` — plus
    /// `retry_after_ms` on `overloaded`, so clients back off by number
    /// instead of parsing the message.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("kind", Value::str(self.kind())),
            ("message", Value::str(self.message())),
        ];
        if let ServeError::Overloaded { retry_after_ms } = self {
            fields.push(("retry_after_ms", Value::int(*retry_after_ms as i64)));
        }
        Value::obj(fields)
    }
}

impl From<PtError> for ServeError {
    fn from(e: PtError) -> ServeError {
        ServeError::Pt(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

/// Parse one request line. On failure the caller still gets the best
/// available `id` to echo (JSON that parsed but had a bad envelope keeps
/// its `id`; unparseable text gets `null`).
pub fn parse_request(line: &str) -> Result<Request, (Value, ServeError)> {
    let doc = Value::parse(line).map_err(|e| {
        (
            Value::Null,
            ServeError::BadRequest(format!("malformed JSON: {e}")),
        )
    })?;
    let id = doc.get("id").cloned().unwrap_or(Value::Null);
    let fail = |msg: String| (id.clone(), ServeError::BadRequest(msg));
    match doc.get("v").and_then(Value::as_u64) {
        Some(v) if v == PROTOCOL_VERSION => {}
        Some(v) => {
            return Err(fail(format!(
                "unsupported protocol version {v} (this server speaks {PROTOCOL_VERSION})"
            )))
        }
        None => return Err(fail("request missing numeric 'v'".into())),
    }
    let method = doc
        .get("method")
        .and_then(Value::as_str)
        .ok_or_else(|| fail("request missing string 'method'".into()))?
        .to_string();
    let params = doc.get("params").cloned().unwrap_or(Value::Obj(Vec::new()));
    if !matches!(params, Value::Obj(_)) {
        return Err(fail("'params' must be an object".into()));
    }
    Ok(Request { id, method, params })
}

/// Build a success response.
pub fn ok_response(id: &Value, result: Value) -> Value {
    Value::obj(vec![
        ("v", Value::int(PROTOCOL_VERSION as i64)),
        ("id", id.clone()),
        ("ok", Value::Bool(true)),
        ("result", result),
    ])
}

/// Build an error response.
pub fn error_response(id: &Value, error: &ServeError) -> Value {
    Value::obj(vec![
        ("v", Value::int(PROTOCOL_VERSION as i64)),
        ("id", id.clone()),
        ("ok", Value::Bool(false)),
        ("error", error.to_json()),
    ])
}

/// Build a request envelope (the client side of [`parse_request`]).
pub fn request_envelope(id: u64, method: &str, params: Value) -> Value {
    Value::obj(vec![
        ("v", Value::int(PROTOCOL_VERSION as i64)),
        ("id", Value::int(id as i64)),
        ("method", Value::str(method)),
        ("params", params),
    ])
}

/// Send one message: `doc` rendered compactly, its `\n` appended, handed
/// to the socket in a single write. Every line either end of a connection
/// sends goes through here. A line split across two writes would let
/// Nagle's algorithm hold the second part until the peer's delayed ACK,
/// about 40 ms later.
pub fn write_line(w: &mut impl Write, doc: &Value) -> io::Result<()> {
    let mut line = doc.render();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_the_envelope() {
        let mut wire = Vec::new();
        write_line(
            &mut wire,
            &request_envelope(7, "stats", Value::Obj(Vec::new())),
        )
        .unwrap();
        let line = std::str::from_utf8(&wire).unwrap();
        assert_eq!(
            line.find('\n'),
            Some(line.len() - 1),
            "one line per message"
        );
        let req = parse_request(line).expect("parses");
        assert_eq!(req.method, "stats");
        assert_eq!(req.id.as_u64(), Some(7));
    }

    #[test]
    fn malformed_requests_keep_the_best_id() {
        // Unparseable: id is null.
        let (id, err) = parse_request("{nope").unwrap_err();
        assert_eq!(id, Value::Null);
        assert_eq!(err.kind(), "bad_request");
        // Parseable but missing version: id preserved.
        let (id, err) = parse_request(r#"{"id": 3, "method": "stats"}"#).unwrap_err();
        assert_eq!(id.as_u64(), Some(3));
        assert!(err.message().contains("'v'"));
        // Wrong version.
        let (_, err) = parse_request(r#"{"v": 99, "id": 1, "method": "stats"}"#).unwrap_err();
        assert!(err.message().contains("unsupported protocol version 99"));
        // Non-object params.
        let (_, err) =
            parse_request(r#"{"v": 1, "id": 1, "method": "stats", "params": [1]}"#).unwrap_err();
        assert!(err.message().contains("params"));
    }

    #[test]
    fn overloaded_envelope_carries_retry_after_ms() {
        let e = ServeError::Overloaded {
            retry_after_ms: 250,
        };
        assert_eq!(e.kind(), "overloaded");
        assert!(e.message().contains("250 ms"));
        let env = error_response(&Value::Null, &e);
        let err = env.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(err.get("retry_after_ms").and_then(Value::as_u64), Some(250));
        // Other kinds do not grow the field.
        let env = error_response(&Value::Null, &ServeError::Internal("x".into()));
        assert!(env.get("error").unwrap().get("retry_after_ms").is_none());
    }

    #[test]
    fn error_kinds_map_pt_errors() {
        let e = ServeError::from(PtError::EntryNotFound { entry: "m".into() });
        assert_eq!(e.kind(), "entry_not_found");
        assert!(e.message().contains("`m`"));
        assert_eq!(ServeError::Internal("p".into()).kind(), "internal");
        assert_eq!(
            ServeError::from(PtError::Config("bad".into())).kind(),
            "config"
        );
        let env = error_response(&Value::int(2), &e);
        assert_eq!(env.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            env.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("entry_not_found")
        );
    }
}
