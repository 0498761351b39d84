//! A blocking client for the pt-serve wire protocol.
//!
//! One [`Client`] wraps one TCP connection and issues requests serially
//! (the protocol has no pipelining; ids exist so a future client could).
//! [`Client::request`] is the generic entry point; thin typed helpers
//! cover the common methods. `pt-client` (the binary) and the integration
//! tests are both built on this type.

use crate::protocol::{request_envelope, write_line, PROTOCOL_VERSION};
use serde::json::Value;
use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

/// A failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connection refused, reset, ...).
    Io(io::Error),
    /// The server's bytes were not a valid response envelope.
    Protocol(String),
    /// The server answered with an error envelope. `retry_after_ms` is
    /// populated for `overloaded` envelopes (the server's backoff hint).
    Remote {
        kind: String,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote { kind, message, .. } => {
                write!(f, "server error [{kind}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The error-envelope kind, if this was a remote failure.
    pub fn remote_kind(&self) -> Option<&str> {
        match self {
            ClientError::Remote { kind, .. } => Some(kind),
            _ => None,
        }
    }

    /// The server's backoff hint, if this was an `overloaded` envelope.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Remote { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }
}

/// One connection to a pt-server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect with `TCP_NODELAY` set: a request is one write
    /// ([`write_line`]) that must leave at once, not wait for the ACK of
    /// the previous response.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    /// The connection's socket, for reading its options and addresses.
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    /// Issue one request and wait for its response. Returns the `result`
    /// value of a success envelope.
    pub fn request(&mut self, method: &str, params: Value) -> Result<Value, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        write_line(&mut self.writer, &request_envelope(id, method, params))?;

        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection before responding".into(),
            ));
        }
        let doc = Value::parse(response.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        match doc.get("v").and_then(Value::as_u64) {
            Some(v) if v == PROTOCOL_VERSION => {}
            other => {
                return Err(ClientError::Protocol(format!(
                    "response protocol version {other:?}, expected {PROTOCOL_VERSION}"
                )))
            }
        }
        let ok = doc.get("ok").and_then(Value::as_bool);
        if doc.get("id").and_then(Value::as_u64) != Some(id) {
            // A null-id error envelope is legitimate: the server answered
            // before reading a request (admission shed) or could not parse
            // one. Surface it as the remote error it is; any other id is a
            // protocol violation.
            let id_is_null = matches!(doc.get("id"), Some(Value::Null));
            if !(id_is_null && ok == Some(false)) {
                return Err(ClientError::Protocol("response id mismatch".into()));
            }
        }
        match ok {
            // Moved out of the envelope, not copied: an answer can hold
            // hundreds of strings.
            Some(true) => match doc {
                Value::Obj(fields) => fields.into_iter().find(|(k, _)| k == "result"),
                _ => None,
            }
            .map(|(_, result)| result)
            .ok_or_else(|| ClientError::Protocol("ok response without 'result'".into())),
            Some(false) => {
                let err = doc.get("error");
                Err(ClientError::Remote {
                    kind: err
                        .and_then(|e| e.get("kind"))
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                    message: err
                        .and_then(|e| e.get("message"))
                        .and_then(Value::as_str)
                        .unwrap_or("unknown error")
                        .to_string(),
                    retry_after_ms: err
                        .and_then(|e| e.get("retry_after_ms"))
                        .and_then(Value::as_u64),
                })
            }
            None => Err(ClientError::Protocol("response missing 'ok'".into())),
        }
    }

    /// Submit module IR text; returns the content hash that later requests
    /// name the module by.
    pub fn submit_module(&mut self, text: &str) -> Result<String, ClientError> {
        let result = self.request(
            "submit_module",
            Value::obj(vec![("text", Value::str(text))]),
        )?;
        result
            .get("module")
            .and_then(Value::as_str)
            .map(String::from)
            .ok_or_else(|| ClientError::Protocol("submit_module result missing 'module'".into()))
    }

    /// Run the static stage (§5.1) for `(module, entry)`.
    pub fn static_analysis(&mut self, module: &str, entry: &str) -> Result<Value, ClientError> {
        self.request(
            "static_analysis",
            Value::obj(vec![
                ("module", Value::str(module)),
                ("entry", Value::str(entry)),
            ]),
        )
    }

    /// Run (or fetch) one taint analysis at the given parameter values.
    /// Pair order defines taint indices, exactly like the in-process API.
    pub fn taint_run(
        &mut self,
        module: &str,
        entry: &str,
        params: &[(String, i64)],
    ) -> Result<Value, ClientError> {
        self.taint_run_with_policy(module, entry, params, None)
    }

    /// [`Client::taint_run`] under an explicit taint policy (protocol
    /// v1.4): `Some("security")` etc.; `None` omits the field, leaving
    /// the server's default (param-set).
    pub fn taint_run_with_policy(
        &mut self,
        module: &str,
        entry: &str,
        params: &[(String, i64)],
        policy: Option<&str>,
    ) -> Result<Value, ClientError> {
        let mut fields = vec![
            ("module", Value::str(module)),
            ("entry", Value::str(entry)),
            ("params", params_object(params)),
        ];
        if let Some(policy) = policy {
            fields.push(("policy", Value::str(policy)));
        }
        self.request("taint_run", Value::obj(fields))
    }

    /// One taint run per parameter set, fanned across the server's workers.
    pub fn analyze_batch(
        &mut self,
        module: &str,
        entry: &str,
        param_sets: &[Vec<(String, i64)>],
    ) -> Result<Value, ClientError> {
        self.analyze_batch_with_policy(module, entry, param_sets, None)
    }

    /// [`Client::analyze_batch`] under an explicit taint policy (protocol
    /// v1.4); `None` omits the field, leaving the server's default.
    pub fn analyze_batch_with_policy(
        &mut self,
        module: &str,
        entry: &str,
        param_sets: &[Vec<(String, i64)>],
        policy: Option<&str>,
    ) -> Result<Value, ClientError> {
        let mut fields = vec![
            ("module", Value::str(module)),
            ("entry", Value::str(entry)),
            (
                "param_sets",
                Value::Arr(param_sets.iter().map(|p| params_object(p)).collect()),
            ),
        ];
        if let Some(policy) = policy {
            fields.push(("policy", Value::str(policy)));
        }
        self.request("analyze_batch", Value::obj(fields))
    }

    /// Run `method` under the server's request tracer (protocol v1.3).
    /// The result carries `trace_id`, the nested `spans` tree, the
    /// per-stage `stages_ms` totals, and the inner method's `result`.
    pub fn trace(&mut self, method: &str, params: Value) -> Result<Value, ClientError> {
        self.request(
            "trace",
            Value::obj(vec![("method", Value::str(method)), ("params", params)]),
        )
    }

    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.request("stats", Value::Obj(Vec::new()))
    }

    /// The protocol-v1.1 observability readout (queue, methods, store).
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.request("metrics", Value::Obj(Vec::new()))
    }

    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.request("shutdown", Value::Obj(Vec::new()))
    }
}

/// Parameter pairs as an order-preserving JSON object.
fn params_object(params: &[(String, i64)]) -> Value {
    Value::Obj(
        params
            .iter()
            .map(|(n, v)| (n.clone(), Value::int(*v)))
            .collect(),
    )
}
