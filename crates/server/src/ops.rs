//! Production operations: observability and admission control.
//!
//! PR 3 made the pipeline a standing service; this module makes that
//! service *operable*. [`Ops`] is the server's self-observation surface —
//! uptime, queue depth, shed counts, and a per-method request counter +
//! latency histogram (`pt_util::metrics`; lock-free, one atomic add per
//! event) — read out by the protocol-v1.1 `metrics` method and, in
//! abbreviated form, by `stats`. With shedding enabled
//! ([`crate::ServerConfig::shed`]), a full connection queue answers new
//! arrivals *immediately* with an `overloaded` envelope carrying
//! `retry_after_ms` ([`Ops::derived_retry_hint_ms`]) instead of blocking
//! the accept path — bounded latency for admitted work, an honest backoff
//! signal for the rest. The hint adapts to observed service time, so a
//! server doing 2 ms `stats` calls and one doing 800 ms `analyze_batch`
//! fan-outs each tell clients an honest backoff without operator tuning.

use crate::protocol::{self, ServeError};
use pt_util::metrics::{Counter, Gauge, Histogram};
use serde::json::Value;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Every method the dispatcher knows, plus the shared bucket for
/// everything else. One fixed slot per name keeps metrics lookup
/// lock-free and the cardinality bounded no matter what clients send.
pub const METHODS: &[&str] = &[
    "submit_module",
    "static_analysis",
    "taint_run",
    "analyze_batch",
    "fit_model",
    "trace",
    "stats",
    "metrics",
    "shutdown",
    "unknown",
];

/// Bounds of the adaptive backoff hint: never tell a client to hammer a
/// saturated server faster than this...
pub const MIN_RETRY_HINT_MS: u64 = 25;
/// ...and never park one longer than this, however slow a batch was.
pub const MAX_RETRY_HINT_MS: u64 = 5_000;
/// The hint before any request has been measured.
pub const DEFAULT_RETRY_HINT_MS: u64 = 100;

/// Counters and latency histogram of one method.
#[derive(Debug)]
pub struct MethodMetrics {
    /// Requests dispatched (counted before the handler runs, so a
    /// panicking handler is still visible here).
    pub calls: Counter,
    /// Requests answered with an error envelope.
    pub errors: Counter,
    /// Handler latency (dispatch to response document, excluding network).
    pub latency: Histogram,
}

impl MethodMetrics {
    fn new() -> MethodMetrics {
        MethodMetrics {
            calls: Counter::new(),
            errors: Counter::new(),
            latency: Histogram::new(),
        }
    }
}

/// The server's operational self-observation state, shared by the
/// acceptor, the worker pool, and the dispatch layer.
pub struct Ops {
    started: Instant,
    /// Connections currently waiting in the admission queue.
    pub queue_depth: Gauge,
    /// Connections answered `overloaded` instead of being queued.
    pub shed_total: Counter,
    methods: Vec<(&'static str, MethodMetrics)>,
}

impl Ops {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Ops {
        Ops {
            started: Instant::now(),
            queue_depth: Gauge::new(),
            shed_total: Counter::new(),
            methods: METHODS.iter().map(|&m| (m, MethodMetrics::new())).collect(),
        }
    }

    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The metrics slot for a method name; anything unrecognized shares
    /// the bounded `unknown` slot.
    pub fn method(&self, name: &str) -> &MethodMetrics {
        self.methods
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, metrics)| metrics)
            .unwrap_or_else(|| self.method("unknown"))
    }

    /// Per-method request counts (only methods that have been called), for
    /// the `stats` summary.
    pub fn method_counts(&self) -> Vec<(String, Value)> {
        self.methods
            .iter()
            .filter(|(_, m)| m.calls.get() > 0)
            .map(|(name, m)| (name.to_string(), Value::int(m.calls.get() as i64)))
            .collect()
    }

    /// The adaptive shed backoff hint (milliseconds): the worst per-method
    /// p99 service time observed so far, clamped to
    /// [[`MIN_RETRY_HINT_MS`], [`MAX_RETRY_HINT_MS`]]. The p99 — not the
    /// mean — because a shed client that waits one worst-case service
    /// time finds a drained queue slot with high probability; a
    /// mean-based hint under a bimodal mix (cheap `stats`, expensive
    /// `analyze_batch`) would have it reconnect into a still-full queue.
    /// Before any request has completed the hint falls back to
    /// [`DEFAULT_RETRY_HINT_MS`].
    pub fn derived_retry_hint_ms(&self) -> u64 {
        self.methods
            .iter()
            .filter(|(_, m)| m.calls.get() > 0)
            .map(|(_, m)| m.latency.snapshot().p99_micros / 1_000)
            .max()
            .map(|p99_ms| p99_ms.clamp(MIN_RETRY_HINT_MS, MAX_RETRY_HINT_MS))
            .unwrap_or(DEFAULT_RETRY_HINT_MS)
    }

    /// The `methods` object of the `metrics` response: per-method count,
    /// error count, and latency histogram readout in milliseconds.
    pub fn methods_json(&self) -> Value {
        Value::Obj(
            self.methods
                .iter()
                .filter(|(_, m)| m.calls.get() > 0)
                .map(|(name, m)| {
                    let snap = m.latency.snapshot();
                    (
                        name.to_string(),
                        Value::obj(vec![
                            ("count", Value::int(m.calls.get() as i64)),
                            ("errors", Value::int(m.errors.get() as i64)),
                            ("mean_ms", Value::Num(snap.mean_micros / 1e3)),
                            ("p50_ms", Value::Num(snap.p50_micros as f64 / 1e3)),
                            ("p99_ms", Value::Num(snap.p99_micros as f64 / 1e3)),
                            ("p999_ms", Value::Num(snap.p999_micros as f64 / 1e3)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Answer a connection the admission queue declined: one `overloaded`
/// envelope (id `null` — the request was never read), then close. The
/// write runs on the accept path, so it is strictly bounded: a client that
/// won't take the bytes within the timeout forfeits its envelope — the
/// acceptor never blocks on a shed connection.
pub fn shed_connection(mut stream: TcpStream, retry_after_ms: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let envelope =
        protocol::error_response(&Value::Null, &ServeError::Overloaded { retry_after_ms });
    let _ = protocol::write_line(&mut stream, &envelope);
    // Dropping the stream closes the connection; the client reconnects
    // after the hinted backoff.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_slots_cover_the_dispatch_table_and_bound_unknowns() {
        let ops = Ops::new();
        ops.method("taint_run").calls.inc();
        ops.method("taint_run").calls.inc();
        ops.method("nope").calls.inc();
        ops.method("also-nope").calls.inc();
        assert_eq!(ops.method("taint_run").calls.get(), 2);
        // Arbitrary names share one bounded slot.
        assert_eq!(ops.method("unknown").calls.get(), 2);
        let counts = ops.method_counts();
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn methods_json_reports_latency_in_ms() {
        let ops = Ops::new();
        let m = ops.method("stats");
        m.calls.inc();
        m.latency.record_micros(2_000);
        let json = ops.methods_json();
        let stats = json.get("stats").expect("called methods are present");
        assert_eq!(stats.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(stats.get("p50_ms").and_then(Value::as_f64), Some(2.0));
        assert!(json.get("taint_run").is_none(), "uncalled methods omitted");
    }

    #[test]
    fn derived_retry_hint_tracks_the_worst_p99_and_clamps() {
        let ops = Ops::new();
        // No data: the fixed default.
        assert_eq!(ops.derived_retry_hint_ms(), DEFAULT_RETRY_HINT_MS);
        // Sub-millisecond service clamps up to the floor.
        let fast = ops.method("stats");
        fast.calls.inc();
        fast.latency.record_micros(90);
        assert_eq!(ops.derived_retry_hint_ms(), MIN_RETRY_HINT_MS);
        // The worst method's p99 wins (bucketed upward by the histogram).
        let slow = ops.method("analyze_batch");
        slow.calls.inc();
        slow.latency.record_micros(180_000);
        let hint = ops.derived_retry_hint_ms();
        assert!(
            (180..=MAX_RETRY_HINT_MS).contains(&hint),
            "hint {hint} should reflect the 180 ms batch"
        );
        // Absurdly slow work clamps down to the ceiling.
        slow.latency.record_micros(60_000_000);
        assert_eq!(ops.derived_retry_hint_ms(), MAX_RETRY_HINT_MS);
    }

    #[test]
    fn uptime_advances() {
        let ops = Ops::new();
        std::thread::sleep(Duration::from_millis(5));
        assert!(ops.uptime_seconds() >= 0.004);
    }
}
