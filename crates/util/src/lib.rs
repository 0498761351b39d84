//! Small utilities shared across the workspace.
//!
//! # Tracing the pipeline
//!
//! [`trace`] is the workspace's structured tracing layer: std-only,
//! thread-local span stacks, a bounded global sink, and **zero cost when
//! disabled** (one relaxed atomic load per call site, no allocation).
//! Every pipeline layer is instrumented — the static stage
//! (`session/static_stage`, `taint/decode`, `taint/passes`, the
//! individual `pass/...` spans, per-function `unit/compute:<fn>` spans
//! with cache-hit events, `analysis/classify`), execution
//! (`session/exec` with per-function self-time children), model fitting
//! (`extrap/fit`), and the server path (`server/request`,
//! `server/queue_wait`).
//!
//! Three ways to turn it on:
//!
//! * [`trace::enable_scoped`] — refcounted guard; what the server's
//!   v1.3 `trace` method and `--slow-request-ms` use per request.
//! * [`trace::force_enable`] — pin it on for the whole process; what
//!   `pt-server --trace-out` uses, paired with [`trace::drain_all`] +
//!   [`trace::chrome_trace`] to export Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto.
//! * [`trace::set_thread_trace`] — bind a request-scoped trace id to
//!   the current thread; [`trace::TraceContext`] carries it across
//!   [`parallel_map`] workers, and [`trace::take_trace`] collects one
//!   request's spans without disturbing concurrent traces.
//!
//! [`trace::report`] renders a span slice as a nested JSON tree;
//! [`trace::stage_totals_ms`] sums durations by span name for quick
//! per-stage attribution.

pub mod metrics;
mod queue;
pub mod trace;

pub use queue::{BoundedQueue, TryPushError};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The human-readable message of a caught panic payload (`panic!` with a
/// string literal or a formatted message covers essentially all of them);
/// `fallback` for exotic payload types.
pub fn panic_message(payload: &(dyn std::any::Any + Send), fallback: &str) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| fallback.to_string())
}

/// Map `f` over `items` on up to `max_workers` scoped threads, preserving
/// input order. With one worker (or one item) this degrades to a plain
/// sequential map — no threads are spawned.
///
/// Workers pull indices from a shared atomic counter, so uneven item costs
/// balance automatically. A panic in `f` is caught on the worker, remaining
/// work is abandoned, and the first panic's original payload is re-raised
/// exactly once on the calling thread — never a `PoisonError` double-panic
/// from the result slots.
///
/// When tracing is enabled ([`trace::enabled`]), each worker adopts the
/// caller's trace context, so spans opened inside `f` land in the
/// caller's trace, nested under its currently open span.
pub fn parallel_map<T, R, F>(items: &[T], max_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = max_workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let ctx = trace::current_context();
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let next = &next;
            let results = &results;
            let panic_payload = &panic_payload;
            let f = &f;
            scope.spawn(move || {
                let _trace_ctx = ctx.adopt();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&items[i]))) {
                        Ok(r) => *results[i].lock().unwrap() = Some(r),
                        Err(payload) => {
                            // First panic wins; park the counter past the end so
                            // every worker stops handing out new work.
                            next.store(items.len(), Ordering::Relaxed);
                            panic_payload
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .get_or_insert(payload);
                            break;
                        }
                    }
                }
            });
        }
    });
    if let Some(payload) = panic_payload
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("worker completed this slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parallel_map;

    #[test]
    fn preserves_order_and_maps_everything() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 8, 200] {
            let out = parallel_map(&items, workers, |&x| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = parallel_map(&[] as &[usize], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_panic_propagates_once_with_its_message() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("the worker panic must propagate");
        assert_eq!(
            super::panic_message(payload.as_ref(), "missing"),
            "boom at 7"
        );
    }

    #[test]
    fn sequential_fallback_panics_cleanly_too() {
        let items = [1usize];
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, 1, |_| -> usize { panic!("sequential boom") })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn uneven_costs_still_complete() {
        let items: Vec<u64> = vec![30, 1, 1, 1, 20, 1, 1, 10];
        let out = parallel_map(&items, 4, |&ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert_eq!(out, items);
    }
}
