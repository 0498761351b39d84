//! Spans opened on a thread bound to no trace id stay out of the sink
//! while tracing is only scoped on: a traced request must not make
//! concurrent untraced requests leave trace-id-0 events behind, which
//! only `drain_all` would ever take and every later `take_trace` would
//! scan. `force_enable` (the `--trace-out` path) still records them.
//!
//! This binary calls `drain_all` and `force_enable`, both process-wide,
//! so it holds a single test and shares no binary with `trace.rs`.

use pt_util::trace;

fn untraced_work() {
    let _span = trace::span("test", "untraced");
    trace::event("test", "untraced_event");
    let _inner = trace::span_with("test", || "untraced_inner".to_string());
}

#[test]
fn only_bound_threads_record_unless_tracing_is_forced() {
    // A traced request on this thread, untraced work on another thread
    // meanwhile (and on this thread outside the request).
    let _on = trace::enable_scoped();
    let trace_id = trace::next_trace_id();
    {
        let _ctx = trace::set_thread_trace(trace_id);
        let _root = trace::span("test", "request");
        trace::event("test", "traced_event");
        std::thread::scope(|s| {
            s.spawn(untraced_work);
        });
    }
    untraced_work();
    let unbound = trace::span("test", "unbound");
    assert_eq!(unbound.id(), None, "an unbound span is inert");
    drop(unbound);
    // Explicit ids are recorded as given, bound thread or not.
    trace::record_span(0, 0, "server", "queue_wait", 10, 20);

    let traced = trace::take_trace(trace_id);
    let mut names: Vec<&str> = traced.iter().map(|e| e.name.as_ref()).collect();
    names.sort_unstable();
    assert_eq!(names, ["request", "traced_event"]);
    let rest: Vec<_> = trace::drain_all()
        .into_iter()
        .map(|e| (e.trace_id, e.name.to_string()))
        .collect();
    assert_eq!(rest, [(0, "queue_wait".to_string())]);

    // Forced tracing keeps whole-process recording.
    trace::force_enable();
    std::thread::scope(|s| {
        s.spawn(untraced_work);
    });
    let forced = trace::drain_all();
    assert_eq!(forced.len(), 3, "{forced:?}");
    assert!(forced.iter().all(|e| e.trace_id == 0));
}
