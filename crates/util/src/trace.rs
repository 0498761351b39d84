//! Structured pipeline tracing: spans, per-thread ring buffers, and a
//! process-wide sink, with **zero cost when disabled**.
//!
//! The pipeline's operational metrics ([`crate::metrics`]) say *that* a
//! request took 40 ms; this module says *where* those milliseconds went —
//! decode vs passes vs classification vs the taint run vs model fitting —
//! which is exactly the attribution the paper applies to its subject
//! programs, turned on our own pipeline.
//!
//! # Design
//!
//! * **One relaxed atomic load when disabled.** [`enabled`] is an
//!   `AtomicBool` read with `Ordering::Relaxed`; every instrumentation
//!   point checks it first and returns an inert guard without touching
//!   thread-local state or allocating. The lazy variants ([`span_with`],
//!   [`event_with`]) only invoke their label closure when tracing is on,
//!   so a disabled span costs a load and a branch
//!   (`crates/util/tests/trace_alloc.rs` proves the zero-allocation
//!   claim with a counting allocator).
//! * **Thread-local span stacks.** An enabled [`span`] pushes its id onto
//!   the current thread's stack and pops it on guard drop — including
//!   during unwinding, so a panicking worker still balances its spans.
//!   Parentage is the stack top at open time; cross-thread callers
//!   propagate their context explicitly ([`current_context`] /
//!   [`TraceContext::adopt`] — [`crate::parallel_map`] does this for its
//!   workers automatically).
//! * **Bounded buffers, drop-oldest.** Completed spans collect in a
//!   per-thread ring (capacity [`THREAD_BUFFER_CAP`]) and flush to a
//!   process-wide sink (capacity [`SINK_CAP`]) when the thread's stack
//!   empties, the ring fills, or the thread exits. Overflow drops the
//!   *oldest* events and counts them ([`dropped_total`]) — tracing
//!   degrades, it never blocks or grows without bound.
//! * **Monotonic timestamps.** All times are nanoseconds since a lazily
//!   initialized process epoch (`Instant`-based, so wall-clock steps
//!   cannot reorder spans).
//!
//! # Scoped vs forced enablement
//!
//! [`enable_scoped`] turns tracing on for the lifetime of the returned
//! guard (refcounted, so concurrent traced requests compose);
//! [`force_enable`] pins it on for the rest of the process (the
//! `--trace-out` path in `pt-server`). Per-request
//! isolation comes from *trace ids*: a server request adopts a fresh id
//! ([`next_trace_id`] + [`set_thread_trace`]), every span it opens —
//! including on `parallel_map` workers — inherits that id, and
//! [`take_trace`] extracts exactly that request's events from the sink,
//! leaving concurrent traces untouched.
//!
//! # Exports
//!
//! [`report`] renders a span set as a nested JSON tree (the protocol
//! v1.3 `trace` method's payload); [`chrome_trace`] renders the Chrome
//! `trace_event` array format loadable in `chrome://tracing` / Perfetto.

use serde::json::Value;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Per-thread completed-span ring capacity; the oldest event is dropped
/// (and counted) when a thread outruns its flushes.
pub const THREAD_BUFFER_CAP: usize = 8_192;

/// Process-wide sink capacity across all trace ids.
pub const SINK_CAP: usize = 262_144;

static ENABLED: AtomicBool = AtomicBool::new(false);
static FORCED: AtomicBool = AtomicBool::new(false);
static ACTIVE_SCOPES: AtomicU64 = AtomicU64::new(0);
/// Span ids start at 1; 0 is the "no parent" sentinel.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<VecDeque<SpanEvent>> = Mutex::new(VecDeque::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (saturating at 0 for
/// instants captured before the first trace call initialized it).
pub fn nanos_since_epoch(at: Instant) -> u64 {
    at.checked_duration_since(epoch())
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

fn now_nanos() -> u64 {
    nanos_since_epoch(Instant::now())
}

/// Is tracing on? One relaxed load — the entire cost of a disabled
/// instrumentation point.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A completed span (or instant event, when `end_nanos == start_nanos`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Unique within the process (atomic allocation).
    pub id: u64,
    /// Enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The request-scoped trace this span belongs to; 0 when untraced
    /// (e.g. `--trace-out` background work outside any request).
    pub trace_id: u64,
    /// Stage label, e.g. `"decode"`, `"fuse"`, `"exec"`.
    pub name: Cow<'static, str>,
    /// Layer category, e.g. `"taint"`, `"pass"`, `"server"`.
    pub cat: &'static str,
    /// Nanoseconds since the process trace epoch.
    pub start_nanos: u64,
    pub end_nanos: u64,
    /// Small dense per-thread id (not the OS tid).
    pub thread: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos.saturating_sub(self.start_nanos)
    }
}

struct ThreadLocalTrace {
    thread: u64,
    trace_id: u64,
    stack: Vec<u64>,
    buffer: VecDeque<SpanEvent>,
}

impl ThreadLocalTrace {
    fn new() -> ThreadLocalTrace {
        ThreadLocalTrace {
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            trace_id: 0,
            stack: Vec::new(),
            buffer: VecDeque::new(),
        }
    }

    fn push_event(&mut self, ev: SpanEvent) {
        if self.buffer.len() >= THREAD_BUFFER_CAP {
            self.buffer.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        self.buffer.push_back(ev);
        // Flush when the thread goes quiescent (its outermost span closed)
        // so `take_trace` on another thread sees a complete picture, or
        // when the ring is half full so a long-running thread streams out.
        if self.stack.is_empty() || self.buffer.len() >= THREAD_BUFFER_CAP / 2 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut sink = SINK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while sink.len() + self.buffer.len() > SINK_CAP {
            if sink.pop_front().is_none() {
                break;
            }
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        sink.extend(self.buffer.drain(..));
    }
}

impl Drop for ThreadLocalTrace {
    fn drop(&mut self) {
        // A worker thread exiting (e.g. a `parallel_map` scope closing)
        // publishes whatever it buffered.
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<ThreadLocalTrace> = RefCell::new(ThreadLocalTrace::new());
}

fn with_local<R>(f: impl FnOnce(&mut ThreadLocalTrace) -> R) -> R {
    LOCAL.with(|l| f(&mut l.borrow_mut()))
}

/// Total events dropped to the bounded buffers since process start.
pub fn dropped_total() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Enablement

/// Keeps tracing enabled while alive; refcounted, so nested/concurrent
/// scopes compose and tracing turns off when the last scope ends (unless
/// [`force_enable`] pinned it on).
pub struct EnableGuard(());

impl Drop for EnableGuard {
    fn drop(&mut self) {
        if ACTIVE_SCOPES.fetch_sub(1, Ordering::SeqCst) == 1 && !FORCED.load(Ordering::SeqCst) {
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

/// Enable tracing for the lifetime of the returned guard.
pub fn enable_scoped() -> EnableGuard {
    ACTIVE_SCOPES.fetch_add(1, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    EnableGuard(())
}

/// Enable tracing for the rest of the process (`--trace-out`).
pub fn force_enable() {
    FORCED.store(true, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Trace ids and cross-thread context

/// Allocate a fresh request-scoped trace id (never 0).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's (trace id, innermost open span) — the context a
/// cross-thread child should adopt so its spans land in the same trace,
/// parented under the caller's open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    pub parent: u64,
}

/// Capture the calling thread's context for propagation to workers.
/// Cheap and meaningful even when tracing is disabled (all zeros).
pub fn current_context() -> TraceContext {
    if !enabled() {
        return TraceContext {
            trace_id: 0,
            parent: 0,
        };
    }
    with_local(|l| TraceContext {
        trace_id: l.trace_id,
        parent: l.stack.last().copied().unwrap_or(0),
    })
}

/// Restores the thread's previous context on drop (see
/// [`TraceContext::adopt`] and [`set_thread_trace`]). A guard created
/// while tracing was disabled is completely inert.
pub struct ContextGuard {
    /// `(previous trace id, whether a synthetic parent frame was pushed)`;
    /// `None` when the adopt was a disabled-mode no-op.
    restore: Option<(u64, bool)>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some((prev_trace, pushed_parent)) = self.restore.take() else {
            return;
        };
        with_local(|l| {
            l.trace_id = prev_trace;
            if pushed_parent {
                l.stack.pop();
            }
            if l.stack.is_empty() {
                l.flush();
            }
        });
    }
}

impl TraceContext {
    /// Adopt this context on the current thread: subsequent spans carry
    /// its trace id and parent under its span. Returns a guard restoring
    /// the previous context. No-op (but still safe) when disabled.
    pub fn adopt(self) -> ContextGuard {
        if !enabled() {
            return ContextGuard { restore: None };
        }
        with_local(|l| {
            let prev_trace = l.trace_id;
            l.trace_id = self.trace_id;
            let pushed_parent = self.parent != 0;
            if pushed_parent {
                l.stack.push(self.parent);
            }
            ContextGuard {
                restore: Some((prev_trace, pushed_parent)),
            }
        })
    }
}

/// Mark the current thread as working on `trace_id` (a request root —
/// use [`TraceContext::adopt`] instead when there is a parent span to
/// nest under). Restores the previous id on guard drop.
pub fn set_thread_trace(trace_id: u64) -> ContextGuard {
    TraceContext {
        trace_id,
        parent: 0,
    }
    .adopt()
}

// ---------------------------------------------------------------------------
// Spans

/// Live span guard: records the completed event when dropped (including
/// during unwinding). Inert — a single `None` — when tracing is off.
pub struct SpanGuard(Option<OpenSpan>);

struct OpenSpan {
    id: u64,
    parent: u64,
    trace_id: u64,
    name: Cow<'static, str>,
    cat: &'static str,
    start_nanos: u64,
}

impl SpanGuard {
    /// This span's id, for explicit parenting of out-of-band records;
    /// `None` when tracing was off at open time.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|s| s.id)
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        close_span(open);
    }
}

/// The enabled-path tail of [`SpanGuard::drop`], outlined (and marked
/// cold) so a disabled span costs its call site nothing but the `None`
/// check — call sites sit in pipeline hot paths and must not carry the
/// recording code's instruction footprint.
#[cold]
#[inline(never)]
fn close_span(open: OpenSpan) {
    {
        let end_nanos = now_nanos();
        with_local(|l| {
            // Pop our own frame. Defensive: an interleaved adopt/drop on
            // this thread cannot misalign the stack because guards drop
            // in LIFO order, but truncate past our id just in case.
            if let Some(pos) = l.stack.iter().rposition(|&id| id == open.id) {
                l.stack.truncate(pos);
            }
            l.push_event(SpanEvent {
                id: open.id,
                parent: open.parent,
                trace_id: open.trace_id,
                name: open.name,
                cat: open.cat,
                start_nanos: open.start_nanos,
                end_nanos,
                thread: l.thread,
            });
        });
    }
}

#[cold]
#[inline(never)]
fn open_span(cat: &'static str, name: Cow<'static, str>) -> SpanGuard {
    let start_nanos = now_nanos();
    let open = with_local(|l| {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        OpenSpan {
            id,
            parent,
            trace_id: l.trace_id,
            name,
            cat,
            start_nanos,
        }
    });
    SpanGuard(Some(open))
}

/// Open a span with a static label. Close it by dropping the guard.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    open_span(cat, Cow::Borrowed(name))
}

/// Open a span with a computed label; the closure (and its allocation)
/// only runs when tracing is enabled.
#[inline]
pub fn span_with(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    open_span(cat, Cow::Owned(name()))
}

/// Record an instant event (zero-duration span) under the current span.
#[inline]
pub fn event(cat: &'static str, name: &'static str) {
    if !enabled() {
        return;
    }
    record_instant(cat, Cow::Borrowed(name));
}

/// [`event`] with a computed label; the closure only runs when enabled.
#[inline]
pub fn event_with(cat: &'static str, name: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    record_instant(cat, Cow::Owned(name()));
}

#[cold]
#[inline(never)]
fn record_instant(cat: &'static str, name: Cow<'static, str>) {
    let at = now_nanos();
    with_local(|l| {
        let ev = SpanEvent {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent: l.stack.last().copied().unwrap_or(0),
            trace_id: l.trace_id,
            name,
            cat,
            start_nanos: at,
            end_nanos: at,
            thread: l.thread,
        };
        l.push_event(ev);
    });
}

/// Record a span whose interval was measured out-of-band (e.g. a queue
/// wait captured by the acceptor thread, or per-function attribution
/// synthesized from a profile). Parent/trace are explicit; the span does
/// not touch the thread's stack. No-op when disabled.
pub fn record_span(
    trace_id: u64,
    parent: u64,
    cat: &'static str,
    name: impl Into<Cow<'static, str>>,
    start_nanos: u64,
    end_nanos: u64,
) {
    if !enabled() {
        return;
    }
    with_local(|l| {
        let ev = SpanEvent {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            trace_id,
            name: name.into(),
            cat,
            start_nanos,
            end_nanos: end_nanos.max(start_nanos),
            thread: l.thread,
        };
        l.push_event(ev);
    });
}

// ---------------------------------------------------------------------------
// Collection

fn flush_current_thread() {
    with_local(|l| l.flush());
}

/// Remove and return every sink event belonging to `trace_id`. Call
/// after the request's root span guard has dropped (the closing flush
/// publishes the thread's buffer); concurrent traces are untouched.
pub fn take_trace(trace_id: u64) -> Vec<SpanEvent> {
    flush_current_thread();
    let mut sink = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut taken = Vec::new();
    sink.retain(|ev| {
        if ev.trace_id == trace_id {
            taken.push(ev.clone());
            false
        } else {
            true
        }
    });
    taken.sort_by_key(|ev| (ev.start_nanos, ev.id));
    taken
}

/// Drain *everything* buffered so far (all trace ids, including 0) — the
/// `--trace-out` whole-process export.
pub fn drain_all() -> Vec<SpanEvent> {
    flush_current_thread();
    let mut sink = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut taken: Vec<SpanEvent> = sink.drain(..).collect();
    taken.sort_by_key(|ev| (ev.start_nanos, ev.id));
    taken
}

// ---------------------------------------------------------------------------
// Reports

/// Sum of durations, grouped by span name, in milliseconds — the
/// slow-request log's stage breakdown. Only top-level-ish aggregation:
/// every span counts under its own name, so nested stages (e.g. `fuse`
/// inside `decode`) appear under both names.
pub fn stage_totals_ms(events: &[SpanEvent]) -> Vec<(String, f64)> {
    let mut totals: Vec<(String, f64)> = Vec::new();
    for ev in events {
        let ms = ev.duration_nanos() as f64 / 1e6;
        match totals.iter_mut().find(|(name, _)| name == ev.name.as_ref()) {
            Some((_, t)) => *t += ms,
            None => totals.push((ev.name.to_string(), ms)),
        }
    }
    totals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    totals
}

/// Render `events` as a nested JSON span tree: each node carries `name`,
/// `cat`, `start_us`/`dur_us` (microseconds, fractional), `thread`, and
/// `children` ordered by start time. Events whose parent is not in the
/// set become roots. The result is the array of roots.
pub fn report(events: &[SpanEvent]) -> Value {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].start_nanos, events[i].id));
    // children[i] = indices of events parented at events[i].
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
    let mut roots: Vec<usize> = Vec::new();
    for &i in &order {
        let parent = events[i].parent;
        match (parent != 0)
            .then(|| events.iter().position(|e| e.id == parent))
            .flatten()
        {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    fn node(events: &[SpanEvent], children: &[Vec<usize>], i: usize) -> Value {
        let ev = &events[i];
        Value::obj(vec![
            ("id", Value::int(ev.id as i64)),
            ("name", Value::str(ev.name.as_ref())),
            ("cat", Value::str(ev.cat)),
            ("start_us", Value::Num(ev.start_nanos as f64 / 1e3)),
            ("dur_us", Value::Num(ev.duration_nanos() as f64 / 1e3)),
            ("thread", Value::int(ev.thread as i64)),
            (
                "children",
                Value::Arr(
                    children[i]
                        .iter()
                        .map(|&c| node(events, children, c))
                        .collect(),
                ),
            ),
        ])
    }
    Value::Arr(roots.iter().map(|&r| node(events, &children, r)).collect())
}

/// Render `events` in the Chrome `trace_event` array format (complete
/// `"ph": "X"` events; timestamps/durations in microseconds), loadable
/// in `chrome://tracing` and Perfetto.
pub fn chrome_trace(events: &[SpanEvent]) -> Value {
    Value::Arr(
        events
            .iter()
            .map(|ev| {
                Value::obj(vec![
                    ("name", Value::str(ev.name.as_ref())),
                    ("cat", Value::str(ev.cat)),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(ev.start_nanos as f64 / 1e3)),
                    ("dur", Value::Num(ev.duration_nanos() as f64 / 1e3)),
                    ("pid", Value::int(1)),
                    ("tid", Value::int(ev.thread as i64)),
                    (
                        "args",
                        Value::obj(vec![
                            ("span", Value::int(ev.id as i64)),
                            ("parent", Value::int(ev.parent as i64)),
                            ("trace", Value::int(ev.trace_id as i64)),
                        ]),
                    ),
                ])
            })
            .collect(),
    )
}
