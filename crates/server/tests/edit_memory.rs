//! A served edit keeps memory in proportion to what it changed. One
//! server takes 20 one-function constant edits of a 32-kernel module
//! through `handle_line`, each a `submit_module` and then a
//! `static_analysis`, and a counting global allocator measures the bytes
//! still live after each request. The server holds every module it
//! accepted, and every slot of its session cache, but those share the
//! function bodies an edit left alone: an edit may keep at most
//! `SUBMIT_BUDGET` bytes at `submit_module` and `EDIT_BUDGET` bytes in
//! all. A module that deep-copied its unchanged functions kept ~35 KB and
//! ~48 KB.
//!
//! The counter is process-wide, so this binary holds exactly one test.

use pt_server::protocol::request_envelope;
use pt_server::{handle_line, ServerState, Store};
use serde::json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Kernels in the edit module.
const KERNELS: usize = 32;
/// Edits measured.
const EDITS: usize = 20;
/// Bytes one edit may keep at `submit_module`.
const SUBMIT_BUDGET: isize = 4 * 1024;
/// Bytes one edit may keep, `submit_module` and `static_analysis` together.
const EDIT_BUDGET: isize = 20 * 1024;

/// `KERNELS` loop kernels called from `main`; kernel `k` does `flops[k]`
/// units of work.
fn edit_module(flops: &[i64; KERNELS]) -> String {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new("edit_app");
    let mut ids = Vec::new();
    for (i, &work) in flops.iter().enumerate() {
        let mut b = FunctionBuilder::new(
            format!("work_{i:03}"),
            vec![("n".into(), Type::I64)],
            Type::Void,
        );
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![IrValue::int(work)], Type::Void);
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

/// The `submit_module` and `static_analysis` request lines for `text`.
fn requests(id: u64, text: &str) -> [String; 2] {
    let key = pt_server::StoreKey::module(text).hash;
    [
        request_envelope(
            id,
            "submit_module",
            Value::obj(vec![("text", Value::str(text))]),
        )
        .render(),
        request_envelope(
            id + 1,
            "static_analysis",
            Value::obj(vec![
                ("module", Value::str(key)),
                ("entry", Value::str("main")),
            ]),
        )
        .render(),
    ]
}

/// Answer `line`, check it succeeded, and return the bytes the server
/// kept doing so.
fn kept_by(state: &ServerState, line: &str) -> isize {
    let before = live();
    let response = handle_line(state, line);
    let ok = response.get("ok").and_then(Value::as_bool) == Some(true);
    assert!(ok, "{}", response.render());
    drop(response);
    live() - before
}

#[test]
fn a_served_edit_keeps_memory_in_proportion_to_the_edit() {
    let dir = std::env::temp_dir().join(format!("pt-edit-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = ServerState::new(Store::open(&dir).expect("store opens"), 1, 4);
    let mut flops: [i64; KERNELS] = std::array::from_fn(|i| 3 + (i as i64 % 7));
    // Every text up front, so that building them is not counted.
    let mut texts = vec![edit_module(&flops)];
    for i in 0..2 + EDITS {
        flops[(i * 7) % KERNELS] = 1000 + i as i64;
        texts.push(edit_module(&flops));
    }
    let lines: Vec<[String; 2]> = (texts.iter().enumerate())
        .map(|(i, text)| requests(2 * i as u64 + 1, text))
        .collect();
    // The base and two edits warm up what every server allocates once.
    let (warm, measured) = lines.split_at(3);
    for [submit, statics] in warm {
        kept_by(&state, submit);
        kept_by(&state, statics);
    }
    let (mut at_submit, mut total) = (0, 0);
    for [submit, statics] in measured {
        let kept = kept_by(&state, submit);
        at_submit += kept;
        total += kept + kept_by(&state, statics);
    }
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    let (at_submit, total) = (at_submit / EDITS as isize, total / EDITS as isize);
    eprintln!("bytes kept per edit: {at_submit} at submit_module, {total} in all");
    assert!(
        at_submit <= SUBMIT_BUDGET,
        "an edit keeps {at_submit} bytes at submit_module (budget {SUBMIT_BUDGET})"
    );
    assert!(
        total <= EDIT_BUDGET,
        "an edit keeps {total} bytes in all (budget {EDIT_BUDGET})"
    );
}
