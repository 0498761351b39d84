//! A measurement run carries no shadow. One LULESH sweep point (size 12,
//! p = 8, taint-based probes) runs in measure mode, where no word has a
//! label, so its memory holds bare values in pages and grows without
//! copying. A counting global allocator measures the run's peak heap
//! above what was live before it, which must stay under `PEAK_BUDGET`.
//! With one 16-byte value-and-label word per address in a `Vec` that grew
//! by doubling, the point peaked at 1,161 KiB; with 4,096-word pages of
//! 8-byte values and no label plane it peaks at about 478 KiB. The same
//! pages with a label plane beside them peak at about 590 KiB, so the
//! budget also fails a measurement run that allocates a shadow.
//!
//! The counter is process-wide, so this binary holds exactly one test.

use perf_taint::{PolicyKind, SessionBuilder};
use pt_measure::{run_point, Filter, SweepPoint};
use pt_mpisim::MachineConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn grew(bytes: isize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as isize);
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
            grew(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak heap one measurement point may use above what was live before it.
const PEAK_BUDGET: isize = 540 * 1024;

#[test]
fn a_lulesh_measurement_point_stays_under_its_heap_ceiling() {
    let app = pt_apps::lulesh::build();
    let session = SessionBuilder::new(&app.module, &app.entry)
        .policy(PolicyKind::ParamSet)
        .build();
    let analysis = session
        .taint_run(app.taint_run_params())
        .expect("taint run");
    let filter = Filter::TaintBased {
        relevant: analysis
            .relevant_functions(&app.module)
            .into_iter()
            .collect(),
    };
    let probe = filter.probe_vector(&app.module, 1.0e-6);
    let point = SweepPoint {
        params: app.sweep_params(&[("size", 12), ("p", 8)]),
        machine: MachineConfig::default()
            .with_ranks(8)
            .with_ranks_per_node(8),
    };

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let profile = run_point(&app.module, analysis.prepared(), &app.entry, &point, &probe)
        .expect("measurement run");
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(profile.insts > 0);
    eprintln!("peak heap of one measurement point: {} KiB", peak / 1024);
    assert!(
        peak <= PEAK_BUDGET,
        "one measurement point peaked at {peak} bytes (budget {PEAK_BUDGET})"
    );
}
