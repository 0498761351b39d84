//! Concurrency contract of a shared `perf_taint::StaticSlot`: N threads
//! racing sessions over one slot observe exactly one static-stage
//! computation (every session holds the same `Arc<StaticArtifacts>`), and
//! sessions for distinct modules, each with its own slot, get independent
//! artifacts — one module's computation never blocks another's. Every
//! session also shares one unit memo, as a long-running service's do.

use perf_taint::{FunctionArtifactCache, PolicyKind, Session, SessionBuilder, StaticSlot};
use pt_ir::{FunctionBuilder, Module, Type, Value};
use std::sync::{Arc, Barrier};

/// A session over `module` that shares `slot` and the unit memo `units`.
fn session<'m>(
    module: &'m Module,
    slot: &StaticSlot,
    units: &Arc<FunctionArtifactCache>,
) -> Session<'m> {
    SessionBuilder::new(module, "main")
        .policy(PolicyKind::from_env())
        .units(units.clone())
        .statics(slot.clone())
        .build()
}

/// A module with a parametric kernel (enough structure for the static
/// stage to chew on) under the given module name.
fn app(name: &str) -> Module {
    let mut m = Module::new(name);
    let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
    b.for_loop(0i64, b.param(0), 1i64, |b, _| {
        b.call_external("pt_work_flops", vec![Value::int(7)], Type::Void);
    });
    b.ret(None);
    let kernel = m.add_function(b.finish());
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
    b.call(kernel, vec![n], Type::Void);
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn racing_threads_share_one_static_stage_per_module() {
    let units = Arc::new(FunctionArtifactCache::new());
    let slot = StaticSlot::default();
    let module = app("contended");
    const THREADS: usize = 16;
    let barrier = Barrier::new(THREADS);

    let artifacts: Vec<Arc<perf_taint::StaticArtifacts>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (units, slot) = (&units, &slot);
                let module = &module;
                let barrier = &barrier;
                scope.spawn(move || {
                    // Line every thread up so the first-computation race is
                    // as hot as we can make it.
                    barrier.wait();
                    session(module, slot, units).static_analysis()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // One computation, shared by all: every Arc is the same allocation.
    for a in &artifacts[1..] {
        assert!(
            Arc::ptr_eq(&artifacts[0], a),
            "a racing session recomputed the static stage"
        );
    }
    // And it ran once: one unit lookup per function, all of them misses.
    let reuse = units.cumulative();
    assert_eq!(reuse.total, module.functions.len(), "one static stage");
    assert_eq!(reuse.recomputed, module.functions.len());
}

#[test]
fn distinct_modules_do_not_share_or_block() {
    let units = Arc::new(FunctionArtifactCache::new());
    let modules: Vec<Module> = (0..4).map(|i| app(&format!("app_{i}"))).collect();
    let slots: Vec<StaticSlot> = modules.iter().map(|_| StaticSlot::default()).collect();
    const PER_MODULE: usize = 4;
    let barrier = Barrier::new(modules.len() * PER_MODULE);

    let artifacts: Vec<(usize, Arc<perf_taint::StaticArtifacts>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..modules.len() * PER_MODULE)
            .map(|t| {
                let (units, slots) = (&units, &slots);
                let modules = &modules;
                let barrier = &barrier;
                scope.spawn(move || {
                    let which = t % modules.len();
                    barrier.wait();
                    (
                        which,
                        session(&modules[which], &slots[which], units).static_analysis(),
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Within a module: one shared computation. Across modules: distinct
    // allocations (no false sharing through the memo).
    for (i, a) in &artifacts {
        for (j, b) in &artifacts {
            if i == j {
                assert!(Arc::ptr_eq(a, b), "module {i} recomputed its static stage");
            } else {
                assert!(!Arc::ptr_eq(a, b), "modules {i} and {j} share artifacts");
            }
        }
    }
    assert!(slots.iter().all(|slot| slot.get().is_some()));

    // And a session built *after* the race still joins the shared stage.
    let late = session(&modules[0], &slots[0], &units).static_analysis();
    let first = &artifacts.iter().find(|(i, _)| *i == 0).unwrap().1;
    assert!(Arc::ptr_eq(first, &late));
}
