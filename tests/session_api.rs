//! The staged `Session` API contract: the static stage is memoized and
//! shared across taint runs, `analyze_batch` matches sequential `analyze`
//! exactly while computing the static stage once, and user errors surface
//! as `PtError` values — never panics, never substrate error types.

use perf_taint::{static_summary, PtError, SessionBuilder, SessionCache, StaticArtifacts};
use pt_apps::lulesh;
use pt_ir::{Callee, Const, InstKind, Module, Value};
use std::sync::Arc;

/// The ≥4 parameter sets the acceptance criterion calls for: a sweep over
/// (size, p) around LULESH's representative configuration.
fn lulesh_param_sets(app: &pt_apps::AppSpec) -> Vec<Vec<(String, i64)>> {
    [(4i64, 8i64), (5, 8), (6, 27), (5, 27), (4, 64)]
        .iter()
        .map(|&(size, p)| app.sweep_params(&[("size", size), ("p", p)]))
        .collect()
}

#[test]
fn taint_runs_share_one_static_stage() {
    let app = lulesh::build();
    let session = SessionBuilder::new(&app.module, &app.entry).build();
    let a = session.taint_run(app.taint_run_params()).unwrap();
    let b = session
        .taint_run(app.sweep_params(&[("size", 6), ("p", 27)]))
        .unwrap();
    // Same Arc: the PreparedModule and classification were computed once.
    assert!(
        Arc::ptr_eq(&a.statics, &b.statics),
        "second taint_run must reuse the session's static artifacts"
    );
    assert!(Arc::ptr_eq(&a.statics, &session.static_analysis()));
    // And they are genuinely the session's artifacts, not clones.
    assert!(std::ptr::eq(a.prepared(), b.prepared()));
}

#[test]
fn static_analysis_is_idempotent_and_usable_without_a_run() {
    let app = lulesh::build();
    let session = SessionBuilder::new(&app.module, &app.entry).build();
    let s1 = session.static_analysis();
    let s2 = session.static_analysis();
    assert!(Arc::ptr_eq(&s1, &s2));
    // The §5.1 classification alone already prunes most of LULESH.
    assert!(s1.classification.pruned_count() > app.module.functions.len() / 2);
}

#[test]
fn analyze_batch_matches_sequential_analyze() {
    let app = lulesh::build();
    let param_sets = lulesh_param_sets(&app);
    assert!(param_sets.len() >= 4);

    let session = SessionBuilder::new(&app.module, &app.entry).build();
    let batch = session.analyze_batch(&param_sets);

    // The static stage was computed exactly once: every batch result holds
    // the session's own Arc (a recomputation would allocate a fresh one).
    let statics = session.static_analysis();
    for result in &batch {
        let a = result.as_ref().expect("batch entry");
        assert!(
            Arc::ptr_eq(&a.statics, &statics),
            "batch entry recomputed the static stage"
        );
    }

    // Results are identical to one-shot sequential runs (a throwaway
    // session per parameter set — the retired `analyze()` shim's shape).
    let model_params = app.model_params.clone();
    for (params, result) in param_sets.iter().zip(&batch) {
        let batched = result.as_ref().unwrap();
        let sequential = SessionBuilder::new(&app.module, &app.entry)
            .build()
            .taint_run(params.clone())
            .unwrap();
        assert_eq!(batched.param_names, sequential.param_names);
        assert_eq!(batched.kinds, sequential.kinds);
        assert_eq!(batched.deps, sequential.deps);
        assert_eq!(batched.extern_deps, sequential.extern_deps);
        assert_eq!(
            batched.records.loops_by_function().len(),
            sequential.records.loops_by_function().len()
        );
        for (key, rec) in batched.records.loops_by_function() {
            let seq = &sequential.records.loops_by_function()[&key];
            assert_eq!(rec.iterations, seq.iterations, "{key:?}");
            assert_eq!(rec.params, seq.params, "{key:?}");
        }
        assert!((batched.taint_run_time - sequential.taint_run_time).abs() < 1e-18);
        assert_eq!(
            batched.global_deps(&model_params),
            sequential.global_deps(&model_params)
        );
        assert_eq!(
            batched.relevant_functions(&app.module),
            sequential.relevant_functions(&app.module)
        );
    }
}

#[test]
fn batch_entries_fail_independently() {
    let app = lulesh::build();
    let session = SessionBuilder::new(&app.module, &app.entry).build();
    let good = app.taint_run_params();
    let bad = app.sweep_params(&[("p", 0)]); // rejected by config validation
    let results = session.analyze_batch(&[good.clone(), bad, good]);
    assert!(results[0].is_ok());
    assert!(matches!(results[1], Err(PtError::Config(_))));
    assert!(results[2].is_ok());
}

#[test]
fn errors_name_the_failing_entry_instead_of_panicking() {
    let app = lulesh::build();
    let session = SessionBuilder::new(&app.module, "not_a_function").build();
    let err = session.taint_run(app.taint_run_params()).unwrap_err();
    match &err {
        PtError::EntryNotFound { entry } => assert_eq!(entry, "not_a_function"),
        other => panic!("expected EntryNotFound, got {other:?}"),
    }
    assert!(err.to_string().contains("not_a_function"));
}

#[test]
fn oversized_alloca_is_an_error_not_a_panic() {
    let text = "\
func @main() -> void {
bb0:
  %0 = alloca 1152921504606846976
  ret
}
";
    let module = perf_taint::parse_module(text).unwrap();
    let session = SessionBuilder::new(&module, "main").build();
    let err = session.taint_run(Vec::new()).unwrap_err();
    assert!(matches!(err, PtError::TaintRun { .. }), "{err:?}");
    assert!(err.to_string().contains("cannot allocate"), "{err}");
}

#[test]
fn parse_errors_wrap_into_pt_error() {
    let err = perf_taint::parse_module("func @broken(").unwrap_err();
    assert!(matches!(err, PtError::Parse(_)));
    // The line number survives the wrapping.
    assert!(err.to_string().contains("line"), "{err}");
}

#[test]
fn axis_mapping_cache_is_consistent_across_repeated_projections() {
    // The memoized axis mapping must never change results: repeated and
    // interleaved projections over different axis vectors agree with fresh
    // computations.
    let app = lulesh::build();
    let session = SessionBuilder::new(&app.module, &app.entry).build();
    let a = session.taint_run(app.taint_run_params()).unwrap();
    let axes1 = vec!["p".to_string(), "size".to_string()];
    let axes2 = vec!["size".to_string(), "regions".to_string(), "p".to_string()];
    let g1 = a.global_deps(&axes1);
    let g2 = a.global_deps(&axes2);
    let r1 = a.restrictions(&app.module, &axes1);
    for _ in 0..3 {
        assert_eq!(a.global_deps(&axes1), g1);
        assert_eq!(a.global_deps(&axes2), g2);
        assert_eq!(a.restrictions(&app.module, &axes1), r1);
    }
}

#[test]
fn session_cache_shares_statics_across_sessions_and_apps() {
    let lulesh = lulesh::build();
    let milc = pt_apps::milc::build();
    let cache = SessionCache::new();
    assert!(cache.is_empty());

    // Two sessions over the same module content share one static stage.
    let s1 = cache.get_or_compute(&lulesh.module, &lulesh.entry);
    let s2 = cache.get_or_compute(&lulesh.module, &lulesh.entry);
    assert!(Arc::ptr_eq(&s1.static_analysis(), &s2.static_analysis()));
    assert_eq!(cache.len(), 1);

    // The whole-module slot absorbed the second request: the per-function
    // ledger shows exactly one compute pass over the module's functions.
    let reuse = cache.unit_reuse();
    assert_eq!(reuse.total, lulesh.module.functions.len());
    assert_eq!(reuse.recomputed, lulesh.module.functions.len());

    // A different app gets its own entry, not the cached one.
    let s3 = cache.get_or_compute(&milc.module, &milc.entry);
    assert!(!Arc::ptr_eq(&s1.static_analysis(), &s3.static_analysis()));
    assert_eq!(cache.len(), 2);

    // Cached sessions still produce working analyses, and the analysis
    // carries the shared artifacts.
    let a = s2.taint_run(lulesh.taint_run_params()).unwrap();
    assert!(Arc::ptr_eq(&a.statics, &s1.static_analysis()));
}

/// `m` with its first constant `pt_work_flops` charge bumped by one: an
/// edit to one function body.
fn edit_one_function(m: &Module) -> Module {
    let mut edited = m.clone();
    let flops = edited
        .functions
        .iter_mut()
        .flat_map(|f| f.insts.iter_mut())
        .find_map(|inst| match &mut inst.kind {
            InstKind::Call {
                callee: Callee::External(name),
                args,
                ..
            } if name == "pt_work_flops" => match args.first_mut() {
                Some(Value::Const(Const::Int(k))) => Some(k),
                _ => None,
            },
            _ => None,
        })
        .expect("a constant work charge");
    *flops += 1;
    edited
}

/// The static stage has one code path. Run without a memo, against a fresh
/// `SessionCache`, or against that cache after an edit, it yields the
/// same summary bytes, classification and pass statistics.
#[test]
fn static_stage_is_identical_with_and_without_the_unit_memo() {
    for app in [lulesh::build(), pt_apps::milc::build()] {
        let fingerprint = |statics: &StaticArtifacts, m: &Module| {
            (
                static_summary(statics, m).render(),
                format!("{:?}", statics.classification),
                statics.prepared.pass_stats,
            )
        };
        let plain = |m: &Module| {
            let session = SessionBuilder::new(m, &app.entry).build();
            fingerprint(&session.static_analysis(), m)
        };
        let cache = SessionCache::new();
        let cold = cache
            .get_or_compute(&app.module, &app.entry)
            .static_analysis();
        assert_eq!(cold.reuse.recomputed, app.module.functions.len());
        assert_eq!(fingerprint(&cold, &app.module), plain(&app.module));

        let edited = edit_one_function(&app.module);
        let warm = cache.get_or_compute(&edited, &app.entry).static_analysis();
        assert!(warm.reuse.recomputed > 0, "the edited function recomputes");
        assert!(warm.reuse.reused_memory > 0, "untouched units are reused");
        assert_eq!(fingerprint(&warm, &edited), plain(&edited));
    }
}
