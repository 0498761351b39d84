//! Differential suite over the evaluation applications: the decode-once
//! engine must be bit-identical to the legacy tree-walker on mini-LULESH,
//! mini-MILC, and generated synthetic workloads — full `RunOutput` and
//! `TaintRecords` equality per `pt_taint::differential`'s contract, under
//! the production MPI handler.

use pt_apps::AppSpec;
use pt_mpisim::{ContentionModel, MachineConfig, MpiHandler};
use pt_taint::differential::compare_results;
use pt_taint::{CtlFlowPolicy, InterpConfig, Interpreter, PreparedModule, ReferenceInterpreter};

/// Mirror `Session::taint_run`'s machine setup: the rank count follows the
/// `p` parameter when present.
fn machine_for(params: &[(String, i64)]) -> MachineConfig {
    let mut machine = MachineConfig::default();
    if let Some((_, p)) = params.iter().find(|(n, _)| n == "p") {
        machine.ranks = u32::try_from(*p).expect("positive rank count");
    }
    machine
}

fn assert_app_identical(app: &AppSpec, config: InterpConfig) {
    let machine = machine_for(&app.taint_run_params());
    assert_app_identical_on(app, config, machine);
}

fn assert_app_identical_on(app: &AppSpec, config: InterpConfig, machine: MachineConfig) {
    let taint_on = config.taint.is_some();
    let params = app.taint_run_params();
    let prepared = PreparedModule::compute(&app.module);
    let decoded = Interpreter::new(
        &app.module,
        &prepared,
        MpiHandler::new(machine.clone()),
        params.clone(),
        config.clone(),
    )
    .run_named(&app.entry, &[]);
    let legacy = ReferenceInterpreter::new(
        &app.module,
        &prepared,
        MpiHandler::new(machine),
        params,
        config,
    )
    .run_named(&app.entry, &[]);
    compare_results(&decoded, &legacy).unwrap_or_else(|divergence| {
        panic!("engines diverge on {}: {divergence}", app.name);
    });
    let out = decoded.expect("taint run succeeds");
    assert!(out.insts > 0, "{} executed instructions", app.name);
    assert!(
        !taint_on || !out.records.loops.is_empty(),
        "{} recorded loop sinks",
        app.name
    );
}

#[test]
fn lulesh_taint_run_is_bit_identical() {
    assert_app_identical(&pt_apps::lulesh::build(), InterpConfig::default());
}

#[test]
fn lulesh_is_bit_identical_under_every_ctlflow_policy() {
    for policy in [CtlFlowPolicy::Off, CtlFlowPolicy::StoresOnly] {
        assert_app_identical(
            &pt_apps::lulesh::build(),
            InterpConfig {
                policy,
                ..Default::default()
            },
        );
    }
}

#[test]
fn milc_taint_run_is_bit_identical() {
    assert_app_identical(&pt_apps::milc::build(), InterpConfig::default());
}

#[test]
fn milc_measurement_mode_is_bit_identical() {
    // The measurement sweeps run with taint and coverage off plus probe
    // costs — the `pt-measure` configuration must match too.
    let app = pt_apps::milc::build();
    let nfuncs = app.module.functions.len() + app.module.used_externals().len();
    assert_app_identical(
        &app,
        InterpConfig {
            taint: None,
            probe_cost: vec![1e-7; nfuncs],
            ..Default::default()
        },
    );
}

#[test]
fn lulesh_measurement_mode_is_bit_identical() {
    // The `model_lulesh` sweep configuration, on a contended node: the
    // `pt_work_mem` rate then carries a contention factor other than 1.
    let app = pt_apps::lulesh::build();
    let nfuncs = app.module.functions.len() + app.module.used_externals().len();
    let machine = machine_for(&app.taint_run_params())
        .with_ranks_per_node(18)
        .with_contention(ContentionModel::CALIBRATED);
    assert_ne!(machine.contended_mem_word_time(), machine.mem_word_time);
    assert_app_identical_on(
        &app,
        InterpConfig {
            taint: None,
            // Probes on some functions only, like a filtered sweep.
            probe_cost: (0..nfuncs)
                .map(|i| if i % 3 == 0 { 1e-6 } else { 0.0 })
                .collect(),
            ..Default::default()
        },
        machine,
    );
}

#[test]
fn synthetic_workloads_are_bit_identical() {
    for seed in 0..6 {
        let synth = pt_apps::synth::generate(&pt_apps::synth::SynthConfig {
            seed,
            ..Default::default()
        });
        assert_app_identical(&synth.app, InterpConfig::default());
    }
}
