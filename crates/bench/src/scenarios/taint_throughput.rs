//! `taint_throughput` — the decode-once execution engine vs the reference
//! tree-walker, over the evaluation corpus.
//!
//! Every scenario in this registry bottoms out in the dynamic taint run.
//! This one runs the representative taint run of each corpus app
//! (mini-LULESH, mini-MILC, and a family of synthetic loop-nest workloads)
//! on both engines against one shared `PreparedModule` and proves the
//! outputs bit-identical (the differential contract) in **both execution
//! modes**: the full taint run (`InterpConfig::default()`) and the
//! measurement-mode sweep configuration (`taint: false`,
//! `coverage: false`). It publishes the corpus instruction count and what
//! the decode pass pipeline did (`PassStats`); the engine's speed is
//! measured by `perfbench` (`measure.minsts_per_s`, `stage.decode_ms`).

use super::{outln, Scenario, ScenarioCtx, ScenarioResult};
use perf_taint::PtError;
use pt_apps::AppSpec;
use pt_mpisim::{MachineConfig, MpiHandler};
use pt_taint::{differential, InterpConfig, Interpreter, PreparedModule, ReferenceInterpreter};
use std::collections::BTreeMap;

pub struct TaintThroughput;

impl Scenario for TaintThroughput {
    fn name(&self) -> &'static str {
        "taint_throughput"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["infra", "taint", "throughput", "lulesh", "milc"]
    }

    fn summary(&self) -> &'static str {
        "decode-once taint engine vs the reference tree-walker: bit-identity, instruction and pass counts over the corpus"
    }

    fn run(&self, cx: &ScenarioCtx) -> Result<ScenarioResult, PtError> {
        let mut r = ScenarioResult::new();
        let mut corpus: Vec<AppSpec> = vec![pt_apps::lulesh::build(), pt_apps::milc::build()];
        let synth_seeds: u64 = if cx.quick { 2 } else { 4 };
        for seed in 0..synth_seeds {
            corpus.push(
                pt_apps::synth::generate(&pt_apps::synth::SynthConfig {
                    seed,
                    param_values: vec![6, 7, 8],
                    ..Default::default()
                })
                .app,
            );
        }

        outln!(
            r,
            "Taint execution engine: decoded == reference on the corpus"
        );
        outln!(r, "  {:<14} {:>10}  outputs", "app", "insts");

        let measure_cfg = InterpConfig {
            taint: false,
            coverage: false,
            ..Default::default()
        };
        let mut insts_total = 0u64;
        let mut passes: BTreeMap<&str, usize> = BTreeMap::new();
        for app in &corpus {
            let prepared = PreparedModule::compute(&app.module);
            let insts = check_app(app, &prepared, &InterpConfig::default())?;
            check_app(app, &prepared, &measure_cfg)?;
            outln!(
                r,
                "  {:<14} {:>10}  bit-identical (taint + measurement mode)",
                app.name,
                insts
            );
            insts_total += insts;
            let s = prepared.pass_stats;
            for (name, n) in [
                ("folded", s.folded),
                ("reduced_geps", s.reduced_geps),
                ("fused_cmp_br", s.fused_cmp_br),
                ("fused_loads", s.fused_loads),
                ("fused_stores", s.fused_stores),
                ("inlined_calls", s.inlined_calls),
                ("regs_before", s.regs_before),
                ("regs_after", s.regs_after),
            ] {
                *passes.entry(name).or_default() += n;
            }
        }

        outln!(r);
        outln!(r, "  corpus: {insts_total} insts");
        outln!(
            r,
            "  passes: {} cmp+br, {} gep+load, {} gep+store fused; {} leaf calls inlined; \
             frames {} -> {} regs",
            passes["fused_cmp_br"],
            passes["fused_loads"],
            passes["fused_stores"],
            passes["inlined_calls"],
            passes["regs_before"],
            passes["regs_after"]
        );

        r.metric("corpus_insts", insts_total as f64);
        for (name, n) in passes {
            r.metric(format!("pass_{name}"), n as f64);
        }
        Ok(r)
    }
}

/// Mirror `Session::taint_run`'s machine setup (ranks follow `p`,
/// non-positive values rejected exactly like the in-process path).
fn machine_for(params: &[(String, i64)]) -> Result<MachineConfig, PtError> {
    let mut machine = MachineConfig::default();
    if let Some((_, p)) = params.iter().find(|(n, _)| n == "p") {
        machine.ranks = u32::try_from(*p).ok().filter(|&r| r > 0).ok_or_else(|| {
            PtError::Config(format!(
                "parameter p must be a positive rank count, got {p}"
            ))
        })?;
    }
    if machine.ranks == 0 {
        return Err(PtError::Config("machine has zero ranks".into()));
    }
    Ok(machine)
}

/// One app on both engines under one configuration: the outputs must be
/// bit-identical. Returns the run's instruction count.
fn check_app(
    app: &AppSpec,
    prepared: &PreparedModule,
    config: &InterpConfig,
) -> Result<u64, PtError> {
    let params = app.taint_run_params();
    let machine = machine_for(&params)?;
    let taint_err = |source| PtError::TaintRun {
        entry: app.entry.clone(),
        source,
    };
    let decoded = Interpreter::new(
        &app.module,
        prepared,
        MpiHandler::new(machine.clone()),
        params.clone(),
        config.clone(),
    )
    .run_named(&app.entry, &[])
    .map_err(taint_err)?;
    let reference = ReferenceInterpreter::new(
        &app.module,
        prepared,
        MpiHandler::new(machine),
        params,
        config.clone(),
    )
    .run_named(&app.entry, &[])
    .map_err(taint_err)?;
    differential::compare_outputs(&decoded, &reference).map_err(|divergence| {
        PtError::Config(format!(
            "taint_throughput: engines diverge on {}: {divergence}",
            app.name
        ))
    })?;
    Ok(decoded.insts)
}
