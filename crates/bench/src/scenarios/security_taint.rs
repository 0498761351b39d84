//! `security_taint` — the pluggable-policy scenario: the mini-SecSrv
//! workload under the security source/sink/sanitizer policy.
//!
//! Three things are proven:
//!
//! 1. **Bit-identity across engines.** The security-policy run produces
//!    the same [`pt_taint::RunOutput`] on the decoded engine and the
//!    legacy reference — the same differential contract the param-set
//!    policy lives under.
//! 2. **Ground truth.** The app's sink ledger is known in closed form
//!    (audit sink: one check per request, one violation per *unsanitized*
//!    request — `pt_sanitize` provably clears labels or the sanitized
//!    half would violate too; config sink: a parameter base and a source
//!    base joined in one label).
//! 3. **Zero carve-outs.** The same module under the default param-set
//!    policy records *no* sink activity and retires the identical
//!    instruction stream — the security policy is a strict superset, not
//!    a fork, of the paper policy.
//!
//! The sink ledger's violation counts are the published metrics.

use super::{outln, Scenario, ScenarioCtx, ScenarioResult};
use perf_taint::PtError;
use pt_apps::security::{SINK_AUDIT, SINK_CONFIG, SOURCE_CONFIG, SOURCE_REQUEST};
use pt_mpisim::{MachineConfig, MpiHandler};
use pt_taint::policy::source_base_name;
use pt_taint::{
    differential, InterpConfig, Interpreter, PolicyKind, PreparedModule, ReferenceInterpreter,
    RunOutput,
};

pub struct SecurityTaint;

impl Scenario for SecurityTaint {
    fn name(&self) -> &'static str {
        "security_taint"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["infra", "taint", "security", "policy"]
    }

    fn summary(&self) -> &'static str {
        "security source/sink/sanitizer policy on mini-SecSrv: 2-engine bit-identity, sink ledger ground truth, zero carve-outs"
    }

    fn run(&self, _cx: &ScenarioCtx) -> Result<ScenarioResult, PtError> {
        let mut r = ScenarioResult::new();
        let app = pt_apps::security::build();
        let params = app.taint_run_params();
        let requests = params
            .iter()
            .find(|(n, _)| n == "requests")
            .map(|(_, v)| *v)
            .expect("mini-secsrv has a 'requests' parameter");
        let mut machine = MachineConfig::default();
        if let Some((_, p)) = params.iter().find(|(n, _)| n == "p") {
            machine.ranks = u32::try_from(*p).ok().filter(|&r| r > 0).ok_or_else(|| {
                PtError::Config(format!(
                    "parameter p must be a positive rank count, got {p}"
                ))
            })?;
        }
        let prepared = PreparedModule::compute(&app.module);
        // Explicit data flows only: the control-flow taint extension is
        // the *perf-model* policy's addition — under `CtlFlowPolicy::All`
        // the request loop's trip count (tainted by `requests`) would be
        // joined back into every value produced in the loop, deliberately
        // re-tainting sanitized values. Classic security taint tracking
        // is the pure DFSan propagation, so both policies run with
        // control scopes off here to keep the comparison like-for-like.
        let security_cfg = InterpConfig {
            policy: pt_taint::CtlFlowPolicy::Off,
            taint: Some(PolicyKind::Security),
            ..Default::default()
        };
        let paramset_cfg = InterpConfig {
            policy: pt_taint::CtlFlowPolicy::Off,
            taint: Some(PolicyKind::ParamSet),
            ..Default::default()
        };

        let run_with = |config: &InterpConfig| -> Result<RunOutput, PtError> {
            Interpreter::new(
                &app.module,
                &prepared,
                MpiHandler::new(machine.clone()),
                params.clone(),
                config.clone(),
            )
            .run_named(&app.entry, &[])
            .map_err(|source| PtError::TaintRun {
                entry: app.entry.clone(),
                source,
            })
        };
        let run_reference = |config: &InterpConfig| -> Result<RunOutput, PtError> {
            ReferenceInterpreter::new(
                &app.module,
                &prepared,
                MpiHandler::new(machine.clone()),
                params.clone(),
                config.clone(),
            )
            .run_named(&app.entry, &[])
            .map_err(|source| PtError::TaintRun {
                entry: app.entry.clone(),
                source,
            })
        };

        // ---- 1. two-engine bit-identity under the security policy ------
        let decoded = run_with(&security_cfg)?;
        let reference = run_reference(&security_cfg)?;
        differential::compare_outputs(&decoded, &reference).map_err(|divergence| {
            PtError::Config(format!(
                "security_taint: decoded engine diverges from reference: {divergence}"
            ))
        })?;
        // ---- 2. sink-ledger ground truth -------------------------------
        let audit = decoded
            .records
            .sink_checks
            .get(&SINK_AUDIT)
            .copied()
            .ok_or_else(|| PtError::Config("security_taint: audit sink never checked".into()))?;
        let config_sink = decoded
            .records
            .sink_checks
            .get(&SINK_CONFIG)
            .copied()
            .ok_or_else(|| PtError::Config("security_taint: config sink never checked".into()))?;
        let expect = |ok: bool, what: &str| -> Result<(), PtError> {
            ok.then_some(())
                .ok_or_else(|| PtError::Config(format!("security_taint: {what}")))
        };
        expect(
            audit.checks == requests as u64,
            "audit sink must check every request",
        )?;
        expect(
            audit.violations == requests as u64 / 2,
            "exactly the unsanitized half must violate — sanitize provably clears labels",
        )?;
        let src_request = decoded
            .labels
            .param_index(&source_base_name(SOURCE_REQUEST));
        let src_config = decoded.labels.param_index(&source_base_name(SOURCE_CONFIG));
        let requests_base = decoded.labels.param_index("requests");
        expect(
            src_request.is_some_and(|i| audit.params.contains(i)),
            "audit violations must carry the request source base",
        )?;
        expect(
            requests_base.is_some_and(|i| !audit.params.contains(i)),
            "audit sink must not see parameter bases",
        )?;
        expect(
            config_sink.checks == 1 && config_sink.violations == 1,
            "config sink is checked once, unsanitized",
        )?;
        expect(
            requests_base.is_some_and(|i| config_sink.params.contains(i))
                && src_config.is_some_and(|i| config_sink.params.contains(i)),
            "config sink must join a parameter base with a source base",
        )?;

        // ---- 3. zero carve-outs under the default policy ---------------
        let baseline = run_with(&paramset_cfg)?;
        let baseline_ref = run_reference(&paramset_cfg)?;
        differential::compare_outputs(&baseline, &baseline_ref).map_err(|divergence| {
            PtError::Config(format!(
                "security_taint: param-set engines diverge: {divergence}"
            ))
        })?;
        expect(
            baseline.records.sink_checks.is_empty(),
            "the param-set policy must record no sink activity",
        )?;
        expect(
            baseline.insts == decoded.insts && baseline.time == decoded.time,
            "both policies must retire the identical instruction stream",
        )?;

        outln!(r, "Security taint policy on {}", app.name);
        outln!(
            r,
            "  engines bit-identical: decoded == reference ({} insts)",
            decoded.insts
        );
        outln!(
            r,
            "  audit sink #{SINK_AUDIT}: {} checks, {} violations (sanitized half clean)",
            audit.checks,
            audit.violations
        );
        outln!(
            r,
            "  config sink #{SINK_CONFIG}: {} check, {} violation; label joins parameter 'requests' with source '{}'",
            config_sink.checks,
            config_sink.violations,
            source_base_name(SOURCE_CONFIG)
        );
        outln!(
            r,
            "  param-set policy: no sink records, identical instruction stream (zero carve-outs)"
        );

        r.metric("audit_violations", audit.violations as f64);
        r.metric("config_violations", config_sink.violations as f64);
        Ok(r)
    }
}
