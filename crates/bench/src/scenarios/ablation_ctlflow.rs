//! Ablation: the control-flow taint policies.
//!
//! The paper's key extension to DataFlowSanitizer is control-flow tainting
//! (§5.2) — without it, the LULESH `regElemSize` histogram dependence is
//! invisible and the region loops lose their `size` dependency. This
//! scenario runs the taint analysis under all three policies and reports
//! the dependency structures of the §5.2 kernels. Its metrics encode the
//! finding: per policy and kernel, whether the dependency set contains
//! `size` (`size_dep_*`, 0/1) and how many parameters it holds
//! (`deps_*`). The printed verdict is derived from the same values.
//!
//! The ablated sessions use custom interpreter configurations, so they
//! are built directly (bypassing the context's memoized analysis, which
//! assumes the default configuration).

use super::{outln, Scenario, ScenarioCtx, ScenarioResult};
use perf_taint::{PtError, SessionBuilder};
use pt_taint::{CtlFlowPolicy, InterpConfig};

pub struct AblationCtlflow;

impl Scenario for AblationCtlflow {
    fn name(&self) -> &'static str {
        "ablation_ctlflow"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["ablation", "lulesh", "taint-policy"]
    }

    fn summary(&self) -> &'static str {
        "Ablation: control-flow taint policies on the §5.2 kernels"
    }

    fn run(&self, cx: &ScenarioCtx) -> Result<ScenarioResult, PtError> {
        let mut r = ScenarioResult::new();
        let app = cx.lulesh();
        outln!(r, "Ablation — control-flow taint policy (mini-LULESH)\n");
        let kernels = [
            "CalcMonotonicQRegionForElems",
            "CalcEnergyForElems",
            "EvalEOSForElems",
            "SetupRegionIndexSet",
        ];
        // The kernels whose dependency set contains `size`, under Off and
        // under All.
        let mut found_off = Vec::new();
        let mut found_all = Vec::new();
        for policy in [
            CtlFlowPolicy::Off,
            CtlFlowPolicy::StoresOnly,
            CtlFlowPolicy::All,
        ] {
            let interp = InterpConfig {
                policy,
                ..InterpConfig::default()
            };
            let session = SessionBuilder::new(&app.module, &app.entry)
                .interp(interp)
                .build();
            let analysis = session.taint_run(app.taint_run_params())?;
            let key = match policy {
                CtlFlowPolicy::Off => "off",
                CtlFlowPolicy::StoresOnly => "stores_only",
                CtlFlowPolicy::All => "all",
            };
            let size = analysis.param_names.iter().position(|n| n == "size");
            let mut found = Vec::new();
            outln!(r, "policy {policy:?}:");
            for k in kernels {
                let f = app.module.function_by_name(k).unwrap();
                let deps = &analysis.deps[&f];
                let params = deps.params();
                let has_size = size.is_some_and(|i| params.contains(i));
                if has_size {
                    found.push(k);
                }
                outln!(r, "  {k:<32} {}", deps.render(&analysis.param_names));
                // The finding itself: whether this policy sees the kernel
                // depend on `size`, and how many parameters it sees.
                r.metric(
                    format!("size_dep_{k}_policy_{key}"),
                    f64::from(u8::from(has_size)),
                );
                r.metric(format!("deps_{k}_policy_{key}"), params.len() as f64);
            }
            let missing: Vec<&str> = kernels
                .iter()
                .copied()
                .filter(|k| !found.contains(k))
                .collect();
            outln!(
                r,
                "  relevant loops: {} — {}",
                analysis.table2.loops_relevant,
                if missing.is_empty() {
                    "every kernel includes size".to_string()
                } else {
                    format!("MISS the size dependency in {}", missing.join(", "))
                }
            );
            outln!(r);
            r.metric(
                format!("relevant_loops_policy_{key}"),
                analysis.table2.loops_relevant as f64,
            );
            match policy {
                CtlFlowPolicy::Off => found_off = found,
                CtlFlowPolicy::All => found_all = found,
                CtlFlowPolicy::StoresOnly => {}
            }
        }
        // The verdict follows from what the runs found: the kernels whose
        // `size` dependency only control-flow taint exposes.
        let recovered: Vec<&str> = found_all
            .into_iter()
            .filter(|k| !found_off.contains(k))
            .collect();
        if recovered.is_empty() {
            outln!(
                r,
                "Control-flow taint exposes no size dependency that policy Off misses."
            );
        } else {
            outln!(r, "Only control-flow taint exposes the size dependency of");
            outln!(r, "  {} (the regElemSize histogram).", recovered.join(", "));
            outln!(
                r,
                "Paper: the DataFlowSanitizer extension (policy All / StoresOnly) is"
            );
            outln!(
                r,
                "necessary to capture real-world dependencies like regElemSize."
            );
        }
        Ok(r)
    }
}
