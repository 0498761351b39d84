//! §B1: noise resilience — the taint prior prunes false dependencies.
//!
//! Sweep (p, size), sample five noisy repetitions per point, and model every
//! function twice: black-box (plain Extra-P) and hybrid (taint-restricted
//! search space). Constant functions — above all short accessors, where the
//! absolute noise floor dominates — tempt the black box into parametric
//! models; the hybrid modeler is immune by construction.
//!
//! Paper shape: MILC had 77% of models corrected; four MPI_Comm_rank models
//! became constant; for reliable kernels (CV ≤ 0.1) both approaches agree
//! with the manually established ground truth.

use super::{outln, Scenario, ScenarioCtx, ScenarioResult};
use crate::{grid, run_filtered, REPS, SEED};
use perf_taint::report::render_models;
use perf_taint::{compare_against_truth, model_functions, PtError};
use pt_extrap::SearchSpace;
use pt_measure::{function_sets, Filter, NoiseModel};

pub struct B1NoiseResilience;

impl Scenario for B1NoiseResilience {
    fn name(&self) -> &'static str {
        "b1_noise_resilience"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["appendix", "lulesh", "noise", "modeling"]
    }

    fn summary(&self) -> &'static str {
        "§B1: false-dependency pruning under measurement noise"
    }

    fn run(&self, cx: &ScenarioCtx) -> Result<ScenarioResult, PtError> {
        let mut r = ScenarioResult::new();
        let app = cx.lulesh();
        let analysis = cx.analysis(app)?;
        let model_params = vec!["p".to_string(), "size".to_string()];

        let points = grid(
            app,
            "size",
            &cx.lulesh_sizes(),
            &cx.lulesh_ranks(),
            &[("iters", 2)],
        );
        let filter = Filter::TaintBased {
            relevant: analysis
                .relevant_functions(&app.module)
                .into_iter()
                .collect(),
        };
        let profiles = run_filtered(app, analysis.prepared(), &points, &filter, cx.threads);
        let sets = function_sets(&profiles, &model_params, REPS, &NoiseModel::CLUSTER, SEED);
        outln!(
            r,
            "§B1 — modeling {} functions from {} points × {} repetitions (noise: 2% rel + 2µs floor)",
            sets.len(),
            points.len(),
            REPS
        );

        let space = SearchSpace::default();
        let restrictions = analysis.restrictions(&app.module, &model_params);
        let blackbox = model_functions(&sets, None, &space, 0.1);
        let cmp = compare_against_truth(&blackbox, &restrictions);
        let hybrid = model_functions(&sets, Some(&restrictions), &space, 0.1);
        outln!(r, "\nblack-box Extra-P vs taint ground truth:");
        outln!(
            r,
            "  {} of {} models carried false dependencies or overfitted constants ({:.0}%)",
            cmp.false_dependencies.len() + cmp.overfitted_constants.len(),
            cmp.total,
            100.0 * cmp.corrected_fraction()
        );
        outln!(
            r,
            "  overfitted constants: {} (e.g. {:?})",
            cmp.overfitted_constants.len(),
            &cmp.overfitted_constants[..cmp.overfitted_constants.len().min(4)]
        );
        outln!(
            r,
            "  false parameter dependencies: {} (e.g. {:?})",
            cmp.false_dependencies.len(),
            &cmp.false_dependencies[..cmp.false_dependencies.len().min(4)]
        );

        // The §B1 headline case: environment queries must be constant.
        for probe_fn in ["MPI_Comm_rank", "MPI_Comm_size"] {
            if let (Some(bb), Some(hy)) = (blackbox.get(probe_fn), hybrid.get(probe_fn)) {
                outln!(
                    r,
                    "\n  {probe_fn}: black-box → {}   hybrid → {}",
                    bb.fitted.model.render(&model_params),
                    hy.fitted.model.render(&model_params)
                );
            }
        }

        let hybrid_clean = compare_against_truth(&hybrid, &restrictions);
        let violations =
            hybrid_clean.false_dependencies.len() + hybrid_clean.overfitted_constants.len();
        outln!(
            r,
            "\nhybrid models violating the taint structure: {violations} (must be 0)"
        );
        r.metric("hybrid_truth_violations", violations as f64);

        // Predicted-vs-measured error of the hybrid models: mean SMAPE over
        // the reliable (CV ≤ 0.1) functions.
        let reliable: Vec<f64> = hybrid
            .values()
            .filter(|m| m.reliable)
            .map(|m| m.fitted.quality.smape)
            .collect();
        if !reliable.is_empty() {
            r.metric(
                "pred_vs_measured_smape_pct",
                reliable.iter().sum::<f64>() / reliable.len() as f64,
            );
        }

        outln!(r, "\nTop hybrid models by mean exclusive time:");
        outln!(r, "{}", render_models(&hybrid, &model_params, 12));
        outln!(
            r,
            "Paper shape: black-box overfits short/constant functions; the hybrid"
        );
        outln!(
            r,
            "modeler eliminates every false dependency and matches ground truth"
        );
        outln!(r, "on reliable (CV ≤ 0.1) kernels.");
        Ok(r)
    }
}
