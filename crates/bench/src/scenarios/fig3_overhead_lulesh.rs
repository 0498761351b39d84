//! Figure 3: Score-P instrumentation overhead of LULESH under the three
//! filters — taint-based selective, default (inlining heuristic), and full
//! program instrumentation.
//!
//! Paper shape: full instrumentation costs up to 45× native on the
//! accessor-heavy C++ code; the default filter is moderate but misses more
//! than half of the performance-relevant functions; the taint-based filter
//! stays within ~5% of native.

use super::{out, outln, Scenario, ScenarioCtx, ScenarioResult};
use crate::{geomean, grid, overhead_percent, run_filtered, standard_filters};
use perf_taint::PtError;
use pt_measure::Filter;

pub struct Fig3OverheadLulesh;

impl Scenario for Fig3OverheadLulesh {
    fn name(&self) -> &'static str {
        "fig3_overhead_lulesh"
    }

    fn tags(&self) -> &'static [&'static str] {
        &["figure", "lulesh", "overhead"]
    }

    fn summary(&self) -> &'static str {
        "Figure 3: instrumentation overhead of LULESH per filter"
    }

    fn run(&self, cx: &ScenarioCtx) -> Result<ScenarioResult, PtError> {
        let mut r = ScenarioResult::new();
        let app = cx.lulesh();
        let analysis = cx.analysis(app)?;
        let prepared = analysis.prepared();
        let sizes = cx.lulesh_sizes();
        let ranks = cx.lulesh_ranks();
        let points = grid(app, "size", &sizes, &ranks, &[("iters", 2)]);

        let native = run_filtered(app, prepared, &points, &Filter::None, cx.threads);
        outln!(
            r,
            "Figure 3 — LULESH instrumentation overhead [% over native]"
        );
        let filters = standard_filters(&analysis, app);
        let taint_count = filters[0].1.instrumented_count(&app.module);
        outln!(
            r,
            "  taint-based filter instruments {} of {} functions; default {}; full {}",
            taint_count,
            app.module.functions.len(),
            Filter::Default {
                inline_threshold: 12
            }
            .instrumented_count(&app.module),
            Filter::Full.instrumented_count(&app.module),
        );
        r.metric("instrumented_functions_taint", taint_count as f64);

        for (label, filter) in filters {
            let instr = run_filtered(app, prepared, &points, &filter, cx.threads);
            outln!(r, "\n  {label} instrumentation:");
            out!(r, "  {:>8}", "p\\size");
            for &s in &sizes {
                out!(r, " {s:>9}");
            }
            outln!(r);
            let mut all = Vec::new();
            for (pi, &p) in ranks.iter().enumerate() {
                out!(r, "  {p:>8}");
                for si in 0..sizes.len() {
                    let idx = pi * sizes.len() + si;
                    let ov = overhead_percent(&instr[idx], &native[idx]);
                    all.push((ov / 100.0 + 1.0).max(1e-9));
                    out!(r, " {ov:>8.1}%");
                }
                outln!(r);
            }
            let max = all.iter().cloned().fold(0.0f64, f64::max);
            outln!(
                r,
                "  -> slowdown factor: geomean {:.2}x, max {:.2}x",
                geomean(&all),
                max
            );
            r.metric(format!("slowdown_{label}_geomean_x"), geomean(&all));
            r.metric(format!("slowdown_{label}_max_x"), max);
        }
        outln!(
            r,
            "\nPaper shape: full up to 45x; default moderate but misses relevant"
        );
        outln!(r, "functions; taint-based within ~5% of native.");
        Ok(r)
    }
}
