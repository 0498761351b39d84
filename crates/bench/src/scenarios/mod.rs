//! The scenario registry: every paper figure/table as a named, taggable,
//! machine-reportable scenario.
//!
//! Each artifact of the paper's evaluation is a [`Scenario`]: a shared
//! implementation module under `scenarios/` that renders the same text the
//! historical one-binary-per-artifact harnesses printed *and* returns named
//! scalar [`metrics`](ScenarioResult::metrics) for the `BENCH_*.json`
//! report. `bench_all` runs any tag/name selection in one process
//! (`--verbose` prints each scenario's text), sharing one memoized static
//! stage and one representative taint run per app through the
//! [`ScenarioCtx`], and `bench_compare` diffs two reports exactly as the
//! CI findings gate.
//!
//! Metric convention: every metric is **deterministic** — a count, a
//! simulated cost or a 0/1 verdict, never a wall-clock timing — so a
//! report reproduces bit for bit on any machine and the gate compares
//! each metric for equality (see `crates/bench/README.md`).

use perf_taint::{Analysis, PolicyKind, PtError, Session, SessionBuilder, StaticSlot};
use pt_apps::AppSpec;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

mod a2_experiment_design;
mod a3_cost_summary;
mod ablation_ctlflow;
mod b1_noise_resilience;
mod b2_intrusion;
mod c2_experiment_validation;
mod fig3_overhead_lulesh;
mod fig4_overhead_milc;
mod fig5_contention;
mod incremental_edit;
mod security_taint;
mod table1_config;
mod table2_overview;
mod table3_param_pruning;
mod taint_throughput;

/// Append a line to a [`ScenarioResult`]'s text (infallible `writeln!`).
macro_rules! outln {
    ($r:expr) => {{
        $r.text.push('\n');
    }};
    ($r:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($r.text, $($arg)*).unwrap();
    }};
}
/// Append text without a newline (infallible `write!`).
macro_rules! out {
    ($r:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        write!($r.text, $($arg)*).unwrap();
    }};
}
pub(crate) use {out, outln};

/// What one scenario run produced: the human-readable rendering (exactly
/// what the historical binary printed) plus named scalar metrics for the
/// machine-readable report.
#[derive(Debug, Default, Clone)]
pub struct ScenarioResult {
    pub text: String,
    /// Deterministic scalars (see the module docs for the convention).
    pub metrics: BTreeMap<String, f64>,
}

impl ScenarioResult {
    pub fn new() -> ScenarioResult {
        ScenarioResult::default()
    }

    /// Record a metric. Non-finite values are dropped (JSON cannot carry
    /// them, and a NaN would poison every comparison downstream).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name.into(), value);
        }
    }
}

/// One paper artifact, runnable against a shared [`ScenarioCtx`].
pub trait Scenario: Sync {
    /// Stable identifier (doubles as the historical binary name).
    fn name(&self) -> &'static str;
    /// Filter tags: artifact kind (`figure`/`table`/`appendix`/`ablation`),
    /// apps involved, and topic.
    fn tags(&self) -> &'static [&'static str];
    /// One-line description for `bench_all --list`.
    fn summary(&self) -> &'static str;
    fn run(&self, cx: &ScenarioCtx) -> Result<ScenarioResult, PtError>;
}

/// Shared run context: quick-mode sweep reductions, the per-scenario
/// thread budget, and lazily built evaluation apps, each with the static
/// stage and the representative taint run every scenario shares.
pub struct ScenarioCtx {
    /// Reduced sweeps for CI / `cargo test` (still ≥3 values per modeled
    /// axis so the Extra-P searches stay well-posed).
    pub quick: bool,
    /// Worker threads each scenario may use for its internal sweeps.
    pub threads: usize,
    lulesh: OnceLock<BuiltApp>,
    milc: OnceLock<BuiltApp>,
}

/// An app the context built, beside what its scenarios share of it.
struct BuiltApp {
    app: AppSpec,
    /// The app's static stage, computed by the first session that asks.
    statics: StaticSlot,
    /// The representative taint run, computed once (`OnceLock` makes
    /// concurrent scenarios wait for one run instead of repeating it).
    /// Errors are cached as rendered messages — a failing app fails every
    /// scenario identically without rerunning.
    analysis: OnceLock<Result<Arc<Analysis>, String>>,
}

impl BuiltApp {
    fn new(app: AppSpec) -> BuiltApp {
        BuiltApp {
            app,
            statics: StaticSlot::default(),
            analysis: OnceLock::new(),
        }
    }
}

impl ScenarioCtx {
    pub fn new(quick: bool) -> ScenarioCtx {
        ScenarioCtx::with_threads(quick, crate::threads())
    }

    pub fn with_threads(quick: bool, threads: usize) -> ScenarioCtx {
        ScenarioCtx {
            quick,
            threads: threads.max(1),
            lulesh: OnceLock::new(),
            milc: OnceLock::new(),
        }
    }

    /// The mini-LULESH app, built once per context.
    pub fn lulesh(&self) -> &AppSpec {
        &self
            .lulesh
            .get_or_init(|| BuiltApp::new(pt_apps::lulesh::build()))
            .app
    }

    /// The mini-MILC app, built once per context.
    pub fn milc(&self) -> &AppSpec {
        &self
            .milc
            .get_or_init(|| BuiltApp::new(pt_apps::milc::build()))
            .app
    }

    /// What the context keeps beside `app`, if the context built it.
    fn built(&self, app: &AppSpec) -> Option<&BuiltApp> {
        [&self.lulesh, &self.milc]
            .into_iter()
            .filter_map(OnceLock::get)
            .find(|built| std::ptr::eq(&built.app, app))
    }

    /// A session over `app`. An app the context built shares its static
    /// stage with every other session over it; any other app gets a
    /// stage of its own.
    pub fn session<'m>(&self, app: &'m AppSpec) -> Session<'m> {
        let mut builder =
            SessionBuilder::new(&app.module, &app.entry).policy(PolicyKind::from_env());
        if let Some(built) = self.built(app) {
            builder = builder.statics(built.statics.clone());
        }
        builder.build()
    }

    /// The representative taint run of `app`, computed once per context
    /// for an app the context built: the run is deterministic (fixed
    /// `taint_run_params`), so every scenario shares one `Analysis`
    /// instead of repeating the dynamic stage per artifact.
    pub fn analysis(&self, app: &AppSpec) -> Result<Arc<Analysis>, PtError> {
        let run = || {
            self.session(app)
                .taint_run(app.taint_run_params())
                .map(Arc::new)
                .map_err(|e| e.to_string())
        };
        match self.built(app) {
            Some(built) => built.analysis.get_or_init(run).clone(),
            None => run(),
        }
        .map_err(PtError::Config)
    }

    /// LULESH `size` sweep (quick mode keeps 3 of the 5 paper values).
    pub fn lulesh_sizes(&self) -> Vec<i64> {
        if self.quick {
            vec![12, 16, 20]
        } else {
            crate::lulesh_sizes()
        }
    }

    /// LULESH rank counts (quick mode keeps 3 cube numbers).
    pub fn lulesh_ranks(&self) -> Vec<i64> {
        if self.quick {
            vec![8, 27, 64]
        } else {
            crate::lulesh_ranks()
        }
    }

    /// MILC `nx` sweep.
    pub fn milc_sizes(&self) -> Vec<i64> {
        if self.quick {
            vec![32, 64, 128]
        } else {
            crate::milc_sizes()
        }
    }

    /// MILC rank counts.
    pub fn milc_ranks(&self) -> Vec<i64> {
        if self.quick {
            vec![4, 8, 16]
        } else {
            crate::milc_ranks()
        }
    }

    /// Ranks-per-node sweep for the §C1 contention experiment.
    pub fn contention_rpn(&self) -> Vec<u32> {
        if self.quick {
            vec![2, 6, 12, 18]
        } else {
            vec![2, 4, 6, 8, 12, 16, 18]
        }
    }

    /// Rank counts for the §C2 validation: must straddle the p = 8
    /// algorithm switch with ≥2 points on each side even in quick mode.
    pub fn c2_ranks(&self) -> Vec<i64> {
        if self.quick {
            vec![4, 8, 16, 32]
        } else {
            crate::milc_ranks()
        }
    }
}

/// All registered scenarios, in the paper's presentation order.
pub fn registry() -> &'static [&'static dyn Scenario] {
    &[
        &table1_config::Table1Config,
        &table2_overview::Table2Overview,
        &table3_param_pruning::Table3ParamPruning,
        &fig3_overhead_lulesh::Fig3OverheadLulesh,
        &fig4_overhead_milc::Fig4OverheadMilc,
        &fig5_contention::Fig5Contention,
        &a2_experiment_design::A2ExperimentDesign,
        &a3_cost_summary::A3CostSummary,
        &b1_noise_resilience::B1NoiseResilience,
        &b2_intrusion::B2Intrusion,
        &c2_experiment_validation::C2ExperimentValidation,
        &ablation_ctlflow::AblationCtlflow,
        &taint_throughput::TaintThroughput,
        &security_taint::SecurityTaint,
        &incremental_edit::IncrementalEdit,
    ]
}

/// Look a scenario up by its exact name.
pub fn find(name: &str) -> Option<&'static dyn Scenario> {
    registry().iter().copied().find(|s| s.name() == name)
}

/// Scenarios matching any of `filters` (exact name or exact tag; an empty
/// filter list selects everything).
pub fn matching(filters: &[String]) -> Vec<&'static dyn Scenario> {
    registry()
        .iter()
        .copied()
        .filter(|s| {
            filters.is_empty()
                || filters
                    .iter()
                    .any(|f| s.name() == f || s.tags().contains(&f.as_str()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_tagged() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        let total = names.len();
        assert_eq!(
            total, 15,
            "all 12 paper artifacts plus the engine, security-policy, and edit-loop scenarios are registered"
        );
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "scenario names must be unique");
        for s in registry() {
            assert!(!s.tags().is_empty(), "{} has no tags", s.name());
            assert!(!s.summary().is_empty(), "{} has no summary", s.name());
        }
    }

    #[test]
    fn find_and_matching_select_by_name_and_tag() {
        assert!(find("fig3_overhead_lulesh").is_some());
        assert!(find("nope").is_none());
        assert_eq!(matching(&[]).len(), registry().len());
        let lulesh: Vec<_> = matching(&["lulesh".to_string()])
            .iter()
            .map(|s| s.name())
            .collect();
        assert!(lulesh.contains(&"fig3_overhead_lulesh"));
        assert!(!lulesh.contains(&"fig4_overhead_milc"));
        let by_name = matching(&["table1_config".to_string()]);
        assert_eq!(by_name.len(), 1);
    }
}
