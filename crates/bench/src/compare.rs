//! Diffing two `BENCH_*.json` reports — the CI perf-regression gate.
//!
//! Every metric in a report follows the lower-is-better convention (see
//! [`crate::scenarios`]), so one rule gates them all: a metric regresses
//! when it grows beyond its tolerance, improves when it shrinks beyond it.
//! Wall times are the only nondeterministic numbers (everything else comes
//! out of a seeded simulation) and get a much looser tolerance of their
//! own. A scenario disappearing from the new report, failing where it used
//! to pass, or dropping a metric it used to publish is always a regression
//! — silence must never read as health.

use perf_taint::report::{BenchReport, RunStatus};

/// Relative + absolute slack for one comparison. A delta only counts when
/// it exceeds **both** bounds, so tiny absolute jitter on near-zero values
/// and proportional jitter on large ones are both forgiven.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Fraction of the old value (0.1 = 10%).
    pub rel: f64,
    /// Absolute slack in the metric's own unit.
    pub abs: f64,
}

impl Tolerance {
    pub fn new(rel: f64, abs: f64) -> Tolerance {
        Tolerance { rel, abs }
    }

    fn allowance(&self, old: f64) -> f64 {
        self.abs.max(self.rel * old.abs())
    }

    /// Did `new` grow past the allowance (lower-is-better regression)?
    pub fn regressed(&self, old: f64, new: f64) -> bool {
        new - old > self.allowance(old)
    }

    /// Did `new` shrink past the allowance (improvement worth reporting)?
    pub fn improved(&self, old: f64, new: f64) -> bool {
        old - new > self.allowance(old)
    }
}

/// Gate metrics the CI gate must always see in the *new* report. A
/// baseline regenerated after a metric silently vanished would otherwise
/// let the gate pass with nothing to compare — silence must never read
/// as health.
pub const REQUIRED_GATE_METRICS: &[(&str, &str)] = &[
    ("taint_throughput", "wall_ratio_decoded_over_legacy"),
    ("serve_saturation", "saturated_p99_wall_seconds"),
    ("incremental_edit", "edit_loop_warm_wall_seconds"),
];

/// Gate thresholds. Defaults: deterministic metrics move ≤10% (or 1e-9
/// absolute — exact-count metrics like violation tallies effectively gate
/// at equality); wall times move ≤50% and ≥0.25 s before they count.
#[derive(Debug, Clone)]
pub struct CompareConfig {
    pub metric: Tolerance,
    pub wall: Tolerance,
    /// `(scenario, metric)` pairs that must be present (with an `Ok`
    /// scenario status) in the new report — their absence is a regression
    /// even when the baseline lacks them too. Empty by default; the CI
    /// binary uses [`CompareConfig::ci_gate`].
    pub required: Vec<(String, String)>,
}

impl Default for CompareConfig {
    fn default() -> CompareConfig {
        CompareConfig {
            metric: Tolerance::new(0.10, 1e-9),
            wall: Tolerance::new(0.50, 0.25),
            required: Vec::new(),
        }
    }
}

impl CompareConfig {
    /// The configuration the `bench_compare` CI gate runs with:
    /// default tolerances plus [`REQUIRED_GATE_METRICS`].
    pub fn ci_gate() -> CompareConfig {
        CompareConfig {
            required: REQUIRED_GATE_METRICS
                .iter()
                .map(|(s, m)| (s.to_string(), m.to_string()))
                .collect(),
            ..Default::default()
        }
    }
}

/// The gate's verdict: regressions fail CI, improvements and notes inform.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Comparison {
    pub regressions: Vec<String>,
    pub improvements: Vec<String>,
    pub notes: Vec<String>,
}

impl Comparison {
    pub fn has_regressions(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Render the verdict as the gate's console output.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for line in &self.regressions {
            s.push_str(&format!("REGRESSION  {line}\n"));
        }
        for line in &self.improvements {
            s.push_str(&format!("improvement {line}\n"));
        }
        for line in &self.notes {
            s.push_str(&format!("note        {line}\n"));
        }
        if self.regressions.is_empty() {
            s.push_str("perf gate: OK — no regressions\n");
        } else {
            s.push_str(&format!(
                "perf gate: FAIL — {} regression(s)\n",
                self.regressions.len()
            ));
        }
        s
    }
}

/// Compare `new` against the `old` baseline. Errors only on unusable
/// input (schema mismatch); everything else is a verdict.
pub fn compare_reports(
    old: &BenchReport,
    new: &BenchReport,
    cfg: &CompareConfig,
) -> Result<Comparison, String> {
    if old.schema != new.schema {
        return Err(format!(
            "schema mismatch: baseline v{} vs new v{} — regenerate the baseline",
            old.schema, new.schema
        ));
    }
    let mut out = Comparison::default();
    for old_s in &old.scenarios {
        let name = &old_s.name;
        let Some(new_s) = new.scenario(name) else {
            out.regressions
                .push(format!("{name}: scenario missing from new report"));
            continue;
        };
        match (&old_s.status, &new_s.status) {
            (RunStatus::Ok, RunStatus::Error(e)) => {
                out.regressions.push(format!("{name}: now failing ({e})"));
                continue; // metrics of a failed run are not comparable
            }
            (RunStatus::Error(_), RunStatus::Ok) => {
                out.improvements
                    .push(format!("{name}: previously failing, now passing"));
                // The baseline's wall time (time-to-fail) and metrics are
                // not comparable to a passing run — don't gate on them.
                continue;
            }
            (RunStatus::Error(_), RunStatus::Error(e)) => {
                out.notes.push(format!("{name}: still failing ({e})"));
                continue;
            }
            (RunStatus::Ok, RunStatus::Ok) => {}
        }
        if cfg.wall.regressed(old_s.wall_seconds, new_s.wall_seconds) {
            out.regressions.push(format!(
                "{name}: wall time {:.3}s -> {:.3}s (+{:.0}%)",
                old_s.wall_seconds,
                new_s.wall_seconds,
                100.0 * (new_s.wall_seconds - old_s.wall_seconds) / old_s.wall_seconds.max(1e-12)
            ));
        } else if cfg.wall.improved(old_s.wall_seconds, new_s.wall_seconds) {
            out.improvements.push(format!(
                "{name}: wall time {:.3}s -> {:.3}s",
                old_s.wall_seconds, new_s.wall_seconds
            ));
        }
        for (metric, &old_v) in &old_s.metrics {
            let Some(&new_v) = new_s.metrics.get(metric) else {
                out.regressions
                    .push(format!("{name}: metric '{metric}' disappeared"));
                continue;
            };
            // Metrics named `*_wall_seconds` are real wall-clock timings
            // (e.g. model-search cost) — nondeterministic like the
            // scenario wall time, so they share its loose tolerance.
            // `wall_ratio_*` metrics are quotients of two wall timings
            // (the engine-speedup gate): machine-speed-independent but
            // still timing-derived, so they get the loose tolerance too,
            // as do `*_shed_fraction` metrics (how much load a saturated
            // server sheds depends on machine-speed race outcomes).
            let cfg = if metric.ends_with("_wall_seconds")
                || metric.starts_with("wall_ratio_")
                || metric.ends_with("_shed_fraction")
            {
                &cfg.wall
            } else {
                &cfg.metric
            };
            if cfg.regressed(old_v, new_v) {
                out.regressions
                    .push(format!("{name}: {metric} {old_v:.6} -> {new_v:.6} (worse)"));
            } else if cfg.improved(old_v, new_v) {
                out.improvements
                    .push(format!("{name}: {metric} {old_v:.6} -> {new_v:.6}"));
            }
        }
        for metric in new_s.metrics.keys() {
            if !old_s.metrics.contains_key(metric) {
                out.notes
                    .push(format!("{name}: new metric '{metric}' (not in baseline)"));
            }
        }
    }
    for new_s in &new.scenarios {
        if old.scenario(&new_s.name).is_none() {
            out.notes
                .push(format!("{}: new scenario (not in baseline)", new_s.name));
        }
    }
    // Required gate metrics must exist in the new report regardless of
    // what the baseline recorded — a regenerated baseline must not launder
    // a vanished gate metric into silence.
    for (scen, metric) in &cfg.required {
        let present = new
            .scenario(scen)
            .is_some_and(|s| matches!(s.status, RunStatus::Ok) && s.metrics.contains_key(metric));
        if !present {
            out.regressions.push(format!(
                "{scen}: required gate metric '{metric}' missing from new report"
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_taint::report::{ScenarioRecord, BENCH_SCHEMA_VERSION};
    use std::collections::BTreeMap;

    fn record(name: &str, wall: f64, metrics: &[(&str, f64)]) -> ScenarioRecord {
        ScenarioRecord {
            name: name.into(),
            tags: vec!["test".into()],
            status: RunStatus::Ok,
            wall_seconds: wall,
            metrics: metrics
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    fn report(scenarios: Vec<ScenarioRecord>) -> BenchReport {
        BenchReport {
            schema: BENCH_SCHEMA_VERSION,
            git_sha: "test".into(),
            created_unix: 0,
            quick: true,
            scenarios,
        }
    }

    #[test]
    fn unchanged_reports_pass_the_gate() {
        let old = report(vec![record("s", 1.0, &[("cost", 10.0)])]);
        let cmp = compare_reports(&old, &old.clone(), &CompareConfig::default()).unwrap();
        assert!(!cmp.has_regressions());
        assert!(cmp.improvements.is_empty());
        assert!(cmp.render().contains("perf gate: OK"));
    }

    #[test]
    fn improvement_is_reported_but_passes() {
        let old = report(vec![record("s", 1.0, &[("cost", 10.0)])]);
        let new = report(vec![record("s", 1.0, &[("cost", 5.0)])]);
        let cmp = compare_reports(&old, &new, &CompareConfig::default()).unwrap();
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.improvements.len(), 1);
        assert!(cmp.improvements[0].contains("cost"));
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let old = report(vec![record("s", 1.0, &[("cost", 10.0)])]);
        // +50% on a deterministic metric: well past the 10% tolerance.
        let new = report(vec![record("s", 1.0, &[("cost", 15.0)])]);
        let cmp = compare_reports(&old, &new, &CompareConfig::default()).unwrap();
        assert!(cmp.has_regressions());
        assert!(cmp.regressions[0].contains("cost"));
        assert!(cmp.render().contains("perf gate: FAIL"));
    }

    #[test]
    fn within_tolerance_changes_are_ignored() {
        let old = report(vec![record("s", 1.0, &[("cost", 10.0)])]);
        let new = report(vec![record("s", 1.1, &[("cost", 10.5)])]); // +5%
        let cmp = compare_reports(&old, &new, &CompareConfig::default()).unwrap();
        assert!(!cmp.has_regressions());
        assert!(cmp.improvements.is_empty());
    }

    #[test]
    fn missing_scenario_and_missing_metric_are_regressions() {
        let old = report(vec![
            record("gone", 1.0, &[]),
            record("kept", 1.0, &[("a", 1.0), ("b", 2.0)]),
        ]);
        let new = report(vec![record("kept", 1.0, &[("a", 1.0)])]);
        let cmp = compare_reports(&old, &new, &CompareConfig::default()).unwrap();
        assert_eq!(cmp.regressions.len(), 2);
        assert!(cmp.regressions.iter().any(|m| m.contains("gone")));
        assert!(cmp.regressions.iter().any(|m| m.contains("'b'")));
    }

    #[test]
    fn new_scenarios_and_metrics_are_notes_not_failures() {
        let old = report(vec![record("s", 1.0, &[("a", 1.0)])]);
        let new = report(vec![
            record("s", 1.0, &[("a", 1.0), ("extra", 3.0)]),
            record("brand_new", 1.0, &[]),
        ]);
        let cmp = compare_reports(&old, &new, &CompareConfig::default()).unwrap();
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.notes.len(), 2);
    }

    #[test]
    fn status_flips_are_tracked() {
        let mut failing = record("s", 0.01, &[]);
        failing.status = RunStatus::Error("boom".into());
        // A passing run is much slower than the old time-to-fail: the fix
        // must not be reported as a wall-time regression.
        let passing = record("s", 5.0, &[("cost", 1.0)]);

        let cmp = compare_reports(
            &report(vec![passing.clone()]),
            &report(vec![failing.clone()]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(cmp.has_regressions());
        assert!(cmp.regressions[0].contains("now failing"));

        let cmp = compare_reports(
            &report(vec![failing]),
            &report(vec![passing]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!cmp.has_regressions());
        assert_eq!(cmp.improvements.len(), 1);
    }

    #[test]
    fn wall_ratio_metrics_use_the_loose_tolerance() {
        let old = report(vec![record(
            "s",
            1.0,
            &[("wall_ratio_decoded_over_legacy", 0.45)],
        )]);
        // +30%: inside the loose tolerance — timing noise.
        let cmp = compare_reports(
            &old,
            &report(vec![record(
                "s",
                1.0,
                &[("wall_ratio_decoded_over_legacy", 0.58)],
            )]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!cmp.has_regressions());
        // A deterministic metric with the same delta would regress.
        let old = report(vec![record("s", 1.0, &[("miss_count", 0.45)])]);
        let cmp = compare_reports(
            &old,
            &report(vec![record("s", 1.0, &[("miss_count", 0.58)])]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(cmp.has_regressions());
    }

    #[test]
    fn shed_fraction_metrics_use_the_loose_tolerance() {
        let old = report(vec![record("s", 1.0, &[("saturated_shed_fraction", 0.40)])]);
        // +30%: timing-derived, forgiven (also under the 0.25 absolute floor).
        let cmp = compare_reports(
            &old,
            &report(vec![record("s", 1.0, &[("saturated_shed_fraction", 0.52)])]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!cmp.has_regressions());
    }

    #[test]
    fn wall_time_uses_the_loose_tolerance() {
        let old = report(vec![record("s", 1.0, &[])]);
        // +30% wall: inside the 50% tolerance — noise, not regression.
        let cmp = compare_reports(
            &old,
            &report(vec![record("s", 1.3, &[])]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!cmp.has_regressions());
        // +100% wall and past the absolute floor: regression.
        let cmp = compare_reports(
            &old,
            &report(vec![record("s", 2.0, &[])]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(cmp.has_regressions());
        // Tiny scenarios never trip the absolute floor.
        let tiny_old = report(vec![record("s", 0.01, &[])]);
        let cmp = compare_reports(
            &tiny_old,
            &report(vec![record("s", 0.05, &[])]),
            &CompareConfig::default(),
        )
        .unwrap();
        assert!(!cmp.has_regressions());
    }

    #[test]
    fn wall_seconds_metrics_share_the_loose_tolerance() {
        let old = report(vec![record(
            "s",
            1.0,
            &[("model_search_wall_seconds", 0.10), ("cost", 0.10)],
        )]);
        // +30% on both: the timing metric is forgiven (under the 0.25 s
        // absolute floor), the deterministic one regresses.
        let new = report(vec![record(
            "s",
            1.0,
            &[("model_search_wall_seconds", 0.13), ("cost", 0.13)],
        )]);
        let cmp = compare_reports(&old, &new, &CompareConfig::default()).unwrap();
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("cost"));
    }

    #[test]
    fn missing_required_gate_metric_is_a_regression_even_when_baseline_lacks_it() {
        // Neither report carries the gate metric: the per-metric diff has
        // nothing to flag, so without the required list this would pass
        // silently.
        let old = report(vec![record("other", 1.0, &[("cost", 1.0)])]);
        let new = report(vec![record("other", 1.0, &[("cost", 1.0)])]);
        let cmp = compare_reports(&old, &new, &CompareConfig::default()).unwrap();
        assert!(!cmp.has_regressions(), "default config has no requirements");

        let cmp = compare_reports(&old, &new, &CompareConfig::ci_gate()).unwrap();
        assert!(cmp.has_regressions());
        assert!(cmp.regressions[0].contains("required gate metric"));
        assert!(cmp.regressions[0].contains("wall_ratio_decoded_over_legacy"));

        // All gate metrics present (and Ok) in the new report: satisfied.
        let ok = report(vec![
            record("other", 1.0, &[("cost", 1.0)]),
            record(
                "taint_throughput",
                1.0,
                &[("wall_ratio_decoded_over_legacy", 0.4)],
            ),
            record(
                "serve_saturation",
                1.0,
                &[("saturated_p99_wall_seconds", 0.2)],
            ),
            record(
                "incremental_edit",
                1.0,
                &[("edit_loop_warm_wall_seconds", 0.1)],
            ),
        ]);
        let cmp = compare_reports(&old, &ok, &CompareConfig::ci_gate()).unwrap();
        assert!(!cmp.has_regressions());

        // One of several gate metrics missing still fails.
        let partial = report(vec![record(
            "taint_throughput",
            1.0,
            &[("wall_ratio_decoded_over_legacy", 0.4)],
        )]);
        let cmp = compare_reports(&old, &partial, &CompareConfig::ci_gate()).unwrap();
        assert!(cmp
            .regressions
            .iter()
            .any(|m| m.contains("saturated_p99_wall_seconds")));

        // Scenario present but failing: the metric is not trustworthy.
        let mut failing = record(
            "taint_throughput",
            1.0,
            &[("wall_ratio_decoded_over_legacy", 0.4)],
        );
        failing.status = RunStatus::Error("boom".into());
        let failing_report = report(vec![record("other", 1.0, &[("cost", 1.0)]), failing]);
        let cmp = compare_reports(&old, &failing_report, &CompareConfig::ci_gate()).unwrap();
        assert!(cmp.has_regressions());
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let old = report(vec![]);
        let mut new = report(vec![]);
        new.schema = BENCH_SCHEMA_VERSION + 1;
        assert!(compare_reports(&old, &new, &CompareConfig::default()).is_err());
    }
}
