//! Diffing two `BENCH_*.json` reports exactly — the findings gate.
//!
//! Every metric in a report comes out of the seeded simulation and the
//! deterministic pipeline, so a report reproduces bit for bit on any
//! machine. The gate therefore has no tolerance and no notion of "better":
//! any metric that differs from the baseline, in either direction, is a
//! difference, and so is a scenario or metric that appears or disappears.
//! Speed is `perfbench`'s job, not this one.

use perf_taint::report::{BenchReport, RunStatus};

/// Every difference between the `old` baseline and the `new` report, one
/// human-readable line each; an empty list means the findings agree.
/// Errors only when the reports are not comparable at all: different
/// schema versions, or a `--quick` report against a full one.
pub fn differences(old: &BenchReport, new: &BenchReport) -> Result<Vec<String>, String> {
    if old.schema != new.schema {
        return Err(format!(
            "schema mismatch: baseline v{} vs new v{} — regenerate the baseline",
            old.schema, new.schema
        ));
    }
    if old.quick != new.quick {
        return Err(format!(
            "mode mismatch: baseline quick={} vs new quick={} — compare reports of the same mode",
            old.quick, new.quick
        ));
    }
    let status = |s: &RunStatus| match s {
        RunStatus::Ok => "ok".to_string(),
        RunStatus::Error(e) => format!("error ({e})"),
    };
    let mut out = Vec::new();
    for old_s in &old.scenarios {
        let name = &old_s.name;
        let Some(new_s) = new.scenario(name) else {
            out.push(format!("{name}: scenario missing from new report"));
            continue;
        };
        if old_s.status != new_s.status {
            // A failed run publishes no metrics; listing each as missing
            // would bury the one line that matters.
            out.push(format!(
                "{name}: status {} -> {}",
                status(&old_s.status),
                status(&new_s.status)
            ));
            continue;
        }
        for (metric, old_v) in &old_s.metrics {
            match new_s.metrics.get(metric) {
                None => out.push(format!("{name}: metric '{metric}' missing from new report")),
                Some(new_v) if new_v != old_v => {
                    out.push(format!("{name}: {metric} {old_v} -> {new_v}"))
                }
                Some(_) => {}
            }
        }
        for (metric, new_v) in &new_s.metrics {
            if !old_s.metrics.contains_key(metric) {
                out.push(format!(
                    "{name}: new metric '{metric}' = {new_v} (not in baseline)"
                ));
            }
        }
    }
    for new_s in &new.scenarios {
        if old.scenario(&new_s.name).is_none() {
            out.push(format!("{}: new scenario (not in baseline)", new_s.name));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perf_taint::report::{ScenarioRecord, BENCH_SCHEMA_VERSION};
    use std::collections::BTreeMap;

    fn record(name: &str, metrics: &[(&str, f64)]) -> ScenarioRecord {
        ScenarioRecord {
            name: name.into(),
            tags: vec!["test".into()],
            status: RunStatus::Ok,
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

    fn diff(old: Vec<ScenarioRecord>, new: Vec<ScenarioRecord>) -> Vec<String> {
        differences(&report(old), &report(new)).unwrap()
    }

    #[test]
    fn unchanged_reports_pass_the_gate() {
        let old = report(vec![record("s", &[("cost", 10.0)])]);
        let mut new = old.clone();
        // Provenance fields are not findings.
        new.git_sha = "other".into();
        new.created_unix = 1;
        assert!(differences(&old, &new).unwrap().is_empty());
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let d = diff(
            vec![record("s", &[("cost", 10.0)])],
            vec![record("s", &[("cost", 15.0)])],
        );
        assert_eq!(d, vec!["s: cost 10 -> 15".to_string()]);
    }

    #[test]
    fn lowered_metric_is_a_difference() {
        let d = diff(
            vec![record("s", &[("cost", 10.0)])],
            vec![record("s", &[("cost", 5.0)])],
        );
        assert_eq!(d, vec!["s: cost 10 -> 5".to_string()]);
    }

    #[test]
    fn changes_within_the_old_tolerance_are_differences() {
        // +5% used to pass as noise, and a one-ulp change is still a
        // change: the gate has no tolerance.
        for new_v in [10.5, f64::from_bits(10.0f64.to_bits() + 1)] {
            let d = diff(
                vec![record("s", &[("cost", 10.0)])],
                vec![record("s", &[("cost", new_v)])],
            );
            assert_eq!(d.len(), 1, "{new_v}");
            assert!(d[0].contains("cost"));
        }
    }

    #[test]
    fn missing_scenario_and_missing_metric_are_regressions() {
        let d = diff(
            vec![
                record("gone", &[]),
                record("kept", &[("a", 1.0), ("b", 2.0)]),
            ],
            vec![record("kept", &[("a", 1.0)])],
        );
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|m| m.contains("gone")));
        assert!(d.iter().any(|m| m.contains("'b'")));
    }

    #[test]
    fn new_scenarios_and_metrics_are_differences() {
        let d = diff(
            vec![record("s", &[("a", 1.0)])],
            vec![
                record("s", &[("a", 1.0), ("extra", 3.0)]),
                record("brand_new", &[]),
            ],
        );
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|m| m.contains("'extra'")));
        assert!(d.iter().any(|m| m.contains("brand_new")));
    }

    #[test]
    fn status_flips_are_tracked() {
        let mut failing = record("s", &[]);
        failing.status = RunStatus::Error("boom".into());
        let passing = record("s", &[("cost", 1.0)]);

        let d = diff(vec![passing.clone()], vec![failing.clone()]);
        assert_eq!(d, vec!["s: status ok -> error (boom)".to_string()]);
        // A fix is a difference too: the baseline must be regenerated to
        // record the scenario's findings.
        let d = diff(vec![failing], vec![passing]);
        assert_eq!(d, vec!["s: status error (boom) -> ok".to_string()]);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let old = report(vec![]);
        let mut new = report(vec![]);
        new.schema = BENCH_SCHEMA_VERSION + 1;
        assert!(differences(&old, &new).unwrap_err().contains("schema"));
    }

    #[test]
    fn quick_mismatch_is_an_error() {
        let old = report(vec![record("s", &[("cost", 1.0)])]);
        let mut new = old.clone();
        new.quick = false;
        assert!(differences(&old, &new).unwrap_err().contains("quick"));
    }
}
