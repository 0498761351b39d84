//! Registry contract: every registered scenario runs under `--quick`
//! conditions from one shared context, publishes finite metrics, the whole
//! report round-trips through the JSON wire format, and its findings equal
//! the checked-in `BENCH_baseline.json` exactly — a change that breaks a
//! paper finding fails `cargo test`.

use perf_taint::report::{BenchReport, RunStatus, ScenarioRecord, BENCH_SCHEMA_VERSION};
use pt_bench::compare::differences;
use pt_bench::scenarios::{registry, ScenarioCtx};
use std::path::Path;

#[test]
fn every_registered_scenario_runs_under_quick() {
    let cx = ScenarioCtx::new(true);
    let mut records = Vec::new();
    for s in registry() {
        let result = s
            .run(&cx)
            .unwrap_or_else(|e| panic!("scenario {} failed under --quick: {e}", s.name()));
        assert!(
            !result.text.is_empty(),
            "{} produced no text rendering",
            s.name()
        );
        assert!(
            !result.metrics.is_empty(),
            "{} published no metrics for the report",
            s.name()
        );
        for (metric, value) in &result.metrics {
            assert!(
                value.is_finite(),
                "{}: metric '{metric}' is not finite",
                s.name()
            );
        }
        records.push(ScenarioRecord {
            name: s.name().to_string(),
            tags: s.tags().iter().map(|t| t.to_string()).collect(),
            status: RunStatus::Ok,
            metrics: result.metrics,
        });
    }

    // The full report round-trips through the wire format…
    let report = BenchReport {
        schema: BENCH_SCHEMA_VERSION,
        git_sha: "test".into(),
        created_unix: 0,
        quick: true,
        scenarios: records,
    };
    let parsed = BenchReport::parse(&report.to_json_string()).expect("report parses back");
    assert_eq!(parsed, report);

    // …and its findings equal the checked-in baseline exactly.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_baseline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let baseline = BenchReport::parse(&text).expect("baseline parses");
    let diffs = differences(&baseline, &parsed).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        diffs.is_empty(),
        "findings differ from BENCH_baseline.json:\n  {}\n\
         If the change is intended, regenerate the baseline with\n  \
         cargo run --release -p pt-bench --bin bench_all -- --quick --quiet --out BENCH_baseline.json\n\
         and explain every changed line in CHANGES.md.",
        diffs.join("\n  ")
    );
}
