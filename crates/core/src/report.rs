//! Text rendering of analysis artifacts (the harness binaries print these)
//! and the machine-readable bench-report structs (`BENCH_*.json`).

use crate::census::{FuncKind, Table2, Table3};
use crate::design::DesignReport;
use crate::hybrid::FunctionModel;
use crate::session::{Analysis, StaticArtifacts};
use crate::validate::{ContentionFinding, SegmentationWarning};
use pt_ir::Module;
use serde::json::Value;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Version of the `BENCH_*.json` schema. Bump on any breaking change to
/// [`BenchReport`]'s wire shape; `bench_compare` refuses mixed versions.
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// Outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    Ok,
    /// The scenario returned an error (its message, for the report).
    Error(String),
}

/// One scenario's entry in a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    pub name: String,
    pub tags: Vec<String>,
    pub status: RunStatus,
    /// Named scalar metrics. Every one is deterministic, so the findings
    /// gate compares them exactly; see `crates/bench/README.md`.
    pub metrics: BTreeMap<String, f64>,
}

impl ScenarioRecord {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("name", Value::str(&self.name)),
            (
                "tags",
                Value::Arr(self.tags.iter().map(Value::str).collect()),
            ),
            (
                "status",
                Value::str(match &self.status {
                    RunStatus::Ok => "ok",
                    RunStatus::Error(_) => "error",
                }),
            ),
            (
                "error",
                match &self.status {
                    RunStatus::Ok => Value::Null,
                    RunStatus::Error(e) => Value::str(e),
                },
            ),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<ScenarioRecord, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("scenario record missing 'name'")?
            .to_string();
        let tags = v
            .get("tags")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|t| t.as_str().map(String::from))
            .collect();
        let status = match v.get("status").and_then(Value::as_str) {
            Some("ok") => RunStatus::Ok,
            Some("error") => RunStatus::Error(
                v.get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            ),
            other => return Err(format!("scenario '{name}': bad status {other:?}")),
        };
        let mut metrics = BTreeMap::new();
        if let Some(Value::Obj(fields)) = v.get("metrics") {
            for (k, m) in fields {
                metrics.insert(
                    k.clone(),
                    m.as_f64()
                        .ok_or_else(|| format!("scenario '{name}': metric '{k}' not a number"))?,
                );
            }
        }
        Ok(ScenarioRecord {
            name,
            tags,
            status,
            metrics,
        })
    }
}

/// A complete bench run: what `bench_all` writes and `bench_compare` reads.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Wire-format version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Commit the run was taken at (`unknown` outside a git checkout).
    pub git_sha: String,
    /// Seconds since the Unix epoch at report creation.
    pub created_unix: u64,
    /// Whether the run used the reduced `--quick` sweeps.
    pub quick: bool,
    pub scenarios: Vec<ScenarioRecord>,
}

impl BenchReport {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("schema", Value::Num(self.schema as f64)),
            ("tool", Value::str("pt-bench")),
            ("git_sha", Value::str(&self.git_sha)),
            ("created_unix", Value::Num(self.created_unix as f64)),
            ("quick", Value::Bool(self.quick)),
            (
                "scenarios",
                Value::Arr(self.scenarios.iter().map(ScenarioRecord::to_json).collect()),
            ),
        ])
    }

    /// Pretty-printed JSON document (what lands in `BENCH_<sha>.json`).
    pub fn to_json_string(&self) -> String {
        self.to_json().render_pretty()
    }

    pub fn from_json(v: &Value) -> Result<BenchReport, String> {
        let schema = v
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or("report missing numeric 'schema'")?;
        let git_sha = v
            .get("git_sha")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let created_unix = v.get("created_unix").and_then(Value::as_u64).unwrap_or(0);
        let quick = v.get("quick").and_then(Value::as_bool).unwrap_or(false);
        let scenarios = v
            .get("scenarios")
            .and_then(Value::as_arr)
            .ok_or("report missing 'scenarios' array")?
            .iter()
            .map(ScenarioRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchReport {
            schema,
            git_sha,
            created_unix,
            quick,
            scenarios,
        })
    }

    /// Parse a report from JSON text.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        BenchReport::from_json(&v)
    }

    /// Find a scenario record by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioRecord> {
        self.scenarios.iter().find(|s| s.name == name)
    }
}

/// Wire name of a [`FuncKind`].
pub fn func_kind_name(kind: FuncKind) -> &'static str {
    match kind {
        FuncKind::ConstantStatic => "constant_static",
        FuncKind::ConstantDynamic => "constant_dynamic",
        FuncKind::Comm => "comm",
        FuncKind::Kernel => "kernel",
    }
}

fn table2_json(t: &Table2) -> Value {
    Value::obj(vec![
        ("functions_total", Value::int(t.functions_total as i64)),
        ("pruned_static", Value::int(t.pruned_static as i64)),
        ("pruned_dynamic", Value::int(t.pruned_dynamic as i64)),
        ("kernels", Value::int(t.kernels as i64)),
        ("comm_routines", Value::int(t.comm_routines as i64)),
        ("mpi_functions", Value::int(t.mpi_functions as i64)),
        ("loops_total", Value::int(t.loops_total as i64)),
        (
            "loops_pruned_static",
            Value::int(t.loops_pruned_static as i64),
        ),
        ("loops_relevant", Value::int(t.loops_relevant as i64)),
    ])
}

/// The machine-readable summary of the static stage (§5.1) — what the
/// analysis service answers `static_analysis` requests with. Everything in
/// it is deterministic, so cached copies compare byte-identical to fresh
/// computations.
pub fn static_summary(statics: &StaticArtifacts, module: &Module) -> Value {
    let (loops_total, loops_constant) = statics.classification.module_loop_totals();
    Value::obj(vec![
        ("module", Value::str(&module.name)),
        ("functions_total", Value::int(module.functions.len() as i64)),
        (
            "pruned_static",
            Value::int(statics.classification.pruned_count() as i64),
        ),
        ("loops_total", Value::int(loops_total as i64)),
        ("loops_constant", Value::int(loops_constant as i64)),
        (
            "recursion_warnings",
            Value::int(statics.classification.recursion_warnings.len() as i64),
        ),
        (
            "irreducible_warnings",
            Value::int(statics.classification.irreducible_warnings.len() as i64),
        ),
    ])
}

/// The machine-readable summary of one taint run — what the analysis
/// service answers `taint_run` requests with. The fields are exactly the
/// deterministic outputs of [`Analysis`]: parameter names, per-function
/// classification and dependency structures (rendered against the run's
/// parameter names), MPI dependency structures, Table 2, and the simulated
/// run cost. Producing it through this one function is what makes the
/// served and in-process paths byte-identical.
pub fn analysis_summary(analysis: &Analysis, module: &Module) -> Value {
    let names = &analysis.param_names;
    let functions: Vec<(String, Value)> = module
        .function_ids()
        .map(|f| {
            let mut fields = vec![(
                "kind",
                Value::str(func_kind_name(analysis.kinds[f.index()])),
            )];
            if let Some(dep) = analysis.deps.get(&f) {
                fields.push(("deps", Value::str(dep.render(names))));
            }
            (module.function(f).name.clone(), Value::obj(fields))
        })
        .collect();
    let extern_deps: Vec<(String, Value)> = analysis
        .extern_deps
        .iter()
        .map(|(name, dep)| (name.clone(), Value::str(dep.render(names))))
        .collect();
    // The security policy's per-sink ledger (`pt_sink_check` sites). The
    // param-set policy never populates it, and the field is omitted when
    // empty so default-policy summaries stay byte-identical across
    // protocol revisions.
    let sink_checks: Vec<(String, Value)> = analysis
        .records
        .sink_checks
        .iter()
        .map(|(id, rec)| {
            let bases = analysis.labels.param_names();
            let params: Vec<Value> = rec
                .params
                .iter()
                .filter_map(|i| bases.get(i).map(Value::str))
                .collect();
            (
                id.to_string(),
                Value::obj(vec![
                    ("checks", Value::int(rec.checks as i64)),
                    ("violations", Value::int(rec.violations as i64)),
                    ("params", Value::Arr(params)),
                ]),
            )
        })
        .collect();
    let mut doc = Value::obj(vec![
        ("module", Value::str(&module.name)),
        (
            "param_names",
            Value::Arr(names.iter().map(Value::str).collect()),
        ),
        ("functions", Value::Obj(functions)),
        ("extern_deps", Value::Obj(extern_deps)),
        ("table2", table2_json(&analysis.table2)),
        (
            "never_visited_paths",
            Value::int(analysis.never_visited_paths(module).len() as i64),
        ),
        ("taint_run_time", Value::Num(analysis.taint_run_time)),
        (
            "taint_run_core_hours",
            Value::Num(analysis.taint_run_core_hours),
        ),
    ]);
    if !sink_checks.is_empty() {
        if let Value::Obj(entries) = &mut doc {
            entries.push(("sink_checks".to_string(), Value::Obj(sink_checks)));
        }
    }
    doc
}

/// Render Table 2 in the paper's layout.
pub fn render_table2(app: &str, t: &Table2) -> String {
    let mut s = String::new();
    writeln!(s, "Table 2 — overview: {app}").unwrap();
    writeln!(s, "  Functions                    {:>6}", t.functions_total).unwrap();
    writeln!(
        s,
        "  Pruned Statically/Dynamically {:>4}/{}",
        t.pruned_static, t.pruned_dynamic
    )
    .unwrap();
    writeln!(
        s,
        "  Kernels/Comm. Routines/MPI    {:>3}/{}/{}",
        t.kernels, t.comm_routines, t.mpi_functions
    )
    .unwrap();
    writeln!(s, "  Loops                        {:>6}", t.loops_total).unwrap();
    writeln!(
        s,
        "  Pruned Statically            {:>6}",
        t.loops_pruned_static
    )
    .unwrap();
    writeln!(s, "  Relevant                     {:>6}", t.loops_relevant).unwrap();
    writeln!(
        s,
        "  Constant functions           {:>5.1}%",
        100.0 * t.constant_fraction()
    )
    .unwrap();
    s
}

/// Render Table 3.
pub fn render_table3(app: &str, t: &Table3) -> String {
    let mut s = String::new();
    writeln!(s, "Table 3 — parameter coverage: {app}").unwrap();
    writeln!(
        s,
        "  {:<12} {:>10} {:>10}",
        "parameter", "functions", "loops"
    )
    .unwrap();
    writeln!(
        s,
        "  {:<12} {:>10} {:>10}",
        "(total)", t.total_functions, t.total_loops
    )
    .unwrap();
    for (name, cov) in &t.per_param {
        writeln!(s, "  {:<12} {:>10} {:>10}", name, cov.functions, cov.loops).unwrap();
    }
    writeln!(
        s,
        "  {:<12} {:>10} {:>10}",
        format!("{},{}", t.union_pair.0, t.union_pair.1),
        t.union_coverage.functions,
        t.union_coverage.loops
    )
    .unwrap();
    s
}

/// Render an experiment-design report (§A2).
pub fn render_design(d: &DesignReport) -> String {
    let mut s = String::new();
    writeln!(s, "Experiment design (§A2)").unwrap();
    writeln!(
        s,
        "  parameters: {:?} with {:?} values",
        d.param_names, d.values_per_param
    )
    .unwrap();
    let group_names: Vec<Vec<&str>> = d
        .groups
        .iter()
        .map(|g| g.iter().map(|&i| d.param_names[i].as_str()).collect())
        .collect();
    writeln!(s, "  joint-sampling groups: {group_names:?}").unwrap();
    writeln!(
        s,
        "  experiments: {} (full grid) → {} (taint-reduced), saving {:.1}%",
        d.full_grid,
        d.reduced,
        d.savings_percent()
    )
    .unwrap();
    writeln!(s, "  additive only: {}", d.additive_only).unwrap();
    s
}

/// Render a set of function models, largest mean first.
pub fn render_models(
    models: &BTreeMap<String, FunctionModel>,
    param_names: &[String],
    top: usize,
) -> String {
    let mut rows: Vec<&FunctionModel> = models.values().collect();
    rows.sort_by(|a, b| b.mean_value.total_cmp(&a.mean_value));
    let mut s = String::new();
    writeln!(
        s,
        "  {:<44} {:>9} {:>7}  model",
        "function", "mean[s]", "cv"
    )
    .unwrap();
    for m in rows.into_iter().take(top) {
        let flag = if m.reliable { ' ' } else { '!' };
        writeln!(
            s,
            "  {:<44} {:>9.3e} {:>6.3}{} {}",
            m.name,
            m.mean_value,
            m.max_cv,
            flag,
            m.fitted.model.render(param_names)
        )
        .unwrap();
    }
    s
}

/// Render contention findings (§C1 / Figure 5).
pub fn render_contention(findings: &[ContentionFinding], param: &str) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Contention findings (§C1): {} function(s) grow with {param} despite proven independence",
        findings.len()
    )
    .unwrap();
    for f in findings {
        writeln!(
            s,
            "  {:<44} ×{:.2} model: {}",
            f.function,
            f.rel_increase,
            f.model.model.render(&[param.to_string()])
        )
        .unwrap();
    }
    s
}

/// Render segmentation warnings (§C2).
pub fn render_segmentation(warnings: &[SegmentationWarning], configs: &[String]) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "Experiment-design warnings (§C2): {} branch(es) change behavior across the domain",
        warnings.len()
    )
    .unwrap();
    for w in warnings {
        writeln!(
            s,
            "  {} @{:?} driven by {:?}",
            w.function, w.block, w.params
        )
        .unwrap();
        for (a, b) in &w.boundaries {
            let ca = configs.get(*a).cloned().unwrap_or_else(|| a.to_string());
            let cb = configs.get(*b).cloned().unwrap_or_else(|| b.to_string());
            writeln!(s, "    behavior changes between {ca} and {cb}").unwrap();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::ParamCoverage;

    #[test]
    fn tables_render() {
        let t2 = Table2 {
            functions_total: 356,
            pruned_static: 296,
            pruned_dynamic: 11,
            kernels: 40,
            comm_routines: 2,
            mpi_functions: 7,
            loops_total: 275,
            loops_pruned_static: 52,
            loops_relevant: 78,
        };
        let s = render_table2("mini-lulesh", &t2);
        assert!(s.contains("296/11"));
        assert!(s.contains("40/2/7"));
        assert!(s.contains("86.2%"));

        let mut t3 = Table3::default();
        t3.per_param.insert(
            "size".into(),
            ParamCoverage {
                functions: 40,
                loops: 78,
            },
        );
        t3.union_pair = ("p".into(), "size".into());
        t3.union_coverage = ParamCoverage {
            functions: 40,
            loops: 78,
        };
        t3.total_functions = 43;
        t3.total_loops = 86;
        let s = render_table3("mini-lulesh", &t3);
        assert!(s.contains("size"));
        assert!(s.contains("78"));
    }

    #[test]
    fn bench_report_roundtrips_through_json() {
        let report = BenchReport {
            schema: BENCH_SCHEMA_VERSION,
            git_sha: "abc1234def".into(),
            created_unix: 1_753_776_000,
            quick: true,
            scenarios: vec![
                ScenarioRecord {
                    name: "fig3_overhead_lulesh".into(),
                    tags: vec!["figure".into(), "lulesh".into()],
                    status: RunStatus::Ok,
                    metrics: BTreeMap::from([
                        ("overhead_taint_geomean_pct".into(), 4.9),
                        ("overhead_full_geomean_pct".into(), 4400.0),
                    ]),
                },
                ScenarioRecord {
                    name: "b1_noise_resilience".into(),
                    tags: vec![],
                    status: RunStatus::Error("entry not found".into()),
                    metrics: BTreeMap::new(),
                },
            ],
        };
        let text = report.to_json_string();
        assert!(text.contains("\"schema\": 2"));
        let parsed = BenchReport::parse(&text).expect("parse back");
        assert_eq!(parsed, report);
        assert_eq!(
            parsed.scenario("fig3_overhead_lulesh").unwrap().metrics["overhead_taint_geomean_pct"],
            4.9
        );
        assert!(parsed.scenario("nope").is_none());
    }

    #[test]
    fn bench_report_parse_rejects_malformed_documents() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{}").is_err()); // no schema
        assert!(BenchReport::parse(r#"{"schema": 2}"#).is_err()); // no scenarios
                                                                  // A scenario without a name is rejected.
        let bad = r#"{"schema": 2, "scenarios": [{"status": "ok"}]}"#;
        assert!(BenchReport::parse(bad).is_err());
        // Bad status string is rejected.
        let bad = r#"{"schema": 2, "scenarios": [{"name": "x", "status": "meh"}]}"#;
        assert!(BenchReport::parse(bad).is_err());
    }

    #[test]
    fn summaries_are_deterministic_and_roundtrip_the_wire() {
        use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
        let mut m = Module::new("wire");
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![IrValue::int(3)], Type::Void);
        });
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
        b.call(kernel, vec![n], Type::Void);
        b.ret(None);
        m.add_function(b.finish());

        let session = crate::SessionBuilder::new(&m, "main").build();
        let statics = session.static_analysis();
        let s = static_summary(&statics, &m);
        assert_eq!(s.get("module").and_then(Value::as_str), Some("wire"));
        assert_eq!(s.get("functions_total").and_then(Value::as_u64), Some(2));

        let a1 = session.taint_run(vec![("size".into(), 6)]).unwrap();
        let a2 = session.taint_run(vec![("size".into(), 6)]).unwrap();
        let r1 = analysis_summary(&a1, &m).render();
        let r2 = analysis_summary(&a2, &m).render();
        // Deterministic pipeline → byte-identical summaries, and the text
        // survives a parse→render round trip (the service's warm path).
        assert_eq!(r1, r2);
        let reparsed = Value::parse(&r1).unwrap();
        assert_eq!(reparsed.render(), r1);
        assert_eq!(
            reparsed
                .get("functions")
                .and_then(|f| f.get("kernel"))
                .and_then(|k| k.get("kind"))
                .and_then(Value::as_str),
            Some("kernel")
        );
        assert_eq!(
            reparsed
                .get("param_names")
                .and_then(Value::as_arr)
                .map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn design_renders() {
        let d = crate::design::DesignReport {
            param_names: vec!["p".into(), "size".into()],
            values_per_param: vec![5, 5],
            groups: vec![vec![0], vec![1]],
            full_grid: 25,
            reduced: 9,
            additive_only: true,
        };
        let s = render_design(&d);
        assert!(s.contains("25"));
        assert!(s.contains("9"));
        assert!(s.contains("64.0%"));
    }
}
