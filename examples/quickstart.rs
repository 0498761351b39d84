//! Quickstart: annotate a program's parameters, run the taint analysis
//! through a [`perf_taint::Session`], and get clean performance models.
//!
//! The program below is the paper's running example shape: a kernel looping
//! over `size`, a communication phase depending on the implicit `p`, and a
//! numerical parameter `eps` that never influences control flow. We write
//! it in the textual IR, parse it, build a session, analyze it, measure a
//! small sweep, and fit models with the taint prior.
//!
//! The walkthrough is staged exactly like the paper's Fig. 2:
//!
//! 1. `parse_module` — text → IR (parse failures are `PtError::Parse`).
//! 2. `SessionBuilder::new(&module, "main").build()` — a session memoizes
//!    the static stage (§5.1) so later taint runs share it.
//! 3. `session.taint_run(params)` — one representative dynamic run (§5.2)
//!    plus dependency extraction (§4.2–4.3); errors are `PtError`, never a
//!    panic or a substrate type.
//! 4. Experiment design, measurement, and hybrid modeling on the artifacts.
//!
//! Migrating from the old one-shot API is mechanical: `analyze(&m, entry,
//! params, &cfg)` ≡ `SessionBuilder::new(&m, entry).interp(cfg.interp)
//! .build().taint_run(params)` (the library database and machine are
//! fixed, so the interpreter configuration is all that remains) — and the
//! session form lets you call `taint_run` (or `analyze_batch`) again
//! without re-paying static analysis.
//!
//! Run with: `cargo run --release --example quickstart`

use perf_taint::report::render_models;
use perf_taint::{design_experiments, model_functions, parse_module, PtError, SessionBuilder};
use pt_extrap::SearchSpace;
use pt_measure::{function_sets, run_sweep, Filter, NoiseModel, SweepPoint};
use pt_mpisim::MachineConfig;

const PROGRAM: &str = r#"
; module quickstart
func @kernel(%n: i64) -> void {
bb0:
  br bb1
bb1:
  %0 = phi i64 [bb0 -> 0, bb2 -> %2]
  %1 = cmp lt %0, %n
  cond_br %1, bb2, bb3
bb2:
  call void @pt_work_flops(500)
  %2 = add %0, 1
  br bb1
bb3:
  ret
}

func @exchange(%n: i64) -> void {
bb0:
  call void @MPI_Allreduce(%n)
  ret
}

func @main() -> void {
bb0:
  %0 = call i64 @pt_param_i64(0)      ; size
  %1 = call i64 @pt_param_i64(1)      ; eps (numerical; no control flow)
  %2 = alloca 1
  call void @MPI_Comm_size(%2)
  %3 = mul %0, %0
  call void @kernel(%3)
  call void @exchange(%0)
  ret
}
"#;

fn main() -> Result<(), PtError> {
    // 1. Parse, then build a session: the static stage (§5.1) will be
    //    computed once and shared by every run this session performs.
    let module = parse_module(PROGRAM)?;
    let session = SessionBuilder::new(&module, "main").build();

    // 2. One representative taint run (stages 2–3 of Fig. 2).
    let analysis =
        session.taint_run(vec![("size".into(), 8), ("eps".into(), 3), ("p".into(), 4)])?;

    println!("== white-box analysis ==");
    for f in module.function_ids() {
        println!(
            "  {:<10} {:?}  deps: {}",
            module.function(f).name,
            analysis.kinds[f.index()],
            analysis.deps[&f].render(&analysis.param_names)
        );
    }

    // 3. Experiment design over (p, size).
    let model_params = vec!["p".to_string(), "size".to_string()];
    let design = design_experiments(&analysis.global_deps(&model_params), &model_params, &[4, 4]);
    println!(
        "\n== experiment design: {} experiments instead of {} ({:.0}% saved) ==",
        design.reduced,
        design.full_grid,
        design.savings_percent()
    );

    // 4. Measure a sweep (taint-selective instrumentation) and model. The
    //    session already computed the prepared facts — no second
    //    `PreparedModule::compute`.
    let filter = Filter::TaintBased {
        relevant: analysis.relevant_functions(&module).into_iter().collect(),
    };
    let probe = filter.probe_vector(&module, 1e-6);
    let mut points = Vec::new();
    for &p in &[4i64, 8, 16, 32] {
        for &size in &[8i64, 16, 24, 32] {
            points.push(SweepPoint {
                params: vec![("size".into(), size), ("eps".into(), 3), ("p".into(), p)],
                machine: MachineConfig::default().with_ranks(p as u32),
            });
        }
    }
    let profiles = run_sweep(&module, analysis.prepared(), "main", &points, &probe, 4);
    let sets = function_sets(&profiles, &model_params, 5, &NoiseModel::CLUSTER, 7);

    let restrictions = analysis.restrictions(&module, &model_params);
    let hybrid = model_functions(&sets, Some(&restrictions), &SearchSpace::default(), 0.1);
    println!("\n== hybrid models (search space restricted by taint) ==");
    println!("{}", render_models(&hybrid, &model_params, 6));
    println!("kernel runs size² iterations -> expect a size^2 model;");
    println!("exchange is log2(p); eps never appears anywhere.");
    Ok(())
}
