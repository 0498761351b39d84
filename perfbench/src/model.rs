//! `model_lulesh` / `model_milc`: one op is one full modeling study of a
//! mini-app, in process, on one thread, starting from IR text.

use crate::{median, mix, ms_since, Args, Outcome};
use perf_taint::{
    compare_against_truth, design_experiments, model_functions, parse_module, PolicyKind,
    SessionBuilder,
};
use pt_apps::AppSpec;
use pt_extrap::SearchSpace;
use pt_measure::{function_sets, run_sweep, Filter, NoiseModel, SweepPoint};
use pt_mpisim::MachineConfig;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Study {
    Lulesh,
    Milc,
}

/// Repetitions per measurement point, as in the paper's experiments.
const REPS: usize = 5;
/// Score-P probe cost charged per instrumented call (seconds).
const PROBE_COST: f64 = 1.0e-6;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The study's inputs: IR text plus the sweep grid.
struct Inputs {
    app: AppSpec,
    text: String,
    points: Vec<SweepPoint>,
    grid_shape: [usize; 2],
}

impl Study {
    fn inputs(self) -> Inputs {
        let (app, size_name, sizes, ranks): (AppSpec, &str, &[i64], &[i64]) = match self {
            Study::Lulesh => (pt_apps::lulesh::build(), "size", &[8, 10, 12], &[8, 27, 64]),
            Study::Milc => (
                pt_apps::milc::build(),
                "nx",
                &[8, 12, 16, 24, 32],
                &[4, 8, 16, 32, 64],
            ),
        };
        let mut points = Vec::new();
        for &p in ranks {
            for &s in sizes {
                points.push(SweepPoint {
                    params: app.sweep_params(&[(size_name, s), ("p", p)]),
                    machine: MachineConfig::default()
                        .with_ranks(p as u32)
                        .with_ranks_per_node((p as u32).min(36)),
                });
            }
        }
        Inputs {
            text: pt_ir::printer::print_module(&app.module),
            app,
            points,
            grid_shape: [ranks.len(), sizes.len()],
        }
    }
}

/// Per-op layer timings and counts of one study.
#[derive(Default, Clone)]
struct OpLayers {
    parse_ms: f64,
    static_ms: f64,
    taint_ms: f64,
    sweep_ms: f64,
    sample_ms: f64,
    fit_ms: f64,
    insts: u64,
    models: usize,
    hypotheses: usize,
    recomputed: usize,
    units: usize,
    stages: Vec<(String, f64)>,
}

/// One study. `noise_seed` varies the sampled repetitions per op; the
/// check requires a taint-clean model set.
fn study(inputs: &Inputs, noise_seed: u64, traced: bool) -> Result<OpLayers, String> {
    let mut l = OpLayers::default();
    let app = &inputs.app;
    let model_params = &app.model_params;

    let trace = traced.then(|| {
        (
            pt_util::trace::enable_scoped(),
            pt_util::trace::next_trace_id(),
        )
    });
    let bind = trace
        .as_ref()
        .map(|(_, id)| pt_util::trace::set_thread_trace(*id));

    let t = Instant::now();
    let module = parse_module(&inputs.text).map_err(|e| format!("parse: {e}"))?;
    l.parse_ms = ms_since(t);

    let session = SessionBuilder::new(&module, &app.entry)
        .policy(PolicyKind::ParamSet)
        .build();
    let t = Instant::now();
    let statics = session.static_analysis();
    l.static_ms = ms_since(t);
    l.recomputed = statics.reuse.recomputed;
    l.units = statics.reuse.total;

    let t = Instant::now();
    let analysis = session
        .taint_run(app.taint_run_params())
        .map_err(|e| format!("taint run: {e}"))?;
    l.taint_ms = ms_since(t);

    let restrictions = analysis.restrictions(&module, model_params);
    let design = design_experiments(
        &analysis.global_deps(model_params),
        model_params,
        &inputs.grid_shape,
    );
    if design.reduced == 0 || design.reduced > design.full_grid {
        return Err(format!("experiment design out of range: {design:?}"));
    }

    let filter = Filter::TaintBased {
        relevant: analysis.relevant_functions(&module).into_iter().collect(),
    };
    let probe = filter.probe_vector(&module, PROBE_COST);
    let t = Instant::now();
    let profiles = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_sweep(
            &module,
            analysis.prepared(),
            &app.entry,
            &inputs.points,
            &probe,
            1,
        )
    }))
    .map_err(|p| format!("sweep: {}", pt_util::panic_message(p.as_ref(), "panic")))?;
    l.sweep_ms = ms_since(t);
    l.insts = profiles.iter().map(|p| p.insts).sum();

    let t = Instant::now();
    let sets = function_sets(
        &profiles,
        model_params,
        REPS,
        &NoiseModel::CLUSTER,
        noise_seed,
    );
    l.sample_ms = ms_since(t);

    let t = Instant::now();
    let models = model_functions(&sets, Some(&restrictions), &SearchSpace::default(), 0.1);
    l.fit_ms = ms_since(t);
    l.models = models.len();
    l.hypotheses = models.values().map(|m| m.fitted.quality.hypotheses).sum();

    drop(bind);
    if let Some((_on, id)) = trace {
        l.stages = pt_util::trace::stage_totals_ms(&pt_util::trace::take_trace(id));
    }

    let cmp = compare_against_truth(&models, &restrictions);
    if !cmp.false_dependencies.is_empty() || !cmp.overfitted_constants.is_empty() {
        return Err(format!(
            "hybrid models break the taint restrictions: false deps {:?}, overfitted constants {:?}",
            cmp.false_dependencies, cmp.overfitted_constants
        ));
    }
    if models.is_empty() {
        return Err("no function was modeled".into());
    }
    Ok(l)
}

pub fn run(args: &Args, which: Study) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let noise_seed = |op: u64| mix(args.seed, 1, op);

    // Set-up: build the inputs and run one untimed warm-up study, which
    // also fixes the reference instruction count every later op must hit.
    let cpus = allowed_cpus();
    let mut inputs = None;
    let mut reference_insts = 0;
    for rep in 0..SETUP_REPS {
        pin_next(&cpus, rep);
        let t = Instant::now();
        let built = which.inputs();
        let warm = study(&built, noise_seed(u64::MAX - rep as u64), false);
        out.setup_s.push(t.elapsed().as_secs_f64());
        let warm = warm.map_err(|e| format!("warm-up study: {e}"))?;
        reference_insts = warm.insts;
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up repetition");

    let mut traced_layers: Vec<OpLayers> = Vec::new();
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed().as_secs_f64() < args.seconds {
        // Traced runs interleave traced and untraced ops so both see the
        // same host conditions; the untraced ones give the overhead base.
        let traced = args.trace && op % 2 == 1;
        pin_next(&cpus, op as usize);
        let t = Instant::now();
        let result = study(&inputs, noise_seed(op), traced);
        let wall = ms_since(t);
        op += 1;
        let checked = result.and_then(|l| {
            if l.insts != reference_insts {
                return Err(format!(
                    "measurement sweep retired {} instructions, first op {reference_insts}",
                    l.insts
                ));
            }
            Ok(l)
        });
        match checked {
            Ok(l) => {
                out.record(Ok(()));
                if traced {
                    out.traced_ms.push(wall);
                    traced_layers.push(l);
                } else {
                    out.rounds.push(vec![wall]);
                }
            }
            Err(e) => {
                out.record(Err(e));
            }
        }
    }

    if args.trace && !traced_layers.is_empty() {
        let col =
            |f: &dyn Fn(&OpLayers) -> f64| -> Vec<f64> { traced_layers.iter().map(f).collect() };
        let stage = |l: &OpLayers, name: &str| -> f64 {
            l.stages
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, ms)| ms)
                .sum()
        };
        let first = &traced_layers[0];
        let sweep_ms = median(&col(&|l| l.sweep_ms));
        let ls = &mut out.layers;
        ls.insert("ir.parse_ms", median(&col(&|l| l.parse_ms)));
        ls.insert("static.ms", median(&col(&|l| l.static_ms)));
        ls.insert(
            "static.classify_ms",
            median(&col(&|l| stage(l, "classify"))),
        );
        // `decode` encloses the pass pipeline.
        ls.insert("static.prepare_ms", median(&col(&|l| stage(l, "decode"))));
        ls.insert("incremental.recomputed_per_op", first.recomputed as f64);
        ls.insert(
            "incremental.recompute_frac",
            first.recomputed as f64 / first.units.max(1) as f64,
        );
        ls.insert("taint.run_ms", median(&col(&|l| l.taint_ms)));
        ls.insert("measure.sweep_ms", sweep_ms);
        ls.insert("measure.insts_per_op", reference_insts as f64);
        ls.insert(
            "measure.minsts_per_s",
            reference_insts as f64 / 1e3 / sweep_ms,
        );
        ls.insert("measure.sample_ms", median(&col(&|l| l.sample_ms)));
        ls.insert("extrap.fit_ms", median(&col(&|l| l.fit_ms)));
        ls.insert("extrap.models_per_op", first.models as f64);
        ls.insert("extrap.hypotheses_per_op", first.hypotheses as f64);
        for (metric, span) in [
            ("stage.decode_ms", "decode"),
            ("stage.passes_ms", "passes"),
            ("stage.classify_ms", "classify"),
            ("stage.exec_ms", "exec"),
            ("stage.fit_ms", "fit"),
        ] {
            ls.insert(metric, median(&col(&|l| stage(l, span))));
        }
    }
    Ok(out)
}

/// The CPUs this process may run on (`sched_getaffinity`).
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a 1024-bit CPU set and its size is passed in bytes;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Move this (the only) thread to the `i`-th allowed CPU, round robin.
/// On the reference host each vCPU is slowed for stretches of seconds to
/// minutes independently of the other; alternating spreads every run over
/// all of them, so the quiet-round filter finds fast rounds unless all are
/// slow at once (see README.md).
fn pin_next(cpus: &[usize], i: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    if cpus.len() < 2 {
        return;
    }
    let cpu = cpus[i % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: as in `allowed_cpus`; a failure leaves the affinity as it
    // was, which only costs steadiness.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}
