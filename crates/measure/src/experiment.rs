//! The experiment runner: parameter sweeps over the simulated machine,
//! per-function measurement collection, repetition sampling under noise,
//! and core-hour cost accounting (§A3).
//!
//! One *sweep point* is one application configuration (parameter values +
//! machine layout). Running a point executes the application once on the
//! interpreter (taint off — this is the measurement pass, not the analysis
//! pass) under a chosen instrumentation filter, yielding per-function
//! exclusive/inclusive times. Repetitions are then sampled through the
//! noise model, mirroring how the paper repeats each real measurement five
//! times.

use crate::noise::{rng_for, NoiseModel};
use pt_extrap::MeasurementSet;
use pt_ir::Module;
use pt_mpisim::{MachineConfig, MpiHandler};
use pt_taint::{InterpConfig, InterpError, Interpreter, PreparedModule};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One configuration of a parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Application parameters, e.g. `[("size", 30), ("p", 64)]`. Must
    /// include every parameter the application reads via `pt_param_i64`.
    pub params: Vec<(String, i64)>,
    pub machine: MachineConfig,
}

impl SweepPoint {
    pub fn param(&self, name: &str) -> Option<i64> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// A short key identifying this point (stable across runs; used to seed
    /// noise independently per point).
    pub fn key(&self) -> String {
        self.params
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Timing of one function at one sweep point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FnTiming {
    pub calls: u64,
    pub inclusive: f64,
    pub exclusive: f64,
}

/// The deterministic profile of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointProfile {
    pub point: SweepPoint,
    pub functions: BTreeMap<String, FnTiming>,
    /// Simulated wall-clock seconds of the run.
    pub wall: f64,
    /// IR instructions executed.
    pub insts: u64,
    /// Core-hours consumed: wall × ranks / 3600 (§A3 accounting).
    pub core_hours: f64,
}

/// Execute one sweep point. `probe` is the instrumentation filter's probe
/// vector (see [`crate::filter::Filter::probe_vector`]).
pub fn run_point(
    module: &Module,
    prepared: &PreparedModule,
    entry: &str,
    point: &SweepPoint,
    probe: &[f64],
) -> Result<PointProfile, InterpError> {
    let handler = MpiHandler::new(point.machine.clone());
    let config = InterpConfig {
        taint: None,
        probe_cost: probe.to_vec(),
        ..Default::default()
    };
    let interp = Interpreter::new(module, prepared, handler, point.params.clone(), config);
    let out = interp.run_named(entry, &[])?;

    let externs: Vec<&str> = module.used_externals();
    let nfuncs = module.functions.len();
    let name_of = |idx: usize| -> String {
        if idx < nfuncs {
            module.functions[idx].name.clone()
        } else {
            externs[idx - nfuncs].to_string()
        }
    };
    let mut functions = BTreeMap::new();
    for e in out.profile.by_function().values() {
        functions.insert(
            name_of(e.func.index()),
            FnTiming {
                calls: e.calls,
                inclusive: e.inclusive,
                exclusive: e.exclusive,
            },
        );
    }
    let ranks = point.machine.ranks as f64;
    Ok(PointProfile {
        point: point.clone(),
        functions,
        wall: out.time,
        insts: out.insts,
        core_hours: out.time * ranks / 3600.0,
    })
}

/// Execute a sweep, distributing points over `threads` worker threads.
/// Results keep the input order. Panics on interpreter errors (sweeps are
/// driven by our own harnesses over verified apps).
pub fn run_sweep(
    module: &Module,
    prepared: &PreparedModule,
    entry: &str,
    points: &[SweepPoint],
    probe: &[f64],
    threads: usize,
) -> Vec<PointProfile> {
    pt_util::parallel_map(points, threads, |point| {
        run_point(module, prepared, entry, point, probe)
            .unwrap_or_else(|e| panic!("sweep point {} failed: {e}", point.key()))
    })
}

/// Turn a sweep's deterministic profiles into per-function
/// [`MeasurementSet`]s, sampling `reps` noisy repetitions per point.
///
/// `model_params` names the modeled parameters (the coordinate axes), which
/// may be a subset of the application parameters — exactly like choosing
/// `p` and `size` for modeling while leaving other inputs at defaults.
pub fn function_sets(
    profiles: &[PointProfile],
    model_params: &[String],
    reps: usize,
    noise: &NoiseModel,
    seed: u64,
) -> BTreeMap<String, MeasurementSet> {
    let mut names: Vec<String> = profiles
        .iter()
        .flat_map(|p| p.functions.keys().cloned())
        .collect();
    names.sort();
    names.dedup();

    let mut out = BTreeMap::new();
    for name in names {
        let mut set = MeasurementSet::new(model_params.to_vec());
        for prof in profiles {
            let coords: Vec<f64> = model_params
                .iter()
                .map(|p| {
                    prof.point
                        .param(p)
                        .unwrap_or_else(|| panic!("sweep point lacks parameter {p}"))
                        as f64
                })
                .collect();
            let true_excl = prof
                .functions
                .get(&name)
                .map(|t| t.exclusive)
                .unwrap_or(0.0);
            let mut rng = rng_for(seed, &format!("{name}@{}", prof.point.key()));
            set.push(coords, noise.sample_reps(true_excl, reps, &mut rng));
        }
        out.insert(name, set);
    }
    out
}

/// Aggregate cost of a sweep in core-hours (§A3).
pub fn total_core_hours(profiles: &[PointProfile]) -> f64 {
    profiles.iter().map(|p| p.core_hours).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{FunctionBuilder, Type, Value};

    /// Toy app: kernel loops size times (flops), comm does an allreduce.
    fn toy_app() -> Module {
        let mut m = Module::new("toy");
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![Value::int(100)], Type::Void);
        });
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("comm", vec![], Type::Void);
        b.call_external("MPI_Allreduce", vec![Value::int(8)], Type::Void);
        b.ret(None);
        let comm = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let size = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
        b.call(kernel, vec![size], Type::Void);
        b.call(comm, vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn points() -> Vec<SweepPoint> {
        let mut pts = Vec::new();
        for &size in &[16i64, 32, 64] {
            for &p in &[4u32, 8] {
                pts.push(SweepPoint {
                    params: vec![("size".into(), size), ("p".into(), p as i64)],
                    machine: MachineConfig::default().with_ranks(p),
                });
            }
        }
        pts
    }

    #[test]
    fn run_point_collects_function_times() {
        let m = toy_app();
        let prepared = PreparedModule::compute(&m);
        let pt = &points()[0];
        let probe = vec![0.0; m.functions.len() + m.used_externals().len()];
        let prof = run_point(&m, &prepared, "main", pt, &probe).unwrap();
        assert!(prof.functions.contains_key("kernel"));
        assert!(prof.functions.contains_key("main"));
        assert!(prof.functions.contains_key("MPI_Allreduce"));
        assert!(prof.wall > 0.0);
        assert!(prof.core_hours > 0.0);
        assert_eq!(prof.functions["kernel"].calls, 1);
    }

    #[test]
    fn sweep_preserves_order_and_parallelizes() {
        let m = toy_app();
        let prepared = PreparedModule::compute(&m);
        let pts = points();
        let probe = vec![0.0; m.functions.len() + m.used_externals().len()];
        let profiles = run_sweep(&m, &prepared, "main", &pts, &probe, 4);
        assert_eq!(profiles.len(), pts.len());
        for (prof, pt) in profiles.iter().zip(&pts) {
            assert_eq!(&prof.point, pt);
        }
        // Kernel time grows with size.
        let t16 = profiles[0].functions["kernel"].exclusive;
        let t64 = profiles[4].functions["kernel"].exclusive;
        assert!(t64 > t16 * 3.0);
    }

    #[test]
    fn function_sets_have_full_coordinates() {
        let m = toy_app();
        let prepared = PreparedModule::compute(&m);
        let pts = points();
        let probe = vec![0.0; m.functions.len() + m.used_externals().len()];
        let profiles = run_sweep(&m, &prepared, "main", &pts, &probe, 2);
        let sets = function_sets(
            &profiles,
            &["p".to_string(), "size".to_string()],
            5,
            &NoiseModel::NONE,
            1,
        );
        let kset = &sets["kernel"];
        assert_eq!(kset.points.len(), 6);
        assert_eq!(kset.points[0].reps.len(), 5);
        // Without noise, reps are exact copies of the deterministic value.
        assert!(kset.points[0].cv() < 1e-12);
        // The kernel is p-independent: same size, different p → same time.
        let v = |size: f64, p: f64| {
            kset.points
                .iter()
                .find(|pt| pt.coords == vec![p, size])
                .unwrap()
                .mean()
        };
        assert!((v(16.0, 4.0) - v(16.0, 8.0)).abs() < 1e-12);
    }

    #[test]
    fn noise_sampling_reproducible() {
        let m = toy_app();
        let prepared = PreparedModule::compute(&m);
        let pts = points();
        let probe = vec![0.0; m.functions.len() + m.used_externals().len()];
        let profiles = run_sweep(&m, &prepared, "main", &pts, &probe, 1);
        let a = function_sets(&profiles, &["size".to_string()], 3, &NoiseModel::CLUSTER, 7);
        let b = function_sets(&profiles, &["size".to_string()], 3, &NoiseModel::CLUSTER, 7);
        assert_eq!(a["kernel"].points, b["kernel"].points);
    }

    #[test]
    fn core_hours_accumulate() {
        let m = toy_app();
        let prepared = PreparedModule::compute(&m);
        let pts = points();
        let probe = vec![0.0; m.functions.len() + m.used_externals().len()];
        let profiles = run_sweep(&m, &prepared, "main", &pts, &probe, 2);
        let total = total_core_hours(&profiles);
        assert!(total > 0.0);
        let manual: f64 = profiles
            .iter()
            .map(|p| p.wall * p.point.machine.ranks as f64 / 3600.0)
            .sum();
        assert!((total - manual).abs() < 1e-15);
    }
}
