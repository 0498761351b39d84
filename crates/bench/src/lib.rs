//! # pt-bench — harnesses regenerating every table and figure of the paper
//!
//! Every artifact is a registered [`scenarios::Scenario`] (one shared
//! implementation module per artifact under `scenarios/`):
//!
//! | scenario | artifact |
//! |---|---|
//! | `table1_config` | Table 1 (simulated machine description) |
//! | `table2_overview` | Table 2 (function/loop censuses) |
//! | `table3_param_pruning` | Table 3 (per-parameter coverage, §A1) |
//! | `fig3_overhead_lulesh` | Figure 3 (instrumentation overhead, LULESH) |
//! | `fig4_overhead_milc` | Figure 4 (instrumentation overhead, MILC) |
//! | `fig5_contention` | Figure 5 + §C1 (contention detection) |
//! | `a2_experiment_design` | §A2 (experiment-design reduction) |
//! | `a3_cost_summary` | §A3 (core-hour accounting) |
//! | `b1_noise_resilience` | §B1 (false-dependency pruning) |
//! | `b2_intrusion` | §B2 (instrumentation intrusion) |
//! | `c2_experiment_validation` | §C2 (qualitative-change detection) |
//! | `ablation_ctlflow` | ablation: control-flow taint policies |
//! | `taint_throughput` | decode-once engine == reference engine on the corpus |
//! | `security_taint` | security source/sink policy on mini-SecSrv |
//! | `incremental_edit` | pt-serve edit loop: per-function reuse |
//!
//! The last three scenarios check the engine, the policy lattice and the
//! service layer, not a paper artifact. `bench_all` runs any tag/name
//! selection in one process (`--verbose` prints each scenario's text) and
//! writes a schema-versioned `BENCH_<git-sha>.json`; `bench_compare`
//! diffs two such reports exactly ([`compare`]) and exits non-zero on any
//! difference — the CI findings gate, which the registry test also runs
//! against `BENCH_baseline.json` on every `cargo test`. Reports hold no
//! timings: `perfbench` measures speed. See `crates/bench/README.md` for
//! the report schema and how to add a scenario.
//!
//! This library holds the shared sweep/configuration machinery. Absolute
//! numbers differ from the paper (the substrate is an interpreter, not Piz
//! Daint); the *shapes* — who wins, by what factor, where crossovers sit —
//! are the reproduction targets.

pub mod compare;
pub mod scenarios;

use perf_taint::Analysis;
use pt_apps::AppSpec;
use pt_measure::{run_sweep, Filter, PointProfile, SweepPoint};
use pt_mpisim::{ContentionModel, MachineConfig};
use pt_taint::PreparedModule;

/// Probe cost per instrumented call (seconds). Roughly a Score-P enter+exit
/// pair on a Skylake-class core.
pub const PROBE_COST: f64 = 1.0e-6;

/// Repetitions per measurement point (the paper uses five).
pub const REPS: usize = 5;

/// Seed for all noise sampling in the harnesses.
pub const SEED: u64 = 42;

/// LULESH sweep values. Scaled down from the paper's size ∈ {25..45}
/// (the substrate interprets IR; cubic work in `size` is preserved).
pub fn lulesh_sizes() -> Vec<i64> {
    vec![12, 16, 20, 24, 28]
}

/// LULESH rank counts (the paper models p = 3ⁿ on Piz Daint and uses 4..64
/// on the Skylake cluster; communication is charged analytically, so rank
/// counts are free to match the paper's cube numbers).
pub fn lulesh_ranks() -> Vec<i64> {
    vec![8, 27, 64, 125, 216]
}

/// MILC sweep values (the paper's size ∈ {32..512}; our `nx` plays the
/// size role with ny=nz=nt fixed — volume is linear in `nx`).
pub fn milc_sizes() -> Vec<i64> {
    vec![32, 64, 128, 256, 512]
}

/// MILC rank counts (paper: 2ⁿ from 4 to 64).
pub fn milc_ranks() -> Vec<i64> {
    vec![4, 8, 16, 32, 64]
}

/// The machine for a given rank count (Table 1 stand-in).
pub fn machine(p: i64) -> MachineConfig {
    MachineConfig::default()
        .with_ranks(p as u32)
        .with_ranks_per_node((p as u32).min(36))
}

/// Build the full (size × p) grid of sweep points for an app, using its
/// default values for all remaining parameters.
pub fn grid(
    app: &AppSpec,
    size_name: &str,
    sizes: &[i64],
    ranks: &[i64],
    extra: &[(&str, i64)],
) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &p in ranks {
        for &s in sizes {
            let mut overrides: Vec<(&str, i64)> = vec![(size_name, s), ("p", p)];
            overrides.extend_from_slice(extra);
            points.push(SweepPoint {
                params: app.sweep_params(&overrides),
                machine: machine(p),
            });
        }
    }
    points
}

/// Run a sweep under a given instrumentation filter.
pub fn run_filtered(
    app: &AppSpec,
    prepared: &PreparedModule,
    points: &[SweepPoint],
    filter: &Filter,
    threads: usize,
) -> Vec<PointProfile> {
    let probe = filter.probe_vector(&app.module, PROBE_COST);
    run_sweep(&app.module, prepared, &app.entry, points, &probe, threads)
}

/// Instrumentation overhead in percent relative to a native profile.
pub fn overhead_percent(instrumented: &PointProfile, native: &PointProfile) -> f64 {
    100.0 * (instrumented.wall - native.wall) / native.wall
}

/// Geometric mean (used for the Figure 3/4 summary numbers).
///
/// Total on every input instead of silently clamping: an empty slice
/// yields 0.0, any zero factor collapses the product (and thus the mean)
/// to 0.0, and negative or non-finite factors — which have no real
/// geometric mean — also yield 0.0 rather than NaN.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut log_sum = 0.0;
    for &v in values {
        if v <= 0.0 || !v.is_finite() {
            return 0.0;
        }
        log_sum += v.ln();
    }
    (log_sum / values.len() as f64).exp()
}

/// Default worker-thread count for sweeps.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// The three instrumentation modes of Figures 3/4 (plus the native
/// baseline), with the taint-based relevant set from an analysis.
pub fn standard_filters(analysis: &Analysis, app: &AppSpec) -> Vec<(&'static str, Filter)> {
    vec![
        (
            "taint-based",
            Filter::TaintBased {
                relevant: analysis
                    .relevant_functions(&app.module)
                    .into_iter()
                    .collect(),
            },
        ),
        (
            "default",
            Filter::Default {
                inline_threshold: 12,
            },
        ),
        ("full", Filter::Full),
    ]
}

/// Calibrated contention machine for the §C1 experiment.
pub fn contended_machine(p: i64, ranks_per_node: u32) -> MachineConfig {
    MachineConfig::default()
        .with_ranks(p as u32)
        .with_ranks_per_node(ranks_per_node)
        .with_contention(ContentionModel::CALIBRATED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_cross_product() {
        let app = pt_apps::lulesh::build();
        let pts = grid(&app, "size", &[10, 12], &[8, 27], &[("iters", 2)]);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].param("size"), Some(10));
        assert_eq!(pts[0].param("p"), Some(8));
        assert_eq!(pts[0].param("iters"), Some(2));
        assert_eq!(pts[0].machine.ranks, 8);
        assert_eq!(pts[3].param("size"), Some(12));
        assert_eq!(pts[3].param("p"), Some(27));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_is_total_on_degenerate_input() {
        // A zero factor makes the product (and the mean) zero.
        assert_eq!(geomean(&[0.0, 10.0]), 0.0);
        // Negative and non-finite factors have no real geometric mean;
        // the total function maps them to 0.0 instead of NaN/panicking.
        assert_eq!(geomean(&[-3.0, 10.0]), 0.0);
        assert_eq!(geomean(&[f64::NAN]), 0.0);
        assert_eq!(geomean(&[f64::INFINITY, 2.0]), 0.0);
        assert_eq!(geomean(&[1.0, f64::NEG_INFINITY]), 0.0);
        // Ordinary inputs are unaffected.
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
