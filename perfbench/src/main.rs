//! perfbench — the perf-taint benchmark, end to end and per layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--store-dir DIR]
//! ```
//!
//! Workloads (see `README.md` for why each exists):
//!
//! * `model_lulesh`, `model_milc` — one op is one full in-process modeling
//!   study: parse → static stage → taint run → restrictions + design →
//!   measurement sweep → noisy repetitions → hybrid model search.
//! * `serve_cold`, `serve_edit_mix` — one op is a short
//!   conversation with a loopback `pt_server::Server` (one worker, one
//!   connection, sampled tracing off) whose store starts empty at every
//!   round.
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics, measured by timing
//! the benchmark's calls into each layer and by the server's `trace`
//! method. Every op's output is checked; a failed check counts the op as
//! failed and makes the process exit 1 after printing its result.

mod model;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Parent of the per-round store directories (`serve_*` only).
    pub store_dir: PathBuf,
}

/// What one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Wall milliseconds of every measured untraced op, grouped by round.
    /// Every round replays the same work (`model_*`: a round is one op).
    pub rounds: Vec<Vec<f64>>,
    /// Wall milliseconds of every measured traced op (`--trace 1`).
    pub traced_ms: Vec<f64>,
    /// Seconds of each repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics by name (`--trace 1`); absent ones report 0.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked op; a failure is remembered, never fatal.
    pub fn record(&mut self, checked: Result<(), String>) -> bool {
        self.attempted += 1;
        match checked {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(e);
                }
                false
            }
        }
    }
}

/// Per-layer metrics: name and unit. Every traced run reports all of
/// them; a layer a workload never enters reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_ms", "ms"),
    ("static.ms", "ms"),
    ("static.classify_ms", "ms"),
    ("static.prepare_ms", "ms"),
    ("incremental.recomputed_per_op", "count"),
    ("incremental.recompute_frac", "ratio"),
    ("taint.run_ms", "ms"),
    ("measure.sweep_ms", "ms"),
    ("measure.insts_per_op", "count"),
    ("measure.minsts_per_s", "Minst/s"),
    ("measure.sample_ms", "ms"),
    ("extrap.fit_ms", "ms"),
    ("extrap.models_per_op", "count"),
    ("extrap.hypotheses_per_op", "count"),
    ("serve.submit_module_ms", "ms"),
    ("serve.static_analysis_ms", "ms"),
    ("serve.taint_run_ms", "ms"),
    ("serve.fit_model_ms", "ms"),
    ("serve.handler_submit_module_ms", "ms"),
    ("serve.handler_static_analysis_ms", "ms"),
    ("serve.handler_taint_run_ms", "ms"),
    ("serve.handler_fit_model_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("store.writes_per_op", "count"),
    ("store.hits_per_op", "count"),
    ("store.objects", "count"),
    ("store.sidecar_kb", "KiB"),
    ("stage.decode_ms", "ms"),
    ("stage.passes_ms", "ms"),
    ("stage.classify_ms", "ms"),
    ("stage.exec_ms", "ms"),
    ("stage.fit_ms", "ms"),
    ("stage.queue_wait_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("op.all_p50_ms", "ms"),
    ("op.all_tail_ms", "ms"),
    ("op.quiet_round_frac", "ratio"),
];

/// The percentile `op_tail_ms` reports per workload: the highest one that
/// leaves at least ten quiet-round samples beyond it in a 30 s run on the
/// reference host (the run prints the actual count).
fn tail_percentile(workload: &str) -> f64 {
    if workload.starts_with("model_") {
        80.0
    } else {
        95.0
    }
}

/// A round slower than this many times the run's 10th-percentile round
/// was slowed by the host, not by the program: rounds replay identical
/// work, and the reference host alternates between fast and ~1.9x slower
/// stretches lasting seconds (see README.md).
const QUIET_SLACK: f64 = 1.25;

/// Which of `totals` (times of identical work) the host did not slow.
fn quiet(totals: &[f64]) -> Vec<bool> {
    let limit = QUIET_SLACK * percentile(totals, 10.0);
    totals.iter().map(|&t| t <= limit).collect()
}

/// The ops of the rounds the host did not slow.
fn quiet_ops(rounds: &[Vec<f64>]) -> Vec<f64> {
    let totals: Vec<f64> = rounds.iter().map(|r| r.iter().sum()).collect();
    rounds
        .iter()
        .zip(quiet(&totals))
        .filter(|(_, keep)| *keep)
        .flat_map(|(ops, _)| ops.iter().copied())
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        store_dir: PathBuf::from(".bench_store"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--store-dir" => args.store_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "model_lulesh" => model::run(&args, model::Study::Lulesh),
        "model_milc" => model::run(&args, model::Study::Milc),
        "serve_cold" => serve::run_cold(&args),
        "serve_edit_mix" => serve::run_edit_mix(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload '{other}' \
                 (model_lulesh, model_milc, serve_cold, serve_edit_mix)"
            );
            std::process::exit(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some(e) = &outcome.first_failure {
        eprintln!(
            "perfbench: {} of {} ops failed their check; first: {e}",
            outcome.failed, outcome.attempted
        );
    }
    if outcome.rounds.is_empty() && outcome.traced_ms.is_empty() {
        eprintln!("perfbench: no op completed");
        std::process::exit(1);
    }

    let metrics = if args.trace {
        traced_metrics(&outcome)
    } else {
        end_to_end_metrics(&args, &outcome)
    };
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        rendered.join(", ")
    );
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

/// `setup_s`, `op_p50_ms`, `op_tail_ms` (all over quiet repetitions),
/// `peak_rss_mb`.
fn end_to_end_metrics(args: &Args, o: &Outcome) -> Vec<(String, f64, &'static str)> {
    let q = tail_percentile(&args.workload);
    // Set-up repetitions do identical work too.
    let quiet_setup: Vec<f64> = o
        .setup_s
        .iter()
        .zip(quiet(&o.setup_s))
        .filter(|(_, keep)| *keep)
        .map(|(s, _)| *s)
        .collect();
    let quiet = quiet_ops(&o.rounds);
    let n = quiet.len();
    let beyond = n - (n as f64 * q / 100.0).ceil().min(n as f64) as usize;
    println!(
        "{}: {n} quiet-round ops of {} measured ({} attempted incl. warm-up); \
         tail = p{q} with {beyond} samples beyond it{}",
        args.workload,
        o.rounds.iter().map(Vec::len).sum::<usize>(),
        o.attempted,
        if beyond < 10 {
            " (fewer than 10: run longer)"
        } else {
            ""
        }
    );
    vec![
        ("setup_s".into(), median(&quiet_setup), "s"),
        ("op_p50_ms".into(), percentile(&quiet, 50.0), "ms"),
        ("op_tail_ms".into(), percentile(&quiet, q), "ms"),
        ("peak_rss_mb".into(), peak_rss_kib() / 1024.0, "MB"),
    ]
}

/// Every per-layer metric, plus what the run's untraced ops show: the
/// tracing overhead (traced vs untraced quiet-round p50, interleaved in
/// this run), the p50 and p90 over all rounds, and the quiet share.
fn traced_metrics(o: &Outcome) -> Vec<(String, f64, &'static str)> {
    let mut layers = o.layers.clone();
    let all: Vec<f64> = o.rounds.iter().flatten().copied().collect();
    let quiet = quiet_ops(&o.rounds);
    if !quiet.is_empty() && !o.traced_ms.is_empty() {
        let (plain, traced) = (percentile(&quiet, 50.0), percentile(&o.traced_ms, 50.0));
        layers.insert("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
    }
    layers.insert("op.all_p50_ms", percentile(&all, 50.0));
    layers.insert("op.all_tail_ms", percentile(&all, 90.0));
    layers.insert(
        "op.quiet_round_frac",
        quiet.len() as f64 / all.len().max(1) as f64,
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                layers.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect()
}

/// JSON has no NaN/inf; a non-finite figure would make the line unparsable.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = (s.len() - 1) as f64 * q / 100.0;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A seed-derived 64-bit value for `(seed, stream, index)` (splitmix64):
/// the benchmark's only source of input variation.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index)
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process image, in KiB (`VmHWM`; unlike
/// `getrusage`, it does not carry the launching process's peak across
/// `exec`).
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}
