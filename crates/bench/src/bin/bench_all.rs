//! `bench_all` — run any tag/name selection of registered scenarios in one
//! process and write a schema-versioned `BENCH_<git-sha>.json` report.
//!
//! Usage:
//!   bench_all [--quick] [--list] [--verbose] [--quiet] [--out PATH] [FILTER...]
//!
//! * `FILTER...` — scenario names or tags (empty = all registered scenarios)
//! * `--quick`   — reduced sweeps (what CI and `cargo test` run)
//! * `--verbose` — print every scenario's full text rendering, not just
//!   the summary table
//! * `--quiet`   — no stdout at all; pair with `--out` for a deterministic
//!   report location (what CI and the server smoke job use). Failures
//!   still go to stderr and the exit code.
//! * `--out`     — report path (default `BENCH_<git-sha>.json`)
//!
//! The report holds findings only, no timings: `perfbench` measures speed.
//!
//! Independent scenarios run concurrently via `pt_util::parallel_map`; the
//! per-app static stage is computed once and shared through the slot the
//! context keeps beside each app.

use perf_taint::report::{BenchReport, RunStatus, ScenarioRecord, BENCH_SCHEMA_VERSION};
use pt_bench::scenarios::{matching, registry, Scenario, ScenarioCtx, ScenarioResult};
use std::process::ExitCode;

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn print_list() {
    println!("{:<26} {:<34} summary", "scenario", "tags");
    for s in registry() {
        println!(
            "{:<26} {:<34} {}",
            s.name(),
            s.tags().join(","),
            s.summary()
        );
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut verbose = false;
    let mut quiet = false;
    let mut out_path: Option<String> = None;
    let mut filters: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--verbose" => verbose = true,
            "--quiet" => quiet = true,
            "--list" => {
                print_list();
                return ExitCode::SUCCESS;
            }
            "--out" => match args.next() {
                Some(p) => out_path = Some(p),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "bench_all [--quick] [--list] [--verbose] [--quiet] [--out PATH] [FILTER...]"
                );
                return ExitCode::SUCCESS;
            }
            f if f.starts_with('-') => {
                eprintln!("unknown flag '{f}' (see --help)");
                return ExitCode::from(2);
            }
            f => filters.push(f.to_string()),
        }
    }

    let selected = matching(&filters);
    if selected.is_empty() {
        eprintln!("no scenario matches {filters:?}; run with --list to see the registry");
        return ExitCode::from(2);
    }

    // Split the machine between scenario-level and sweep-level parallelism:
    // scenarios fan out via parallel_map, and each gets an equal share of
    // the cores for its internal sweeps.
    let total_threads = pt_bench::threads();
    let scenario_workers = total_threads.min(selected.len()).max(1);
    let cx = ScenarioCtx::with_threads(quick, (total_threads / scenario_workers).max(1));

    let sha = git_sha();
    if !quiet {
        eprintln!(
            "bench_all: {} scenario(s), quick={quick}, {} worker(s) × {} thread(s), commit {sha}",
            selected.len(),
            scenario_workers,
            cx.threads
        );
    }

    let runs: Vec<(&dyn Scenario, Result<ScenarioResult, _>)> =
        pt_util::parallel_map(&selected, scenario_workers, |s| (*s, s.run(&cx)));

    let mut scenarios = Vec::new();
    let mut failures = 0usize;
    if !quiet {
        println!("{:<26} {:>8}  status", "scenario", "metrics");
    }
    for (s, result) in &runs {
        let (status, metrics, text) = match result {
            Ok(r) => (RunStatus::Ok, r.metrics.clone(), Some(&r.text)),
            Err(e) => {
                failures += 1;
                // Failures must reach stderr even under --quiet — the
                // report alone would hide which scenario broke and why.
                if quiet {
                    eprintln!("{}: ERROR: {e}", s.name());
                }
                (RunStatus::Error(e.to_string()), Default::default(), None)
            }
        };
        if !quiet {
            println!(
                "{:<26} {:>8}  {}",
                s.name(),
                metrics.len(),
                match &status {
                    RunStatus::Ok => "ok".to_string(),
                    RunStatus::Error(e) => format!("ERROR: {e}"),
                }
            );
            if verbose {
                if let Some(text) = text {
                    println!("\n{text}");
                }
            }
        }
        scenarios.push(ScenarioRecord {
            name: s.name().to_string(),
            tags: s.tags().iter().map(|t| t.to_string()).collect(),
            status,
            metrics,
        });
    }

    let report = BenchReport {
        schema: BENCH_SCHEMA_VERSION,
        git_sha: sha.clone(),
        created_unix: unix_now(),
        quick,
        scenarios,
    };
    let path = out_path.unwrap_or_else(|| format!("BENCH_{sha}.json"));
    if let Err(e) = std::fs::write(&path, report.to_json_string()) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::from(2);
    }
    if !quiet {
        println!("report: {path}");
    }

    if failures > 0 {
        eprintln!("{failures} scenario(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
