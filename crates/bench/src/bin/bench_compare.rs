//! `bench_compare` — diff two `BENCH_*.json` reports exactly and exit
//! non-zero on any difference: the CI findings gate.
//!
//! Usage:
//!   bench_compare OLD.json NEW.json
//!
//! Every scenario, status and metric of NEW must equal OLD; each
//! difference is printed on its own line (see `pt_bench::compare`).
//!
//! Exit codes: 0 = identical findings, 1 = at least one difference,
//! 2 = unusable input (missing file, parse failure, schema mismatch, or a
//! `--quick` report compared against a full one).

use perf_taint::report::BenchReport;
use pt_bench::compare::differences;
use std::process::ExitCode;

fn load(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    BenchReport::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("bench_compare OLD.json NEW.json");
                return ExitCode::SUCCESS;
            }
            f if f.starts_with('-') => {
                eprintln!("unknown flag '{f}' (see --help)");
                return ExitCode::from(2);
            }
            p => paths.push(p.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_compare OLD.json NEW.json (see --help)");
        return ExitCode::from(2);
    }

    let (old, new) = match (load(&paths[0]), load(&paths[1])) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "baseline: {} ({}, quick={})   new: {} ({}, quick={})",
        paths[0], old.git_sha, old.quick, paths[1], new.git_sha, new.quick
    );

    match differences(&old, &new) {
        Ok(diffs) if diffs.is_empty() => {
            println!("findings gate: OK — identical to the baseline");
            ExitCode::SUCCESS
        }
        Ok(diffs) => {
            for line in &diffs {
                println!("DIFF  {line}");
            }
            println!("findings gate: FAIL — {} difference(s)", diffs.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
