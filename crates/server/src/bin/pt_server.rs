//! `pt-server` — stand the analysis service up.
//!
//! ```text
//! pt-server [--addr HOST:PORT] [--store DIR] [--workers N] [--queue N]
//!           [--idle-timeout SECS] [--max-requests N] [--shed]
//!           [--store-budget-bytes N] [--trace-sample-every N]
//!           [--trace-out PATH]
//! ```
//!
//! Defaults are [`ServerConfig::loopback`]'s, listening on
//! `127.0.0.1:7421` with store `pt-store` and one worker per core (at
//! most 16). `--shed` turns blocking backpressure into
//! shed-with-`overloaded`; shed envelopes carry an adaptive hint derived
//! from observed p99 service time. `--store-budget-bytes` caps the
//! artifact store with LRU eviction.
//! `--trace-out` keeps pipeline tracing on for the whole process and
//! writes a Chrome `trace_event` JSON file on shutdown — load it in
//! `chrome://tracing` or Perfetto.
//!
//! Prints exactly one `pt-server listening on <addr>` line to stdout once
//! the socket is bound (scripts parse this to learn an ephemeral port),
//! then serves until a `shutdown` request arrives.

use pt_server::{Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16);
    let mut config = ServerConfig {
        addr: "127.0.0.1:7421".to_string(),
        ..ServerConfig::loopback("pt-store", workers)
    };
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        let result = match arg.as_str() {
            "--addr" => take("--addr").map(|v| config.addr = v),
            "--store" => take("--store").map(|v| config.store_dir = v.into()),
            "--workers" => take("--workers").and_then(|v| {
                v.parse()
                    .map(|n: usize| config.workers = n.max(1))
                    .map_err(|_| "--workers requires an integer".to_string())
            }),
            "--queue" => take("--queue").and_then(|v| {
                v.parse()
                    .map(|n: usize| config.queue_capacity = n.max(1))
                    .map_err(|_| "--queue requires an integer".to_string())
            }),
            "--shed" => {
                config.shed = true;
                Ok(())
            }
            // Sampled always-on tracing: every Nth request feeds the
            // `sampled_profile` object in `metrics`. 0 disables it.
            "--trace-sample-every" => take("--trace-sample-every").and_then(|v| {
                v.parse()
                    .map(|n: u64| config.trace_sample_every = (n > 0).then_some(n))
                    .map_err(|_| "--trace-sample-every requires an integer".to_string())
            }),
            "--trace-out" => take("--trace-out").map(|v| trace_out = Some(v.into())),
            "--store-budget-bytes" => take("--store-budget-bytes").and_then(|v| {
                v.parse()
                    .map(|n: u64| config.store_budget_bytes = Some(n))
                    .map_err(|_| "--store-budget-bytes requires an integer".to_string())
            }),
            "--idle-timeout" => take("--idle-timeout").and_then(|v| {
                // try_from_secs_f64 also rejects NaN and values that
                // overflow Duration (e.g. 1e30) — no panic path.
                match v
                    .parse::<f64>()
                    .ok()
                    .filter(|&secs| secs > 0.0)
                    .and_then(|secs| std::time::Duration::try_from_secs_f64(secs).ok())
                {
                    Some(limit) => {
                        config.idle_timeout = Some(limit);
                        Ok(())
                    }
                    None => Err("--idle-timeout requires positive seconds".to_string()),
                }
            }),
            "--max-requests" => take("--max-requests").and_then(|v| match v.parse::<u64>() {
                Ok(n) if n > 0 => {
                    config.max_requests_per_connection = Some(n);
                    Ok(())
                }
                _ => Err("--max-requests requires a positive integer".to_string()),
            }),
            "--help" | "-h" => {
                println!(
                    "pt-server [--addr HOST:PORT] [--store DIR] [--workers N] [--queue N] \
                     [--idle-timeout SECS] [--max-requests N] [--shed] \
                     [--store-budget-bytes N] [--trace-sample-every N] [--trace-out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag '{other}' (see --help)")),
        };
        if let Err(message) = result {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    }

    if trace_out.is_some() {
        // Whole-process tracing: on before the first request, exported
        // after the serve loop drains.
        pt_util::trace::force_enable();
    }

    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pt-server: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("pt-server listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("pt-server: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "pt-server: store {}{}, {} worker(s), queue {}{}",
        config.store_dir.display(),
        match config.store_budget_bytes {
            Some(b) => format!(" (budget {b} B, LRU eviction)"),
            None => String::new(),
        },
        config.workers,
        config.queue_capacity,
        if config.shed {
            " (shed, adaptive retry-after)"
        } else {
            ""
        }
    );
    if let Err(e) = server.run() {
        eprintln!("pt-server: serve loop failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = trace_out {
        let events = pt_util::trace::drain_all();
        let doc = pt_util::trace::chrome_trace(&events).render();
        match std::fs::write(&path, doc) {
            Ok(()) => eprintln!(
                "pt-server: wrote {} trace event(s) to {} ({} dropped)",
                events.len(),
                path.display(),
                pt_util::trace::dropped_total()
            ),
            Err(e) => {
                eprintln!("pt-server: cannot write trace to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    eprintln!("pt-server: shutdown complete");
    ExitCode::SUCCESS
}
