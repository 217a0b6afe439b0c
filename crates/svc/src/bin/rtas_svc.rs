//! `rtas-svc` — serve and inspect the network arbitration service.
//!
//! Run `rtas-svc --help` for the flag list: the usage text is rendered
//! from [`rtas_svc::cli::SERVE_FLAGS`], the same table the parser is
//! tested against, so help and parser cannot drift. The same flags are
//! documented with units and defaults in `docs/OPERATIONS.md`.
//!
//! `serve` prints `listening on <addr>` once the socket is bound —
//! smoke scripts can wait for the port. See `docs/WIRE.md` for the
//! wire protocol, and the "Observability" section of
//! `docs/OPERATIONS.md` for `stats --metrics`, `top`, and `--trace`
//! (trace dumps decode with `rtas-trace dump`).

use std::process::ExitCode;
use std::sync::Arc;

use rtas_svc::{cli, Client, Server};

fn usage() -> ! {
    eprintln!("{}", cli::serve_usage());
    std::process::exit(2);
}

fn run_stats(args: &[String]) -> ExitCode {
    let parsed = cli::parse_stats(args).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        usage();
    });
    let mut client = match Client::connect(&parsed.addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("rtas-svc: stats from {} failed: {e}", parsed.addr);
            return ExitCode::from(2);
        }
    };
    if parsed.metrics {
        return match client.metrics() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rtas-svc: metrics from {} failed: {e}", parsed.addr);
                ExitCode::from(2)
            }
        };
    }
    match client.stats() {
        Ok(s) => {
            if parsed.json {
                println!("{}", cli::stats_to_json(&s));
            } else if parsed.raw {
                println!(
                    "keys {} | ops {} | wins {} | resets {} | registers {} | \
                     reclaimed {} | conns {} | refused {}",
                    s.keys, s.ops, s.wins, s.resets, s.registers, s.reclaimed, s.conns, s.refused
                );
            } else {
                for (name, value) in [
                    ("keys", s.keys),
                    ("ops", s.ops),
                    ("wins", s.wins),
                    ("resets", s.resets),
                    ("registers", s.registers),
                    ("reclaimed", s.reclaimed),
                    ("conns", s.conns),
                    ("refused", s.refused),
                ] {
                    println!("{name:<10} {value}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rtas-svc: stats from {} failed: {e}", parsed.addr);
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    match command.as_str() {
        "serve" => {
            let config = cli::parse_serve(&args[1..]).unwrap_or_else(|message| {
                eprintln!("error: {message}");
                usage();
            });
            let server = match Server::spawn(config.clone()) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("rtas-svc: cannot serve on {}: {e}", config.addr);
                    return ExitCode::from(2);
                }
            };
            // A panicking server leaves its black box behind: dump the
            // flight recorder to RTAS_TRACE_DIR (if set) before the
            // default hook prints the panic.
            let recorder = Arc::clone(server.recorder());
            let default_hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if let Ok(Some(path)) = recorder.dump_to_trace_dir("panic") {
                    eprintln!("rtas-svc: flight recorder dumped to {}", path.display());
                }
                default_hook(info);
            }));
            println!(
                "rtas-svc: listening on {} (backend={:?} shards={} capacity={} workers={} \
                 trace={})",
                server.addr(),
                config.backend,
                config.shards,
                config.capacity,
                config.workers,
                config.trace.label(),
            );
            server.join();
            ExitCode::SUCCESS
        }
        "stats" => run_stats(&args[1..]),
        "top" => {
            let parsed = cli::parse_top(&args[1..]).unwrap_or_else(|message| {
                eprintln!("error: {message}");
                usage();
            });
            match rtas_svc::top::run_top(&parsed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(message) => {
                    eprintln!("rtas-svc: {message}");
                    ExitCode::from(2)
                }
            }
        }
        other => {
            eprintln!("error: unknown command {other:?}");
            usage();
        }
    }
}
