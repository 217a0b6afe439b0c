//! The `rtas-svc` command-line surface, as data.
//!
//! The serve flag table below is the **single source of truth** for
//! the server's CLI: the binary's usage text is rendered from it
//! ([`serve_usage`]) and the parser ([`parse_serve`]) is tested
//! against it flag by flag, so the help text can never drift from
//! what the parser accepts. `docs/OPERATIONS.md` documents the same
//! table in prose, and a repo-level test asserts it mentions every
//! flag named here.
//!
//! The parser returns `Err(message)` instead of exiting so it can be
//! unit-tested; the binary maps errors to the usual
//! print-usage-and-exit-2 behavior.

use std::time::Duration;

use rtas_obs::json::Json;
use rtas_obs::TraceMode;

use crate::protocol::SvcStats;
use crate::server::SvcConfig;

/// One `rtas-svc serve` flag: its spelling, value placeholder,
/// rendered default, and one-line help.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--max-conns`.
    pub name: &'static str,
    /// Placeholder for the value in usage text, e.g. `<n>`.
    pub value: &'static str,
    /// The default, as shown to the operator.
    pub default: &'static str,
    /// One-line description (units included where they apply).
    pub help: &'static str,
    /// A representative valid value, used by the round-trip test.
    pub sample: &'static str,
}

/// The bind address `rtas-svc` uses when `--addr` is omitted (the
/// library's [`SvcConfig`] default picks a free port instead).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7045";

/// Every flag `rtas-svc serve` accepts. Order is the help-text order.
pub const SERVE_FLAGS: &[Flag] = &[
    Flag {
        name: "--addr",
        value: "<host:port>",
        default: DEFAULT_ADDR,
        help: "bind address",
        sample: "127.0.0.1:0",
    },
    Flag {
        name: "--shards",
        value: "<n>",
        default: "8",
        help: "namespace shards (independent key tables + creation locks)",
        sample: "4",
    },
    Flag {
        name: "--capacity",
        value: "<n>",
        default: "64",
        help: "participants admitted per key-epoch",
        sample: "16",
    },
    Flag {
        name: "--backend",
        value: "<b>",
        default: "combined",
        help: "algorithm: logstar | loglog | ratrace | combined",
        sample: "ratrace",
    },
    Flag {
        name: "--workers",
        value: "<n>",
        default: "available parallelism, capped at 8",
        help: "reactor worker threads",
        sample: "2",
    },
    Flag {
        name: "--max-keys",
        value: "<n>",
        default: "1048576",
        help: "ceiling on live keys across all shards",
        sample: "1000",
    },
    Flag {
        name: "--lease-ms",
        value: "<ms>",
        default: "off",
        help: "reclaim epochs whose winner never acks RESET after this many ms",
        sample: "250",
    },
    Flag {
        name: "--read-timeout-ms",
        value: "<ms>",
        default: "off",
        help: "answer ERR and close connections idle past this many ms",
        sample: "5000",
    },
    Flag {
        name: "--max-conns",
        value: "<n>",
        default: "1024",
        help: "refuse connections beyond this many live",
        sample: "100",
    },
    Flag {
        name: "--trace",
        value: "<m>",
        default: "off",
        help: "flight recorder: on | off | sampled:<n> (every nth frame)",
        sample: "sampled:16",
    },
];

/// The full usage text, rendered from [`SERVE_FLAGS`].
pub fn serve_usage() -> String {
    let mut out = String::from("usage: rtas-svc serve [options]        run a server (blocks)\n");
    for flag in SERVE_FLAGS {
        let head = format!("  {} {}", flag.name, flag.value);
        out.push_str(&format!(
            "{head:<28}{}  (default {})\n",
            flag.help, flag.default
        ));
    }
    out.push_str(
        "       rtas-svc stats [--addr <host:port>] [--json | --metrics]\n\
         \x20                                  print a server's counters (default named\n\
         \x20                                  fields; --metrics fetches the METRICS\n\
         \x20                                  exposition) and exit\n\
         \x20      rtas-svc top [--addr <host:port>] [--interval-ms <ms>] [--once] [--json]\n\
         \x20                                  live terminal view over the METRICS plane:\n\
         \x20                                  per-second rates, per-worker gauges, stage\n\
         \x20                                  latency sparklines (--once prints a single\n\
         \x20                                  sample and exits; --json implies --once)\n\
         \x20      flight-recorder dumps: rtas-trace dump | merge | audit\n",
    );
    out
}

/// Render [`SvcStats`] as one flat JSON object with numeric values —
/// the `rtas-svc stats --json` output. Lives in the library so tests
/// can round-trip it through [`rtas_obs::json::parse_json_object`].
pub fn stats_to_json(s: &SvcStats) -> String {
    Json::obj(s.fields().map(|(name, v)| (name, Json::from(v)))).to_string()
}

/// Parse `rtas-svc serve` arguments (everything after the subcommand)
/// into a validated [`SvcConfig`]. `Err` carries the message to print
/// above the usage text.
pub fn parse_serve(args: &[String]) -> Result<SvcConfig, String> {
    let mut config = SvcConfig {
        addr: DEFAULT_ADDR.to_string(),
        ..SvcConfig::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        fn parsed<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
            value
                .parse::<T>()
                .map_err(|_| format!("{name} value {value:?} is invalid"))
        }
        fn positive(name: &str, value: &str) -> Result<usize, String> {
            let n: usize = parsed(name, value)?;
            if n == 0 {
                return Err(format!("{name} must be positive"));
            }
            Ok(n)
        }
        fn positive_ms(name: &str, value: &str) -> Result<Duration, String> {
            let ms: u64 = parsed(name, value)?;
            if ms == 0 {
                return Err(format!("{name} must be positive (omit to disable)"));
            }
            Ok(Duration::from_millis(ms))
        }
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?.clone(),
            "--shards" => config.shards = positive("--shards", value("--shards")?)?,
            "--capacity" => config.capacity = positive("--capacity", value("--capacity")?)?,
            "--workers" => config.workers = positive("--workers", value("--workers")?)?,
            "--max-keys" => config.max_keys = positive("--max-keys", value("--max-keys")?)?,
            "--max-conns" => config.max_conns = positive("--max-conns", value("--max-conns")?)?,
            "--lease-ms" => config.lease = Some(positive_ms("--lease-ms", value("--lease-ms")?)?),
            "--read-timeout-ms" => {
                config.read_timeout = Some(positive_ms(
                    "--read-timeout-ms",
                    value("--read-timeout-ms")?,
                )?)
            }
            "--backend" => {
                let v = value("--backend")?;
                config.backend = rtas::Backend::parse(v).ok_or_else(|| {
                    format!("unknown backend {v:?} (logstar|loglog|ratrace|combined)")
                })?;
            }
            "--trace" => {
                let v = value("--trace")?;
                config.trace = TraceMode::parse(v)
                    .ok_or_else(|| format!("unknown trace mode {v:?} (on|off|sampled:<n>)"))?;
            }
            flag => return Err(format!("unknown argument {flag}")),
        }
    }
    if config.capacity > crate::namespace::MAX_CAPACITY {
        return Err(format!(
            "--capacity must be at most {} (the per-epoch admission counter width)",
            crate::namespace::MAX_CAPACITY
        ));
    }
    Ok(config)
}

/// Parsed `rtas-svc stats` arguments: the address to query plus one
/// (at most) output selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsArgs {
    /// Server to query (default [`DEFAULT_ADDR`]).
    pub addr: String,
    /// Render the counters as one JSON object.
    pub json: bool,
    /// Fetch the `METRICS` exposition instead of `STATS` and print it
    /// verbatim.
    pub metrics: bool,
}

/// Parse `rtas-svc stats` arguments: `--addr` plus at most one of
/// `--json` / `--metrics`.
pub fn parse_stats(args: &[String]) -> Result<StatsArgs, String> {
    let mut parsed = StatsArgs {
        addr: DEFAULT_ADDR.to_string(),
        json: false,
        metrics: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                parsed.addr = iter
                    .next()
                    .ok_or_else(|| "--addr requires a value".to_string())?
                    .clone();
            }
            "--json" => parsed.json = true,
            "--metrics" => parsed.metrics = true,
            flag => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.json && parsed.metrics {
        return Err("--json and --metrics are mutually exclusive".to_string());
    }
    Ok(parsed)
}

/// Parsed `rtas-svc top` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopArgs {
    /// Server to poll (default [`DEFAULT_ADDR`]).
    pub addr: String,
    /// Poll interval between samples.
    pub interval: Duration,
    /// Print one sample and exit instead of looping.
    pub once: bool,
    /// Emit the sample as one flat JSON object (implies `once`).
    pub json: bool,
}

/// Parse `rtas-svc top` arguments: `--addr`, `--interval-ms` (default
/// 1000), `--once`, and `--json` (which implies `--once`: a JSON
/// stream with screen-clear escapes would help nobody).
pub fn parse_top(args: &[String]) -> Result<TopArgs, String> {
    let mut parsed = TopArgs {
        addr: DEFAULT_ADDR.to_string(),
        interval: Duration::from_millis(1000),
        once: false,
        json: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            iter.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => parsed.addr = value("--addr")?.clone(),
            "--interval-ms" => {
                let v = value("--interval-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("--interval-ms value {v:?} is invalid"))?;
                if ms == 0 {
                    return Err("--interval-ms must be positive".to_string());
                }
                parsed.interval = Duration::from_millis(ms);
            }
            "--once" => parsed.once = true,
            "--json" => parsed.json = true,
            flag => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.json {
        parsed.once = true;
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drift guard: every flag in the table parses with its sample
    /// value, so the rendered help can never advertise a flag the
    /// parser rejects.
    #[test]
    fn every_advertised_flag_parses() {
        for flag in SERVE_FLAGS {
            let args = vec![flag.name.to_string(), flag.sample.to_string()];
            let parsed = parse_serve(&args);
            assert!(
                parsed.is_ok(),
                "{} {} rejected: {:?}",
                flag.name,
                flag.sample,
                parsed.err()
            );
        }
    }

    /// And the converse: the rendered usage mentions every flag the
    /// parser accepts (the table IS the parser's switch list).
    #[test]
    fn usage_mentions_every_flag() {
        let usage = serve_usage();
        for flag in SERVE_FLAGS {
            assert!(usage.contains(flag.name), "usage omits {}", flag.name);
        }
    }

    #[test]
    fn parse_rejects_unknown_flags_and_bad_values() {
        let err = |args: &[&str]| {
            parse_serve(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        assert!(err(&["--bogus"]).contains("unknown argument"));
        assert!(err(&["--shards"]).contains("requires a value"));
        assert!(err(&["--shards", "0"]).contains("must be positive"));
        assert!(err(&["--shards", "many"]).contains("is invalid"));
        assert!(err(&["--lease-ms", "0"]).contains("omit to disable"));
        assert!(err(&["--engine", "epoll"]).contains("unknown argument"));
        assert!(err(&["--listeners", "2"]).contains("unknown argument"));
        assert!(err(&["--backend", "quantum"]).contains("unknown backend"));
        let cap_err = err(&["--capacity", "1000000000"]);
        assert!(cap_err.contains("--capacity must be at most"), "{cap_err}");
    }

    #[test]
    fn parse_fills_config_fields() {
        let args: Vec<String> = [
            "--addr",
            "0.0.0.0:9000",
            "--shards",
            "3",
            "--capacity",
            "5",
            "--backend",
            "loglog",
            "--workers",
            "2",
            "--max-keys",
            "10",
            "--lease-ms",
            "250",
            "--read-timeout-ms",
            "1000",
            "--max-conns",
            "7",
            "--trace",
            "sampled:32",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let config = parse_serve(&args).unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.shards, 3);
        assert_eq!(config.capacity, 5);
        assert_eq!(config.backend, rtas::Backend::LogLog);
        assert_eq!(config.workers, 2);
        assert_eq!(config.max_keys, 10);
        assert_eq!(config.lease, Some(Duration::from_millis(250)));
        assert_eq!(config.read_timeout, Some(Duration::from_millis(1000)));
        assert_eq!(config.max_conns, 7);
        assert_eq!(config.trace, TraceMode::Sampled(32));
    }

    #[test]
    fn stats_parses_addr_and_one_output_selector() {
        let parsed = parse_stats(&[]).unwrap();
        assert_eq!(parsed.addr, DEFAULT_ADDR);
        assert!(!parsed.json && !parsed.metrics);

        let strs = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parsed = parse_stats(&strs(&["--addr", "10.0.0.1:1", "--json"])).unwrap();
        assert_eq!(parsed.addr, "10.0.0.1:1");
        assert!(parsed.json);
        assert!(parse_stats(&strs(&["--metrics"])).unwrap().metrics);

        assert!(parse_stats(&strs(&["--x"])).is_err());
        let err = parse_stats(&strs(&["--raw"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        let err = parse_stats(&strs(&["--json", "--metrics"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn top_parses_its_flags_and_json_implies_once() {
        let strs = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parsed = parse_top(&[]).unwrap();
        assert_eq!(parsed.addr, DEFAULT_ADDR);
        assert_eq!(parsed.interval, Duration::from_millis(1000));
        assert!(!parsed.once && !parsed.json);

        let parsed = parse_top(&strs(&[
            "--addr",
            "10.0.0.1:1",
            "--interval-ms",
            "250",
            "--once",
        ]))
        .unwrap();
        assert_eq!(parsed.addr, "10.0.0.1:1");
        assert_eq!(parsed.interval, Duration::from_millis(250));
        assert!(parsed.once);

        let parsed = parse_top(&strs(&["--json"])).unwrap();
        assert!(parsed.json && parsed.once, "--json implies --once");

        assert!(parse_top(&strs(&["--interval-ms", "0"])).is_err());
        assert!(parse_top(&strs(&["--interval-ms", "soon"])).is_err());
        assert!(parse_top(&strs(&["--bogus"])).is_err());
    }

    #[test]
    fn stats_json_is_flat_and_numeric() {
        let s = SvcStats {
            keys: 1,
            ops: 2,
            wins: 3,
            resets: 4,
            registers: 5,
            reclaimed: 6,
            conns: 7,
            refused: 8,
        };
        let json = stats_to_json(&s);
        assert_eq!(
            json,
            "{\"keys\": 1, \"ops\": 2, \"wins\": 3, \"resets\": 4, \"registers\": 5, \
             \"reclaimed\": 6, \"conns\": 7, \"refused\": 8}"
        );
    }

    #[test]
    fn bad_trace_modes_are_rejected() {
        let err = |args: &[&str]| {
            parse_serve(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        assert!(err(&["--trace", "always"]).contains("unknown trace mode"));
        assert!(err(&["--trace", "sampled:0"]).contains("unknown trace mode"));
    }
}
