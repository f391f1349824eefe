//! Seeded benchmark of the scan engine and its layers.
//!
//! ```text
//! perfbench --workload <bulk|sort|stream_shard|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, a fault-counter line, and as its last line
//! the result: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans to
//! `out/<workload>-seed<seed>.trace.jsonl` beside this package's
//! manifest. See README.md.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;

mod json;
mod procfs;
mod rng;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Config, Kind};

const USAGE: &str =
    "usage: perfbench --workload <bulk|sort|stream_shard|service> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    Ok(Config::new(kind, seed, seconds, trace.unwrap_or(false)))
}

fn write_trace(report: &run::Report, cfg: &Config) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.trace.jsonl", cfg.kind.name(), cfg.seed));
    let mut out = BufWriter::new(fs::File::create(&path)?);
    if let Some(t) = &report.trace {
        t.write_jsonl(&report.provenance_json(), &mut out)?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", cfg.kind.name(), cfg.seed);
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.provenance_json());
    println!("{}", report.fault_counters_json());
    if report.trace.is_some() {
        match write_trace(&report, &cfg) {
            Ok(path) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let cfg = parse_args(&args(
            "--workload stream_shard --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (cfg.kind, cfg.seed, cfg.seconds, cfg.trace),
            (Kind::StreamShard, 9, 10.0, true)
        );
        assert_eq!(cfg.n, 1 << 22);
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload bulk --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload bulk --seconds 1")).is_err());
        assert!(parse_args(&args("--workload bulk --seed")).is_err());
    }
}
