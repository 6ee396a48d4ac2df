//! The repo benchmark. See `README.md` beside the manifest for the metric
//! and workload glossary; `BENCHMARK.json` at the repo root is the contract.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One invocation measures one workload. The process given these arguments
//! only orchestrates: it re-executes itself once per round, so every round
//! starts from a fresh process (fresh allocator, fresh JIT page placement,
//! fresh thread pools) and every set-up is a cold one. The last line of
//! standard output is the result object.

mod check;
mod host;
mod json;
mod metrics;
mod rng;
mod round;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set on the re-executed processes: run one round and report it.
    pub child: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--round-child" {
            args.child = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: benchmark --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        round::run_child(&args, started)
    } else {
        metrics::run(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload sarb_warm --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.child),
            ("sarb_warm", 42, 10.0, true, false)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload sarb_warm --trace 2").is_err());
        assert!(parse("--workload sarb_warm --seconds 0").is_err());
        assert!(parse("--workload").is_err());
    }
}
