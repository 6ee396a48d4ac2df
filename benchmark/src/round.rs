//! One round: set up the workload in this (fresh) process, run its ops
//! for the given time, and report what happened on standard output in a
//! line protocol the orchestrating process reads back.

use std::time::{Duration, Instant};

use crate::host;
use crate::spans::{self, Recorder};
use crate::workloads::{self, Metric};
use crate::Args;

/// A round runs at least this many ops however slow the host is.
const MIN_OPS: usize = 10;
/// Failure descriptions carried per round; the count is always exact.
const MAX_FAILURES_SHOWN: usize = 5;

#[derive(Debug, Default, PartialEq)]
pub struct RoundReport {
    /// Process start → first timed op, oracle reference runs included.
    pub setup_wall_s: f64,
    /// `(step, wall ns)` of each step of the system's own set-up, in order.
    pub setup_steps: Vec<(String, u64)>,
    /// Wall time of each op's timed section, in nanoseconds, in run order.
    pub samples_ns: Vec<u64>,
    /// Schedule index of the first sample; sample `k` is op `first_op + k`.
    pub first_op: u64,
    /// Period of the workload's schedule: ops `i` and `i + cycle` do
    /// exactly the same work.
    pub cycle: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    /// Counts that must repeat exactly across rounds.
    pub counts: Vec<(String, f64)>,
    /// Per-layer metrics (traced rounds only).
    pub metrics: Vec<Metric>,
}

impl RoundReport {
    pub fn ops(&self) -> usize {
        self.samples_ns.len()
    }

    /// Which of the schedule's distinct ops sample `k` is a repetition of.
    pub fn distinct_op(&self, k: usize) -> u64 {
        (self.first_op + k as u64) % self.cycle.max(1)
    }

    pub fn samples_ms(&self) -> Vec<f64> {
        self.samples_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }

    /// One `key fields...` line per fact. Floats print in Rust's shortest
    /// round-trip form, so `decode(encode(r)) == r` bit for bit.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "setup_wall_s {}\npeak_rss_mb {}\nfailed {}\nfirst_op {}\ncycle {}\n",
            self.setup_wall_s, self.peak_rss_mb, self.failed, self.first_op, self.cycle
        );
        let samples: Vec<String> = self.samples_ns.iter().map(u64::to_string).collect();
        out.push_str(&format!("samples_ns {}\n", samples.join(" ")));
        for (name, ns) in &self.setup_steps {
            out.push_str(&format!("setup_step {name} {ns}\n"));
        }
        for (name, v) in &self.counts {
            out.push_str(&format!("count {name} {v}\n"));
        }
        for (name, v) in &self.metrics {
            out.push_str(&format!("metric {name} {v}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("failure {}\n", f.replace('\n', " ")));
        }
        out
    }

    pub fn decode(text: &str) -> Result<RoundReport, String> {
        let mut r = RoundReport::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed round report line: {line:?}");
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            match key {
                "setup_wall_s" => r.setup_wall_s = num(rest)?,
                "setup_step" => {
                    let (name, ns) = rest.split_once(' ').ok_or_else(bad)?;
                    r.setup_steps
                        .push((name.to_string(), ns.parse().map_err(|_| bad())?));
                }
                "peak_rss_mb" => r.peak_rss_mb = num(rest)?,
                "failed" => r.failed = rest.parse().map_err(|_| bad())?,
                "first_op" => r.first_op = rest.parse().map_err(|_| bad())?,
                "cycle" => r.cycle = rest.parse().map_err(|_| bad())?,
                "samples_ns" => {
                    r.samples_ns = rest
                        .split_whitespace()
                        .map(|s| s.parse().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?;
                }
                "count" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                    r.counts.push((name.to_string(), num(v)?));
                }
                "metric" => {
                    let (name, v) = rest.split_once(' ').ok_or_else(bad)?;
                    r.metrics.push((name.to_string(), num(v)?));
                }
                "failure" => r.failures.push(rest.to_string()),
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }
}

/// The re-executed process: one round of `args.workload`.
pub fn run_child(args: &Args, started: Instant) -> Result<(), String> {
    let rec = Recorder::new(args.trace);
    let mut setup = workloads::Setup {
        rec: &rec,
        steps: Vec::new(),
    };
    let mut w = workloads::set_up(&args.workload, args.seed, &mut setup)?;
    let mut report = RoundReport {
        setup_steps: setup.steps,
        counts: w.counts(),
        first_op: w.first_op(),
        cycle: w.cycle(),
        ..RoundReport::default()
    };
    report.setup_wall_s = started.elapsed().as_secs_f64();

    let budget = Duration::from_secs_f64(args.seconds);
    let loop_started = Instant::now();
    let mut i = w.first_op();
    while report.ops() < MIN_OPS || loop_started.elapsed() < budget {
        rec.set_op(i);
        let out = rec.span("op", || w.op(i, &rec));
        report.samples_ns.push(out.timed.as_nanos() as u64);
        if let Err(e) = out.check {
            report.failed += 1;
            if report.failures.len() < MAX_FAILURES_SHOWN {
                report
                    .failures
                    .push(format!("{} op {i}: {e}", args.workload));
            }
        }
        i += 1;
    }

    if args.trace {
        report.metrics = w.layer_metrics(&rec);
        write_trace(&args.workload, &rec)?;
    }
    report.peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    print!("{}", report.encode());
    Ok(())
}

/// Writes the spans next to the executable — inside the build directory,
/// which the checkout's `.gitignore` covers.
fn write_trace(workload: &str, rec: &Recorder) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let path = exe.with_file_name(format!("trace-{workload}.json"));
    let all = rec.spans();
    std::fs::write(&path, spans::to_json(&all).render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("trace: {} spans written to {}", all.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_line_protocol() {
        let r = RoundReport {
            setup_wall_s: 0.412_345_678_9,
            setup_steps: vec![
                ("compile".into(), 2_298_000),
                ("warmup.0".into(), 14_100_000),
            ],
            samples_ns: vec![10_613_402, 10_700_001, 9_999_999],
            failed: 1,
            first_op: 100,
            cycle: 500,
            failures: vec!["sarb_warm op 3: sarb outputs[7]: got 1e0, expected 2e0".into()],
            peak_rss_mb: 23.437_5,
            counts: vec![
                ("sim_seconds".into(), 0.000_592_661_982_630_272_6),
                ("n".into(), 3.0),
            ],
            metrics: vec![("lex.us".into(), 12.25), ("lex.mb_per_s".into(), 101.5)],
        };
        assert_eq!(RoundReport::decode(&r.encode()).unwrap(), r);
        assert!(RoundReport::decode("setup_wall_s fast\n").is_err());
        assert!(RoundReport::decode("surprise 1\n").is_err());
    }
}
