//! CI smoke: one profiled SARB execution, with report-schema validation.
//!
//! Usage: `profile_sarb [ncolumns] [threads]` (defaults 4, 3).
//!
//! Runs the GLAF v3 parallel SARB build under the profiler, prints the
//! observability report, and exits nonzero if the report violates its
//! schema (required sections, join coverage).

use glaf_bench::observe::observe_sarb;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let ncol: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(3);

    let report = match observe_sarb(ncol, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("profile_sarb: SARB run failed: {e}");
            std::process::exit(1);
        }
    };

    let text = report.render();
    println!("{text}");

    let mut errors: Vec<String> = Vec::new();

    for section in [
        "== profile ==",
        "== measured spans ==",
        "== omprt utilization ==",
        "== autopar decisions ==",
        "== predicted vs measured ==",
    ] {
        if !text.contains(section) {
            errors.push(format!("report is missing section {section:?}"));
        }
    }

    if report.profile.spans.is_empty() {
        errors.push("profile recorded no spans".into());
    }
    if report.profile.loop_entry_counts().is_empty() {
        errors.push("profile recorded no loop entries".into());
    }
    if report.profile.regions.is_empty() {
        errors.push("profile recorded no omprt regions".into());
    }
    for (i, r) in report.profile.regions.iter().enumerate() {
        if r.busy_ns.len() as u64 != r.threads || r.start_ns.len() as u64 != r.threads {
            errors.push(format!("region {i}: busy_ns/start_ns are not one entry per thread"));
        }
    }
    if report.loops.is_empty() {
        errors.push("predicted-vs-measured join produced no loops".into());
    }
    if !report.loops.iter().any(|l| l.predicted_cycles.is_some()) {
        errors.push("no measured loop joined a predicted region cost".into());
    }
    if !(0.0..=1.0).contains(&report.agreement) {
        errors.push(format!("ordering agreement {} outside [0, 1]", report.agreement));
    }
    if report.decisions.is_empty() {
        errors.push("decision log is empty".into());
    }

    if errors.is_empty() {
        println!("profile_sarb: report schema OK");
    } else {
        for e in &errors {
            eprintln!("profile_sarb: SCHEMA VIOLATION: {e}");
        }
        std::process::exit(1);
    }
}
