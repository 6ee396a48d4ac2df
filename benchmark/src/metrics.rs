//! The orchestrating process: runs the rounds as child processes, applies
//! the determinism gate, selects the reported values and prints every
//! metric by name with its unit, then the result object.

use std::collections::BTreeMap;
use std::process::Command;

use crate::host;
use crate::json::Json;
use crate::round::RoundReport;
use crate::stats::{median, percentile, round_spread};
use crate::Args;

/// Rounds per run, each a fresh process measuring `--seconds / ROUNDS`.
pub const ROUNDS: usize = 5;

/// Largest share of `compile.total_us` the replayed stage spans may leave
/// unaccounted for before the traced run counts as failed.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.15;

/// End-to-end metrics: `(name, unit, better)`. Mirrors `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics: `(name, unit)`. Mirrors `BENCHMARK.json`. A traced run
/// reports all of them; the ones whose layer the workload does not exercise
/// read 0 (the layer did no work there).
pub const PER_LAYER: [(&str, &str); 98] = [
    // GLAF front end and compile stages — `cold_compile`.
    ("glaf_ir.build_us", "us"),
    ("glaf_ir.validate_us", "us"),
    ("glaf_ir.steps", "count"),
    ("autopar.analyze_us", "us"),
    ("autopar.fuse_us", "us"),
    ("autopar.loops_parallel", "count"),
    ("autopar.fusions_applied", "count"),
    ("codegen.fortran_us", "us"),
    ("codegen.source_bytes", "bytes"),
    ("glaf.lift_us", "us"),
    ("glaf.compare_us", "us"),
    ("lex.us", "us"),
    ("lex.mb_per_s", "MB/s"),
    ("parse.us", "us"),
    ("sema.resolve_us", "us"),
    ("fixedform.ingest_us", "us"),
    ("fixedform.mb_per_s", "MB/s"),
    ("bytecode.lower_opt_us", "us"),
    ("bytecode.lower_traced_us", "us"),
    ("bytecode.instrs_opt", "count"),
    ("bytecode.instrs_traced", "count"),
    ("bytecode.vecloops", "count"),
    ("verify.opt_us", "us"),
    ("verify.traced_us", "us"),
    ("compile.total_us", "us"),
    ("compile.unattributed_share", "ratio"),
    ("compile.artifact_bytes", "bytes"),
    // Rung ladder — `sarb_warm` (.sarb, .dotp) and `fun3d_warm` (.fun3d).
    ("interp.run_ms.sarb", "ms"),
    ("vm.scalar_run_ms.sarb", "ms"),
    ("vm.vector_run_ms.sarb", "ms"),
    ("jit.native_run_ms.sarb", "ms"),
    ("vm.scalar_over_interp.sarb", "x"),
    ("vm.vector_over_scalar.sarb", "x"),
    ("jit.native_over_vector.sarb", "x"),
    ("rust.native_run_ms.sarb", "ms"),
    ("vm.best_over_rust.sarb", "x"),
    ("vm.vector_entries.sarb", "count"),
    ("jit.entries.sarb", "count"),
    ("jit.deopts.sarb", "count"),
    ("jit.regions_compiled.sarb", "ratio"),
    ("jit.promote_us.sarb", "us"),
    ("vm.retired_steps.sarb", "count"),
    ("interp.run_ms.dotp", "ms"),
    ("vm.scalar_run_ms.dotp", "ms"),
    ("vm.vector_run_ms.dotp", "ms"),
    ("jit.native_run_ms.dotp", "ms"),
    ("vm.scalar_over_interp.dotp", "x"),
    ("vm.vector_over_scalar.dotp", "x"),
    ("jit.native_over_vector.dotp", "x"),
    ("vm.vector_entries.dotp", "count"),
    ("jit.entries.dotp", "count"),
    ("jit.deopts.dotp", "count"),
    ("jit.regions_compiled.dotp", "ratio"),
    ("jit.promote_us.dotp", "us"),
    ("vm.retired_steps.dotp", "count"),
    ("interp.run_ms.fun3d", "ms"),
    ("vm.scalar_run_ms.fun3d", "ms"),
    ("vm.vector_run_ms.fun3d", "ms"),
    ("jit.native_run_ms.fun3d", "ms"),
    ("vm.scalar_over_interp.fun3d", "x"),
    ("vm.vector_over_scalar.fun3d", "x"),
    ("jit.native_over_vector.fun3d", "x"),
    ("rust.native_run_ms.fun3d", "ms"),
    ("vm.best_over_rust.fun3d", "x"),
    ("vm.vector_entries.fun3d", "count"),
    ("jit.entries.fun3d", "count"),
    ("jit.deopts.fun3d", "count"),
    ("jit.regions_compiled.fun3d", "ratio"),
    ("jit.promote_us.fun3d", "us"),
    ("vm.retired_steps.fun3d", "count"),
    ("vm.fun3d_ms_per_kcell.3k", "ms"),
    ("vm.fun3d_ms_per_kcell.30k", "ms"),
    ("vm.fun3d_ms_per_kcell.300k", "ms"),
    // Traced bytecode build and machine model — `simulated`.
    ("vm.traced_run_ms", "ms"),
    ("simcpu.time_trace_us", "us"),
    ("simcpu.trace_events", "count"),
    ("simcpu.sim_seconds", "s"),
    // OpenMP runtime — `omp_parallel`.
    ("omprt.forkjoin_us", "us"),
    ("omprt.barrier_us", "us"),
    ("omprt.dispenser_claim_ns", "ns"),
    ("omprt.regions_per_op", "count"),
    ("omprt.utilization", "ratio"),
    ("omprt.speedup_vs_serial", "x"),
    ("omprt.sarb_v0_run_ms", "ms"),
    ("omprt.fun3d_edgejp_run_ms", "ms"),
    // Service shell — `service_mix`.
    ("service.cache_hit_us", "us"),
    ("service.cache_miss_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.cache_bytes", "bytes"),
    ("service.session_new_us", "us"),
    ("service.job_wall_us_p50", "us"),
    ("service.jobs_per_s", "1/s"),
    ("service.setup_share", "ratio"),
    ("service.batch_over_direct", "x"),
    // The harness itself — every workload.
    ("harness.op_ms_p95", "ms"),
    ("harness.round_spread", "ratio"),
    ("harness.trace_overhead_share", "ratio"),
];

/// Runs one round in a fresh process and reads its report back.
fn run_round(args: &Args, seconds: f64, trace: bool) -> Result<RoundReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let out = Command::new(exe)
        .arg("--round-child")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round process: {e}"))?;
    if !out.status.success() {
        return Err(format!("round process failed with {}", out.status));
    }
    let text =
        String::from_utf8(out.stdout).map_err(|e| format!("round report is not UTF-8: {e}"))?;
    RoundReport::decode(&text)
}

/// Undisturbed times, in nanoseconds, of pieces of deterministic work that
/// were each repeated several times: `groups[j]` holds the repetitions of
/// piece `j`.
///
/// A repetition's time relative to its own piece's median says how disturbed
/// the host was at that moment, whatever the piece. The host's noise is
/// one-sided (a neighbour can slow a repetition, never speed it up), so the
/// smallest such ratio `q` of the whole run marks its quietest moment, and
/// each piece's undisturbed time is its median scaled by `q`. With a single
/// piece this is simply its fastest repetition. Pooling the ratios matters
/// when pieces are many and repetitions few: the fastest of 30 repetitions of
/// one piece moved by 8 % between the noisier and the quieter rounds of the
/// same run, the pooled estimate by 2 %.
fn undisturbed_ns(groups: &[Vec<u64>]) -> Vec<f64> {
    let medians: Vec<f64> = groups
        .iter()
        .map(|g| median(&g.iter().map(|&ns| ns as f64).collect::<Vec<_>>()))
        .collect();
    let quietest = groups
        .iter()
        .zip(&medians)
        .flat_map(|(g, &m)| g.iter().map(move |&ns| ns as f64 / m))
        .fold(f64::INFINITY, f64::min);
    medians.into_iter().map(|m| m * quietest).collect()
}

/// The repetitions of each distinct op of the schedule over all `rounds`.
fn op_repetitions(rounds: &[RoundReport]) -> Vec<Vec<u64>> {
    let mut by_op: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for r in rounds {
        for (k, &ns) in r.samples_ns.iter().enumerate() {
            by_op.entry(r.distinct_op(k)).or_default().push(ns);
        }
    }
    by_op.into_values().collect()
}

/// The repetitions of each set-up step over all `rounds`: every round takes
/// the same steps.
fn setup_repetitions(rounds: &[RoundReport]) -> Vec<Vec<u64>> {
    let mut by_step: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in rounds {
        for (step, ns) in &r.setup_steps {
            by_step.entry(step).or_default().push(*ns);
        }
    }
    by_step.into_values().collect()
}

/// The value reported for one end-to-end metric. The three timing metrics
/// are taken over undisturbed times: of the schedule's distinct ops, and of
/// the set-up steps. Memory, which noise does not push one way, takes the
/// median round.
fn select(name: &str, rounds: &[RoundReport]) -> f64 {
    let ops = || undisturbed_ns(&op_repetitions(rounds));
    match name {
        "ops_per_s" => {
            let ops = ops();
            ops.len() as f64 / (ops.iter().sum::<f64>() / 1e9)
        }
        "op_ms_p50" => median(&ops()) / 1e6,
        "setup_s" => {
            undisturbed_ns(&setup_repetitions(rounds))
                .iter()
                .sum::<f64>()
                / 1e9
        }
        "peak_rss_mb" => median(&rounds.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        other => unreachable!("no end-to-end metric named {other}"),
    }
}

/// Names of the counts whose values differ between rounds.
fn drifting_counts(rounds: &[RoundReport]) -> Vec<String> {
    let mut seen: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in rounds {
        for (name, v) in &r.counts {
            seen.entry(name).or_default().push(v.to_bits());
        }
    }
    seen.into_iter()
        .filter(|(_, vs)| vs.len() != rounds.len() || vs.iter().any(|v| *v != vs[0]))
        .map(|(name, _)| name.to_string())
        .collect()
}

fn fmt_rounds(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn run(args: &Args) -> Result<(), String> {
    println!("{}", host::descriptor());
    let per_round = args.seconds / ROUNDS as f64;
    println!(
        "workload {} seed {}: {ROUNDS} rounds x {per_round:.2} s, each a fresh process{}",
        args.workload,
        args.seed,
        if args.trace {
            ", then one traced round"
        } else {
            ""
        }
    );
    let rounds: Vec<RoundReport> = (0..ROUNDS)
        .map(|_| run_round(args, per_round, false))
        .collect::<Result<_, _>>()?;
    let traced = if args.trace {
        Some(run_round(args, per_round, true)?)
    } else {
        None
    };

    let all = rounds.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|r| r.ops() as u64).sum();
    let failed: u64 = all.clone().map(|r| r.failed).sum();
    for f in all.flat_map(|r| &r.failures) {
        println!("FAILED {f}");
    }
    let drift = drifting_counts(&rounds);
    for name in &drift {
        println!("FAILED determinism gate: count {name} differs between rounds");
    }
    for (name, v) in &rounds[0].counts {
        println!("count {name} = {v}");
    }

    let reps: usize = rounds.iter().map(RoundReport::ops).sum();
    let distinct = op_repetitions(&rounds).len();
    println!(
        "{distinct} distinct ops in the schedule, {:.1} repetitions each",
        reps as f64 / distinct as f64
    );
    let mut end_to_end = Vec::new();
    for (name, unit, _) in END_TO_END {
        let value = select(name, &rounds);
        println!("{name} = {value} {unit}");
        end_to_end.push((name, value, unit));
    }
    let round_p50s: Vec<f64> = rounds.iter().map(|r| median(&r.samples_ms())).collect();
    println!(
        "per-round median op ms (all repetitions, disturbed ones too): {}",
        fmt_rounds(&round_p50s)
    );
    println!(
        "per-round process start to first timed op, oracle runs included, s: {}",
        fmt_rounds(&rounds.iter().map(|r| r.setup_wall_s).collect::<Vec<_>>())
    );
    println!(
        "per-round peak_rss_mb: {}",
        fmt_rounds(&rounds.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>())
    );
    println!(
        "fail_share = {} ({failed} of {attempted} ops)",
        failed as f64 / attempted as f64
    );

    let metrics: Vec<(&str, f64, &str)> = match &traced {
        None => end_to_end,
        Some(t) => per_layer(&rounds, &round_p50s, select("op_ms_p50", &rounds), t)?,
    };
    // Reconciliation: the stage table must account for the whole compile.
    let unattributed = metrics
        .iter()
        .find(|m| m.0 == "compile.unattributed_share")
        .map_or(0.0, |m| m.1);
    let reconciled = unattributed.abs() <= MAX_UNATTRIBUTED_SHARE;
    if !reconciled {
        println!(
            "FAILED reconciliation: stage spans leave {unattributed:.3} of compile.total_us unattributed \
             (limit {MAX_UNATTRIBUTED_SHARE})"
        );
    }
    let result = Json::obj(vec![
        (
            "correct",
            Json::Bool(failed == 0 && drift.is_empty() && reconciled),
        ),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::obj(vec![
                                ("value", Json::Num(value)),
                                ("unit", Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// Every per-layer metric, from the traced round's report plus the harness's
/// own; layers the workload does not exercise read 0.
fn per_layer(
    rounds: &[RoundReport],
    round_p50s: &[f64],
    untraced_p50: f64,
    traced: &RoundReport,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let pooled: Vec<f64> = rounds.iter().flat_map(RoundReport::samples_ms).collect();
    let traced_p50 = select("op_ms_p50", std::slice::from_ref(traced));
    let mut measured: BTreeMap<&str, f64> = traced
        .metrics
        .iter()
        .map(|(n, v)| (n.as_str(), *v))
        .collect();
    measured.insert("harness.op_ms_p95", percentile(&pooled, 95.0));
    measured.insert("harness.round_spread", round_spread(round_p50s));
    measured.insert(
        "harness.trace_overhead_share",
        (traced_p50 - untraced_p50) / untraced_p50,
    );
    if let Some(unknown) = measured
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "workload reported a per-layer metric the table does not list: {unknown}"
        ));
    }
    println!(
        "harness.op_ms_p95 is over n = {} ops pooled from {} rounds",
        pooled.len(),
        rounds.len()
    );
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured.get(name).copied().unwrap_or(0.0);
            if measured.contains_key(name) {
                println!("{name} = {value} {unit}");
            }
            (name, value, unit)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(samples_ns: &[u64], counts: &[(&str, f64)]) -> RoundReport {
        RoundReport {
            samples_ns: samples_ns.to_vec(),
            counts: counts.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            setup_steps: vec![
                ("compile".into(), 100_000_000),
                ("warmup.0".into(), 400_000_000),
            ],
            peak_rss_mb: 20.0,
            cycle: 1,
            ..RoundReport::default()
        }
    }

    #[test]
    fn timings_scale_each_pieces_median_by_the_quietest_moment() {
        const MS: u64 = 1_000_000;
        // A schedule of two distinct ops (cycle 2) starting at op 1, so the
        // samples are ops 1, 0, 1, 0, 1, 0. Op 0 typically takes 10 ms, op 1
        // 42 ms; the quietest moment of the run is the 30-ms repetition of
        // op 1: ratio 30/42.
        let mut a = report(&[40 * MS, 10 * MS, 30 * MS, 12 * MS, 44 * MS, 9 * MS], &[]);
        let mut b = report(&[48 * MS, 10 * MS], &[]);
        for r in [&mut a, &mut b] {
            r.first_op = 1;
            r.cycle = 2;
        }
        b.setup_steps = vec![
            ("compile".into(), 100_000_000),
            ("warmup.0".into(), 800_000_000),
        ];
        b.peak_rss_mb = 30.0;
        let rounds = vec![a, b];
        assert_eq!(
            op_repetitions(&rounds),
            vec![
                vec![10 * MS, 12 * MS, 9 * MS, 10 * MS],
                vec![40 * MS, 30 * MS, 44 * MS, 48 * MS]
            ]
        );
        let q = 30.0 / 42.0;
        let ops = undisturbed_ns(&op_repetitions(&rounds));
        assert!((ops[0] - 10e6 * q).abs() < 1e-3 && (ops[1] - 30e6).abs() < 1e-3);
        assert!((select("op_ms_p50", &rounds) - (10.0 * q + 30.0) / 2.0).abs() < 1e-9);
        assert!((select("ops_per_s", &rounds) - 2.0 / (0.010 * q + 0.030)).abs() < 1e-6);
        // Set-up steps follow the same rule: medians 0.1 s and 0.6 s, the
        // quietest moment at 400/600.
        assert!((select("setup_s", &rounds) - 0.7 * 400.0 / 600.0).abs() < 1e-12);
        // Memory: the median round.
        assert_eq!(select("peak_rss_mb", &rounds), 25.0);
        // A kernel workload (cycle 1) has one distinct op: its fastest run.
        let kernel = vec![
            report(&[12 * MS, 9 * MS, 15 * MS], &[]),
            report(&[10 * MS], &[]),
        ];
        assert!((select("op_ms_p50", &kernel) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn determinism_gate_names_the_drifting_count() {
        let steady = [
            ("instrs", 1234.0),
            ("sim_seconds", 0.000_592_661_982_630_272_6),
        ];
        let rounds = vec![
            report(&[1], &steady),
            report(&[1], &steady),
            report(&[1], &steady),
        ];
        assert!(drifting_counts(&rounds).is_empty());
        let mut drifted = rounds;
        drifted[2].counts[1].1 = 0.000_592_661_982_630_272_7;
        assert_eq!(drifting_counts(&drifted), vec!["sim_seconds".to_string()]);
        drifted[2].counts.pop();
        assert_eq!(drifting_counts(&drifted), vec!["sim_seconds".to_string()]);
    }

    #[test]
    fn metric_tables_have_unique_valid_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root must list exactly the metrics and
    /// workloads the program knows, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        for (name, unit, better) in END_TO_END {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(
                text.contains(&entry),
                "end_to_end entry missing or different: {entry}"
            );
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                text.contains(&entry),
                "per_layer entry missing or different: {entry}"
            );
        }
        for name in crate::workloads::NAMES {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"why\"")),
                "workload {name} missing"
            );
        }
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert_eq!(
            text.matches("\"why\"").count(),
            crate::workloads::NAMES.len()
        );
    }
}
