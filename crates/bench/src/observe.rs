//! Execution observability: the predicted-vs-measured report.
//!
//! Joins three views of one kernel run:
//!
//! 1. **measured** — a profiled execution ([`fortrans::Session::run_profiled`])
//!    giving per-unit / per-DO-loop wall time, VM step counts against the
//!    [`fortrans::RunLimits`] budget, tier-fallback diagnostics, and
//!    per-region `omprt` worker utilization;
//! 2. **predicted** — a Simulated-mode run of the same entry point, whose
//!    cost trace [`simcpu::region_costs`] converts to predicted cycles per
//!    parallel region (joined to measured `omp@line` spans by source line);
//! 3. **decided** — the autopar [`glaf_autopar::DecisionLog`] explaining
//!    why each loop was (or was not) parallelized.
//!
//! The join flags loops whose predicted ranking disagrees with the
//! measured ranking — exactly the loops where the cost model would
//! misorder hot spots.

use std::collections::BTreeMap;

use fortrans::{ArgVal, ExecMode, ExecTier, Profile, Session, SpanKind, SpanNode};
use simcpu::MachineModel;

use crate::{ordering_agreement, Bar};

/// One parallel loop in the predicted-vs-measured join.
#[derive(Debug, Clone)]
pub struct LoopObs {
    /// Innermost enclosing unit of the `omp@line` span.
    pub unit: String,
    /// Source line of the parallel DO (the join key).
    pub line: u32,
    /// Times the region was entered in the measured run.
    pub entries: u64,
    /// Measured wall time of the region span, in nanoseconds.
    pub measured_ns: u64,
    /// Predicted cycles summed over the region's simulated forks
    /// (None when the simulated run never forked this line).
    pub predicted_cycles: Option<f64>,
    /// Fork events joined from the simulated trace.
    pub forks: u64,
}

/// The full observability report for one profiled run.
#[derive(Debug, Clone)]
pub struct ObservabilityReport {
    /// The measured profile (serialize with [`Profile::to_json`]).
    pub profile: Profile,
    /// Rendered autopar decision log.
    pub decisions: String,
    /// Predicted-vs-measured join over parallel loops.
    pub loops: Vec<LoopObs>,
    /// Pairwise ordering agreement between predicted and measured time
    /// over the joined loops (1.0 = the cost model ranks hot spots
    /// exactly like the measurement).
    pub agreement: f64,
}

impl ObservabilityReport {
    /// Loops whose predicted rank disagrees with their measured rank —
    /// the places where the cost model misorders hot spots.
    pub fn misordered(&self) -> Vec<&LoopObs> {
        let joined: Vec<&LoopObs> =
            self.loops.iter().filter(|l| l.predicted_cycles.is_some()).collect();
        let rank = |key: &dyn Fn(&LoopObs) -> f64| -> Vec<usize> {
            let mut idx: Vec<usize> = (0..joined.len()).collect();
            idx.sort_by(|&a, &b| {
                key(joined[b]).partial_cmp(&key(joined[a])).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut rank = vec![0usize; joined.len()];
            for (r, &i) in idx.iter().enumerate() {
                rank[i] = r;
            }
            rank
        };
        let measured = rank(&|l: &LoopObs| l.measured_ns as f64);
        let predicted = rank(&|l: &LoopObs| l.predicted_cycles.unwrap_or(0.0));
        joined
            .into_iter()
            .enumerate()
            .filter(|(i, _)| measured[*i] != predicted[*i])
            .map(|(_, l)| l)
            .collect()
    }

    /// Human-readable report: profile summary, measured span tree, omprt
    /// utilization, autopar decisions, predicted-vs-measured table.
    pub fn render(&self) -> String {
        let p = &self.profile;
        let mut out = String::new();
        out.push_str("== profile ==\n");
        out.push_str(&format!(
            "entry {} tier {} mode {} wall {:.3} ms steps {}{}\n",
            p.entry,
            p.tier,
            p.mode,
            p.wall_ns as f64 / 1e6,
            p.steps,
            match p.max_steps {
                Some(m) => format!(" (budget {m}, headroom {})", p.steps_headroom().unwrap_or(0)),
                None => String::new(),
            },
        ));
        match &p.fallback {
            Some(fb) => out.push_str(&format!(
                "tier fallback: unit {} trapped ({}); engine total {}\n",
                fb.unit, fb.what, p.fallback_count
            )),
            None => out.push_str(&format!(
                "tier fallbacks this engine: {}\n",
                p.fallback_count
            )),
        }

        out.push_str("\n== measured spans ==\n");
        fn walk(n: &SpanNode, depth: usize, out: &mut String) {
            out.push_str(&format!(
                "{}{}  entries {}  wall {:.3} ms\n",
                "  ".repeat(depth),
                n.label(),
                n.entries,
                n.wall_ns as f64 / 1e6,
            ));
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        for s in &p.spans {
            walk(s, 0, &mut out);
        }

        out.push_str("\n== omprt utilization ==\n");
        if p.regions.is_empty() {
            out.push_str("(no parallel regions recorded)\n");
        }
        for (i, r) in p.regions.iter().enumerate() {
            out.push_str(&format!(
                "region {i}: threads {} wall {:.3} ms utilization {:.2} start {:.1} us imbalance {:.2} idle {:.3} ms\n",
                r.threads,
                r.wall_ns as f64 / 1e6,
                r.utilization(),
                r.median_start_ns() as f64 / 1e3,
                r.imbalance(),
                r.idle_ns() as f64 / 1e6,
            ));
        }

        out.push_str("\n== autopar decisions ==\n");
        out.push_str(&self.decisions);

        out.push_str("\n== predicted vs measured ==\n");
        for l in &self.loops {
            out.push_str(&format!(
                "{}::omp@{}  entries {}  measured {:.3} ms  predicted {}\n",
                l.unit,
                l.line,
                l.entries,
                l.measured_ns as f64 / 1e6,
                match l.predicted_cycles {
                    Some(c) => format!("{c:.0} cycles over {} forks", l.forks),
                    None => "-".to_string(),
                },
            ));
        }
        out.push_str(&format!("ordering agreement: {:.2}\n", self.agreement));
        let miss = self.misordered();
        if miss.is_empty() {
            out.push_str("cost model ranks hot spots consistently with measurement\n");
        } else {
            for l in miss {
                out.push_str(&format!(
                    "MISORDERED: {}::omp@{} (cost model ranks this loop differently)\n",
                    l.unit, l.line
                ));
            }
        }
        out
    }
}

/// Collects `omp@line` spans with their innermost enclosing unit.
fn omp_spans(spans: &[SpanNode]) -> Vec<(String, u32, u64, u64)> {
    fn walk(n: &SpanNode, unit: &str, out: &mut Vec<(String, u32, u64, u64)>) {
        let unit = if n.kind == SpanKind::Unit { n.name.as_str() } else { unit };
        if n.kind == SpanKind::OmpLoop {
            out.push((unit.to_string(), n.line, n.entries, n.wall_ns));
        }
        for c in &n.children {
            walk(c, unit, out);
        }
    }
    let mut out = Vec::new();
    for s in spans {
        walk(s, "", &mut out);
    }
    out
}

/// Profiles `entry` on `session` (measured side), re-runs it in Simulated
/// mode (predicted side), and joins the two by parallel-DO source line.
///
/// `decisions` is the rendered autopar decision log for the program the
/// session's artifact was generated from (pass an empty string when unavailable).
pub fn observe(
    session: &Session,
    entry: &str,
    args: &[ArgVal],
    threads: usize,
    machine: &MachineModel,
    decisions: String,
) -> Result<ObservabilityReport, fortrans::RunError> {
    let (_, profile) =
        session.run_profiled(entry, args, ExecMode::Parallel { threads }, ExecTier::Vm)?;
    let sim = session.run(entry, args, ExecMode::Simulated { threads })?;
    let costs = simcpu::region_costs(&sim.trace, machine);

    // Predicted side, aggregated per source line.
    let mut by_line: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
    for c in &costs {
        let e = by_line.entry(c.line).or_insert((0.0, 0));
        e.0 += c.cycles;
        e.1 += 1;
    }

    let loops: Vec<LoopObs> = omp_spans(&profile.spans)
        .into_iter()
        .map(|(unit, line, entries, measured_ns)| {
            let joined = by_line.get(&line);
            LoopObs {
                unit,
                line,
                entries,
                measured_ns,
                predicted_cycles: joined.map(|(c, _)| *c),
                forks: joined.map(|(_, f)| *f).unwrap_or(0),
            }
        })
        .collect();

    let bars: Vec<Bar> = loops
        .iter()
        .filter(|l| l.predicted_cycles.is_some())
        .map(|l| Bar {
            label: format!("{}::omp@{}", l.unit, l.line),
            paper: l.predicted_cycles,
            measured: l.measured_ns as f64,
        })
        .collect();
    let agreement = ordering_agreement(&bars);

    Ok(ObservabilityReport { profile, decisions, loops, agreement })
}

/// Feedback-directed rescheduling: turns a measured [`Profile`] into
/// per-line schedule overrides for the next run.
///
/// Every parallel region that ran a *static* schedule and whose
/// worst-case load imbalance (max-over-mean worker busy time, aggregated
/// over all entries of the region's source line) exceeds
/// `imbalance_threshold` is proposed for `SCHEDULE(DYNAMIC,1)` — the
/// measured counterpart of the cost model's static irregularity
/// analysis. Regions already running a dynamic or guided schedule, and
/// untagged forks (line 0), are left alone. Feed the result to
/// [`Session::set_schedule_overrides`].
pub fn reschedule(
    profile: &Profile,
    imbalance_threshold: f64,
) -> Vec<(u32, fortrans::Schedule)> {
    // Worst imbalance per source line, static-scheduled regions only.
    let mut worst: BTreeMap<u32, f64> = BTreeMap::new();
    for r in &profile.regions {
        if r.line == 0 || !r.sched.starts_with("static") {
            continue;
        }
        let e = worst.entry(r.line as u32).or_insert(0.0);
        *e = e.max(r.imbalance());
    }
    worst
        .into_iter()
        .filter(|&(_, imb)| imb > imbalance_threshold)
        .map(|(line, _)| (line, fortrans::Schedule::Dynamic(1)))
        .collect()
}

/// The SARB observability report: profiles the GLAF v3 parallel build of
/// the Synoptic SARB kernels over `ncol` columns.
pub fn observe_sarb(
    ncol: i64,
    threads: usize,
) -> Result<ObservabilityReport, fortrans::RunError> {
    let session =
        Session::solo(sarb::variants::build_artifact(sarb::variants::SarbVariant::GlafParallel(3)));
    let g = glaf::Glaf::new(sarb::glaf_model::build_sarb_program())
        .expect("SARB program validates");
    observe(
        &session,
        "run_columns",
        &[ArgVal::I(ncol)],
        threads,
        &MachineModel::i5_2400_like(),
        g.decision_log().render(),
    )
}
