//! The autopar decision log: why each loop was (or was not)
//! parallelized.
//!
//! [`crate::plan`] answers *what* the back-end decided; this module keeps
//! the *why*: which classical dependence test fired for each grid/index
//! pair ([`DepRecord`]), which reductions and privatizations discharged
//! the remaining conflicts, the structural classification, and the cost
//! advisor's verdict. The log is a parallel structure to the plan — the
//! [`crate::plan::LoopPlan`] itself is unchanged, so logging is free for
//! callers that do not ask for it.
//!
//! Records capture the tests the planner actually executed: once an index
//! is proven blocked, further pairs against it are skipped (exactly as in
//! planning), so the log mirrors the real decision procedure rather than
//! an exhaustive all-pairs matrix.

use std::collections::BTreeSet;

use glaf_ir::{Function, GlafModule, Program, StepBody};

use crate::classify::LoopClass;
use crate::costmodel::{CostAdvisor, Decision, ScheduleChoice};
use crate::depend::{DepResult, DepTest};
use crate::plan::{analyze_loop, attach_schedule, FunctionPlan, ProgramPlan};

/// One executed dependence test: grid, candidate index, the test that
/// decided, and its verdict.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DepRecord {
    pub grid: String,
    pub index: String,
    pub test: DepTest,
    pub result: DepResult,
}

/// The full decision record for one loop step.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopDecision {
    pub function: String,
    pub step_index: usize,
    /// GPI step caption, when the builder supplied one.
    pub step_label: String,
    pub class: LoopClass,
    pub vectorizable: bool,
    pub parallelizable: bool,
    pub collapse: usize,
    /// `PRIVATE` scalars.
    pub private: Vec<String>,
    /// Reduction clauses, rendered as `op:grid` (e.g. `+:accb`).
    pub reductions: Vec<String>,
    /// Grids protected with `ATOMIC`.
    pub atomic: Vec<String>,
    /// The cost advisor's directive-placement verdict.
    pub advisor: Decision,
    /// The advisor's `SCHEDULE(...)` pick with rationale; `None` when the
    /// loop is not parallelized.
    pub schedule: Option<ScheduleChoice>,
    /// When this loop is the product of the optimization back-end's loop
    /// fusion, the fusion rationale (set by the fusing caller — plain
    /// analysis leaves it `None`).
    pub fusion: Option<String>,
    /// Dependence tests executed while planning, deduplicated and sorted.
    pub deps: Vec<DepRecord>,
    /// Reasons when `parallelizable == false`.
    pub blockers: Vec<String>,
}

/// Decision records for every analyzed loop of a program, in module /
/// function / step order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionLog {
    pub loops: Vec<LoopDecision>,
}

impl DecisionLog {
    /// Records for one function, in step order.
    pub fn for_function(&self, name: &str) -> Vec<&LoopDecision> {
        self.loops.iter().filter(|l| l.function == name).collect()
    }

    /// Human-readable rendering, one block per loop.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.loops {
            out.push_str(&format!(
                "{} step {} \"{}\": class={} vectorizable={} parallel={} collapse={} advisor={}",
                l.function,
                l.step_index,
                l.step_label,
                l.class.name(),
                if l.vectorizable { "yes" } else { "no" },
                if l.parallelizable { "yes" } else { "no" },
                l.collapse,
                l.advisor.name(),
            ));
            if let Some(sc) = &l.schedule {
                out.push_str(&format!(" schedule={}", sc.render()));
            }
            out.push('\n');
            if let Some(sc) = &l.schedule {
                out.push_str(&format!("  schedule rationale: {}\n", sc.why));
            }
            if let Some(fu) = &l.fusion {
                out.push_str(&format!("  fusion: {fu}\n"));
            }
            if !l.private.is_empty() {
                out.push_str(&format!("  private: {}\n", l.private.join(", ")));
            }
            for r in &l.reductions {
                out.push_str(&format!("  reduction: {r}\n"));
            }
            for a in &l.atomic {
                out.push_str(&format!("  atomic: {a}\n"));
            }
            for d in &l.deps {
                out.push_str(&format!(
                    "  dep: `{}` on `{}`: {} -> {}\n",
                    d.grid,
                    d.index,
                    d.test.name(),
                    d.result.name(),
                ));
            }
            for b in &l.blockers {
                out.push_str(&format!("  blocker: {b}\n"));
            }
        }
        out
    }
}

/// Like [`crate::plan::analyze_function`], but also returns the decision
/// records behind each [`crate::plan::LoopPlan`].
pub fn analyze_function_with_log(
    program: &Program,
    _module: &GlafModule,
    func: &Function,
) -> (FunctionPlan, Vec<LoopDecision>) {
    let advisor = CostAdvisor::default();
    let mut loops = Vec::new();
    let mut decisions = Vec::new();
    for (step_index, step) in func.steps.iter().enumerate() {
        if let StepBody::Loop(nest) = &step.body {
            let mut deps: BTreeSet<DepRecord> = BTreeSet::new();
            let mut plan = analyze_loop(program, step_index, nest, Some(&mut deps));
            attach_schedule(func, nest, &mut plan);
            decisions.push(LoopDecision {
                function: func.name.clone(),
                step_index,
                step_label: step.label.clone().unwrap_or_default(),
                class: plan.class,
                vectorizable: plan.vectorizable,
                parallelizable: plan.parallelizable,
                collapse: plan.collapse,
                private: plan.private.clone(),
                reductions: plan
                    .reductions
                    .iter()
                    .map(|r| format!("{}:{}", r.op.omp_name(), r.grid))
                    .collect(),
                atomic: plan.atomic.clone(),
                advisor: advisor.decide(nest, &plan),
                schedule: plan.schedule.clone(),
                fusion: None,
                deps: deps.into_iter().collect(),
                blockers: plan.blockers.clone(),
            });
            loops.push(plan);
        }
    }
    (FunctionPlan { function: func.name.clone(), loops }, decisions)
}

/// Like [`crate::plan::analyze_program`], but also returns the
/// [`DecisionLog`]. The returned plan is identical to the plain one.
pub fn analyze_program_with_log(program: &Program) -> (ProgramPlan, DecisionLog) {
    let mut plan = ProgramPlan::default();
    let mut log = DecisionLog::default();
    for module in &program.modules {
        for func in &module.functions {
            let (fp, decisions) = analyze_function_with_log(program, module, func);
            plan.functions.insert(func.name.clone(), fp);
            log.loops.extend(decisions);
        }
    }
    (plan, log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::analyze_program;
    use glaf_grid::{DataType, Grid};
    use glaf_ir::{Expr, LValue, ProgramBuilder};

    fn recurrence_program() -> Program {
        let n = Grid::build("n").typed(DataType::Integer).finish().unwrap();
        let a = Grid::build("a").typed(DataType::Real8).dim1(100).finish().unwrap();
        ProgramBuilder::new()
            .module("m")
            .subroutine("scan")
            .param(n)
            .param(a)
            .loop_step("prefix")
            .foreach("i", Expr::int(2), Expr::scalar("n"))
            .formula(
                LValue::at("a", vec![Expr::idx("i")]),
                Expr::at("a", vec![Expr::idx("i") - Expr::int(1)])
                    + Expr::at("a", vec![Expr::idx("i")]),
            )
            .done()
            .done()
            .done()
            .finish()
    }

    #[test]
    fn logged_plan_matches_plain_plan() {
        let p = recurrence_program();
        let (plan, log) = analyze_program_with_log(&p);
        assert_eq!(plan, analyze_program(&p));
        assert_eq!(log.loops.len(), 1);
    }

    #[test]
    fn recurrence_log_names_the_siv_test() {
        let p = recurrence_program();
        let (_, log) = analyze_program_with_log(&p);
        let d = &log.loops[0];
        assert_eq!(d.function, "scan");
        assert_eq!(d.step_label, "prefix");
        assert!(!d.parallelizable);
        assert!(d.deps.iter().any(|r| r.grid == "a"
            && r.index == "i"
            && r.test == DepTest::StrongSiv
            && r.result == DepResult::LoopCarried));
        let text = log.render();
        assert!(text.contains("strong-siv -> loop-carried"), "render:\n{text}");
        assert!(text.contains("parallel=no"), "render:\n{text}");
    }
}
