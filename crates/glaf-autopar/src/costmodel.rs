//! The performance-prediction back-end.
//!
//! §4.1.2 of the paper: "As future work, we suggest the incorporation of a
//! performance prediction/modeling back-end that will guide the automatic
//! code generation in a more intelligent way (e.g., selecting SIMD
//! directives, instead of OpenMP, or neither)." This module implements
//! that back-end. Given a loop's structure and plan, it estimates
//!
//! * serial execution time, letting the (modeled) compiler vectorize or
//!   memset-optimize eligible loops, and
//! * threaded execution time, paying a fork/join cost per parallel region
//!   and any reduction-combine cost,
//!
//! then chooses whichever is cheaper. The estimates intentionally use the
//! same first-order structure as the `simcpu` machine model, so the
//! advisor's decisions line up with the simulated measurements
//! (`tests/figures_shape.rs`: `fig5_cost_model_matches_or_beats_v3`).

use glaf_ir::{Callee, Expr, Function, LoopNest, StepBody, Stmt};

use crate::classify::LoopClass;
use crate::plan::LoopPlan;

/// Tunable machine parameters for the advisor. Defaults mirror the
/// `simcpu` "i5-2400-like" preset.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Threads available to a parallel region.
    pub threads: usize,
    /// Cycles to fork + join a parallel region (OpenMP runtime overhead).
    pub fork_join_cycles: f64,
    /// Extra cycles per thread joining a reduction combine.
    pub reduction_cycles_per_thread: f64,
    /// Effective SIMD speedup for a vectorizable loop body.
    pub simd_speedup: f64,
    /// Effective speedup for a zero-initialization loop replaced by
    /// memset.
    pub memset_speedup: f64,
    /// Cycles per expression node (crude per-operation cost).
    pub cycles_per_node: f64,
    /// Assumed trip count when a bound is not a literal.
    pub default_trip: u64,
    /// Cycles of per-loop entry/exit overhead (counter setup, bounds
    /// load, end-of-loop bookkeeping) — what fusing adjacent loops saves
    /// once per eliminated loop, on top of the reuse benefit.
    pub loop_entry_cycles: f64,
    /// Minimum (estimated) trip count at which an irregular loop is
    /// scheduled `GUIDED` instead of `DYNAMIC`: with many iterations the
    /// geometrically decaying chunks amortize dispatch overhead while
    /// still balancing the tail.
    pub guided_trip_threshold: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            threads: 4,
            fork_join_cycles: 1_650.0,
            reduction_cycles_per_thread: 150.0,
            simd_speedup: 4.0,
            memset_speedup: 16.0,
            cycles_per_node: 3.0,
            default_trip: 64,
            loop_entry_cycles: 12.0,
            guided_trip_threshold: 512,
        }
    }
}

/// Which OpenMP loop schedule the advisor recommends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    Static,
    Dynamic,
    Guided,
}

impl SchedKind {
    /// Stable lower-case name for decision logs and `SCHEDULE(...)`
    /// clauses.
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Static => "static",
            SchedKind::Dynamic => "dynamic",
            SchedKind::Guided => "guided",
        }
    }
}

/// The advisor's schedule pick for one parallelized loop, with the
/// rationale behind it (recorded in the decision log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleChoice {
    pub kind: SchedKind,
    /// Explicit chunk size for the `SCHEDULE` clause; `None` leaves the
    /// runtime default (block partition for static, 1 for dynamic/guided).
    pub chunk: Option<usize>,
    /// Why this schedule was chosen.
    pub why: String,
}

impl ScheduleChoice {
    /// Clause text without the keyword: `static`, `dynamic`, `guided,4`.
    pub fn render(&self) -> String {
        match self.chunk {
            Some(c) => format!("{},{}", self.kind.name(), c),
            None => self.kind.name().to_string(),
        }
    }
}

/// What the advisor recommends for one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Emit `!$OMP PARALLEL DO`.
    Threads,
    /// Leave serial; the compiler's SIMD/memset/unroll wins.
    Simd,
    /// Leave serial; too small for either to matter.
    Serial,
}

impl Decision {
    /// Stable lower-case name for decision logs.
    pub fn name(self) -> &'static str {
        match self {
            Decision::Threads => "threads",
            Decision::Simd => "simd",
            Decision::Serial => "serial",
        }
    }
}

/// The advisor.
#[derive(Debug, Clone, Default)]
pub struct CostAdvisor {
    pub params: CostParams,
}

impl CostAdvisor {
    pub fn new(params: CostParams) -> Self {
        CostAdvisor { params }
    }

    /// Estimated trip count of the full nest (product of per-range trips).
    pub fn trip_count(&self, nest: &LoopNest) -> u64 {
        nest.ranges
            .iter()
            .map(|r| match (&r.start, &r.end) {
                (Expr::IntLit(a), Expr::IntLit(b)) if b >= a => (b - a + 1) as u64,
                _ => self.default_trip(),
            })
            .product::<u64>()
            .max(1)
    }

    fn default_trip(&self) -> u64 {
        self.params.default_trip
    }

    /// Crude per-iteration cost: expression nodes across the body times
    /// `cycles_per_node`.
    pub fn body_cycles(&self, nest: &LoopNest) -> f64 {
        let mut nodes = 0usize;
        for s in &nest.body {
            s.walk_exprs(&mut |_| nodes += 1);
            s.walk(&mut |_| nodes += 1);
        }
        if let Some(c) = &nest.condition {
            nodes += c.node_count();
        }
        (nodes.max(1)) as f64 * self.params.cycles_per_node
    }

    /// Serial time with compiler optimizations applied.
    pub fn serial_cycles(&self, nest: &LoopNest, plan: &LoopPlan) -> f64 {
        let trip = self.trip_count(nest) as f64;
        let body = self.body_cycles(nest);
        let factor = match plan.class {
            LoopClass::ZeroInit => self.params.memset_speedup,
            _ if plan.vectorizable => self.params.simd_speedup,
            _ => 1.0,
        };
        trip * body / factor
    }

    /// Threaded time: fork/join + ideally-divided body (no SIMD inside
    /// OpenMP regions in the paper's observations) + reduction combine.
    pub fn parallel_cycles(&self, nest: &LoopNest, plan: &LoopPlan) -> f64 {
        let trip = self.trip_count(nest) as f64;
        let body = self.body_cycles(nest);
        let t = self.params.threads.max(1) as f64;
        // With COLLAPSE the full nest trip divides across threads; without,
        // only the outer range does — collapse ≥ 1 always here.
        let chunk = (trip / t).ceil();
        self.params.fork_join_cycles
            + chunk * body
            + plan.reductions.len() as f64 * self.params.reduction_cycles_per_thread * t
    }

    /// Picks the OpenMP schedule for a parallelized loop, or `None` when
    /// the plan says the loop stays serial.
    ///
    /// The static prediction mirrors the imbalance sources the runtime
    /// can observe: per-iteration work is uniform for straight-line affine
    /// bodies (static block partition is optimal — no dispatch overhead),
    /// while conditional control flow, non-affine subscripts, or
    /// subscripts through indirectly-loaded scalars (connectivity lookups
    /// like FUN3D's `c2n`/`ioff_search` chain) make per-iteration cost
    /// data-dependent, where dynamic self-scheduling wins. Irregular
    /// loops with large trip counts get `GUIDED` so chunk dispatch
    /// amortizes. Measured profiles can later override this via
    /// `Session::set_schedule_overrides` (feedback-directed rescheduling).
    pub fn choose_schedule(
        &self,
        func: &Function,
        nest: &LoopNest,
        plan: &LoopPlan,
    ) -> Option<ScheduleChoice> {
        if !plan.parallelizable {
            return None;
        }
        if let Some(why) = irregularity(func, nest) {
            let trip = self.trip_count(nest);
            if trip >= self.params.guided_trip_threshold {
                return Some(ScheduleChoice {
                    kind: SchedKind::Guided,
                    chunk: None,
                    why: format!(
                        "{why}; est. trip {trip} >= {} amortizes guided dispatch",
                        self.params.guided_trip_threshold
                    ),
                });
            }
            return Some(ScheduleChoice { kind: SchedKind::Dynamic, chunk: None, why });
        }
        Some(ScheduleChoice {
            kind: SchedKind::Static,
            chunk: None,
            why: "uniform affine iterations; static block partition has no dispatch overhead"
                .into(),
        })
    }

    /// Predicted saving (in cycles) from fusing a run of conformable
    /// loops, with the rationale. Two first-order effects: each
    /// eliminated loop saves its entry/exit overhead, and every grid
    /// touched by more than one member of the run stays hot across the
    /// fused body instead of being re-streamed per loop (one avoided
    /// reload per iteration per shared grid).
    pub fn fuse_gain(&self, nests: &[LoopNest]) -> (f64, String) {
        let k = nests.len();
        if k < 2 {
            return (0.0, "a single loop has nothing to fuse".into());
        }
        let trip = self.trip_count(&nests[0]) as f64;
        let entry_saved = (k - 1) as f64 * self.params.loop_entry_cycles;
        let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
        for nest in nests {
            let grids: std::collections::BTreeSet<String> =
                crate::access::collect_accesses(nest).into_iter().map(|a| a.grid).collect();
            for g in grids {
                *counts.entry(g).or_insert(0) += 1;
            }
        }
        let shared = counts.values().filter(|&&c| c >= 2).count();
        let reuse_saved = shared as f64 * trip * self.params.cycles_per_node;
        let gain = entry_saved + reuse_saved;
        let why = format!(
            "fusing {k} loops saves {entry_saved:.0} cycles of loop entry overhead and \
             keeps {shared} shared grid(s) hot across {trip:.0} iterations \
             (predicted gain {gain:.0} cycles)",
        );
        (gain, why)
    }

    /// The recommendation for this loop.
    pub fn decide(&self, nest: &LoopNest, plan: &LoopPlan) -> Decision {
        if !plan.parallelizable {
            return if plan.vectorizable { Decision::Simd } else { Decision::Serial };
        }
        let ser = self.serial_cycles(nest, plan);
        let par = self.parallel_cycles(nest, plan);
        if par < ser {
            Decision::Threads
        } else if plan.vectorizable || plan.class == LoopClass::ZeroInit {
            Decision::Simd
        } else {
            Decision::Serial
        }
    }
}

/// Why (if at all) the loop's per-iteration work is non-uniform. Returns
/// a human-readable reason for the first irregularity source found, in a
/// fixed priority order so the rationale is deterministic.
fn irregularity(func: &Function, nest: &LoopNest) -> Option<String> {
    if nest.condition.is_some() {
        return Some("loop-level condition skips iterations unevenly".into());
    }
    for s in &nest.body {
        let mut has_if = false;
        s.walk(&mut |s| {
            if matches!(s, Stmt::If { .. }) {
                has_if = true;
            }
        });
        if has_if {
            return Some("conditional control flow makes iteration cost data-dependent".into());
        }
    }
    // Non-affine subscripts: the dependence tester already gave up on
    // them, and they usually mean indirection (gather/scatter) with
    // data-dependent locality.
    for a in crate::access::collect_accesses(nest) {
        if a.subscripts.iter().any(|s| matches!(s, crate::affine::SubscriptForm::NonAffine)) {
            return Some(format!("non-affine subscript on grid `{}`", a.grid));
        }
    }
    // Subscripts through indirectly-loaded scalars: `n1 = c2n(...)` then
    // `qn(m, n1)` — the classic unstructured-mesh gather. The load value
    // (and so the touched cache lines) varies per call, which skews
    // per-iteration cost.
    let indirect = indirect_scalars(func);
    if !indirect.is_empty() {
        let mut found: Option<String> = None;
        let mut check_sub = |e: &Expr| {
            if found.is_none() {
                if let Some(name) = mentions_scalar(e, &indirect) {
                    found = Some(name);
                }
            }
        };
        for s in &nest.body {
            s.walk(&mut |s| {
                if let Stmt::Assign { target, .. } = s {
                    for ix in &target.indices {
                        check_sub(ix);
                    }
                }
            });
            s.walk_exprs(&mut |e| {
                if let Expr::GridRef { indices: ix, .. } = e {
                    for sub in ix {
                        check_sub(sub);
                    }
                }
            });
        }
        if let Some(name) = found {
            return Some(format!("subscript depends on indirectly-loaded scalar `{name}`"));
        }
    }
    None
}

/// Scalars of `func` assigned (anywhere in the function) from an indexed
/// grid read or a user-function call — values the compiler cannot predict
/// per iteration.
fn indirect_scalars(func: &Function) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for step in &func.steps {
        let stmts: Vec<&Stmt> = match &step.body {
            StepBody::Straight(v) => v.iter().collect(),
            StepBody::Loop(nest) => nest.body.iter().collect(),
        };
        for s in stmts {
            s.walk(&mut |s| {
                if let Stmt::Assign { target, value } = s {
                    if target.indices.is_empty() && loads_indirectly(value) {
                        out.insert(target.grid.clone());
                    }
                }
            });
        }
    }
    out
}

/// True when evaluating `e` reads an indexed grid element or calls a user
/// function.
fn loads_indirectly(e: &Expr) -> bool {
    match e {
        Expr::GridRef { indices, .. } => !indices.is_empty(),
        Expr::WholeGrid(_) => true,
        Expr::Unary { operand, .. } => loads_indirectly(operand),
        Expr::Binary { lhs, rhs, .. } => loads_indirectly(lhs) || loads_indirectly(rhs),
        Expr::Call { callee, args } => {
            matches!(callee, Callee::User(_)) || args.iter().any(loads_indirectly)
        }
        _ => false,
    }
}

/// The first scalar from `names` read (as a scalar) inside `e`, if any.
fn mentions_scalar(e: &Expr, names: &std::collections::BTreeSet<String>) -> Option<String> {
    match e {
        Expr::GridRef { grid, indices, .. } => {
            if indices.is_empty() && names.contains(grid) {
                return Some(grid.clone());
            }
            indices.iter().find_map(|s| mentions_scalar(s, names))
        }
        Expr::Unary { operand, .. } => mentions_scalar(operand, names),
        Expr::Binary { lhs, rhs, .. } => {
            mentions_scalar(lhs, names).or_else(|| mentions_scalar(rhs, names))
        }
        Expr::Call { args, .. } => args.iter().find_map(|a| mentions_scalar(a, names)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::analyze_program;
    use glaf_grid::{DataType, Grid};
    use glaf_ir::{IndexRange, LValue, ProgramBuilder, StepBody};

    fn make(nest_end: i64, heavy: bool) -> (LoopNest, LoopPlan) {
        let a = Grid::build("a").typed(DataType::Real8).dim1(1_000_000).finish().unwrap();
        let b = Grid::build("b").typed(DataType::Real8).dim1(1_000_000).finish().unwrap();
        let mut fb = ProgramBuilder::new()
            .module("m")
            .subroutine("f")
            .param(a)
            .param(b)
            .loop_step("l")
            .foreach("i", Expr::int(1), Expr::int(nest_end));
        let mut rhs = Expr::at("b", vec![Expr::idx("i")]);
        if heavy {
            // A big body *with control flow*: the modeled compiler cannot
            // vectorize it, so threading is the only speedup available —
            // the exact situation where the paper's two longwave loops
            // keep their OMP directives.
            for _ in 0..40 {
                rhs = Expr::lib(glaf_ir::LibFunc::Exp, vec![rhs]) * Expr::real(1.0001)
                    + Expr::real(0.5);
            }
            fb = fb.stmt(glaf_ir::Stmt::If {
                cond: Expr::at("b", vec![Expr::idx("i")]).cmp(glaf_ir::BinOp::Gt, Expr::real(0.0)),
                then_body: vec![glaf_ir::Stmt::assign(
                    LValue::at("a", vec![Expr::idx("i")]),
                    rhs,
                )],
                else_body: vec![glaf_ir::Stmt::assign(
                    LValue::at("a", vec![Expr::idx("i")]),
                    Expr::real(0.0),
                )],
            });
        } else {
            fb = fb.formula(LValue::at("a", vec![Expr::idx("i")]), rhs);
        }
        let p = fb.done().done().done().finish();
        let plan = analyze_program(&p);
        let lp = plan.for_function("f").unwrap().loops[0].clone();
        let (_, f) = p.find_function("f").unwrap();
        let nest = match &f.steps[0].body {
            StepBody::Loop(n) => n.clone(),
            _ => unreachable!(),
        };
        (nest, lp)
    }

    #[test]
    fn tiny_loop_stays_serial_or_simd() {
        let (nest, plan) = make(8, false);
        let adv = CostAdvisor::default();
        assert_ne!(adv.decide(&nest, &plan), Decision::Threads);
    }

    #[test]
    fn huge_heavy_loop_gets_threads() {
        let (nest, plan) = make(1_000_000, true);
        let adv = CostAdvisor::default();
        assert_eq!(adv.decide(&nest, &plan), Decision::Threads);
    }

    #[test]
    fn vectorizable_medium_loop_prefers_simd() {
        // Medium trip count, trivially light body: SIMD serial beats
        // threads because fork/join dominates.
        let (nest, plan) = make(4_000, false);
        let adv = CostAdvisor::default();
        assert_eq!(adv.decide(&nest, &plan), Decision::Simd);
    }

    #[test]
    fn non_parallelizable_never_threads() {
        let (nest, mut plan) = make(1_000_000, true);
        plan.parallelizable = false;
        plan.vectorizable = false;
        let adv = CostAdvisor::default();
        assert_eq!(adv.decide(&nest, &plan), Decision::Serial);
    }

    #[test]
    fn uniform_loop_schedules_static() {
        let (_, plan) = make(4_000, false);
        let sc = plan.schedule.expect("parallelizable loop gets a schedule");
        assert_eq!(sc.kind, SchedKind::Static);
        assert_eq!(sc.render(), "static");
    }

    #[test]
    fn large_conditional_loop_schedules_guided() {
        let (_, plan) = make(1_000_000, true);
        let sc = plan.schedule.expect("parallelizable loop gets a schedule");
        assert_eq!(sc.kind, SchedKind::Guided, "why: {}", sc.why);
        assert!(sc.why.contains("conditional control flow"), "why: {}", sc.why);
    }

    #[test]
    fn small_conditional_loop_schedules_dynamic() {
        let (_, plan) = make(100, true);
        let sc = plan.schedule.expect("parallelizable loop gets a schedule");
        assert_eq!(sc.kind, SchedKind::Dynamic, "why: {}", sc.why);
    }

    #[test]
    fn non_parallelizable_loop_has_no_schedule() {
        let n = Grid::build("n").typed(DataType::Integer).finish().unwrap();
        let a = Grid::build("a").typed(DataType::Real8).dim1(100).finish().unwrap();
        let p = ProgramBuilder::new()
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
            .finish();
        let plan = analyze_program(&p);
        assert_eq!(plan.for_function("scan").unwrap().loops[0].schedule, None);
    }

    #[test]
    fn indirect_scalar_subscript_schedules_dynamic() {
        // k is loaded through an indexed read before the loop, then used
        // inside a subscript — the FUN3D `n1 = c2n(...)`/`qn(m, n1)`
        // pattern in miniature.
        let map = Grid::build("map").typed(DataType::Integer).dim1(100).finish().unwrap();
        let a = Grid::build("a").typed(DataType::Real8).dim1(200).finish().unwrap();
        let b = Grid::build("b").typed(DataType::Real8).dim1(200).finish().unwrap();
        let k = Grid::build("k").typed(DataType::Integer).finish().unwrap();
        let p = ProgramBuilder::new()
            .module("m")
            .subroutine("gather")
            .param(map)
            .param(a)
            .param(b)
            .local(k)
            .straight_step(
                "load offset",
                vec![glaf_ir::Stmt::assign(
                    LValue::scalar("k"),
                    Expr::at("map", vec![Expr::int(3)]),
                )],
            )
            .loop_step("shifted copy")
            .foreach("i", Expr::int(1), Expr::int(100))
            .formula(
                LValue::at("a", vec![Expr::idx("i")]),
                Expr::at("b", vec![Expr::scalar("k") + Expr::idx("i")]),
            )
            .done()
            .done()
            .done()
            .finish();
        let plan = analyze_program(&p);
        let sc = plan.for_function("gather").unwrap().loops[0]
            .schedule
            .clone()
            .expect("parallelizable loop gets a schedule");
        assert_eq!(sc.kind, SchedKind::Dynamic, "why: {}", sc.why);
        assert!(sc.why.contains("indirectly-loaded scalar `k`"), "why: {}", sc.why);
    }

    #[test]
    fn simd_speedup_prices_the_vectorizable_serial_path() {
        // A wide vectorizable map: parallelizable, so `decide` compares
        // serial (compiler-vectorized) vs threaded cost. With weak SIMD
        // threading wins; SIMD strong enough flips the verdict back to
        // the serial path.
        let a = Grid::build("a").typed(DataType::Real8).dim1(4096).finish().unwrap();
        let b = Grid::build("b").typed(DataType::Real8).dim1(4096).finish().unwrap();
        let p = ProgramBuilder::new()
            .module("m")
            .subroutine("saxpyish")
            .param(a)
            .param(b)
            .loop_step("map")
            .foreach("i", Expr::int(1), Expr::int(4096))
            .formula(
                LValue::at("a", vec![Expr::idx("i")]),
                Expr::at("a", vec![Expr::idx("i")]) + Expr::at("b", vec![Expr::idx("i")]),
            )
            .done()
            .done()
            .done()
            .finish();
        let plan = analyze_program(&p);
        let lplan = plan.for_function("saxpyish").unwrap().loops[0].clone();
        assert!(lplan.vectorizable && lplan.parallelizable);
        let (_, f) = p.find_function("saxpyish").unwrap();
        let nest = match &f.steps[0].body {
            StepBody::Loop(n) => n.clone(),
            _ => unreachable!(),
        };

        let weak = CostParams { simd_speedup: 1.7, ..Default::default() };
        assert_eq!(CostAdvisor::new(weak).decide(&nest, &lplan), Decision::Threads);
        let strong = CostParams { simd_speedup: 12.0, ..Default::default() };
        assert_eq!(CostAdvisor::new(strong).decide(&nest, &lplan), Decision::Simd);
    }

    #[test]
    fn trip_count_products_and_defaults() {
        let adv = CostAdvisor::default();
        let nest = LoopNest {
            ranges: vec![
                IndexRange::new("i", Expr::int(1), Expr::int(2)),
                IndexRange::new("j", Expr::int(1), Expr::int(60)),
            ],
            condition: None,
            body: vec![],
        };
        assert_eq!(adv.trip_count(&nest), 120);
        let sym = LoopNest {
            ranges: vec![IndexRange::new("i", Expr::int(1), Expr::scalar("n"))],
            condition: None,
            body: vec![],
        };
        assert_eq!(adv.trip_count(&sym), adv.params.default_trip);
    }
}
