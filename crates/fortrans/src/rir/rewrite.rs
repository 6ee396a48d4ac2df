//! Program-to-program rules of the optimized build. Each rule maps an
//! [`RProgram`] to one that runs the same — outputs, faults and their
//! unit and line — with its legality predicate beside it, and returns
//! the program borrowed when it changes nothing. The optimized bytecode
//! build lowers [`optimized`], which runs them in order, and applies no
//! program rule of its own; the traced build lowers the resolved program
//! as it is, so a Simulated run's `CostTrace` never sees a rule. The
//! tree-walker runs either program, which is the rules' oracle:
//! `tests/inline_leaves.rs` for [`scope_temporaries`],
//! [`inline_leaves`], [`contract_temporaries`] and [`optimized`] as a
//! whole, and `tests/fused_spans.rs` for each span's `fast` of
//! [`fuse_spans`]. DESIGN §6 states each rule. The rules read and
//! rename a node's contents through the walks of [`crate::rir`], which
//! say once what each node holds; what is written here is each rule's
//! decisions.

use std::borrow::Cow;
use std::sync::Arc;

use super::*;

mod contract;
mod fuse;

pub use contract::contract_temporaries;
pub use fuse::fuse_spans;

/// The program the optimized build lowers: [`scope_temporaries`], then
/// [`inline_leaves`], then [`fuse_spans`], then [`contract_temporaries`].
/// Scoping comes first, so an inlined callee's temporaries are fixed
/// arrays already and fusion reads every frame array's extent from its
/// declaration. Contraction comes last, so it reaches the inlined
/// copies and the fresh temporaries of a span's `fast` (FUN3D's `flux`).
pub fn optimized(prog: &RProgram) -> Cow<'_, RProgram> {
    let mut out = Cow::Borrowed(prog);
    for rule in [scope_temporaries, inline_leaves, fuse_spans, contract_temporaries] {
        if let Cow::Owned(p) = rule(&out) {
            out = Cow::Owned(p);
        }
    }
    out
}

/// Makes each unit's scoped temporaries ([`scoped_temporaries`]) fixed
/// frame arrays of the shape they are allocated to, and deletes their
/// `ALLOCATE` and `DEALLOCATE`. A call's fresh frame holds such an array
/// zeroed, as `ALLOCATE` leaves it, for the whole span anything reads
/// it, and neither statement can fault. Variable indices stay as they
/// are.
pub fn scope_temporaries(prog: &RProgram) -> Cow<'_, RProgram> {
    each_unit(prog, |unit| {
        let temps = scoped_temporaries(unit);
        if temps.is_empty() {
            return None;
        }
        let mut out = unit.clone();
        out.body.retain(|sp| match sp.s {
            RStmt::Allocate { v, .. } | RStmt::Deallocate { v } => {
                !temps.iter().any(|(t, _)| *t == v)
            }
            _ => true,
        });
        for (v, dims) in temps {
            (out.vars[v].allocatable, out.vars[v].dims) = (false, dims);
        }
        Some(out)
    })
}

/// `prog` with each unit `rule` rewrites replaced, borrowed when it
/// rewrites none.
fn each_unit(prog: &RProgram, mut rule: impl FnMut(&RUnit) -> Option<RUnit>) -> Cow<'_, RProgram> {
    let mut units: Option<Vec<Arc<RUnit>>> = None;
    for (u, unit) in prog.units.iter().enumerate() {
        if let Some(out) = rule(unit) {
            units.get_or_insert_with(|| prog.units.clone())[u] = Arc::new(out);
        }
    }
    match units {
        Some(units) => Cow::Owned(RProgram {
            units,
            globals: prog.globals.clone(),
        }),
        None => Cow::Borrowed(prog),
    }
}

/// The most statements (nested bodies and an inlined block's copies
/// included) inlining may grow a unit to. A call whose block would take
/// its caller past it stays a call; a unit already past it takes none.
pub const INLINE_MAX_STMTS: usize = 256;

/// Inlines leaf units into their call sites until no call changes.
///
/// A *leaf* makes no call; has no OMP construct, `CRITICAL` or
/// `ATOMIC`; has no `SAVE`d local; has `RETURN` only as its last
/// top-level statement; and takes no array dummy. Each `CALL` of a
/// leaf, and each `x = f(…)` whose whole right-hand side is a call of
/// leaf function `f`, becomes an [`RStmt::Inlined`] block, unless it
/// sits in an OMP region body, passes an argument that calls a unit, or
/// would grow its unit past [`INLINE_MAX_STMTS`]; and a unit no unit
/// calls (an entry: a main program, or a unit a session runs) keeps its
/// calls. That is a measured cost rule, not a property of the call
/// (DESIGN §6): a copy costs lowering the callee once more on every
/// compile, which a compile-once workload pays in full, and no
/// benchmarked warm workload gained from an entry's copies, not even
/// SARB's `run_columns`, which calls its band units once per column.
///
/// A unit whose every call was inlined is a leaf in turn, so units are
/// visited callees first: one pass reaches the fixed point. (A unit on
/// a call cycle keeps a call, so it is never a leaf and visiting it
/// before a callee on the cycle changes nothing.)
pub fn inline_leaves(prog: &RProgram) -> Cow<'_, RProgram> {
    let graph = CallGraph::of(prog);
    // Only the callees of called units can be inlined anywhere.
    let mut wanted = vec![false; prog.units.len()];
    for (u, callees) in graph.callees.iter().enumerate() {
        if graph.called[u] {
            callees.iter().for_each(|&c| wanted[c] = true);
        }
    }
    if !wanted.contains(&true) {
        return Cow::Borrowed(prog);
    }
    let mut units = prog.units.clone();
    let mut leaves: Vec<Option<Leaf>> = vec![None; units.len()];
    let mut changed = false;
    for u in graph.order {
        if graph.called[u] && !graph.callees[u].is_empty() {
            if let Some(unit) = inline_into(&units, u, &leaves) {
                units[u] = Arc::new(unit);
                changed = true;
            }
        }
        if wanted[u] {
            leaves[u] = Leaf::of(&prog.globals, &units[u]);
        }
    }
    if !changed {
        return Cow::Borrowed(prog);
    }
    Cow::Owned(RProgram {
        units,
        globals: prog.globals.clone(),
    })
}

/// Who calls whom in a program.
struct CallGraph {
    /// Per unit, the units it calls, with repeats.
    callees: Vec<Vec<UnitId>>,
    /// Per unit, whether some unit calls it.
    called: Vec<bool>,
    /// The units in depth-first post-order: every unit after the units
    /// it calls, but on a cycle.
    order: Vec<UnitId>,
}

impl CallGraph {
    fn of(prog: &RProgram) -> CallGraph {
        let n = prog.units.len();
        let callees: Vec<Vec<UnitId>> = prog
            .units
            .iter()
            .map(|unit| {
                let mut out = Vec::new();
                each_call(&unit.body, &mut |c| out.push(c));
                out
            })
            .collect();
        let mut called = vec![false; n];
        callees.iter().flatten().for_each(|&c| called[c] = true);
        fn visit(callees: &[Vec<UnitId>], u: UnitId, seen: &mut [bool], out: &mut Vec<UnitId>) {
            seen[u] = true;
            for &c in &callees[u] {
                if !seen[c] {
                    visit(callees, c, seen, out);
                }
            }
            out.push(u);
        }
        let (mut seen, mut order) = (vec![false; n], Vec::with_capacity(n));
        for u in 0..n {
            if !seen[u] {
                visit(&callees, u, &mut seen, &mut order);
            }
        }
        CallGraph {
            callees,
            called,
            order,
        }
    }
}

/// Calls `f` on the callee of every call in `body`.
fn each_call(body: &[SpStmt], f: &mut dyn FnMut(UnitId)) {
    fn expr(e: &RExpr, f: &mut dyn FnMut(UnitId)) {
        if let RExpr::CallFn { unit, .. } = e {
            f(*unit);
        }
        operands(e, &mut |x| expr(x, f));
    }
    for sp in body {
        if let RStmt::CallSub { unit, .. } = &sp.s {
            f(*unit);
        }
        own_exprs(&sp.s, &mut |e| expr(e, f));
        each_child(&sp.s, &mut |b| each_call(b, f));
    }
}

/// What inlining a leaf needs of it, worked out once.
#[derive(Clone)]
struct Leaf {
    /// Its statement count.
    size: usize,
    /// Per dummy: whether the body may store to it.
    assigned: Vec<bool>,
}

impl Leaf {
    /// `unit`'s, if it is a leaf (see [`inline_leaves`]).
    fn of(globals: &[GlobalDecl], unit: &RUnit) -> Option<Leaf> {
        // Sema keeps a SAVE'd local in per-thread global cell `unit::name`.
        let saved = |info: &VarInfo| match info.place {
            Place::Global(c) => {
                let g = &globals[c];
                let local = g
                    .name
                    .strip_prefix(unit.name.as_str())
                    .and_then(|r| r.strip_prefix("::"));
                g.per_thread && local == Some(info.name.as_str())
            }
            Place::Frame(_) => false,
        };
        let last = unit.body.len().saturating_sub(1);
        let tail_return = |i: usize, s: &RStmt| i == last && matches!(s, RStmt::Return);
        let leaf = unit.params.iter().all(|&p| unit.vars[p].rank == 0)
            && !unit.vars.iter().any(saved)
            && unit
                .body
                .iter()
                .enumerate()
                .all(|(i, sp)| tail_return(i, &sp.s) || leaf_stmt(&sp.s));
        leaf.then(|| Leaf {
            size: stmt_count(&unit.body),
            assigned: unit
                .params
                .iter()
                .map(|&p| assigns(&unit.body, p))
                .collect(),
        })
    }
}

/// A statement a leaf may hold: no call, OMP construct, `CRITICAL`,
/// `ATOMIC` or `RETURN` anywhere in it.
fn leaf_stmt(s: &RStmt) -> bool {
    let mut ok = match s {
        RStmt::CallSub { .. }
        | RStmt::Critical { .. }
        | RStmt::AtomicUpdate { .. }
        | RStmt::Return
        | RStmt::Do { omp: Some(_), .. } => false,
        _ => {
            let mut ok = true;
            own_exprs(s, &mut |e| ok &= !calls(e));
            ok
        }
    };
    each_child(s, &mut |b| ok = ok && b.iter().all(|sp| leaf_stmt(&sp.s)));
    ok
}

/// Whether `e` calls a user function.
fn calls(e: &RExpr) -> bool {
    let mut found = matches!(e, RExpr::CallFn { .. });
    operands(e, &mut |x| found = found || calls(x));
    found
}

/// How many statements `body` holds, nested ones included.
pub fn stmt_count(body: &[SpStmt]) -> usize {
    let mut n = body.len();
    for sp in body {
        each_child(&sp.s, &mut |b| n += stmt_count(b));
    }
    n
}

/// A call site: the callee, its arguments and, for `x = f(…)`, `x`.
fn site(s: &RStmt) -> Option<(UnitId, &[RArg], Option<VarIdx>)> {
    match s {
        RStmt::CallSub { unit, args } => Some((*unit, args, None)),
        RStmt::AssignScalar {
            v,
            e: RExpr::CallFn { unit, args, .. },
        } => Some((*unit, args, Some(*v))),
        _ => None,
    }
}

/// Unit `u` of `units` with its inlinable call sites inlined, or `None`
/// when it has none. `leaves` holds the leaves among its callees.
fn inline_into(units: &[Arc<RUnit>], u: UnitId, leaves: &[Option<Leaf>]) -> Option<RUnit> {
    let fits = |s: &RStmt| {
        site(s).is_some_and(|(callee, args, _)| {
            leaves[callee].is_some()
                && args.len() == units[callee].params.len()
                && !args
                    .iter()
                    .any(|a| matches!(a, RArg::Array(_)) || arg_calls(a))
        })
    };
    fn any_site(body: &[SpStmt], fits: &dyn Fn(&RStmt) -> bool) -> bool {
        body.iter().any(|sp| match &sp.s {
            RStmt::Do { omp: Some(_), .. } | RStmt::Inlined { .. } | RStmt::Span { .. } => false,
            s => {
                let mut found = fits(s);
                each_child(s, &mut |b| found = found || any_site(b, fits));
                found
            }
        })
    }
    if !any_site(&units[u].body, &fits) {
        return None;
    }
    let mut out = RUnit::clone(&units[u]);
    let mut body = std::mem::take(&mut out.body);
    let mut inliner = Inliner {
        units,
        leaves,
        caller: &mut out,
        size: stmt_count(&body),
    };
    inliner.block(&mut body, &fits);
    out.body = body;
    Some(out)
}

fn arg_calls(a: &RArg) -> bool {
    let mut found = false;
    arg_exprs(a, &mut |e| found |= calls(e));
    found
}

/// One caller's rewrite: walks its statements outside OMP region
/// bodies and replaces each site that fits.
struct Inliner<'a> {
    units: &'a [Arc<RUnit>],
    leaves: &'a [Option<Leaf>],
    caller: &'a mut RUnit,
    /// The caller's statement count so far.
    size: usize,
}

impl Inliner<'_> {
    fn block(&mut self, body: &mut [SpStmt], fits: &dyn Fn(&RStmt) -> bool) {
        for sp in body.iter_mut() {
            if fits(&sp.s) {
                let (callee, args, target) = site(&sp.s).expect("a site fits");
                let leaf = self.leaves[callee].as_ref().expect("a leaf");
                let args = args.to_vec();
                // At most the block statement, two copies per argument
                // and a temporary per element subscript, the result's
                // copy and the body, in place of the call.
                let copies: usize = args
                    .iter()
                    .map(|a| match a {
                        RArg::ByRefElem { subs, .. } => 2 + subs.len(),
                        _ => 2,
                    })
                    .sum();
                if self.size + copies + 1 + leaf.size > INLINE_MAX_STMTS {
                    continue;
                }
                let block = self.inline_call(callee, leaf, &args, target, sp.line);
                self.size += stmt_count(std::slice::from_ref(&block)) - 1;
                sp.s = block.s;
                continue;
            }
            match &mut sp.s {
                RStmt::Do { omp: Some(_), .. } | RStmt::Inlined { .. } | RStmt::Span { .. } => {}
                s => each_child_mut(s, &mut |b| self.block(b, fits)),
            }
        }
    }

    /// A new caller variable, appended to its frame.
    fn push_var(&mut self, mut info: VarInfo) -> VarIdx {
        if let Place::Frame(s) = &mut info.place {
            *s += self.caller.frame_size;
        }
        self.caller.vars.push(info);
        self.caller.vars.len() - 1
    }

    /// The block that replaces a call of `callee` (leaf `leaf`) with
    /// `args` on `line` (and, for `x = f(…)`, stores the result to
    /// `target`). The callee's variables become fresh caller variables,
    /// in order, so the block's locals are one range; its trailing
    /// `RETURN` goes. The copies follow the call
    /// protocol of `Task::call_unit`: arguments in order — an element's
    /// subscripts evaluated once, into INTEGER temporaries — then, after
    /// the body, each by-reference argument copied back in order, then
    /// the result.
    fn inline_call(
        &mut self,
        callee: UnitId,
        leaf: &Leaf,
        args: &[RArg],
        target: Option<VarIdx>,
        line: u32,
    ) -> SpStmt {
        let c = &*self.units[callee];
        let base = self.caller.vars.len();
        for info in &c.vars {
            self.push_var(VarInfo {
                is_param: false,
                ..info.clone()
            });
        }
        self.caller.frame_size += c.frame_size;
        let at = |s: RStmt| SpStmt { line, s };
        let (mut enter, mut leave) = (Vec::new(), Vec::new());
        // Per callee variable: what its reads become instead.
        let mut by: Vec<Option<RExpr>> = vec![None; c.vars.len()];
        for (k, arg) in args.iter().enumerate() {
            let (q, p) = (c.params[k], base + c.params[k]);
            let (ty, kept) = (c.vars[q].ty, !leaf.assigned[k]);
            match arg {
                // A dummy the body never stores to, bound to a scalar of
                // the caller's frame (which the body cannot reach) of its
                // type and passed once, holds that scalar's value
                // throughout and copies it back unchanged: the body reads
                // the scalar, and neither copy is made.
                RArg::ByRefScalar(v)
                    if kept
                        && matches!(self.caller.vars[*v].place, Place::Frame(_))
                        && self.caller.vars[*v].ty == ty
                        && args
                            .iter()
                            .filter(|a| matches!(a, RArg::ByRefScalar(w) if w == v))
                            .count()
                            == 1 =>
                {
                    by[q] = Some(RExpr::LoadScalar(*v));
                }
                RArg::ByRefScalar(v) => {
                    enter.push(at(RStmt::AssignScalar {
                        v: p,
                        e: RExpr::LoadScalar(*v),
                    }));
                    leave.push(at(RStmt::AssignScalar {
                        v: *v,
                        e: RExpr::LoadScalar(p),
                    }));
                }
                // Likewise a constant of the dummy's type.
                RArg::Value(e @ (RExpr::ConstI(_) | RExpr::ConstF(_) | RExpr::ConstB(_)))
                    if kept && const_ty(e) == ty =>
                {
                    by[q] = Some(e.clone());
                }
                RArg::ByRefElem { v, subs } => {
                    let subs: Vec<RExpr> = subs
                        .iter()
                        .enumerate()
                        .map(|(j, e)| match e {
                            RExpr::ConstI(_) => e.clone(),
                            _ => {
                                let name = format!("{}%{}", self.caller.vars[*v].name, j + 1);
                                let t = self.push_var(VarInfo {
                                    name,
                                    ty: ScalarTy::I,
                                    place: Place::Frame(0),
                                    rank: 0,
                                    dims: Vec::new(),
                                    allocatable: false,
                                    is_param: false,
                                });
                                self.caller.frame_size += 1;
                                enter.push(at(RStmt::AssignScalar { v: t, e: e.clone() }));
                                RExpr::LoadScalar(t)
                            }
                        })
                        .collect();
                    let e = RExpr::LoadElem {
                        v: *v,
                        subs: subs.clone(),
                    };
                    enter.push(at(RStmt::AssignScalar { v: p, e }));
                    let e = RExpr::LoadScalar(p);
                    leave.push(at(RStmt::AssignElem { v: *v, subs, e }));
                }
                RArg::Value(e) => enter.push(at(RStmt::AssignScalar { v: p, e: e.clone() })),
                RArg::Array(_) => unreachable!("a leaf takes no array dummy"),
            }
        }
        if let (Some(x), Some((rv, _))) = (target, c.result) {
            leave.push(at(RStmt::AssignScalar {
                v: x,
                e: RExpr::LoadScalar(base + rv),
            }));
        }
        let mut body: Vec<SpStmt> = c
            .body
            .iter()
            .filter(|sp| !matches!(sp.s, RStmt::Return))
            .cloned()
            .collect();
        // Into the caller: each variable index gains `base`, and each
        // read of a variable `by` names becomes that expression (which
        // is the caller's already).
        rename_stmts(&mut body, &mut |v| *v += base, &|v| by[v].clone());
        let locals = base..self.caller.vars.len();
        at(RStmt::Inlined {
            unit: callee,
            locals,
            enter,
            body,
            leave,
        })
    }
}

/// The unit's *scoped temporaries*, with the shape each is allocated
/// to: frame-local ALLOCATABLEs (no dummy, no SAVE) whose body holds, at
/// top level, exactly one `ALLOCATE` with literal bounds that pass
/// [`ArrayObj::dims_fit`](crate::storage::ArrayObj::dims_fit), followed
/// at top level by exactly one `DEALLOCATE`, with every other mention
/// strictly between the two, no `RETURN` between them and no
/// `ALLOCATED()` query anywhere. Such an array is allocated exactly
/// while anything can read it, so a fixed frame array — zeroed on every
/// call, as `ALLOCATE` zeroes — behaves the same, and the pair can emit
/// nothing: `AlreadyAllocated`, `Unallocated` and the element cap
/// cannot fire. DESIGN §6 says what breaks without each condition.
fn scoped_temporaries(unit: &RUnit) -> Vec<(VarIdx, Vec<(i64, i64)>)> {
    /// What the walk saw of one variable, by top-level statement index.
    #[derive(Clone)]
    struct Life {
        alloc: Option<usize>,
        dealloc: Option<usize>,
        /// First and last statement mentioning it otherwise.
        refs: Option<(usize, usize)>,
        refused: bool,
    }
    let mut life = vec![
        Life {
            alloc: None,
            dealloc: None,
            refs: None,
            refused: false
        };
        unit.vars.len()
    ];
    let mut returns = Vec::new();
    for (i, sp) in unit.body.iter().enumerate() {
        walk_stmt(&sp.s, &mut |seen| match seen {
            Seen::Ref(v) | Seen::Store(v) => {
                let r = &mut life[v].refs;
                *r = Some(r.map_or((i, i), |(lo, _)| (lo, i)));
            }
            Seen::Alloc(v) | Seen::Dealloc(v) => {
                let top = matches!(sp.s, RStmt::Allocate { v: w, .. } | RStmt::Deallocate { v: w } if w == v);
                let l = &mut life[v];
                let at = if matches!(seen, Seen::Alloc(_)) {
                    &mut l.alloc
                } else {
                    &mut l.dealloc
                };
                if top && at.is_none() {
                    *at = Some(i);
                } else {
                    l.refused = true;
                }
            }
            Seen::Query(v) => life[v].refused = true,
            Seen::Return => returns.push(i),
        });
    }
    let mut out = Vec::new();
    for (v, (info, l)) in unit.vars.iter().zip(&life).enumerate() {
        let local = matches!(info.place, Place::Frame(_)) && info.allocatable && !info.is_param;
        let (Some(a), Some(d), false, true) = (l.alloc, l.dealloc, l.refused, local) else {
            continue;
        };
        let inside = |i: usize| a < i && i < d;
        if a > d
            || l.refs.is_some_and(|(lo, hi)| !inside(lo) || !inside(hi))
            || returns.iter().any(|&i| inside(i))
        {
            continue;
        }
        let RStmt::Allocate { dims, .. } = &unit.body[a].s else {
            continue;
        };
        let dims: Option<Vec<(i64, i64)>> = dims
            .iter()
            .map(|bounds| match bounds {
                (RExpr::ConstI(lo), RExpr::ConstI(hi)) => Some((*lo, *hi)),
                _ => None,
            })
            .collect();
        if let Some(dims) = dims {
            if dims.len() == info.rank && crate::storage::ArrayObj::dims_fit(&dims) {
                out.push((v, dims));
            }
        }
    }
    out
}

/// Whether `body` may store to scalar `v`: a leaf stores only as an
/// assignment's target or a `DO` variable (it makes no call).
fn assigns(body: &[SpStmt], v: VarIdx) -> bool {
    let mut found = false;
    walk_stmts(body, &mut |seen| found |= matches!(seen, Seen::Store(w) if w == v));
    found
}

/// The type of a constant.
fn const_ty(e: &RExpr) -> ScalarTy {
    match e {
        RExpr::ConstI(_) => ScalarTy::I,
        RExpr::ConstF(_) => ScalarTy::F,
        _ => ScalarTy::B,
    }
}
