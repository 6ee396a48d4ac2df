//! [`fuse_spans`]: same-range loops fused into speculative spans.

use super::*;

/// Fuses runs of same-range loops into [`RStmt::Span`]s.
///
/// A run is `DO v = a, b` … S … `DO v = a, b` (… S … `DO v = a, b` for a
/// chain) in one statement list, outside OMP region and `CRITICAL`
/// bodies and outside any `DO` body a nest region could cover. Each
/// loop has unit step, a frame INTEGER variable and a body of REAL
/// element assignments and inner loops a region unrolls
/// ([`unrolled_bounds`]; a longer one would leave the fused loop scalar
/// and the span useless), so no reduction, running sum or masked select is
/// fused. The span's `slow` is the run as written; its `fast` runs every
/// S first, then one loop whose body is the bodies in order. That runs
/// the same when:
///
/// * the bounds are the same expressions of scalars nothing in the run
///   changes (not `v`, an inner loop variable or what an S writes);
/// * each S stores only frame scalars — no element, global or dummy,
///   no call (an inlined block is fine), no I/O, `ALLOCATE`, OMP,
///   `CRITICAL`, `RETURN`, or `EXIT`/`CYCLE` out of it — so moving it
///   ahead of the loops before it reorders nothing else;
/// * each S writes nothing the bodies before it read or write, `v`
///   included, and reads nothing they write: moved ahead of them, it
///   sees and leaves the same values;
/// * no fusion-preventing dependence: an array one body writes and
///   another mentions is subscripted `v` in one position in every
///   mention, so iteration `m` of every body touches only cells the
///   other iterations never touch — counting as one array the arrays
///   that may be one object (a dummy and a dummy or a global, two names
///   of one cell), which index it by its own dims; and a body reads an
///   inner loop variable only inside that loop.
///
/// Within one body, dependences keep their order in the fused loop, and
/// across bodies the above leaves none between different iterations, so
/// the interleaved order computes what the original computes.
///
/// A REAL rank-1 frame temporary that the run's bodies alone mention,
/// only as `t(v)` in a body's own statements (not an inner loop's), and
/// that every fused iteration writes before it reads — FUN3D's `flux`,
/// written by the flux loop and read by the accumulation loop — gets a
/// fresh fixed array in `fast`, so contraction can make it a scalar
/// there while `slow` keeps the array. Nothing reads the old one after
/// the span, and every read in the fused loop sees the same iteration's
/// store, so renaming changes no value.
///
/// Spans do not nest: S and the bodies are not searched again. The
/// optimized build lowers `fast` only when the vector analysis makes
/// the fused loop one region (DESIGN §6).
pub fn fuse_spans(prog: &RProgram) -> Cow<'_, RProgram> {
    each_unit(prog, |unit| {
        if !has_run(&unit.body, unit) {
            return None;
        }
        let mut out = unit.clone();
        let mut body = std::mem::take(&mut out.body);
        let mut fuser = Fuser {
            unit,
            out: &mut out,
            refs: mention_counts(unit),
            changed: false,
        };
        fuser.block(&mut body);
        fuser.changed.then_some(RUnit { body, ..out })
    })
}

/// Whether some statement list [`Fuser`] searches holds two loops of a
/// run's shape with one variable and bounds: the cheap test that spares
/// cloning a unit with none.
fn has_run(body: &[SpStmt], unit: &RUnit) -> bool {
    let is_do = |sp: &&SpStmt| matches!(sp.s, RStmt::Do { omp: None, .. });
    if body.iter().filter(is_do).count() > 1 {
        let loops: Vec<Loop> = body.iter().filter_map(|sp| Loop::of(&sp.s, unit)).collect();
        let paired = |k: usize| loops[k + 1..].iter().any(|b| loops[k].same_range(b));
        if (0..loops.len()).any(paired) {
            return true;
        }
    }
    body.iter().any(|sp| {
        let mut found = false;
        each_searched(&sp.s, &mut |b| found = found || has_run(b, unit));
        found
    })
}

/// Calls `f` on each statement list of `s` a run may sit in: not an OMP
/// region's, a `CRITICAL`'s, a span's or a nest's body, nor an inlined
/// block's argument copies.
fn each_searched(s: &RStmt, f: &mut dyn FnMut(&[SpStmt])) {
    match s {
        RStmt::If { arms, else_body } => {
            arms.iter().for_each(|(_, b)| f(b));
            f(else_body);
        }
        RStmt::Do {
            omp: None, body, ..
        } if !nest(body) => f(body),
        RStmt::DoWhile { body, .. } | RStmt::Inlined { body, .. } => f(body),
        _ => {}
    }
}

/// Whether a `DO` body is straight-line code and loops of it, which a
/// nest region may cover: fusing inside it would take that region away.
fn nest(body: &[SpStmt]) -> bool {
    body.iter().all(|sp| match &sp.s {
        RStmt::AssignScalar { .. } | RStmt::AssignElem { .. } | RStmt::Nop => true,
        RStmt::Do {
            omp: None, body, ..
        } => nest(body),
        _ => false,
    })
}

/// How many times each variable of `unit` is mentioned
/// ([`Seen::Ref`] or [`Seen::Store`]) in its body.
fn mention_counts(unit: &RUnit) -> Vec<usize> {
    let mut refs = vec![0; unit.vars.len()];
    walk_stmts(&unit.body, &mut |seen| {
        if let Seen::Ref(v) | Seen::Store(v) = seen {
            refs[v] += 1;
        }
    });
    refs
}

/// One loop of a run, borrowed from its statement.
struct Loop<'a> {
    var: VarIdx,
    start: &'a RExpr,
    end: &'a RExpr,
    body: &'a [SpStmt],
}

impl<'a> Loop<'a> {
    /// `s` as a loop a run may hold (see [`fuse_spans`]).
    fn of(s: &'a RStmt, unit: &RUnit) -> Option<Loop<'a>> {
        let RStmt::Do {
            var,
            start,
            end,
            step: None | Some(RExpr::ConstI(1)),
            body,
            omp: None,
            collapse_with,
            ..
        } = s
        else {
            return None;
        };
        let ok = collapse_with.is_empty()
            && frame_int(unit, *var)
            && bound(start)
            && bound(end)
            && body_shape(body, unit, &mut vec![*var])
            && stores(body);
        ok.then_some(Loop {
            var: *var,
            start,
            end,
            body,
        })
    }

    fn same_range(&self, other: &Loop) -> bool {
        self.var == other.var && self.start.same(other.start) && self.end.same(other.end)
    }
}

/// A frame INTEGER scalar that is no dummy.
fn frame_int(unit: &RUnit, v: VarIdx) -> bool {
    let info = &unit.vars[v];
    matches!(info.place, Place::Frame(_))
        && info.ty == ScalarTy::I
        && info.rank == 0
        && !info.is_param
}

/// A loop bound fusion keeps: constants and scalars under arithmetic.
fn bound(e: &RExpr) -> bool {
    match e {
        RExpr::ConstI(_) | RExpr::ConstF(_) | RExpr::LoadScalar(_) => true,
        RExpr::Bin { l, r, .. } => bound(l) && bound(r),
        RExpr::Neg(x) | RExpr::ToF(x) | RExpr::ToI(x) => bound(x),
        _ => false,
    }
}

/// A fused body: REAL element assignments that call nothing, and inner
/// loops a region unrolls (`open` holds the enclosing loops' variables),
/// holding the same.
fn body_shape(body: &[SpStmt], unit: &RUnit, open: &mut Vec<VarIdx>) -> bool {
    body.iter().all(|sp| match &sp.s {
        RStmt::Nop => true,
        RStmt::AssignElem { v, subs, e } => {
            unit.vars[*v].ty == ScalarTy::F && !subs.iter().chain([e]).any(calls)
        }
        RStmt::Do { var, body, .. } if unrolled_bounds(&sp.s, &unit.vars, open).is_some() => {
            open.push(*var);
            let ok = body_shape(body, unit, open);
            open.pop();
            ok
        }
        _ => false,
    })
}

/// Whether a body shaped by [`body_shape`] stores an element at all.
fn stores(body: &[SpStmt]) -> bool {
    body.iter().any(|sp| match &sp.s {
        RStmt::AssignElem { .. } => true,
        RStmt::Do { body, .. } => stores(body),
        _ => false,
    })
}

/// Every variable `e` mentions.
fn mentions(e: &RExpr, out: &mut Vec<VarIdx>) {
    walk_expr(e, &mut |seen| {
        if let Seen::Ref(v) | Seen::Query(v) = seen {
            out.push(v);
        }
    });
}

/// Whether two arrays of `unit` may share storage: two names of one
/// cell, or a dummy against a dummy or a global (`VecDesc::write_pairs`
/// says why nothing else can).
fn may_alias(unit: &RUnit, x: VarIdx, y: VarIdx) -> bool {
    let (a, b) = (&unit.vars[x], &unit.vars[y]);
    if x == y || a.place == b.place {
        return true;
    }
    let owned = |i: &VarInfo| matches!(i.place, Place::Frame(_)) && !i.is_param;
    let global = |i: &VarInfo| matches!(i.place, Place::Global(_));
    !(owned(a) || owned(b) || (global(a) && global(b)))
}

/// What a run's bodies read and write.
#[derive(Default, Clone)]
struct Bodies<'a> {
    /// Every variable the bodies mention in an expression.
    reads: Vec<VarIdx>,
    /// The arrays they store to, and their inner loops' variables.
    arrays: Vec<VarIdx>,
    inner: Vec<VarIdx>,
    /// Each element mention: body number, array, subscripts.
    elems: Vec<(usize, VarIdx, &'a [RExpr])>,
    /// How many bodies there are.
    count: usize,
}

impl<'a> Bodies<'a> {
    /// These bodies and `body` after them.
    fn and(&self, body: &'a [SpStmt]) -> Bodies<'a> {
        let mut out = self.clone();
        out.stmts(body, out.count);
        out.count += 1;
        out.arrays.sort_unstable();
        out.arrays.dedup();
        out
    }

    fn stmts(&mut self, body: &'a [SpStmt], k: usize) {
        for sp in body {
            match &sp.s {
                RStmt::AssignElem { v, subs, e } => {
                    self.arrays.push(*v);
                    self.elems.push((k, *v, subs));
                    for x in subs.iter().chain([e]) {
                        self.expr(x, k);
                    }
                }
                RStmt::Do { var, body, .. } => {
                    self.inner.push(*var);
                    self.stmts(body, k);
                }
                _ => {}
            }
        }
    }

    fn expr(&mut self, e: &'a RExpr, k: usize) {
        expr_vars(e, &mut |_, &v| self.reads.push(v));
        if let RExpr::LoadElem { v, subs } = e {
            self.elems.push((k, *v, subs));
        }
        operands(e, &mut |x| self.expr(x, k));
    }

    /// No fusion-preventing dependence among the bodies over `var` (see
    /// [`fuse_spans`]).
    fn independent(&self, unit: &RUnit, var: VarIdx, bodies: &[&[SpStmt]]) -> bool {
        let at_var = |subs: &[RExpr], p: usize| {
            matches!(subs.get(p), Some(RExpr::LoadScalar(w)) if *w == var)
        };
        let mut named: Vec<VarIdx> = self.elems.iter().map(|e| e.1).collect();
        named.sort_unstable();
        named.dedup();
        let cells_apart = self.arrays.iter().all(|&x| {
            // Every mention of `x` or an array that may be the same
            // object (which then indexes it by the same dims): within
            // one body their order is kept; across bodies, each
            // iteration's cells must be its own.
            let class: Vec<VarIdx> = named
                .iter()
                .copied()
                .filter(|&y| may_alias(unit, x, y))
                .collect();
            let mine: Vec<_> = self.elems.iter().filter(|e| class.contains(&e.1)).collect();
            let one_body = mine.iter().all(|m| m.0 == mine[0].0);
            let rank = mine[0].2.len();
            one_body || (0..rank).any(|p| mine.iter().all(|m| m.2.len() == rank && at_var(m.2, p)))
        });
        // An inner loop's variable read outside that loop.
        cells_apart
            && bodies
                .iter()
                .all(|b| inner_reads_ok(b, &self.inner, &mut Vec::new()))
    }
}

/// Whether `body` reads each of `inner` only inside a loop over it
/// (`open` holds the loops around).
fn inner_reads_ok(body: &[SpStmt], inner: &[VarIdx], open: &mut Vec<VarIdx>) -> bool {
    body.iter().all(|sp| match &sp.s {
        RStmt::AssignElem { subs, e, .. } => subs.iter().chain([e]).all(|x| {
            let mut ok = true;
            walk_expr(x, &mut |seen| {
                if let Seen::Ref(v) = seen {
                    ok &= !inner.contains(&v) || open.contains(&v);
                }
            });
            ok
        }),
        RStmt::Do { var, body, .. } => {
            open.push(*var);
            let ok = inner_reads_ok(body, inner, open);
            open.pop();
            ok
        }
        _ => true,
    })
}

/// What the statements between two loops of a run read and write.
#[derive(Default)]
struct Between {
    reads: Vec<VarIdx>,
    writes: Vec<VarIdx>,
}

impl Between {
    /// `stmts` as an S of a run (see [`fuse_spans`]), or `None`.
    fn of(unit: &RUnit, stmts: &[SpStmt]) -> Option<Between> {
        let mut b = Between::default();
        b.stmts(unit, stmts, 0).then_some(b)
    }

    fn read(&mut self, e: &RExpr) -> bool {
        mentions(e, &mut self.reads);
        !calls(e)
    }

    /// Walks `stmts`, `loops` deep in loops of the S's own, and says
    /// whether an S may hold them.
    fn stmts(&mut self, unit: &RUnit, stmts: &[SpStmt], loops: usize) -> bool {
        let scalar = |v: VarIdx| {
            let i = &unit.vars[v];
            matches!(i.place, Place::Frame(_)) && i.rank == 0 && !i.is_param
        };
        stmts.iter().all(|sp| match &sp.s {
            RStmt::AssignScalar { v, e } if scalar(*v) => {
                self.writes.push(*v);
                self.read(e)
            }
            RStmt::If { arms, else_body } => {
                arms.iter()
                    .all(|(c, b)| self.read(c) && self.stmts(unit, b, loops))
                    && self.stmts(unit, else_body, loops)
            }
            RStmt::Do {
                var,
                start,
                end,
                step,
                body,
                omp: None,
                collapse_with,
                ..
            } if scalar(*var) && collapse_with.is_empty() => {
                self.writes.push(*var);
                [start, end].into_iter().chain(step).all(|e| self.read(e))
                    && self.stmts(unit, body, loops + 1)
            }
            RStmt::DoWhile { cond, body } => self.read(cond) && self.stmts(unit, body, loops + 1),
            RStmt::Inlined {
                locals,
                enter,
                body,
                leave,
                ..
            } => {
                // Its entry resets the locals: a write of each.
                self.writes.extend(locals.clone());
                [enter, body, leave]
                    .into_iter()
                    .all(|b| self.stmts(unit, b, loops))
            }
            RStmt::Nop => true,
            RStmt::Exit | RStmt::Cycle => loops > 0,
            _ => false,
        })
    }

    /// Whether this S, moved ahead of the bodies `before` over `var`,
    /// sees and leaves the same values.
    fn commutes(&self, unit: &RUnit, var: VarIdx, before: &Bodies) -> bool {
        let touched = |v: &VarIdx| *v == var || before.inner.contains(v);
        let writes_ok = self
            .writes
            .iter()
            .all(|v| !touched(v) && !before.reads.contains(v));
        let reads_ok = self.reads.iter().all(|&r| {
            if unit.vars[r].rank == 0 {
                !touched(&r)
            } else {
                !before.arrays.iter().any(|&x| may_alias(unit, x, r))
            }
        });
        writes_ok && reads_ok
    }
}

/// One unit's rewrite.
struct Fuser<'a> {
    /// The unit as it was: the mention counts below are its.
    unit: &'a RUnit,
    /// The rewritten unit, which gains the fresh temporaries.
    out: &'a mut RUnit,
    refs: Vec<usize>,
    changed: bool,
}

impl Fuser<'_> {
    fn block(&mut self, stmts: &mut Vec<SpStmt>) {
        let mut i = 0;
        while i < stmts.len() {
            if let Some(run) = self.run(stmts, i) {
                let slow: Vec<SpStmt> = stmts.drain(i..=run[run.len() - 1]).collect();
                let span = self.span(slow, &run, i);
                stmts.insert(i, span);
                self.changed = true;
            } else {
                match &mut stmts[i].s {
                    RStmt::If { arms, else_body } => {
                        arms.iter_mut().for_each(|(_, b)| self.block(b));
                        self.block(else_body);
                    }
                    RStmt::Do {
                        omp: None, body, ..
                    } if !nest(body) => self.block(body),
                    RStmt::DoWhile { body, .. } | RStmt::Inlined { body, .. } => self.block(body),
                    _ => {}
                }
            }
            i += 1;
        }
    }

    /// The list positions of the longest run that starts with the loop
    /// at `stmts[i]`, if it fuses two loops or more.
    fn run(&self, stmts: &[SpStmt], i: usize) -> Option<Vec<usize>> {
        let unit = self.unit;
        let first = Loop::of(&stmts[i].s, unit)?;
        let mut bounds = Vec::new();
        mentions(first.start, &mut bounds);
        mentions(first.end, &mut bounds);
        if bounds.contains(&first.var) {
            return None;
        }
        let (mut loops, mut bodies) = (vec![i], vec![first.body]);
        let mut before = Bodies::default().and(first.body);
        let same = |j: &usize| Loop::of(&stmts[*j].s, unit).is_some_and(|l| l.same_range(&first));
        while let Some(j) = (loops[loops.len() - 1] + 1..stmts.len()).find(same) {
            let Some(between) = Between::of(unit, &stmts[loops[loops.len() - 1] + 1..j]) else {
                break;
            };
            let body = Loop::of(&stmts[j].s, unit).expect("found above").body;
            let after = before.and(body);
            bodies.push(body);
            let ok = between.commutes(unit, first.var, &before)
                && !between.writes.iter().any(|v| bounds.contains(v))
                && !after.inner.iter().any(|v| bounds.contains(v))
                && after.independent(unit, first.var, &bodies);
            if !ok {
                break;
            }
            loops.push(j);
            before = after;
        }
        (loops.len() > 1).then_some(loops)
    }

    /// The span replacing `stmts`, which start at list position `at`,
    /// whose loops are at the positions `run`.
    fn span(&mut self, stmts: Vec<SpStmt>, run: &[usize], at: usize) -> SpStmt {
        let is_loop = |k: usize| run.contains(&(at + k));
        let first = Loop::of(&stmts[0].s, self.unit).expect("a run starts with a loop");
        let (var, start, end) = (first.var, first.start.clone(), first.end.clone());
        let mut fast: Vec<SpStmt> = Vec::new();
        let mut body: Vec<SpStmt> = Vec::new();
        for (k, sp) in stmts.iter().enumerate() {
            match &sp.s {
                RStmt::Do { body: b, .. } if is_loop(k) => body.extend(b.iter().cloned()),
                _ => fast.push(sp.clone()),
            }
        }
        let looped: Vec<&SpStmt> = (0..stmts.len())
            .filter(|&k| is_loop(k))
            .map(|k| &stmts[k])
            .collect();
        for t in self.renamed(&looped, &body, var, (&start, &end)) {
            let mut info = self.out.vars[t].clone();
            info.place = Place::Frame(self.out.frame_size);
            self.out.frame_size += 1;
            self.out.vars.push(info);
            let to = self.out.vars.len() - 1;
            rename_stmts(&mut body, &mut |v| if *v == t { *v = to }, &|_| None);
        }
        let RStmt::Do { step, vec, .. } = &stmts[0].s else {
            unreachable!("a run starts with a loop")
        };
        fast.push(SpStmt {
            line: stmts[0].line,
            s: RStmt::Do {
                var,
                start,
                end,
                step: step.clone(),
                body,
                omp: None,
                vec: *vec,
                collapse_with: Vec::new(),
            },
        });
        SpStmt {
            line: stmts[0].line,
            s: RStmt::Span { fast, slow: stmts },
        }
    }

    /// The temporaries of the fused `body` over `var` with literal
    /// `bounds` that get a fresh array (see [`fuse_spans`]). `looped` are
    /// the run's loops, where every mention of one must lie.
    fn renamed(
        &self,
        looped: &[&SpStmt],
        body: &[SpStmt],
        var: VarIdx,
        bounds: (&RExpr, &RExpr),
    ) -> Vec<VarIdx> {
        let (RExpr::ConstI(lo), RExpr::ConstI(hi)) = bounds else {
            return Vec::new();
        };
        let mut inside = vec![0usize; self.unit.vars.len()];
        for sp in looped {
            walk_stmt(&sp.s, &mut |seen| {
                if let Seen::Ref(v) | Seen::Store(v) = seen {
                    inside[v] += 1;
                }
            });
        }
        let mut out = Vec::new();
        let mut refused = Vec::new();
        let mut written: Vec<VarIdx> = Vec::new();
        let at_var = |subs: &[RExpr]| matches!(subs, [RExpr::LoadScalar(w)] if *w == var);
        // In iteration order: a candidate's element `t(var)` may be read
        // once the iteration has stored it; any other mention refuses.
        for sp in body {
            let mut elems = Vec::new();
            match &sp.s {
                RStmt::AssignElem { subs, e, .. } => {
                    for x in subs.iter().chain([e]) {
                        let mut b = Bodies::default();
                        b.expr(x, 0);
                        elems.extend(b.elems.into_iter().map(|(_, v, s)| (v, s)));
                    }
                }
                s => walk_stmt(s, &mut |seen| {
                    if let Seen::Ref(v) | Seen::Store(v) = seen {
                        refused.push(v);
                    }
                }),
            }
            for (v, subs) in elems {
                if !(written.contains(&v) && at_var(subs)) {
                    refused.push(v);
                }
            }
            if let RStmt::AssignElem { v, subs, .. } = &sp.s {
                if at_var(subs) {
                    written.push(*v);
                } else {
                    refused.push(*v);
                }
            }
        }
        for &v in &written {
            let Some((elo, ehi)) = self.unit.vars[v].frame_extent() else {
                continue;
            };
            if refused.contains(&v) || out.contains(&v) {
                continue;
            }
            if *lo < elo || *hi > ehi || inside[v] != self.refs[v] {
                continue;
            }
            out.push(v);
        }
        out
    }
}
