//! [`contract_temporaries`]: per-iteration frame arrays made scalars.

use super::*;

/// Makes each unit's *contracted temporaries* frame REAL scalars: rank-1
/// REAL fixed frame arrays ([`VarInfo::frame_extent`]; scoped
/// temporaries are among them once [`scope_temporaries`] ran) whose
/// every mention is an element `t(m)` in the straight-line body of one
/// serial `DO m` loop — literal bounds inside the array's extent, unit
/// step, no OMP directive on it or around it in this unit — that writes
/// `t(m)` before any read of it in every iteration. Such an array holds,
/// at any read, the value the same iteration stored, and nothing reads
/// it after the loop or before the first store, so a scalar that takes
/// each store behaves the same, bounds faults included: none can fire.
/// DESIGN §6 says what breaks without each condition.
///
/// Each element store becomes a scalar assignment and each element read
/// a scalar load. The variable keeps its index, and its `dims` keep the
/// extent it had, which is how [`crate::VectorLoopInfo::contracted`]
/// tells a contracted temporary from a declared scalar.
pub fn contract_temporaries(prog: &RProgram) -> Cow<'_, RProgram> {
    each_unit(prog, |unit| {
        let vars = contracted_temporaries(unit);
        (!vars.is_empty()).then(|| contract(unit, &vars))
    })
}

/// The unit's contracted temporaries (see [`contract_temporaries`]).
fn contracted_temporaries(unit: &RUnit) -> Vec<VarIdx> {
    let extent: Vec<Option<(i64, i64)>> = unit.vars.iter().map(VarInfo::frame_extent).collect();
    if extent.iter().all(Option::is_none) {
        return Vec::new();
    }
    let mut scan = ContractScan {
        unit,
        extent,
        home: vec![None; unit.vars.len()],
        refused: vec![false; unit.vars.len()],
        next_loop: 0,
        trip: (0, (1, 0), 0),
    };
    scan.stmts(&unit.body, false);
    let ContractScan { home, refused, .. } = scan;
    (0..unit.vars.len()).filter(|&v| home[v].is_some() && !refused[v]).collect()
}

/// The walk [`contracted_temporaries`] makes, one per unit.
struct ContractScan<'a> {
    unit: &'a RUnit,
    /// The extent of each candidate array, `None` for every other var.
    extent: Vec<Option<(i64, i64)>>,
    /// Per var: the pre-order index of its home loop among the unit's
    /// serial `DO` loops.
    home: Vec<Option<usize>>,
    refused: Vec<bool>,
    next_loop: usize,
    /// The variable, bounds and index of the home loop being walked.
    trip: (VarIdx, (i64, i64), usize),
}

impl ContractScan<'_> {
    fn refuse_in(&mut self, e: &RExpr) {
        walk_expr(e, &mut |seen| {
            if let Seen::Ref(v) | Seen::Query(v) = seen {
                self.refused[v] = true;
            }
        });
    }

    fn stmts(&mut self, body: &[SpStmt], in_omp: bool) {
        for sp in body {
            // Every mention in a statement's own parts refuses. An
            // inlined block and a span have none: the block's entry
            // reset writes what nothing reads, and a fresh temporary of
            // a span's `fast` is its fused loop's alone.
            walk_own(&sp.s, &mut |seen| match seen {
                Seen::Ref(v) | Seen::Store(v) | Seen::Alloc(v) | Seen::Dealloc(v) | Seen::Query(v) => {
                    self.refused[v] = true;
                }
                Seen::Return => {}
            });
            if let RStmt::Do { var, start, end, step, body, omp, collapse_with, .. } = &sp.s {
                let id = self.next_loop;
                self.next_loop += 1;
                let in_omp = in_omp || omp.is_some();
                match (start, end, step) {
                    (RExpr::ConstI(lo), RExpr::ConstI(hi), None | Some(RExpr::ConstI(1)))
                        if !in_omp && collapse_with.is_empty() && self.straight(*var, body) =>
                    {
                        self.home_loop((*var, (*lo, *hi), id), body);
                    }
                    _ => self.stmts(body, in_omp),
                }
                continue;
            }
            each_child(&sp.s, &mut |b| self.stmts(b, in_omp));
        }
    }

    /// Whether a loop over frame variable `var` may be a home loop: its
    /// body only assigns, and nothing in it stores to `var`.
    fn straight(&self, var: VarIdx, body: &[SpStmt]) -> bool {
        matches!(self.unit.vars[var].place, Place::Frame(_))
            && body.iter().all(|sp| match &sp.s {
                RStmt::AssignScalar { v, e } => *v != var && !expr_copies_out_to(e, var),
                RStmt::AssignElem { subs, e, .. } => {
                    !subs.iter().chain([e]).any(|x| expr_copies_out_to(x, var))
                }
                RStmt::Nop => true,
                _ => false,
            })
    }

    /// A straight-line loop body, statement by statement in iteration
    /// order: a candidate's element `t(var)` makes this loop its home,
    /// and may be read only once the iteration has written it; any other
    /// mention refuses it.
    fn home_loop(&mut self, trip: (VarIdx, (i64, i64), usize), body: &[SpStmt]) {
        self.trip = trip;
        let mut written: Vec<VarIdx> = Vec::new();
        for sp in body {
            let (target, subs, e) = match &sp.s {
                RStmt::AssignScalar { e, .. } => (None, &[][..], e),
                RStmt::AssignElem { v, subs, e } => (Some(*v), subs.as_slice(), e),
                _ => continue,
            };
            for x in subs.iter().chain([e]) {
                self.reads(x, &written);
            }
            if let Some(w) = target.filter(|&w| self.extent[w].is_some()) {
                if self.at_home(w, subs) {
                    written.push(w);
                } else {
                    self.refused[w] = true;
                }
            }
        }
    }

    /// Whether `subs` is `(var)` of the home loop being walked, inside
    /// `w`'s extent on every trip; if so, that loop becomes `w`'s home
    /// unless another loop already is.
    fn at_home(&mut self, w: VarIdx, subs: &[RExpr]) -> bool {
        let (var, (lo, hi), id) = self.trip;
        let Some((elo, ehi)) = self.extent[w] else { return false };
        if !matches!(subs, [RExpr::LoadScalar(i)] if *i == var) || lo < elo || hi > ehi {
            return false;
        }
        *self.home[w].get_or_insert(id) == id
    }

    /// The candidates `e` reads in a home loop whose iteration has so far
    /// written `written`: an element `t(var)` of one of those is the only
    /// mention that does not refuse.
    fn reads(&mut self, e: &RExpr, written: &[VarIdx]) {
        match e {
            RExpr::LoadElem { v, subs } => {
                if self.extent[*v].is_some() && !(written.contains(v) && self.at_home(*v, subs)) {
                    self.refused[*v] = true;
                }
            }
            RExpr::CallFn { .. } => return self.refuse_in(e),
            _ => expr_vars(e, &mut |_, &v| self.refused[v] = true),
        }
        operands(e, &mut |x| self.reads(x, written));
    }
}

/// `unit` with the arrays `vars` contracted: each one declared a REAL
/// scalar, and every element of it a load or store of that scalar.
fn contract(unit: &RUnit, vars: &[VarIdx]) -> RUnit {
    fn expr(e: &mut RExpr, vars: &[VarIdx]) {
        match e {
            RExpr::LoadElem { v, .. } if vars.contains(v) => *e = RExpr::LoadScalar(*v),
            _ => operands_mut(e, &mut |x| expr(x, vars)),
        }
    }
    fn stmts(body: &mut [SpStmt], vars: &[VarIdx]) {
        for sp in body.iter_mut() {
            if let RStmt::AssignElem { v, e, .. } = &mut sp.s {
                if vars.contains(v) {
                    let (v, e) = (*v, std::mem::replace(e, RExpr::ConstI(0)));
                    sp.s = RStmt::AssignScalar { v, e };
                }
            }
            own_exprs_mut(&mut sp.s, &mut |x| expr(x, vars));
            each_child_mut(&mut sp.s, &mut |b| stmts(b, vars));
        }
    }
    let mut out = unit.clone();
    for &v in vars {
        out.vars[v].rank = 0;
    }
    stmts(&mut out.body, vars);
    out
}
