//! Control-flow legalization: `Vec<Stmt>` → `Vec<Stmt>` without
//! [`Stmt::Label`] or [`Stmt::Branch`].
//!
//! The RIR has no `GOTO`, so GOTO, computed GOTO, assigned GOTO and
//! arithmetic IF are desugared into structured control flow. Strategy
//! (DESIGN.md §8): structure first. DO nests and IF blocks come out of
//! the parser's nesting builder already; inside each *region* (a unit
//! body or one loop body) the classic patterns `GOTO <terminal CONTINUE>`
//! and `GOTO <label right after the loop>` become CYCLE and EXIT.
//! Whatever branches remain turn the region into a flat state machine:
//! basic blocks dispatched by an integer state variable inside
//! `DO WHILE (s /= 0)`.
//!
//! Only cards carry labels, so a unit from a free-form source never
//! comes here.

use crate::ast::{Attrs, Bin, Branch, Decl, Desig, Entity, Expr, Stmt, TypeSpec, Unit};
use crate::error::{Diagnostics, Span};
use std::collections::{HashMap, HashSet};

/// What the parser learnt about a unit's statement labels.
#[derive(Default)]
pub(crate) struct Labels {
    /// Every label defined in the unit.
    pub all: HashSet<u32>,
    /// Labels that sit on FORMAT statements (not branch targets).
    pub format: HashSet<u32>,
    /// `ASSIGN l TO v`: the labels each variable may hold.
    pub assigns: HashMap<String, Vec<u32>>,
}

fn sp(line: u32) -> Span {
    Span { line }
}

fn dvar(n: &str, line: u32) -> Desig {
    Desig::scalar(n.to_string(), sp(line))
}

fn evar(n: &str, line: u32) -> Expr {
    Expr::Name(dvar(n, line))
}

/// `n = k`
fn seti(n: &str, k: i64, line: u32) -> Stmt {
    sete(n, Expr::Int(k), line)
}

/// `n = e`
fn sete(n: &str, e: Expr, line: u32) -> Stmt {
    Stmt::Assign { target: dvar(n, line), value: e, atomic: false, span: sp(line) }
}

/// `n <op> k`
fn cmp(op: Bin, n: &str, k: Expr, line: u32) -> Expr {
    Expr::Bin(op, Box::new(evar(n, line)), Box::new(k))
}

/// `n == k`
fn eqi(n: &str, k: i64, line: u32) -> Expr {
    cmp(Bin::Eq, n, Expr::Int(k), line)
}

fn first_line(stmts: &[Stmt]) -> u32 {
    stmts.first().map_or(1, |s| s.span().line)
}

/// Every synthesized state variable and temporary starts with this, so
/// only the unit's identifiers that do can collide with one.
pub(crate) const TMP_PREFIX: &str = "go_";

/// Fresh-name generator, seeded with the unit's identifiers a fresh name
/// could spell.
struct TmpGen {
    used: HashSet<String>,
    n: u32,
}

impl TmpGen {
    fn fresh(&mut self, base: &str) -> String {
        debug_assert!(base.starts_with(TMP_PREFIX));
        loop {
            self.n += 1;
            let c = format!("{base}{}", self.n);
            if self.used.insert(c.clone()) {
                return c;
            }
        }
    }
}

/// True if `pred` holds for a statement of the region — through IF and
/// CRITICAL blocks, not into nested loops (each loop body is a region of
/// its own).
fn region_any(stmts: &[Stmt], pred: &mut impl FnMut(&Stmt) -> bool) -> bool {
    stmts.iter().any(|s| {
        pred(s)
            || match s {
                Stmt::If { arms, else_body, .. } => {
                    arms.iter().any(|(_, b)| region_any(b, pred)) || region_any(else_body, pred)
                }
                Stmt::Critical { body, .. } => region_any(body, pred),
                _ => false,
            }
    })
}

/// True if the region still contains a symbolic branch.
fn has_branch(stmts: &[Stmt]) -> bool {
    region_any(stmts, &mut |s| matches!(s, Stmt::Branch(..)))
}

fn has_target_label(stmts: &[Stmt], targets: &HashSet<u32>) -> bool {
    region_any(stmts, &mut |s| matches!(s, Stmt::Label(l, _) if targets.contains(l)))
}

/// The labels the region's branches can jump to.
fn collect_targets(stmts: &[Stmt], assigns: &HashMap<String, Vec<u32>>, out: &mut HashSet<u32>) {
    region_any(stmts, &mut |s| {
        match s {
            Stmt::Branch(Branch::Goto(l), _) => {
                out.insert(*l);
            }
            Stmt::Branch(Branch::Assigned(v, ls), _) if ls.is_empty() => {
                out.extend(assigns.get(v).into_iter().flatten().copied());
            }
            Stmt::Branch(Branch::Computed(ls, _) | Branch::Assigned(_, ls), _) => {
                out.extend(ls.iter().copied());
            }
            Stmt::Branch(Branch::Arith(_, a, b, c), _) => out.extend([*a, *b, *c]),
            _ => {}
        }
        false
    });
}

/// Rewrites the region's `GOTO target` into CYCLE or EXIT.
fn rewrite_goto(stmts: &mut [Stmt], target: u32, to_exit: bool) {
    for s in stmts {
        match s {
            Stmt::Branch(Branch::Goto(l), span) if *l == target => {
                *s = if to_exit { Stmt::Exit(*span) } else { Stmt::Cycle(*span) };
            }
            Stmt::If { arms, else_body, .. } => {
                for (_, b) in arms.iter_mut() {
                    rewrite_goto(b, target, to_exit);
                }
                rewrite_goto(else_body, target, to_exit);
            }
            Stmt::Critical { body, .. } => rewrite_goto(body, target, to_exit),
            _ => {}
        }
    }
}

/// When a loop body becomes a state machine, its depth-0 EXIT/CYCLE would
/// bind to the machine's DO WHILE instead of the real loop. Compensate:
/// EXIT -> set the escape flag then leave the machine; CYCLE -> just leave
/// the machine (the real loop then iterates normally).
fn compensate(stmts: Vec<Stmt>, flag: &str) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::Exit(span) => {
                out.push(seti(flag, 1, span.line));
                out.push(Stmt::Exit(span));
            }
            Stmt::Cycle(span) => out.push(Stmt::Exit(span)),
            Stmt::If { arms, else_body, span } => out.push(Stmt::If {
                arms: arms.into_iter().map(|(c, b)| (c, compensate(b, flag))).collect(),
                else_body: compensate(else_body, flag),
                span,
            }),
            Stmt::Critical { name, body, span } => {
                out.push(Stmt::Critical { name, body: compensate(body, flag), span });
            }
            other => out.push(other),
        }
    }
    out
}

/// Drops the label markers once every jump is resolved. A branch can
/// only be left where a diagnostic has refused it; it becomes CONTINUE.
fn strip(body: &mut Vec<Stmt>) {
    body.retain_mut(|s| {
        match s {
            Stmt::Label(..) => return false,
            Stmt::Branch(_, span) => *s = Stmt::Continue(*span),
            Stmt::If { arms, else_body, .. } => {
                arms.iter_mut().for_each(|(_, b)| strip(b));
                strip(else_body);
            }
            Stmt::Do { body, .. } | Stmt::DoWhile { body, .. } | Stmt::Critical { body, .. } => {
                strip(body);
            }
            _ => {}
        }
        true
    });
}

/// `IF (c1) sv = st1 ELSE IF (c2) sv = st2 ... ELSE sv = otherwise`
fn select(sv: &str, conds: Vec<(Expr, i64)>, otherwise: i64, line: u32) -> Stmt {
    Stmt::If {
        arms: conds.into_iter().map(|(c, st)| (c, vec![seti(sv, st, line)])).collect(),
        else_body: vec![seti(sv, otherwise, line)],
        span: sp(line),
    }
}

/// The goto target of `IF (c) GOTO l`, if that is all the IF is.
fn lone_goto(arms: &[(Expr, Vec<Stmt>)], else_body: &[Stmt]) -> Option<u32> {
    match (arms, else_body) {
        ([(_, arm)], []) => match arm[..] {
            [Stmt::Branch(Branch::Goto(l), _)] => Some(l),
            _ => None,
        },
        _ => None,
    }
}

/// How a basic block ends.
enum Term {
    Fall,
    Jump(Branch),
    Cond(Expr, u32),
}

#[allow(clippy::large_enum_variant)]
enum FlatItem {
    Label(u32),
    St(Stmt),
    /// A block end with the source line of the original GO TO / IF, so
    /// unresolved-label diagnostics point at the jump, not the region.
    End(Term, u32),
}

struct Blk {
    stmts: Vec<Stmt>,
    term: Term,
    line: u32,
}

/// Per-unit legalizer: owns the fresh-name generator and accumulates the
/// declarations for synthesized temporaries.
struct Lg<'a> {
    file: usize,
    diags: &'a mut Diagnostics,
    labels: &'a Labels,
    tmp: TmpGen,
    extra: Vec<(TypeSpec, String)>,
    synth: u32,
}

impl Lg<'_> {
    fn fresh(&mut self, ty: TypeSpec, base: &str) -> String {
        let n = self.tmp.fresh(base);
        self.extra.push((ty, n.clone()));
        n
    }

    fn synth_label(&mut self) -> u32 {
        self.synth += 1;
        self.synth
    }

    fn legalize_top(&mut self, mut body: Vec<Stmt>) -> Vec<Stmt> {
        self.legalize_children(&mut body);
        if !has_branch(&body) {
            return body;
        }
        let line = first_line(&body);
        self.machine(body, line)
    }

    /// Bottom-up: legalize every nested loop body, applying the
    /// GOTO->EXIT rewrite for jumps to the label right after the loop.
    fn legalize_children(&mut self, stmts: &mut [Stmt]) {
        for i in 0..stmts.len() {
            let next_label = match stmts.get(i + 1) {
                Some(Stmt::Label(l, _)) => Some(*l),
                _ => None,
            };
            match &mut stmts[i] {
                Stmt::Do { body, .. } | Stmt::DoWhile { body, .. } => {
                    let mut raw = std::mem::take(body);
                    if let Some(xl) = next_label {
                        rewrite_goto(&mut raw, xl, true);
                    }
                    *body = self.legalize_loop_body(raw);
                }
                Stmt::If { arms, else_body, .. } => {
                    for (_, b) in arms.iter_mut() {
                        self.legalize_children(b);
                    }
                    self.legalize_children(else_body);
                }
                Stmt::Critical { body, .. } => self.legalize_children(body),
                _ => {}
            }
        }
    }

    fn legalize_loop_body(&mut self, mut raw: Vec<Stmt>) -> Vec<Stmt> {
        // `GOTO <terminal CONTINUE>` is CYCLE.
        if let [.., Stmt::Label(l, _), Stmt::Continue(_)] = raw[..] {
            rewrite_goto(&mut raw, l, false);
        }
        self.legalize_children(&mut raw);
        if !has_branch(&raw) {
            return raw;
        }
        let line = first_line(&raw);
        let flag = self.fresh(TypeSpec::Integer, "go_x");
        let raw = compensate(raw, &flag);
        let mut out = vec![seti(&flag, 0, line)];
        out.extend(self.machine(raw, line));
        out.push(Stmt::If {
            arms: vec![(eqi(&flag, 1, line), vec![Stmt::Exit(sp(line))])],
            else_body: vec![],
            span: sp(line),
        });
        out
    }

    fn flatten(&mut self, stmts: Vec<Stmt>, targets: &HashSet<u32>, out: &mut Vec<FlatItem>) {
        for s in stmts {
            let line = s.span().line;
            match s {
                Stmt::Label(l, _) => out.push(FlatItem::Label(l)),
                Stmt::Branch(b, _) => out.push(FlatItem::End(Term::Jump(b), line)),
                Stmt::If { mut arms, else_body, span } => {
                    let open = |b: &[Stmt]| has_branch(b) || has_target_label(b, targets);
                    if !arms.iter().any(|(_, b)| open(b)) && !open(&else_body) {
                        out.push(FlatItem::St(Stmt::If { arms, else_body, span }));
                    } else if let Some(l) = lone_goto(&arms, &else_body) {
                        let (c, _) = arms.pop().expect("one arm");
                        out.push(FlatItem::End(Term::Cond(c, l), line));
                    } else {
                        // Decompose into conditional jumps over synthetic labels.
                        let endl = self.synth_label();
                        let armls: Vec<u32> = arms.iter().map(|_| self.synth_label()).collect();
                        for (k, (c, _)) in arms.iter().enumerate() {
                            out.push(FlatItem::End(Term::Cond(c.clone(), armls[k]), line));
                        }
                        let elsel = if else_body.is_empty() { endl } else { self.synth_label() };
                        out.push(FlatItem::End(Term::Jump(Branch::Goto(elsel)), line));
                        for (k, (_, b)) in arms.into_iter().enumerate() {
                            out.push(FlatItem::Label(armls[k]));
                            self.flatten(b, targets, out);
                            out.push(FlatItem::End(Term::Jump(Branch::Goto(endl)), line));
                        }
                        if !else_body.is_empty() {
                            out.push(FlatItem::Label(elsel));
                            self.flatten(else_body, targets, out);
                        }
                        out.push(FlatItem::Label(endl));
                    }
                }
                Stmt::Critical { name, body, span } => {
                    if has_branch(&body) {
                        self.diags.error_hint(
                            self.file,
                            line,
                            "branch out of a CRITICAL section cannot be legalized",
                            "restructure the critical section without GO TO",
                        );
                    }
                    out.push(FlatItem::St(Stmt::Critical { name, body, span }));
                }
                other => out.push(FlatItem::St(other)),
            }
        }
    }

    fn resolve(&mut self, l: u32, map: &HashMap<u32, usize>, line: u32) -> i64 {
        if let Some(b) = map.get(&l) {
            return (*b + 1) as i64;
        }
        if self.labels.format.contains(&l) {
            self.diags.error_hint(
                self.file,
                line,
                format!("branch targets FORMAT statement label {l}"),
                "a GO TO must target an executable statement",
            );
        } else if self.labels.all.contains(&l) {
            self.diags.error_hint(
                self.file,
                line,
                format!("branch to label {l} crosses a DO or IF block boundary"),
                "jumps into or out of a DO/IF nest are not supported; use EXIT, CYCLE \
                 or restructure with IF/THEN",
            );
        } else {
            self.diags.error_hint(
                self.file,
                line,
                format!("label {l} is not defined in this unit"),
                "add the labeled statement or fix the GO TO target",
            );
        }
        0
    }

    /// Linearizes a region with irreducible branches into basic blocks
    /// dispatched by a state variable inside `DO WHILE (s /= 0)`.
    fn machine(&mut self, stmts: Vec<Stmt>, line: u32) -> Vec<Stmt> {
        let mut targets = HashSet::new();
        collect_targets(&stmts, &self.labels.assigns, &mut targets);
        let mut items = Vec::new();
        self.flatten(stmts, &targets, &mut items);

        let mut blocks: Vec<Blk> = Vec::new();
        let mut label_block: HashMap<u32, usize> = HashMap::new();
        let fresh = || Blk { stmts: Vec::new(), term: Term::Fall, line };
        let mut cur = fresh();
        for item in items {
            match item {
                FlatItem::Label(l) => {
                    if !cur.stmts.is_empty() {
                        blocks.push(std::mem::replace(&mut cur, fresh()));
                    }
                    label_block.insert(l, blocks.len());
                }
                FlatItem::St(s) => cur.stmts.push(s),
                FlatItem::End(term, tl) => {
                    cur.term = term;
                    cur.line = tl;
                    blocks.push(std::mem::replace(&mut cur, fresh()));
                }
            }
        }
        blocks.push(cur);

        let sv = self.fresh(TypeSpec::Integer, "go_s");
        let n = blocks.len();
        let mut arms = Vec::with_capacity(n);
        for (i, mut blk) in blocks.into_iter().enumerate() {
            let next = if i + 1 < n { (i + 2) as i64 } else { 0 };
            let bl = blk.line;
            let state = |lg: &mut Self, l: u32| lg.resolve(l, &label_block, bl);
            match blk.term {
                Term::Fall => blk.stmts.push(seti(&sv, next, bl)),
                Term::Jump(Branch::Goto(l)) => {
                    let st = state(self, l);
                    blk.stmts.push(seti(&sv, st, bl));
                }
                Term::Cond(c, l) => {
                    let st = state(self, l);
                    blk.stmts.push(select(&sv, vec![(c, st)], next, bl));
                }
                Term::Jump(Branch::Computed(ls, e)) => {
                    let t = self.fresh(TypeSpec::Integer, "go_t");
                    blk.stmts.push(sete(&t, e, bl));
                    let conds = ls
                        .iter()
                        .zip(1..)
                        .map(|(l, k)| (eqi(&t, k, bl), state(self, *l)))
                        .collect();
                    // Out-of-range selector falls through (F77 semantics).
                    blk.stmts.push(select(&sv, conds, next, bl));
                }
                Term::Jump(Branch::Assigned(v, ls)) => {
                    let ls = if ls.is_empty() {
                        self.labels.assigns.get(&v).cloned().unwrap_or_default()
                    } else {
                        ls
                    };
                    if ls.is_empty() {
                        self.diags.error_hint(
                            self.file,
                            bl,
                            format!("assigned GO TO via `{v}` but no ASSIGN statement targets it"),
                            "add `ASSIGN <label> TO var` before the assigned GO TO",
                        );
                    }
                    let conds =
                        ls.iter().map(|l| (eqi(&v, i64::from(*l), bl), state(self, *l))).collect();
                    blk.stmts.push(select(&sv, conds, next, bl));
                }
                Term::Jump(Branch::Arith(e, l1, l2, l3)) => {
                    let t = self.fresh(TypeSpec::Real8, "go_t");
                    blk.stmts.push(sete(&t, e, bl));
                    let (s1, s2, s3) = (state(self, l1), state(self, l2), state(self, l3));
                    let sign = |op| cmp(op, &t, Expr::Real(0.0), bl);
                    blk.stmts.push(select(
                        &sv,
                        vec![(sign(Bin::Lt), s1), (sign(Bin::Eq), s2)],
                        s3,
                        bl,
                    ));
                }
            }
            arms.push((eqi(&sv, (i + 1) as i64, blk.line), blk.stmts));
        }

        vec![
            seti(&sv, 1, line),
            Stmt::DoWhile {
                cond: cmp(Bin::Ne, &sv, Expr::Int(0), line),
                body: vec![Stmt::If { arms, else_body: vec![], span: sp(line) }],
                span: sp(line),
            },
        ]
    }
}

/// Legalizes `unit`'s body in place, declaring any synthesized state
/// variables and temporaries. `taken` holds the unit's identifiers that
/// start with [`TMP_PREFIX`].
pub(crate) fn legalize(
    unit: &mut Unit,
    labels: &Labels,
    taken: HashSet<String>,
    file: usize,
    diags: &mut Diagnostics,
) {
    let mut lg = Lg {
        file,
        diags,
        labels,
        tmp: TmpGen { used: taken, n: 0 },
        extra: Vec::new(),
        synth: 1_000_000,
    };
    unit.body = lg.legalize_top(std::mem::take(&mut unit.body));
    strip(&mut unit.body);
    for (spec, name) in lg.extra {
        unit.decls.push(Decl {
            spec,
            attrs: Attrs::default(),
            entities: vec![Entity { name, dims: None, init: None, init_list: None }],
            span: unit.span,
        });
    }
}
