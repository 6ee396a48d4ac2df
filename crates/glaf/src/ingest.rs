//! Legacy ingestion bridge: lift a parsed `fortrans` AST into
//! [`glaf_ir`] so the auto-parallelization back-end can produce a
//! [`glaf_autopar::DecisionLog`] for *ingested* programs — including
//! fixed-form F77 assembled by `fortrans::ProgramSet::from_sources` —
//! not just programs authored through the GPI-style builder.
//!
//! The lift is deliberately partial: it models exactly what autopar
//! reasons about (DO nests over declared arrays, the formulas inside
//! them, scalar state) and records everything it cannot express as a
//! human-readable note instead of failing. Constructs outside the GLAF
//! subset — character data, derived types, I/O, unstructured control
//! that survived front-end legalization — are skipped with a note, so
//! the returned [`IngestReport`] is both an analyzable program and an
//! honest account of coverage.

use fortrans::ast as fast;
use glaf_grid::{DataType, Grid};
use glaf_ir::{BinOp, Expr, LValue, LibFunc, Program, ProgramBuilder, Stmt, UnOp};
use std::collections::HashMap;

/// Extent used for arrays whose declared bounds are not literal
/// constants after front-end folding (e.g. adjustable dummy arrays).
/// Autopar decisions depend on structure, not the exact trip count.
const DEFAULT_EXTENT: i64 = 1024;

/// The result of lifting one AST.
pub struct IngestReport {
    /// The lifted program, one `glaf_ir` function per ingested unit.
    pub program: Program,
    /// DO nests lifted into loop steps (what autopar will decide on).
    pub lifted_loops: usize,
    /// Constructs the GLAF subset cannot express, one note each.
    pub skipped: Vec<String>,
}

struct Sym {
    rank: usize,
}

struct Lift<'a> {
    syms: HashMap<String, Sym>,
    unit_names: Vec<String>,
    idx_stack: Vec<String>,
    unit: &'a str,
    skipped: Vec<String>,
    lifted_loops: usize,
}

fn data_type(ts: &fast::TypeSpec) -> Option<DataType> {
    match ts {
        fast::TypeSpec::Integer => Some(DataType::Integer),
        fast::TypeSpec::Real => Some(DataType::Real),
        fast::TypeSpec::Real8 => Some(DataType::Real8),
        fast::TypeSpec::Logical => Some(DataType::Logical),
        fast::TypeSpec::Character | fast::TypeSpec::Derived(_) => None,
    }
}

fn const_bound(e: &Option<fast::Expr>) -> Option<i64> {
    match e {
        Some(fast::Expr::Int(v)) => Some(*v),
        _ => None,
    }
}

fn lib_func(name: &str) -> Option<LibFunc> {
    Some(match name {
        "abs" => LibFunc::Abs,
        "alog" => LibFunc::Alog,
        "log" => LibFunc::Log,
        "log10" => LibFunc::Log10,
        "exp" => LibFunc::Exp,
        "sqrt" => LibFunc::Sqrt,
        "sin" => LibFunc::Sin,
        "cos" => LibFunc::Cos,
        "tan" => LibFunc::Tan,
        "max" => LibFunc::Max,
        "min" => LibFunc::Min,
        "mod" => LibFunc::Mod,
        "int" => LibFunc::Int,
        "real" | "float" => LibFunc::Real,
        "dble" => LibFunc::Dble,
        "sign" => LibFunc::Sign,
        _ => return None,
    })
}

impl Lift<'_> {
    fn note(&mut self, what: impl std::fmt::Display) {
        self.skipped.push(format!("{}: {what}", self.unit));
    }

    fn expr(&mut self, e: &fast::Expr) -> Result<Expr, String> {
        match e {
            fast::Expr::Int(v) => Ok(Expr::int(*v)),
            fast::Expr::Real(v) => Ok(Expr::real(*v)),
            fast::Expr::Logical(b) => Ok(Expr::BoolLit(*b)),
            fast::Expr::Str(_) => Err("character literal".into()),
            fast::Expr::Neg(x) => {
                Ok(Expr::Unary { op: UnOp::Neg, operand: Box::new(self.expr(x)?) })
            }
            fast::Expr::Not(x) => {
                Ok(Expr::Unary { op: UnOp::Not, operand: Box::new(self.expr(x)?) })
            }
            fast::Expr::Bin(op, a, b) => {
                let l = self.expr(a)?;
                let r = self.expr(b)?;
                let op = match op {
                    fast::Bin::Add => BinOp::Add,
                    fast::Bin::Sub => BinOp::Sub,
                    fast::Bin::Mul => BinOp::Mul,
                    fast::Bin::Div => BinOp::Div,
                    fast::Bin::Pow => return Ok(l.pow(r)),
                    fast::Bin::Eq => BinOp::Eq,
                    fast::Bin::Ne => BinOp::Ne,
                    fast::Bin::Lt => BinOp::Lt,
                    fast::Bin::Le => BinOp::Le,
                    fast::Bin::Gt => BinOp::Gt,
                    fast::Bin::Ge => BinOp::Ge,
                    fast::Bin::And => BinOp::And,
                    fast::Bin::Or => BinOp::Or,
                };
                Ok(Expr::Binary { op, lhs: Box::new(l), rhs: Box::new(r) })
            }
            fast::Expr::Name(d) => self.name(d),
        }
    }

    fn name(&mut self, d: &fast::Desig) -> Result<Expr, String> {
        if d.parts.len() != 1 {
            return Err(format!("derived-type reference `{}`", d.base()));
        }
        let part = &d.parts[0];
        let n = &part.name;
        if part.subs.is_empty() {
            if self.idx_stack.iter().any(|v| v == n) {
                return Ok(Expr::idx(n.clone()));
            }
            if self.syms.contains_key(n) {
                return Ok(Expr::scalar(n.clone()));
            }
            return Err(format!("undeclared scalar `{n}`"));
        }
        let subs: Vec<Expr> =
            part.subs.iter().map(|s| self.expr(s)).collect::<Result<_, _>>()?;
        match self.syms.get(n) {
            Some(s) if s.rank > 0 => Ok(Expr::at(n.clone(), subs)),
            _ if self.unit_names.iter().any(|u| u == n) => Ok(Expr::call(n.clone(), subs)),
            _ => match lib_func(n) {
                Some(f) => Ok(Expr::lib(f, subs)),
                None => Err(format!("call of unknown function `{n}`")),
            },
        }
    }

    fn lvalue(&mut self, d: &fast::Desig) -> Result<LValue, String> {
        if d.parts.len() != 1 {
            return Err(format!("derived-type target `{}`", d.base()));
        }
        let part = &d.parts[0];
        if part.subs.is_empty() {
            return Ok(LValue::scalar(part.name.clone()));
        }
        let subs: Vec<Expr> =
            part.subs.iter().map(|s| self.expr(s)).collect::<Result<_, _>>()?;
        Ok(LValue::at(part.name.clone(), subs))
    }

    /// Maps one statement inside a lifted loop (or a straight-line
    /// region). `None` means the construct was skipped with a note.
    fn stmt(&mut self, s: &fast::Stmt) -> Option<Stmt> {
        match s {
            fast::Stmt::Assign { target, value, .. } => {
                let t = self.lvalue(target);
                let v = self.expr(value);
                match (t, v) {
                    (Ok(t), Ok(v)) => Some(Stmt::assign(t, v)),
                    (Err(e), _) | (_, Err(e)) => {
                        self.note(format_args!("assignment not lifted ({e})"));
                        None
                    }
                }
            }
            fast::Stmt::If { arms, else_body, .. } => {
                // Chain multi-arm IF into nested If statements.
                let mut out = self.stmts(else_body);
                for (cond, body) in arms.iter().rev() {
                    let c = match self.expr(cond) {
                        Ok(c) => c,
                        Err(e) => {
                            self.note(format_args!("IF condition not lifted ({e})"));
                            return None;
                        }
                    };
                    out = vec![Stmt::If {
                        cond: c,
                        then_body: self.stmts(body),
                        else_body: out,
                    }];
                }
                out.into_iter().next()
            }
            fast::Stmt::Exit(_) => Some(Stmt::Exit),
            fast::Stmt::Cycle(_) => Some(Stmt::Cycle),
            fast::Stmt::Continue(_) => None,
            fast::Stmt::Return(_) => Some(Stmt::Return(None)),
            fast::Stmt::Call { name, args, .. } => {
                if !self.unit_names.iter().any(|u| u == name) {
                    self.note(format_args!("CALL of external `{name}` not lifted"));
                    return None;
                }
                let mapped: Result<Vec<Expr>, String> =
                    args.iter().map(|a| self.expr(a)).collect();
                match mapped {
                    Ok(a) => Some(Stmt::CallSub { name: name.clone(), args: a }),
                    Err(e) => {
                        self.note(format_args!("CALL `{name}` not lifted ({e})"));
                        None
                    }
                }
            }
            fast::Stmt::Do { span, .. } => {
                self.note(format_args!(
                    "imperfectly nested DO at line {} kept opaque",
                    span.line
                ));
                None
            }
            fast::Stmt::Label(_, span) | fast::Stmt::Branch(_, span) => {
                self.note(format_args!(
                    "internal error: a label or branch at line {} outlived the legalizer",
                    span.line
                ));
                None
            }
            other => {
                self.note(format_args!(
                    "statement at line {} outside the GLAF subset",
                    other.span().line
                ));
                None
            }
        }
    }

    fn stmts(&mut self, body: &[fast::Stmt]) -> Vec<Stmt> {
        body.iter().filter_map(|s| self.stmt(s)).collect()
    }
}

/// Lifts every unit of `ast` into one `glaf_ir` module. See the module
/// docs for the coverage contract.
pub fn lift_ast(ast: &fast::Ast, module_name: &str) -> IngestReport {
    let unit_names: Vec<String> = ast
        .modules
        .iter()
        .flat_map(|m| m.units.iter().map(|u| u.name.clone()))
        .collect();
    let mut skipped = Vec::new();
    let mut lifted_loops = 0usize;

    let mut mb = ProgramBuilder::new().module(module_name);
    for m in &ast.modules {
        for unit in &m.units {
            // Symbol table: every declared entity with a GLAF data type.
            let mut lift = Lift {
                syms: HashMap::new(),
                unit_names: unit_names.clone(),
                idx_stack: Vec::new(),
                unit: &unit.name,
                skipped: Vec::new(),
                lifted_loops: 0,
            };
            let mut grids: Vec<(String, Grid)> = Vec::new();
            for d in &unit.decls {
                let Some(ty) = data_type(&d.spec) else {
                    lift.note(format_args!(
                        "declaration at line {} has no GLAF data type",
                        d.span.line
                    ));
                    continue;
                };
                for e in &d.entities {
                    let dims = e.dims.as_ref().or(d.attrs.dims.as_ref());
                    let mut gb = Grid::build(e.name.clone()).typed(ty);
                    let mut rank = 0;
                    if let Some(dims) = dims {
                        for dd in dims {
                            let lo = const_bound(&dd.lo).unwrap_or(1);
                            let hi = match const_bound(&dd.hi) {
                                Some(h) => h,
                                None => {
                                    lift.note(format_args!(
                                        "array `{}` has a non-constant extent; \
                                         modeled as {DEFAULT_EXTENT}",
                                        e.name
                                    ));
                                    lo + DEFAULT_EXTENT - 1
                                }
                            };
                            gb = gb.dim(lo, hi);
                            rank += 1;
                        }
                    }
                    match gb.finish() {
                        Ok(g) => {
                            lift.syms.insert(e.name.clone(), Sym { rank });
                            grids.push((e.name.clone(), g));
                        }
                        Err(err) => lift.note(format_args!(
                            "grid `{}` not modeled ({err:?})",
                            e.name
                        )),
                    }
                }
            }

            let ret = match &unit.kind {
                fast::UnitKind::Function(ts) => data_type(ts).unwrap_or(DataType::Real8),
                fast::UnitKind::Subroutine => DataType::Integer,
            };
            // A FUNCTION's result variable is its own name; model it as
            // a scalar grid so result assignments lift.
            if matches!(unit.kind, fast::UnitKind::Function(_))
                && !lift.syms.contains_key(&unit.name)
            {
                if let Ok(g) = Grid::build(unit.name.clone()).typed(ret).finish() {
                    lift.syms.insert(unit.name.clone(), Sym { rank: 0 });
                    grids.push((unit.name.clone(), g));
                }
            }
            let mut fb = match &unit.kind {
                fast::UnitKind::Function(_) => mb.function(unit.name.clone(), ret),
                fast::UnitKind::Subroutine => mb.subroutine(unit.name.clone()),
            };
            let param_set: Vec<&String> = unit.params.iter().collect();
            for (name, g) in grids {
                if param_set.iter().any(|p| **p == name) {
                    fb = fb.param(g);
                } else {
                    fb = fb.local(g);
                }
            }

            // Body: DO nests become loop steps; runs of straight-line
            // statements between them become straight steps.
            let mut straight: Vec<Stmt> = Vec::new();
            let mut step_no = 0usize;
            for s in &unit.body {
                if let fast::Stmt::Do { .. } = s {
                    if !straight.is_empty() {
                        step_no += 1;
                        fb = fb.straight_step(format!("s{step_no}"), std::mem::take(&mut straight));
                    }
                    step_no += 1;
                    let mut sb = fb.loop_step(format!("do@{}", s.span().line));
                    // Chase the perfect prefix of the nest: each level
                    // whose body is exactly one inner DO chains another
                    // foreach; the innermost body provides the formulas.
                    let mut cur = s;
                    let mut depth = 0usize;
                    loop {
                        let fast::Stmt::Do { var, start, end, step, body, .. } = cur else {
                            unreachable!("loop chase starts at a DO");
                        };
                        let (lo, hi) = match (lift.expr(start), lift.expr(end)) {
                            (Ok(l), Ok(h)) => (l, h),
                            (Err(e), _) | (_, Err(e)) => {
                                lift.note(format_args!(
                                    "DO bounds at line {} not lifted ({e})",
                                    cur.span().line
                                ));
                                (Expr::int(1), Expr::int(DEFAULT_EXTENT))
                            }
                        };
                        lift.idx_stack.push(var.clone());
                        depth += 1;
                        sb = match step {
                            None => sb.foreach(var.clone(), lo, hi),
                            Some(st) => {
                                let st = lift.expr(st).unwrap_or(Expr::int(1));
                                sb.foreach_step(var.clone(), lo, hi, st)
                            }
                        };
                        match body.as_slice() {
                            [inner @ fast::Stmt::Do { .. }] => cur = inner,
                            _ => {
                                for mapped in lift.stmts(body) {
                                    sb = sb.stmt(mapped);
                                }
                                break;
                            }
                        }
                    }
                    lift.lifted_loops += 1;
                    lift.idx_stack.truncate(lift.idx_stack.len() - depth);
                    fb = sb.done();
                } else if let Some(mapped) = lift.stmt(s) {
                    straight.push(mapped);
                }
            }
            if !straight.is_empty() {
                step_no += 1;
                fb = fb.straight_step(format!("s{step_no}"), straight);
            }
            mb = fb.done();
            skipped.extend(lift.skipped);
            lifted_loops += lift.lifted_loops;
        }
    }

    IngestReport { program: mb.done().finish(), lifted_loops, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifts_fixed_form_common_program() {
        let src = "\n      SUBROUTINE SCALE(N)\n      COMMON /DAT/ A(8), S\n\
                   \n      DO 10 I = 1, N\n      A(I) = A(I) * 2.0 + 1.0\n\
                   \x20  10 CONTINUE\n      S = A(1)\n      END\n";
        let set = fortrans::ProgramSet::from_sources(&[src]).expect("compiles");
        let report = lift_ast(&set.ast, "ingested");
        assert_eq!(report.lifted_loops, 1);
        let (_, log) = glaf_autopar::analyze_program_with_log(&report.program);
        let rendered = log.render();
        assert!(rendered.contains("do@"), "decision log names the loop: {rendered}");
    }

    #[test]
    fn notes_unliftable_constructs_instead_of_failing() {
        let src = "\n      K = 1\n      PRINT *, K\n      END\n";
        let set = fortrans::ProgramSet::from_sources(&[src]).expect("compiles");
        let report = lift_ast(&set.ast, "ingested");
        assert!(
            report.skipped.iter().any(|n| n.contains("outside the GLAF subset")),
            "PRINT must be noted, got: {:?}",
            report.skipped
        );
    }
}
