//! Semantic analysis: name resolution, type checking and slot assignment.
//!
//! Responsibilities:
//!
//! * builds the global storage layout — module variables (derived-type
//!   variables are flattened to one cell per field path, e.g. `fo%fd`),
//!   COMMON block members (storage-associated by position across program
//!   units), and SAVE / THREADPRIVATE locals (per-thread persistent);
//! * resolves every name to a frame slot or global cell, inserting numeric
//!   conversions so the interpreter never type-dispatches dynamically;
//! * disambiguates `name(args)` into array element, intrinsic call,
//!   whole-array reduction, `ALLOCATED`, or user-function call — the
//!   classic FORTRAN resolution problem;
//! * validates and lowers OpenMP clauses (PRIVATE/REDUCTION/COLLAPSE/
//!   NUM_THREADS/SCHEDULE) and `!$OMP ATOMIC` update patterns;
//! * classifies serial DO loops for the compiler model (memset / SIMD /
//!   not-vectorizable).
//!
//! Names resolve through a chain of scopes — what the unit binds, the
//! modules its own `USE`s reach, the modules its module's `USE`s reach —
//! and the nearest declaration wins; nothing is copied at a `USE`.
//! Constant expressions fold in `crate::cfold`, looked up through the
//! same chain. `Resolver::declare_global` is the one place a storage
//! cell is made and `UnitCtx::bind` the one place a name is bound
//! (DESIGN.md §8, "Name resolution").

use std::collections::HashMap;

use crate::ast::{self, Ast, Bin, DimDecl, Expr, Stmt, TypeSpec, UnitKind};
use crate::cfold::{cfold, extents};
use crate::error::{CompileError, Span};
use crate::intrinsics::Intr;
use crate::rir::*;

/// Resolves a parsed program.
pub fn resolve(ast: &Ast) -> Result<RProgram, CompileError> {
    let mut r = Resolver::default();
    r.collect_modules(ast)?;
    r.collect_unit_signatures(ast)?;
    // Every unit's declarations before any body, so that each call site
    // knows its callee's dummies.
    let mut heads = Vec::new();
    for (mi, m) in ast.modules.iter().enumerate() {
        for u in &m.units {
            let uc = r.unit_head(mi, u)?;
            r.dummies.push(uc.vars[..u.params.len()].iter().map(|d| (d.ty, d.rank)).collect());
            heads.push((uc, u));
        }
    }
    let mut units = Vec::with_capacity(heads.len());
    for (mut uc, u) in heads {
        let body = r.resolve_block(&mut uc, &u.body)?;
        units.push(std::sync::Arc::new(RUnit {
            name: u.name.clone(),
            params: (0..u.params.len()).collect(),
            frame_size: uc.frame_size,
            result: uc.result,
            vars: uc.vars,
            body,
        }));
    }
    let mut prog = RProgram { units, globals: r.globals };
    mark_per_thread_regions(&mut prog);
    Ok(prog)
}

/// Where a declared name lives, with the type and shape a reference needs.
#[derive(Debug, Clone)]
struct Sym {
    place: Place,
    ty: ScalarTy,
    rank: usize,
    dims: Vec<(i64, i64)>,
    allocatable: bool,
}

/// What a declaration says of one entity, before the entity has storage.
struct DeclInfo {
    ty: ScalarTy,
    rank: usize,
    dims: Vec<(i64, i64)>,
    allocatable: bool,
    save: bool,
    init: Option<InitV>,
}

/// A static initializer: scalar bits, or one word per array element (what
/// `f77spec` makes of a `DATA` statement).
enum InitV {
    One(u64),
    Many(Vec<u64>),
}

impl InitV {
    /// The two fields a [`GlobalDecl`] keeps an initializer in.
    fn split(init: Option<InitV>) -> (Option<u64>, Option<Vec<u64>>) {
        match init {
            Some(InitV::One(bits)) => (Some(bits), None),
            Some(InitV::Many(words)) => (None, Some(words)),
            None => (None, None),
        }
    }
}

impl DeclInfo {
    /// The entity, stored at `place`.
    fn at(self, place: Place) -> Sym {
        let DeclInfo { ty, rank, dims, allocatable, .. } = self;
        Sym { place, ty, rank, dims, allocatable }
    }
}

/// A user subprogram signature.
#[derive(Debug, Clone, Copy)]
struct UnitSig {
    id: UnitId,
    ret: Option<ScalarTy>,
}

/// What one module declares, and which modules its units can see.
#[derive(Default)]
struct ModScope {
    /// The module itself, then the modules its `USE`s reach, nearest first.
    visible: Vec<usize>,
    vars: HashMap<String, Sym>,
    consts: HashMap<String, Expr>,
    types: HashMap<String, Vec<FieldInfo>>,
}

/// Where constants are looked up: a unit's own `PARAMETER`s (none at
/// module scope), then the modules of a visibility chain in order.
#[derive(Clone, Copy)]
struct Scope<'a> {
    consts: Option<&'a HashMap<String, Expr>>,
    modules: &'a [usize],
}

#[derive(Default)]
struct Resolver {
    globals: Vec<GlobalDecl>,
    modules: Vec<ModScope>,
    /// Module name -> index.
    module_ids: HashMap<String, usize>,
    /// COMMON block layouts: block name -> member cells.
    commons: HashMap<String, Vec<Sym>>,
    unit_sigs: HashMap<String, UnitSig>,
    /// Per unit, in id order: each dummy's type and rank.
    dummies: Vec<Vec<(ScalarTy, usize)>>,
}

#[derive(Debug, Clone)]
struct FieldInfo {
    name: String,
    ty: ScalarTy,
    dims: Vec<(i64, i64)>,
}

fn scalar_ty(spec: &TypeSpec) -> Option<ScalarTy> {
    match spec {
        TypeSpec::Integer => Some(ScalarTy::I),
        TypeSpec::Real | TypeSpec::Real8 => Some(ScalarTy::F),
        TypeSpec::Logical => Some(ScalarTy::B),
        TypeSpec::Character => None,
        TypeSpec::Derived(_) => None,
    }
}

/// The dimension list of entity `e`: its own, or the `DIMENSION` attribute's.
fn declared_dims<'a>(d: &'a ast::Decl, e: &'a ast::Entity) -> Option<&'a Vec<DimDecl>> {
    e.dims.as_ref().or(d.attrs.dims.as_ref())
}

fn serr(msg: impl Into<String>, span: Span) -> CompileError {
    CompileError::Sema { msg: msg.into(), span }
}

impl Resolver {
    // ------------- phase A: modules -------------

    fn collect_modules(&mut self, ast: &Ast) -> Result<(), CompileError> {
        for (mi, m) in ast.modules.iter().enumerate() {
            if self.module_ids.insert(m.name.clone(), mi).is_some() {
                return Err(serr(format!("duplicate module `{}`", m.name), m.span));
            }
        }
        for (mi, m) in ast.modules.iter().enumerate() {
            let mut visible = vec![mi];
            let mut at = 0;
            while at < visible.len() {
                for used in &ast.modules[visible[at]].uses {
                    let ui = self.module_id(used, m.span)?;
                    if !visible.contains(&ui) {
                        visible.push(ui);
                    }
                }
                at += 1;
            }
            self.modules.push(ModScope { visible, ..ModScope::default() });
        }

        // Modules declare in source order, so a module-scope declaration
        // sees of a used module what stands above it in the source set.
        for (mi, m) in ast.modules.iter().enumerate() {
            for td in &m.typedefs {
                let mut fields = Vec::new();
                for d in &td.fields {
                    let ty = scalar_ty(&d.spec).ok_or_else(|| {
                        serr("derived types may not nest derived/character fields", d.span)
                    })?;
                    for e in &d.entities {
                        let dims = self.dims_of(self.module_scope(mi), d, e)?;
                        fields.push(FieldInfo { name: e.name.clone(), ty, dims });
                    }
                }
                self.modules[mi].types.insert(td.name.clone(), fields);
            }

            for d in &m.decls {
                if d.attrs.parameter {
                    for e in &d.entities {
                        let c = self.parameter_value(self.module_scope(mi), d, e)?;
                        self.modules[mi].consts.insert(e.name.clone(), c);
                    }
                    continue;
                }
                match &d.spec {
                    TypeSpec::Derived(tname) => {
                        let fields = self
                            .find(&self.modules[mi].visible, tname, |m| &m.types)
                            .ok_or_else(|| serr(format!("unknown TYPE `{tname}`"), d.span))?
                            .clone();
                        for e in &d.entities {
                            let base = self.dims_of(self.module_scope(mi), d, e)?;
                            for f in &fields {
                                let mut dims = base.clone();
                                dims.extend(f.dims.iter().copied());
                                let key = format!("{}%{}", e.name, f.name);
                                if dims.len() > ast::MAX_RANK {
                                    let why = ast::rank_error(dims.len());
                                    return Err(serr(format!("`{key}`: {why}"), d.span));
                                }
                                let info = DeclInfo {
                                    ty: f.ty,
                                    rank: dims.len(),
                                    dims,
                                    allocatable: false,
                                    save: false,
                                    init: None,
                                };
                                self.add_module_global(mi, m, &e.name, key, info);
                            }
                        }
                    }
                    spec => {
                        let ty = scalar_ty(spec)
                            .ok_or_else(|| serr("CHARACTER module variables unsupported", d.span))?;
                        for e in &d.entities {
                            let info = self.decl_info(self.module_scope(mi), d, e, ty)?;
                            self.add_module_global(mi, m, &e.name, e.name.clone(), info);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn module_id(&self, name: &str, span: Span) -> Result<usize, CompileError> {
        let id = self.module_ids.get(name).copied();
        id.ok_or_else(|| serr(format!("USE of unknown module `{name}`"), span))
    }

    /// Declares the module variable `key` (`base` or `base%field`).
    fn add_module_global(
        &mut self,
        mi: usize,
        m: &ast::Module,
        base: &String,
        key: String,
        info: DeclInfo,
    ) {
        let per_thread = m.threadprivate.contains(base);
        let sym = self.declare_global(format!("{}::{key}", m.name), info, per_thread);
        self.modules[mi].vars.insert(key, sym);
    }

    /// Makes the storage cell `name` for a declared entity: the one place
    /// a [`GlobalDecl`] is built.
    fn declare_global(&mut self, name: String, mut info: DeclInfo, per_thread: bool) -> Sym {
        let (init_bits, init_elems) = InitV::split(info.init.take());
        let sym = info.at(Place::Global(self.globals.len()));
        self.globals.push(GlobalDecl {
            name,
            ty: sym.ty,
            rank: sym.rank,
            dims: sym.dims.clone(),
            allocatable: sym.allocatable,
            per_thread,
            reduction: false,
            init_bits,
            init_elems,
        });
        sym
    }

    // ------------- names and constants -------------

    /// What the first module of `modules` to declare `name` says of it, in
    /// the table `of` picks.
    fn find<'a, T>(
        &'a self,
        modules: &[usize],
        name: &str,
        of: impl Fn(&'a ModScope) -> &'a HashMap<String, T>,
    ) -> Option<&'a T> {
        modules.iter().find_map(|&m| of(&self.modules[m]).get(name))
    }

    fn module_scope(&self, mi: usize) -> Scope<'_> {
        Scope { consts: None, modules: &self.modules[mi].visible }
    }

    fn find_const<'a>(&'a self, scope: Scope<'a>, name: &str) -> Option<&'a Expr> {
        let own = scope.consts.and_then(|c| c.get(name));
        own.or_else(|| self.find(scope.modules, name, |m| &m.consts))
    }

    /// The literal `e` folds to in `scope`.
    fn const_of(&self, scope: Scope, e: &Expr, span: Span) -> Result<Expr, CompileError> {
        cfold(e, &|n| self.find_const(scope, n).cloned()).map_err(|at| match at {
            Expr::Name(d) => serr(format!("`{}` is not a constant", d.base()), span),
            _ => serr("unsupported constant expression", span),
        })
    }

    fn const_bits(
        &self,
        scope: Scope,
        e: &Expr,
        ty: ScalarTy,
        span: Span,
    ) -> Result<u64, CompileError> {
        Ok(match (self.const_of(scope, e, span)?, ty) {
            (Expr::Int(v), ScalarTy::I) => v as u64,
            (Expr::Int(v), ScalarTy::F) => (v as f64).to_bits(),
            (Expr::Real(v), ScalarTy::F) => v.to_bits(),
            (Expr::Logical(b), ScalarTy::B) => u64::from(b),
            _ => return Err(serr("initializer type mismatch", span)),
        })
    }

    /// Constant dims of the entity `e` that `d` declares: `(lo, hi)` with
    /// lo defaulting to 1. No dims, or deferred (`:`) ones, yield an empty
    /// vec.
    fn dims_of(
        &self,
        scope: Scope,
        d: &ast::Decl,
        e: &ast::Entity,
    ) -> Result<Vec<(i64, i64)>, CompileError> {
        let span = d.span;
        let Some(dims) = declared_dims(d, e).filter(|v| !v.iter().any(|d| d.deferred)) else {
            return Ok(vec![]);
        };
        let folded = extents(dims, &|n| self.find_const(scope, n).cloned()).ok_or_else(|| {
            serr(
                "array dimensions must be compile-time constants (use ALLOCATABLE for dynamic shapes)",
                span,
            )
        })?;
        match folded.iter().find(|(lo, hi)| hi < lo) {
            Some((lo, hi)) => Err(serr(format!("empty dimension {lo}:{hi}"), span)),
            None => Ok(folded),
        }
    }

    /// The literal the PARAMETER entity `e` of `d` stands for.
    fn parameter_value(
        &self,
        scope: Scope,
        d: &ast::Decl,
        e: &ast::Entity,
    ) -> Result<Expr, CompileError> {
        let init = e
            .init
            .as_ref()
            .ok_or_else(|| serr(format!("PARAMETER `{}` needs a value", e.name), d.span))?;
        self.const_of(scope, init, d.span)
    }

    /// Shape and initializer of the variable `e` that `d` declares.
    fn decl_info(
        &self,
        scope: Scope,
        d: &ast::Decl,
        e: &ast::Entity,
        ty: ScalarTy,
    ) -> Result<DeclInfo, CompileError> {
        let dims = self.dims_of(scope, d, e)?;
        let rank = declared_dims(d, e).map_or(0, Vec::len);
        if dims.len() != rank && !d.attrs.allocatable {
            return Err(serr(
                format!("`{}`: deferred shape requires ALLOCATABLE", e.name),
                d.span,
            ));
        }
        let init = match (&e.init, &e.init_list) {
            (Some(x), _) => Some(InitV::One(self.const_bits(scope, x, ty, d.span)?)),
            (None, Some(xs)) => {
                let count: i64 = dims.iter().map(|(lo, hi)| hi - lo + 1).product();
                if xs.len() as i64 != count {
                    return Err(serr(
                        format!(
                            "`{}`: {} initializer value(s) for {} element(s)",
                            e.name,
                            xs.len(),
                            count
                        ),
                        d.span,
                    ));
                }
                let bits = xs.iter().map(|x| self.const_bits(scope, x, ty, d.span));
                Some(InitV::Many(bits.collect::<Result<_, _>>()?))
            }
            (None, None) => None,
        };
        Ok(DeclInfo { ty, rank, dims, allocatable: d.attrs.allocatable, save: d.attrs.save, init })
    }

    // ------------- phase B: unit signatures -------------

    fn collect_unit_signatures(&mut self, ast: &Ast) -> Result<(), CompileError> {
        let mut id = 0usize;
        for m in &ast.modules {
            for u in &m.units {
                let ret = match &u.kind {
                    UnitKind::Subroutine => None,
                    UnitKind::Function(spec) => Some(scalar_ty(spec).ok_or_else(|| {
                        serr("functions must return INTEGER/REAL/LOGICAL", u.span)
                    })?),
                };
                if self
                    .unit_sigs
                    .insert(u.name.clone(), UnitSig { id, ret })
                    .is_some()
                {
                    return Err(serr(format!("duplicate subprogram `{}`", u.name), u.span));
                }
                id += 1;
            }
        }
        Ok(())
    }

    // ------------- phase C: units -------------

    /// Unit `u`'s declarations: its variables, the globals its COMMON
    /// blocks and SAVEs make, and its result slot; the dummies first.
    fn unit_head<'u>(&mut self, mi: usize, u: &'u ast::Unit) -> Result<UnitCtx<'u>, CompileError> {
        // The unit's own USEs (paper §3.1 — per-subprogram USE statements)
        // come before its module's chain.
        let mut scope: Vec<usize> = Vec::new();
        for used in u.uses.iter().map(Some).chain([None]) {
            let head = match used {
                Some(name) => self.module_id(name, u.span)?,
                None => mi,
            };
            for &v in &self.modules[head].visible {
                if !scope.contains(&v) {
                    scope.push(v);
                }
            }
        }
        let mut uc = UnitCtx {
            unit_name: &u.name,
            scope,
            vars: Vec::new(),
            names: HashMap::new(),
            consts: HashMap::new(),
            frame_size: 0,
            result: None,
            loop_depth: 0,
        };

        // Declarations: what each says (name -> decl info) first.
        let mut decls: HashMap<String, DeclInfo> = HashMap::new();
        for d in &u.decls {
            if d.attrs.parameter {
                for e in &d.entities {
                    let c = self.parameter_value(uc.scope(), d, e)?;
                    uc.consts.insert(e.name.clone(), c);
                }
                continue;
            }
            let ty = match scalar_ty(&d.spec) {
                Some(t) => t,
                None => match &d.spec {
                    TypeSpec::Derived(_) => {
                        return Err(serr(
                            "derived-type variables are only supported at module scope",
                            d.span,
                        ))
                    }
                    _ => continue, // CHARACTER declarations: tolerated, unusable
                },
            };
            for e in &d.entities {
                decls.insert(e.name.clone(), self.decl_info(uc.scope(), d, e, ty)?);
            }
        }

        // Parameters.
        for p in &u.params {
            let (name, info) = decls.remove_entry(p).ok_or_else(|| {
                serr(format!("parameter `{p}` has no declaration"), u.span)
            })?;
            let slot = uc.new_slot();
            uc.bind(name, info.at(slot), true);
        }

        // COMMON members (§3.2): storage-associated by position.
        for (block, members) in &u.commons {
            let mut layout: Vec<Sym> = Vec::new();
            for (pos, name) in members.iter().enumerate() {
                let (name, info) = decls.remove_entry(name).ok_or_else(|| {
                    serr(format!("COMMON member `{name}` has no type declaration"), u.span)
                })?;
                let sym = match self.commons.get(block) {
                    Some(prev) => {
                        let prev = prev.get(pos).ok_or_else(|| {
                            serr(format!("COMMON /{block}/ has fewer members elsewhere"), u.span)
                        })?;
                        if prev.ty != info.ty || prev.dims != info.dims {
                            return Err(serr(
                                format!(
                                    "COMMON /{block}/ member {pos} shape/type mismatch for `{name}`"
                                ),
                                u.span,
                            ));
                        }
                        let prev = prev.clone();
                        if let (Some(init), Place::Global(cell)) = (info.init, prev.place) {
                            let g = &mut self.globals[cell];
                            if g.init_bits.is_some() || g.init_elems.is_some() {
                                return Err(serr(
                                    format!(
                                        "COMMON /{block}/ member `{name}` is DATA-initialized \
                                         in more than one unit"
                                    ),
                                    u.span,
                                ));
                            }
                            (g.init_bits, g.init_elems) = InitV::split(Some(init));
                        }
                        prev
                    }
                    None => self.declare_global(format!("common {block}::{name}"), info, false),
                };
                uc.bind(name, sym.clone(), false);
                layout.push(sym);
            }
            if !self.commons.contains_key(block) {
                self.commons.insert(block.clone(), layout);
            }
        }

        // Remaining locals, in name order: slots and var numbers follow it.
        let mut locals: Vec<(String, DeclInfo)> = decls.into_iter().collect();
        locals.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (name, info) in locals {
            let sym = if info.save || info.init.is_some() {
                // SAVE, or an initializer (which implies SAVE): persistent
                // per-thread global (see DESIGN.md — matches the paper's
                // SAVE + threadprivate adaptation).
                self.declare_global(format!("{}::{name}", u.name), info, true)
            } else {
                let slot = uc.new_slot();
                info.at(slot)
            };
            uc.bind(name, sym, false);
        }

        // Function result slot.
        if let UnitKind::Function(spec) = &u.kind {
            let ty = scalar_ty(spec).unwrap();
            let place = uc.new_slot();
            let result = Sym { place, ty, rank: 0, dims: vec![], allocatable: false };
            uc.result = Some((uc.bind(u.name.clone(), result, false), ty));
        }
        Ok(uc)
    }

    // ------------- statements -------------

    fn resolve_block(
        &mut self,
        uc: &mut UnitCtx,
        body: &[Stmt],
    ) -> Result<Vec<SpStmt>, CompileError> {
        body.iter()
            .map(|s| Ok(SpStmt { line: s.span().line, s: self.resolve_stmt(uc, s)? }))
            .collect()
    }

    fn resolve_stmt(&mut self, uc: &mut UnitCtx, s: &Stmt) -> Result<RStmt, CompileError> {
        match s {
            Stmt::Assign { target, value, atomic, span } => {
                self.resolve_assign(uc, target, value, *atomic, *span)
            }
            Stmt::If { arms, else_body, span } => {
                let mut rarms = Vec::with_capacity(arms.len());
                for (c, b) in arms {
                    let (ce, ty) = self.resolve_expr(uc, c, *span)?;
                    if ty != ScalarTy::B {
                        return Err(serr("IF condition must be LOGICAL", *span));
                    }
                    rarms.push((ce, self.resolve_block(uc, b)?));
                }
                Ok(RStmt::If { arms: rarms, else_body: self.resolve_block(uc, else_body)? })
            }
            Stmt::Do { var, start, end, step, body, omp, span } => {
                self.resolve_do(uc, var, start, end, step.as_ref(), body, omp.as_ref(), *span)
            }
            Stmt::DoWhile { cond, body, span } => {
                let (ce, ty) = self.resolve_expr(uc, cond, *span)?;
                if ty != ScalarTy::B {
                    return Err(serr("DO WHILE condition must be LOGICAL", *span));
                }
                uc.loop_depth += 1;
                let body = self.resolve_block(uc, body)?;
                uc.loop_depth -= 1;
                Ok(RStmt::DoWhile { cond: ce, body })
            }
            Stmt::Call { name, args, span } => {
                let sig = self
                    .unit_sigs
                    .get(name)
                    .copied()
                    .ok_or_else(|| serr(format!("CALL of unknown subroutine `{name}`"), *span))?;
                if sig.ret.is_some() {
                    return Err(serr(format!("`{name}` is a FUNCTION, not a SUBROUTINE"), *span));
                }
                Ok(RStmt::Call(self.call(uc, sig.id, name, args, *span)?))
            }
            Stmt::Allocate { items, span } => {
                // One RStmt per item; wrap in a flat sequence via If-less
                // grouping: resolve to a chain (first item returned, rest
                // appended by caller) — simpler: only support one item per
                // statement, which is all the generators emit.
                if items.len() != 1 {
                    return Err(serr("one array per ALLOCATE statement, please", *span));
                }
                let (d, dims) = &items[0];
                let v = uc.var(self, d.base(), *span)?;
                if !uc.vars[v].allocatable {
                    return Err(serr(format!("`{}` is not ALLOCATABLE", d.base()), *span));
                }
                let rdims = dims
                    .iter()
                    .map(|dd| {
                        if dd.deferred {
                            return Err(serr("ALLOCATE needs explicit bounds", *span));
                        }
                        let hi = self.resolve_int_expr(uc, dd.hi.as_ref().unwrap(), *span)?;
                        let lo = match &dd.lo {
                            Some(e) => self.resolve_int_expr(uc, e, *span)?,
                            None => RExpr::ConstI(1),
                        };
                        Ok((lo, hi))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(RStmt::Allocate { v, dims: rdims })
            }
            Stmt::Deallocate { names, span } => {
                if names.len() != 1 {
                    return Err(serr("one array per DEALLOCATE statement, please", *span));
                }
                let v = uc.var(self, names[0].base(), *span)?;
                if !uc.vars[v].allocatable {
                    return Err(serr(format!("`{}` is not ALLOCATABLE", names[0].base()), *span));
                }
                Ok(RStmt::Deallocate { v })
            }
            Stmt::Critical { name, body, span: _ } => Ok(RStmt::Critical {
                name: name.clone().unwrap_or_default(),
                body: self.resolve_block(uc, body)?,
            }),
            Stmt::Return(_) => Ok(RStmt::Return),
            Stmt::Exit(span) => {
                if uc.loop_depth == 0 {
                    return Err(serr("EXIT outside a loop", *span));
                }
                Ok(RStmt::Exit)
            }
            Stmt::Cycle(span) => {
                if uc.loop_depth == 0 {
                    return Err(serr("CYCLE outside a loop", *span));
                }
                Ok(RStmt::Cycle)
            }
            Stmt::Continue(_) => Ok(RStmt::Nop),
            Stmt::Label(_, span) | Stmt::Branch(_, span) => {
                Err(serr("internal error: a label or branch outlived the legalizer", *span))
            }
            Stmt::Stop { message, .. } => Ok(RStmt::Stop(message.clone())),
            Stmt::Print { args, span } => {
                let mut items = Vec::new();
                for a in args {
                    match a {
                        Expr::Str(s) => items.push(PrintItem::Str(s.clone())),
                        other => {
                            let (e, _) = self.resolve_expr(uc, other, *span)?;
                            items.push(PrintItem::Val(e));
                        }
                    }
                }
                Ok(RStmt::Print(items))
            }
        }
    }

    fn resolve_assign(
        &mut self,
        uc: &mut UnitCtx,
        target: &ast::Desig,
        value: &Expr,
        atomic: bool,
        span: Span,
    ) -> Result<RStmt, CompileError> {
        let (v, subs) = self.resolve_target(uc, target, span)?;
        let (ty, rank) = (uc.vars[v].ty, uc.vars[v].rank);
        if atomic {
            // Must match `t = t op e` / `t = max(t, e)` etc.
            let (op, rest) = match_atomic_pattern(target, value).ok_or_else(|| {
                serr("!$OMP ATOMIC requires `x = x op expr` form", span)
            })?;
            let rsubs = subs
                .iter()
                .map(|e| self.resolve_int_expr(uc, e, span))
                .collect::<Result<Vec<_>, _>>()?;
            let (re, rty) = self.resolve_expr(uc, &rest, span)?;
            let re = coerce(re, rty, ty, span)?;
            return Ok(RStmt::AtomicUpdate { v, subs: rsubs, op, e: re });
        }
        // Whole-array forms.
        if rank > 0 && subs.is_empty() {
            if let Expr::Name(d) = value {
                if d.parts.len() == 1 && d.parts[0].subs.is_empty() {
                    if let Some(src) = uc.lookup(self, d.base()) {
                        if uc.vars[src].rank > 0 {
                            return Ok(RStmt::CopyArray { dst: v, src });
                        }
                    }
                }
            }
            let (re, rty) = self.resolve_expr(uc, value, span)?;
            let re = coerce(re, rty, ty, span)?;
            return Ok(RStmt::Broadcast { v, e: re });
        }
        if rank > 0 && subs.len() != rank {
            return Err(serr(
                format!("`{}` has rank {rank}, got {} subscripts", uc.vars[v].name, subs.len()),
                span,
            ));
        }
        let rsubs = subs
            .iter()
            .map(|e| self.resolve_int_expr(uc, e, span))
            .collect::<Result<Vec<_>, _>>()?;
        let (re, rty) = self.resolve_expr(uc, value, span)?;
        let re = coerce(re, rty, ty, span)?;
        if rank == 0 {
            Ok(RStmt::AssignScalar { v, e: re })
        } else {
            Ok(RStmt::AssignElem { v, subs: rsubs, e: re })
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_do(
        &mut self,
        uc: &mut UnitCtx,
        var: &str,
        start: &Expr,
        end: &Expr,
        step: Option<&Expr>,
        body: &[Stmt],
        omp: Option<&ast::OmpDo>,
        span: Span,
    ) -> Result<RStmt, CompileError> {
        let v = uc.var(self, var, span)?;
        if uc.vars[v].ty != ScalarTy::I || uc.vars[v].rank != 0 {
            return Err(serr(format!("loop variable `{var}` must be INTEGER scalar"), span));
        }
        let rstart = self.resolve_int_expr(uc, start, span)?;
        let rend = self.resolve_int_expr(uc, end, span)?;
        let rstep = match step {
            Some(e) => Some(self.resolve_int_expr(uc, e, span)?),
            None => None,
        };

        let romp = match omp {
            None => None,
            Some(o) => {
                let mut private = Vec::new();
                for n in o.private.iter().chain(o.firstprivate.iter()) {
                    private.push(uc.var(self, n, span)?);
                }
                let mut reductions = Vec::new();
                for (op, names) in &o.reductions {
                    for n in names {
                        let rv = uc.var(self, n, span)?;
                        if uc.vars[rv].rank != 0 {
                            return Err(serr(
                                format!("REDUCTION variable `{n}` must be scalar"),
                                span,
                            ));
                        }
                        reductions.push((*op, rv));
                    }
                }
                let num_threads = match &o.num_threads {
                    Some(e) => Some(Box::new(self.resolve_int_expr(uc, e, span)?)),
                    None => None,
                };
                let sched = match o.schedule {
                    None | Some((ast::SchedKind::Static, None)) => {
                        omprt::Schedule::StaticBlock
                    }
                    Some((ast::SchedKind::Static, Some(c))) => {
                        omprt::Schedule::StaticChunk(c)
                    }
                    Some((ast::SchedKind::Dynamic, c)) => {
                        omprt::Schedule::Dynamic(c.unwrap_or(1))
                    }
                    Some((ast::SchedKind::Guided, c)) => {
                        omprt::Schedule::Guided(c.unwrap_or(1))
                    }
                };
                Some(ROmp {
                    private,
                    reductions,
                    collapse: o.collapse,
                    num_threads,
                    sched,
                    // Filled by the mark_per_thread_regions post-pass.
                    per_thread_access: false,
                })
            }
        };

        // COLLAPSE(n>=2): peel perfectly-nested inner loops.
        let mut collapse_with = Vec::new();
        let mut inner_body: &[Stmt] = body;
        if let Some(ro) = &romp {
            let mut need = ro.collapse.saturating_sub(1);
            while need > 0 {
                match inner_body {
                    [Stmt::Do { var, start, end, step: None, body, omp: None, span: ispan }] => {
                        let iv = uc.var(self, var, *ispan)?;
                        collapse_with.push(CollapseDim {
                            var: iv,
                            start: self.resolve_int_expr(uc, start, *ispan)?,
                            end: self.resolve_int_expr(uc, end, *ispan)?,
                        });
                        inner_body = body;
                        need -= 1;
                    }
                    _ => {
                        return Err(serr(
                            "COLLAPSE requires a perfectly nested unit-stride DO nest",
                            span,
                        ))
                    }
                }
            }
        }

        uc.loop_depth += 1;
        let rbody = self.resolve_block(uc, inner_body)?;
        uc.loop_depth -= 1;

        let vec = if romp.is_some() { VecClass::None } else { classify_vec(&rbody) };
        Ok(RStmt::Do {
            var: v,
            start: rstart,
            end: rend,
            step: rstep,
            body: rbody,
            omp: romp,
            vec,
            collapse_with,
        })
    }

    /// The call of unit `callee`, named `name`, with `args` on the line
    /// of `span`, its copies written out (DESIGN §6, "How a call binds
    /// its arguments"). Dummy `k` is bound to a caller variable of its
    /// type and rank: a whole-array actual itself; a frame scalar of its
    /// type that the call passes once and no argument's evaluation can
    /// store to; or else a fresh frame temporary, which `enter` fills in
    /// argument order — an element's subscripts first, each but a
    /// literal into an INTEGER temporary, so they are taken once — and,
    /// for a variable or an element, `leave` copies back in argument
    /// order. A whole array passed to a scalar dummy, and anything else
    /// passed to an array dummy, is refused here: an element for an
    /// array dummy would be sequence association, which is not
    /// supported.
    fn call(
        &mut self,
        uc: &mut UnitCtx,
        callee: UnitId,
        name: &str,
        args: &[Expr],
        span: Span,
    ) -> Result<RCall, CompileError> {
        let dummies = self.dummies[callee].clone();
        if dummies.len() != args.len() {
            let msg = format!("`{name}` takes {} args, got {}", dummies.len(), args.len());
            return Err(serr(msg, span));
        }
        /// An actual argument: a whole variable, an element, or a value.
        enum Actual {
            Var(VarIdx),
            Elem(VarIdx, Vec<RExpr>),
            Value(RExpr),
        }
        let mut actuals = Vec::with_capacity(args.len());
        for a in args {
            let (var, subs) = match a {
                Expr::Name(d) if d.parts.len() == 1 => {
                    (uc.lookup(self, d.base()), &d.parts[0].subs[..])
                }
                _ => (None, &[][..]),
            };
            actuals.push(match var {
                Some(v) if subs.is_empty() => Actual::Var(v),
                Some(v) if uc.vars[v].rank == subs.len() => {
                    let subs = subs
                        .iter()
                        .map(|e| self.resolve_int_expr(uc, e, span))
                        .collect::<Result<_, _>>()?;
                    Actual::Elem(v, subs)
                }
                _ => Actual::Value(self.resolve_expr(uc, a, span)?.0),
            });
        }
        let stored = |v: VarIdx| {
            actuals.iter().any(|a| match a {
                Actual::Var(_) => false,
                Actual::Elem(_, subs) => subs.iter().any(|e| expr_copies_out_to(e, v)),
                Actual::Value(e) => expr_copies_out_to(e, v),
            })
        };
        let at = |s: RStmt| SpStmt { line: span.line, s };
        let (binds, enter, leave) = (Vec::new(), Vec::new(), Vec::new());
        let mut call = RCall { unit: callee, binds, enter, leave };
        for ((k, a), &(ty, rank)) in (1..).zip(&actuals).zip(&dummies) {
            let shape = |what: String, dummy: &str| {
                serr(format!("`{name}` argument {k}: {what} passed to {dummy} dummy"), span)
            };
            let temp = |uc: &mut UnitCtx, label: String, ty: ScalarTy| {
                let place = uc.new_slot();
                let sym = Sym { place, ty, rank: 0, dims: Vec::new(), allocatable: false };
                uc.bind(format!("{name}%{label}"), sym, false)
            };
            let bind = match *a {
                Actual::Var(v) if uc.vars[v].rank > 0 => {
                    if rank == 0 {
                        return Err(shape(format!("array `{}`", uc.vars[v].name), "a scalar"));
                    }
                    v
                }
                _ if rank > 0 => {
                    let what = match a {
                        Actual::Var(v) => format!("scalar `{}`", uc.vars[*v].name),
                        Actual::Elem(v, _) => format!(
                            "an element of `{}` (sequence association is not supported)",
                            uc.vars[*v].name
                        ),
                        Actual::Value(_) => "an expression".to_string(),
                    };
                    return Err(shape(what, "an array"));
                }
                Actual::Var(v) => {
                    let info = &uc.vars[v];
                    let once = actuals.iter().filter(|b| matches!(b, Actual::Var(w) if *w == v));
                    if matches!(info.place, Place::Frame(_))
                        && info.ty == ty
                        && once.count() == 1
                        && !stored(v)
                    {
                        v
                    } else {
                        let t = temp(uc, k.to_string(), ty);
                        call.enter.push(at(RStmt::AssignScalar { v: t, e: RExpr::LoadScalar(v) }));
                        call.leave.push(at(RStmt::AssignScalar { v, e: RExpr::LoadScalar(t) }));
                        t
                    }
                }
                Actual::Elem(v, ref subs) => {
                    let mut taken = Vec::with_capacity(subs.len());
                    for (j, e) in subs.iter().enumerate() {
                        taken.push(match e {
                            RExpr::ConstI(_) => e.clone(),
                            _ => {
                                let s = temp(uc, format!("{k}%{}", j + 1), ScalarTy::I);
                                call.enter.push(at(RStmt::AssignScalar { v: s, e: e.clone() }));
                                RExpr::LoadScalar(s)
                            }
                        });
                    }
                    let t = temp(uc, k.to_string(), ty);
                    let e = RExpr::LoadElem { v, subs: taken.clone() };
                    call.enter.push(at(RStmt::AssignScalar { v: t, e }));
                    let e = RExpr::LoadScalar(t);
                    call.leave.push(at(RStmt::AssignElem { v, subs: taken, e }));
                    t
                }
                Actual::Value(ref e) => {
                    let t = temp(uc, k.to_string(), ty);
                    call.enter.push(at(RStmt::AssignScalar { v: t, e: e.clone() }));
                    t
                }
            };
            call.binds.push(bind);
        }
        Ok(call)
    }

    // ------------- expressions -------------

    fn resolve_int_expr(
        &mut self,
        uc: &mut UnitCtx,
        e: &Expr,
        span: Span,
    ) -> Result<RExpr, CompileError> {
        let (re, ty) = self.resolve_expr(uc, e, span)?;
        coerce(re, ty, ScalarTy::I, span)
    }

    fn resolve_expr(
        &mut self,
        uc: &mut UnitCtx,
        e: &Expr,
        span: Span,
    ) -> Result<(RExpr, ScalarTy), CompileError> {
        match e {
            Expr::Int(v) => Ok((RExpr::ConstI(*v), ScalarTy::I)),
            Expr::Real(v) => Ok((RExpr::ConstF(*v), ScalarTy::F)),
            Expr::Logical(b) => Ok((RExpr::ConstB(*b), ScalarTy::B)),
            Expr::Str(_) => Err(serr("string values only in PRINT/STOP", span)),
            Expr::Neg(x) => {
                let (rx, ty) = self.resolve_expr(uc, x, span)?;
                if ty == ScalarTy::B {
                    return Err(serr("cannot negate LOGICAL", span));
                }
                Ok((RExpr::Neg(Box::new(rx)), ty))
            }
            Expr::Not(x) => {
                let (rx, ty) = self.resolve_expr(uc, x, span)?;
                if ty != ScalarTy::B {
                    return Err(serr(".NOT. needs a LOGICAL", span));
                }
                Ok((RExpr::Not(Box::new(rx)), ScalarTy::B))
            }
            Expr::Bin(op, l, r) => {
                let (rl, tl) = self.resolve_expr(uc, l, span)?;
                let (rr, tr) = self.resolve_expr(uc, r, span)?;
                match op {
                    Bin::And | Bin::Or => {
                        if tl != ScalarTy::B || tr != ScalarTy::B {
                            return Err(serr("logical operator on non-LOGICAL", span));
                        }
                        Ok((
                            RExpr::Bin {
                                op: *op,
                                ty: ScalarTy::B,
                                l: Box::new(rl),
                                r: Box::new(rr),
                            },
                            ScalarTy::B,
                        ))
                    }
                    Bin::Eq | Bin::Ne | Bin::Lt | Bin::Le | Bin::Gt | Bin::Ge => {
                        let common = promote(tl, tr, span)?;
                        let rl = coerce(rl, tl, common, span)?;
                        let rr = coerce(rr, tr, common, span)?;
                        Ok((
                            RExpr::Bin { op: *op, ty: common, l: Box::new(rl), r: Box::new(rr) },
                            ScalarTy::B,
                        ))
                    }
                    _ => {
                        // Arithmetic. `F ** I` keeps an integer exponent.
                        if *op == Bin::Pow && tl == ScalarTy::F && tr == ScalarTy::I {
                            return Ok((
                                RExpr::Bin {
                                    op: *op,
                                    ty: ScalarTy::F,
                                    l: Box::new(rl),
                                    r: Box::new(rr),
                                },
                                ScalarTy::F,
                            ));
                        }
                        let common = promote(tl, tr, span)?;
                        let rl = coerce(rl, tl, common, span)?;
                        let rr = coerce(rr, tr, common, span)?;
                        Ok((
                            RExpr::Bin { op: *op, ty: common, l: Box::new(rl), r: Box::new(rr) },
                            common,
                        ))
                    }
                }
            }
            Expr::Name(d) => self.resolve_name(uc, d, span),
        }
    }

    fn resolve_name(
        &mut self,
        uc: &mut UnitCtx,
        d: &ast::Desig,
        span: Span,
    ) -> Result<(RExpr, ScalarTy), CompileError> {
        // Derived-type path: base%field — flattened global.
        if d.parts.len() == 2 {
            let key = format!("{}%{}", d.parts[0].name, d.parts[1].name);
            let v = uc.var(self, &key, span)?;
            let mut subs = Vec::new();
            for s in d.parts[0].subs.iter().chain(d.parts[1].subs.iter()) {
                subs.push(self.resolve_int_expr(uc, s, span)?);
            }
            let info = &uc.vars[v];
            return if subs.is_empty() && info.rank == 0 {
                Ok((RExpr::LoadScalar(v), info.ty))
            } else if subs.len() == info.rank {
                Ok((RExpr::LoadElem { v, subs }, info.ty))
            } else {
                Err(serr(format!("`{key}`: wrong number of subscripts"), span))
            };
        }
        if d.parts.len() > 2 {
            return Err(serr("at most one `%` component is supported", span));
        }

        let part = &d.parts[0];
        let name = part.name.as_str();

        // Constants, unless a variable the unit binds hides the name.
        let bound = uc.names.get(name).copied();
        if bound.is_none() && part.subs.is_empty() {
            if let Some(lit) = self.find_const(uc.scope(), name).cloned() {
                return self.resolve_expr(uc, &lit, span);
            }
        }

        // Variables.
        if let Some(v) = bound.or_else(|| uc.lookup(self, name)) {
            let (ty, rank) = (uc.vars[v].ty, uc.vars[v].rank);
            if part.subs.is_empty() {
                if rank == 0 {
                    return Ok((RExpr::LoadScalar(v), ty));
                }
                return Err(serr(
                    format!("whole-array `{name}` not valid in this expression"),
                    span,
                ));
            }
            if rank > 0 {
                if part.subs.len() != rank {
                    return Err(serr(
                        format!("`{name}` has rank {rank}, got {} subscripts", part.subs.len()),
                        span,
                    ));
                }
                let subs = part
                    .subs
                    .iter()
                    .map(|e| self.resolve_int_expr(uc, e, span))
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok((RExpr::LoadElem { v, subs }, ty));
            }
            return Err(serr(format!("scalar `{name}` subscripted"), span));
        }

        // ALLOCATED(x).
        if name == "allocated" && part.subs.len() == 1 {
            if let Expr::Name(ad) = &part.subs[0] {
                let v = uc.var(self, ad.base(), span)?;
                if !uc.vars[v].allocatable {
                    return Err(serr(format!("`{}` is not ALLOCATABLE", ad.base()), span));
                }
                return Ok((RExpr::AllocatedQ(v), ScalarTy::B));
            }
            return Err(serr("ALLOCATED takes a variable", span));
        }

        // Whole-array reductions: SUM/MAXVAL/MINVAL/SIZE(array).
        if let Some(f) = match name {
            "sum" => Some(ArrRed::Sum),
            "maxval" => Some(ArrRed::Maxval),
            "minval" => Some(ArrRed::Minval),
            "size" => Some(ArrRed::Size),
            _ => None,
        } {
            if part.subs.len() == 1 {
                if let Expr::Name(ad) = &part.subs[0] {
                    if ad.parts.len() == 1 && ad.parts[0].subs.is_empty() {
                        if let Some(v) = uc.lookup(self, ad.base()) {
                            if uc.vars[v].rank > 0 {
                                let ty = if f == ArrRed::Size {
                                    ScalarTy::I
                                } else {
                                    uc.vars[v].ty
                                };
                                return Ok((RExpr::ArrReduce { f, v }, ty));
                            }
                        }
                    }
                }
            }
            if name == "sum" || name == "maxval" || name == "minval" || name == "size" {
                return Err(serr(
                    format!("{} takes one whole-array argument", name.to_uppercase()),
                    span,
                ));
            }
        }

        // Scalar intrinsics.
        if let Some(f) = Intr::from_name(name) {
            let (lo, hi) = f.arity();
            if part.subs.len() < lo || part.subs.len() > hi {
                return Err(serr(
                    format!("{} expects {lo}..{hi} arguments", name.to_uppercase()),
                    span,
                ));
            }
            let mut rargs = Vec::new();
            let mut tys = Vec::new();
            for a in &part.subs {
                let (re, ty) = self.resolve_expr(uc, a, span)?;
                if ty == ScalarTy::B {
                    return Err(serr("LOGICAL argument to numeric intrinsic", span));
                }
                rargs.push(re);
                tys.push(ty);
            }
            // Promote: any F makes all F, except INT/NINT which force eval
            // in F and return I.
            let arg_common = if tys.contains(&ScalarTy::F) || f.is_special()
                || matches!(f, Intr::Int | Intr::Nint | Intr::Real | Intr::Dble)
            {
                ScalarTy::F
            } else {
                ScalarTy::I
            };
            let rargs = rargs
                .into_iter()
                .zip(tys.iter())
                .map(|(a, &t)| coerce(a, t, arg_common, span))
                .collect::<Result<Vec<_>, _>>()?;
            let ret = f.result_ty(arg_common);
            return Ok((RExpr::Intrinsic { f, args: rargs }, ret));
        }

        // User function call.
        if let Some(sig) = self.unit_sigs.get(name).copied() {
            let ret = sig
                .ret
                .ok_or_else(|| serr(format!("SUBROUTINE `{name}` used as a function"), span))?;
            let call = Box::new(self.call(uc, sig.id, name, &part.subs, span)?);
            return Ok((RExpr::Call { call, ret }, ret));
        }

        Err(serr(format!("unknown name `{name}`"), span))
    }

    /// Resolves an assignment target to (var, subscript exprs).
    fn resolve_target<'a>(
        &mut self,
        uc: &mut UnitCtx,
        d: &'a ast::Desig,
        span: Span,
    ) -> Result<(VarIdx, Vec<&'a Expr>), CompileError> {
        if d.parts.len() == 2 {
            let key = format!("{}%{}", d.parts[0].name, d.parts[1].name);
            let v = uc.var(self, &key, span)?;
            let subs: Vec<&Expr> = d.parts[0].subs.iter().chain(d.parts[1].subs.iter()).collect();
            return Ok((v, subs));
        }
        let v = uc.var(self, d.base(), span)?;
        Ok((v, d.parts[0].subs.iter().collect()))
    }
}

/// Per-unit resolution context.
struct UnitCtx<'a> {
    unit_name: &'a str,
    /// The modules a name the unit does not declare is looked up in, in
    /// order: what the unit's own `USE`s see, then what its module sees.
    scope: Vec<usize>,
    vars: Vec<VarInfo>,
    names: HashMap<String, VarIdx>,
    consts: HashMap<String, Expr>,
    frame_size: usize,
    result: Option<(VarIdx, ScalarTy)>,
    loop_depth: usize,
}

impl UnitCtx<'_> {
    fn scope(&self) -> Scope<'_> {
        Scope { consts: Some(&self.consts), modules: &self.scope }
    }

    fn new_slot(&mut self) -> Place {
        self.frame_size += 1;
        Place::Frame(self.frame_size - 1)
    }

    /// Binds `name` to `sym`: the one place a [`VarInfo`] is built.
    fn bind(&mut self, name: String, sym: Sym, is_param: bool) -> VarIdx {
        let Sym { place, ty, rank, dims, allocatable } = sym;
        let idx = self.vars.len();
        self.names.insert(name.clone(), idx);
        self.vars.push(VarInfo { name, ty, place, rank, dims, allocatable, is_param });
        idx
    }

    /// Looks a variable up: what the unit binds, then the module
    /// variables of its scope chain, bound on first use.
    fn lookup(&mut self, r: &Resolver, name: &str) -> Option<VarIdx> {
        if let Some(&idx) = self.names.get(name) {
            return Some(idx);
        }
        let sym = r.find(&self.scope, name, |m| &m.vars)?.clone();
        Some(self.bind(name.to_string(), sym, false))
    }

    /// [`UnitCtx::lookup`] for a name that has to be a variable.
    fn var(&mut self, r: &Resolver, name: &str, span: Span) -> Result<VarIdx, CompileError> {
        self.lookup(r, name).ok_or_else(|| {
            serr(format!("unknown variable `{name}` in `{}`", self.unit_name), span)
        })
    }
}

fn promote(a: ScalarTy, b: ScalarTy, span: Span) -> Result<ScalarTy, CompileError> {
    match (a, b) {
        (ScalarTy::B, _) | (_, ScalarTy::B) => {
            Err(serr("LOGICAL in arithmetic context", span))
        }
        (ScalarTy::F, _) | (_, ScalarTy::F) => Ok(ScalarTy::F),
        _ => Ok(ScalarTy::I),
    }
}

fn coerce(e: RExpr, from: ScalarTy, to: ScalarTy, span: Span) -> Result<RExpr, CompileError> {
    match (from, to) {
        (a, b) if a == b => Ok(e),
        (ScalarTy::I, ScalarTy::F) => Ok(RExpr::ToF(Box::new(e))),
        (ScalarTy::F, ScalarTy::I) => Ok(RExpr::ToI(Box::new(e))),
        _ => Err(serr("LOGICAL/numeric type mismatch", span)),
    }
}

/// Detects the `x = x op e` family for `!$OMP ATOMIC`.
fn match_atomic_pattern(target: &ast::Desig, value: &Expr) -> Option<(ast::RedOp, Expr)> {
    let same = |e: &Expr| matches!(e, Expr::Name(d) if d == target);
    match value {
        Expr::Bin(Bin::Add, l, r) => {
            if same(l) {
                Some((ast::RedOp::Add, (**r).clone()))
            } else if same(r) {
                Some((ast::RedOp::Add, (**l).clone()))
            } else {
                None
            }
        }
        Expr::Bin(Bin::Sub, l, r) if same(l) => {
            Some((ast::RedOp::Add, Expr::Neg(Box::new((**r).clone()))))
        }
        Expr::Bin(Bin::Mul, l, r) => {
            if same(l) {
                Some((ast::RedOp::Mul, (**r).clone()))
            } else if same(r) {
                Some((ast::RedOp::Mul, (**l).clone()))
            } else {
                None
            }
        }
        Expr::Name(d) if d.parts.len() == 1 && d.parts[0].subs.len() == 2 => {
            let f = &d.parts[0];
            let op = match f.name.as_str() {
                "max" => ast::RedOp::Max,
                "min" => ast::RedOp::Min,
                _ => return None,
            };
            if same(&f.subs[0]) {
                Some((op, f.subs[1].clone()))
            } else if same(&f.subs[1]) {
                Some((op, f.subs[0].clone()))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Compiler-model vectorization classification of a (serial) loop body.
fn classify_vec(body: &[SpStmt]) -> VecClass {
    let simple = body.iter().all(|s| {
        matches!(
            s.s,
            RStmt::AssignElem { .. } | RStmt::AssignScalar { .. } | RStmt::Broadcast { .. }
        )
    });
    if !simple {
        return VecClass::None;
    }
    if body.len() == 1 {
        if let RStmt::AssignElem { e, .. } = &body[0].s {
            if matches!(e, RExpr::ConstF(v) if *v == 0.0) || matches!(e, RExpr::ConstI(0)) {
                return VecClass::Memset;
            }
        }
    }
    VecClass::Simd
}
