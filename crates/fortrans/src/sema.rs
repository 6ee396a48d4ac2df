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

use std::collections::HashMap;

use crate::ast::{self, Ast, Bin, DimDecl, Expr, Stmt, TypeSpec, UnitKind};
use crate::error::{CompileError, Span};
use crate::intrinsics::Intr;
use crate::rir::*;

/// Resolves a parsed program.
pub fn resolve(ast: &Ast) -> Result<RProgram, CompileError> {
    let mut r = Resolver::default();
    r.collect_modules(ast)?;
    r.collect_unit_signatures(ast)?;
    for (mi, m) in ast.modules.iter().enumerate() {
        for u in &m.units {
            let ru = r.resolve_unit(mi, u)?;
            let id = r.unit_sigs[&ru.name].id;
            r.units[id] = Some(ru);
        }
    }
    let units = r
        .units
        .into_iter()
        .map(|u| u.expect("every signature has a body"))
        .collect();
    let mut prog = RProgram { units, globals: r.globals };
    mark_per_thread_regions(&mut prog);
    Ok(prog)
}

/// A compile-time constant (PARAMETER).
#[derive(Debug, Clone, Copy)]
enum Const {
    I(i64),
    F(f64),
    B(bool),
}

/// A visible global symbol.
#[derive(Debug, Clone)]
struct GlobalSym {
    cell: usize,
    ty: ScalarTy,
    rank: usize,
    dims: Vec<(i64, i64)>,
    allocatable: bool,
}

/// A user subprogram signature.
#[derive(Debug, Clone)]
struct UnitSig {
    id: UnitId,
    ret: Option<ScalarTy>,
    nparams: usize,
}

#[derive(Default)]
struct Resolver {
    globals: Vec<GlobalDecl>,
    /// Per-module: visible global symbols (own + transitively used).
    module_syms: Vec<HashMap<String, GlobalSym>>,
    /// Per-module constants.
    module_consts: Vec<HashMap<String, Const>>,
    /// Module name -> index.
    module_ids: HashMap<String, usize>,
    /// Typedefs per module (name -> field decls).
    typedefs: Vec<HashMap<String, Vec<FieldInfo>>>,
    /// COMMON block layouts: block name -> member cells.
    commons: HashMap<String, Vec<GlobalSym>>,
    unit_sigs: HashMap<String, UnitSig>,
    units: Vec<Option<RUnit>>,
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
            self.module_syms.push(HashMap::new());
            self.module_consts.push(HashMap::new());
            self.typedefs.push(HashMap::new());
        }

        for (mi, m) in ast.modules.iter().enumerate() {
            // Typedefs (own module; uses resolved below through lookup).
            for td in &m.typedefs {
                let mut fields = Vec::new();
                for d in &td.fields {
                    let ty = scalar_ty(&d.spec).ok_or_else(|| {
                        serr("derived types may not nest derived/character fields", d.span)
                    })?;
                    for e in &d.entities {
                        let dims = self.const_dims_owned(
                            mi,
                            e.dims.as_ref().or(d.attrs.dims.as_ref()),
                            d.span,
                        )?;
                        fields.push(FieldInfo { name: e.name.clone(), ty, dims });
                    }
                }
                self.typedefs[mi].insert(td.name.clone(), fields);
            }

            // Module variables and constants.
            for d in &m.decls {
                if d.attrs.parameter {
                    for e in &d.entities {
                        let init = e.init.as_ref().ok_or_else(|| {
                            serr(format!("PARAMETER `{}` needs a value", e.name), d.span)
                        })?;
                        let c = self.const_eval(mi, init, d.span)?;
                        self.module_consts[mi].insert(e.name.clone(), c);
                    }
                    continue;
                }
                match &d.spec {
                    TypeSpec::Derived(tname) => {
                        let fields = self
                            .find_typedef(mi, m, tname)
                            .ok_or_else(|| serr(format!("unknown TYPE `{tname}`"), d.span))?
                            .clone();
                        for e in &d.entities {
                            let base_dims = self.const_dims_owned(
                                mi,
                                e.dims.as_ref().or(d.attrs.dims.as_ref()),
                                d.span,
                            )?;
                            for f in &fields {
                                let mut dims = base_dims.clone();
                                dims.extend(f.dims.iter().copied());
                                let key = format!("{}%{}", e.name, f.name);
                                if dims.len() > ast::MAX_RANK {
                                    let why = ast::rank_error(dims.len());
                                    return Err(serr(format!("`{key}`: {why}"), d.span));
                                }
                                self.add_module_global(
                                    mi,
                                    &m.name,
                                    &key,
                                    f.ty,
                                    dims,
                                    0,
                                    false,
                                    m.threadprivate.contains(&e.name),
                                    None,
                                );
                            }
                        }
                    }
                    spec => {
                        let ty = scalar_ty(spec)
                            .ok_or_else(|| serr("CHARACTER module variables unsupported", d.span))?;
                        for e in &d.entities {
                            let edims = e.dims.as_ref().or(d.attrs.dims.as_ref());
                            let alloc_rank = edims
                                .map(|v| if v.iter().any(|x| x.deferred) { v.len() } else { 0 })
                                .unwrap_or(0);
                            let dims = self.const_dims_owned(mi, edims, d.span)?;
                            let init_bits = match &e.init {
                                Some(x) => Some(self.const_bits(mi, x, ty, d.span)?),
                                None => None,
                            };
                            self.add_module_global(
                                mi,
                                &m.name,
                                &e.name,
                                ty,
                                dims,
                                alloc_rank,
                                d.attrs.allocatable,
                                m.threadprivate.contains(&e.name),
                                init_bits,
                            );
                        }
                    }
                }
            }
        }

        // Import used modules' symbols (transitively).
        for (mi, m) in ast.modules.iter().enumerate() {
            let mut seen = vec![false; ast.modules.len()];
            let mut stack: Vec<&str> = m.uses.iter().map(|s| s.as_str()).collect();
            while let Some(used) = stack.pop() {
                let Some(&ui) = self.module_ids.get(used) else {
                    return Err(serr(format!("USE of unknown module `{used}`"), m.span));
                };
                if seen[ui] || ui == mi {
                    continue;
                }
                seen[ui] = true;
                let imported: Vec<(String, GlobalSym)> = self.module_syms[ui]
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                for (k, v) in imported {
                    self.module_syms[mi].entry(k).or_insert(v);
                }
                let consts: Vec<(String, Const)> = self.module_consts[ui]
                    .iter()
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                for (k, v) in consts {
                    self.module_consts[mi].entry(k).or_insert(v);
                }
                let tds: Vec<(String, Vec<FieldInfo>)> = self.typedefs[ui]
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                for (k, v) in tds {
                    self.typedefs[mi].entry(k).or_insert(v);
                }
                stack.extend(ast.modules[ui].uses.iter().map(|s| s.as_str()));
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn add_module_global(
        &mut self,
        mi: usize,
        module: &str,
        key: &str,
        ty: ScalarTy,
        dims: Vec<(i64, i64)>,
        alloc_rank: usize,
        allocatable: bool,
        per_thread: bool,
        init_bits: Option<u64>,
    ) {
        let cell = self.globals.len();
        let rank = if allocatable { alloc_rank.max(dims.len()) } else { dims.len() };
        self.globals.push(GlobalDecl {
            name: format!("{module}::{key}"),
            ty,
            rank,
            dims: if allocatable { vec![] } else { dims.clone() },
            allocatable,
            per_thread,
            reduction: false,
            init_bits,
            init_elems: None,
        });
        self.module_syms[mi].insert(
            key.to_string(),
            GlobalSym { cell, ty, rank, dims, allocatable },
        );
    }

    fn find_typedef<'a>(
        &'a self,
        mi: usize,
        _m: &ast::Module,
        name: &str,
    ) -> Option<&'a Vec<FieldInfo>> {
        self.typedefs[mi].get(name)
    }

    // ------------- constants -------------

    fn const_eval(&self, mi: usize, e: &Expr, span: Span) -> Result<Const, CompileError> {
        Ok(match e {
            Expr::Int(v) => Const::I(*v),
            Expr::Real(v) => Const::F(*v),
            Expr::Logical(b) => Const::B(*b),
            Expr::Neg(x) => match self.const_eval(mi, x, span)? {
                Const::I(v) => Const::I(-v),
                Const::F(v) => Const::F(-v),
                Const::B(_) => return Err(serr("cannot negate LOGICAL", span)),
            },
            Expr::Name(d) if d.parts.len() == 1 && d.parts[0].subs.is_empty() => self
                .module_consts[mi]
                .get(&d.parts[0].name)
                .copied()
                .ok_or_else(|| {
                    serr(format!("`{}` is not a constant", d.parts[0].name), span)
                })?,
            Expr::Bin(op, l, r) => {
                let l = self.const_eval(mi, l, span)?;
                let r = self.const_eval(mi, r, span)?;
                match (op, l, r) {
                    (Bin::Add, Const::I(a), Const::I(b)) => Const::I(a + b),
                    (Bin::Sub, Const::I(a), Const::I(b)) => Const::I(a - b),
                    (Bin::Mul, Const::I(a), Const::I(b)) => Const::I(a * b),
                    (Bin::Div, Const::I(a), Const::I(b)) if b != 0 => Const::I(a / b),
                    (Bin::Add, Const::F(a), Const::F(b)) => Const::F(a + b),
                    (Bin::Mul, Const::F(a), Const::F(b)) => Const::F(a * b),
                    _ => return Err(serr("unsupported constant expression", span)),
                }
            }
            _ => return Err(serr("unsupported constant expression", span)),
        })
    }

    fn const_i(&self, mi: usize, e: &Expr, span: Span) -> Result<i64, CompileError> {
        match self.const_eval(mi, e, span)? {
            Const::I(v) => Ok(v),
            _ => Err(serr("expected integer constant", span)),
        }
    }

    fn const_bits(
        &self,
        mi: usize,
        e: &Expr,
        ty: ScalarTy,
        span: Span,
    ) -> Result<u64, CompileError> {
        Ok(match (self.const_eval(mi, e, span)?, ty) {
            (Const::I(v), ScalarTy::I) => v as u64,
            (Const::I(v), ScalarTy::F) => (v as f64).to_bits(),
            (Const::F(v), ScalarTy::F) => v.to_bits(),
            (Const::B(b), ScalarTy::B) => u64::from(b),
            _ => return Err(serr("initializer type mismatch", span)),
        })
    }

    /// Constant dims: `(lo, hi)` with lo defaulting to 1. Deferred (`:`)
    /// dims yield an empty vec (allocatable).
    fn const_dims_owned(
        &self,
        mi: usize,
        dims: Option<&Vec<DimDecl>>,
        span: Span,
    ) -> Result<Vec<(i64, i64)>, CompileError> {
        let Some(dims) = dims else { return Ok(vec![]) };
        if dims.iter().any(|d| d.deferred) {
            return Ok(vec![]);
        }
        dims.iter()
            .map(|d| {
                let hi = self.const_i(mi, d.hi.as_ref().expect("non-deferred"), span)?;
                let lo = match &d.lo {
                    Some(e) => self.const_i(mi, e, span)?,
                    None => 1,
                };
                if hi < lo {
                    return Err(serr(format!("empty dimension {lo}:{hi}"), span));
                }
                Ok((lo, hi))
            })
            .collect()
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
                    .insert(u.name.clone(), UnitSig { id, ret, nparams: u.params.len() })
                    .is_some()
                {
                    return Err(serr(format!("duplicate subprogram `{}`", u.name), u.span));
                }
                id += 1;
            }
        }
        self.units = (0..id).map(|_| None).collect();
        Ok(())
    }

    // ------------- phase C: units -------------

    fn resolve_unit(&mut self, mi: usize, u: &ast::Unit) -> Result<RUnit, CompileError> {
        let mut uc = UnitCtx {
            vars: Vec::new(),
            names: HashMap::new(),
            consts: HashMap::new(),
            extra_syms: HashMap::new(),
            frame_size: 0,
            result: None,
            unit_name: u.name.clone(),
            mi,
            loop_depth: 0,
        };

        // Declarations: build (name -> decl info) first.
        struct DeclInfo {
            ty: ScalarTy,
            dims: Vec<(i64, i64)>,
            allocatable: bool,
            alloc_rank: usize,
            save: bool,
            /// `DATA`-style static initializer: scalar bits or one word
            /// per array element (what `f77spec` makes of a `DATA` statement).
            init: Option<InitV>,
        }
        enum InitV {
            One(u64),
            Many(Vec<u64>),
        }
        let mut decls: HashMap<String, DeclInfo> = HashMap::new();
        for d in &u.decls {
            if d.attrs.parameter {
                for e in &d.entities {
                    let init = e.init.as_ref().ok_or_else(|| {
                        serr(format!("PARAMETER `{}` needs a value", e.name), d.span)
                    })?;
                    let c = self.const_eval(mi, init, d.span)?;
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
                let edims = e.dims.as_ref().or(d.attrs.dims.as_ref());
                let deferred = edims.map(|v| v.iter().any(|x| x.deferred)).unwrap_or(false);
                let alloc_rank = if deferred { edims.unwrap().len() } else { 0 };
                let dims = if deferred {
                    vec![]
                } else {
                    self.unit_const_dims(&uc, edims, d.span)?
                };
                if deferred && !d.attrs.allocatable {
                    return Err(serr(
                        format!("`{}`: deferred shape requires ALLOCATABLE", e.name),
                        d.span,
                    ));
                }
                let init = match (&e.init, &e.init_list) {
                    (Some(x), _) => Some(InitV::One(self.const_bits(mi, x, ty, d.span)?)),
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
                        let mut bits = Vec::with_capacity(xs.len());
                        for x in xs {
                            bits.push(self.const_bits(mi, x, ty, d.span)?);
                        }
                        Some(InitV::Many(bits))
                    }
                    (None, None) => None,
                };
                decls.insert(
                    e.name.clone(),
                    DeclInfo {
                        ty,
                        dims,
                        allocatable: d.attrs.allocatable,
                        alloc_rank,
                        save: d.attrs.save,
                        init,
                    },
                );
            }
        }

        // Parameters.
        for p in &u.params {
            let info = decls.remove(p).ok_or_else(|| {
                serr(format!("parameter `{p}` has no declaration"), u.span)
            })?;
            let slot = uc.frame_size;
            uc.frame_size += 1;
            let idx = uc.vars.len();
            uc.vars.push(VarInfo {
                name: p.clone(),
                ty: info.ty,
                place: Place::Frame(slot),
                rank: if info.allocatable { info.alloc_rank } else { info.dims.len() },
                dims: info.dims,
                allocatable: info.allocatable,
                is_param: true,
            });
            uc.names.insert(p.clone(), idx);
        }

        // COMMON members (§3.2): storage-associated by position.
        for (block, members) in &u.commons {
            let mut layout: Vec<GlobalSym> = Vec::new();
            let existing = self.commons.get(block).cloned();
            for (pos, name) in members.iter().enumerate() {
                let info = decls.remove(name).ok_or_else(|| {
                    serr(format!("COMMON member `{name}` has no type declaration"), u.span)
                })?;
                let (init_bits, init_elems) = match info.init {
                    Some(InitV::One(b)) => (Some(b), None),
                    Some(InitV::Many(v)) => (None, Some(v)),
                    None => (None, None),
                };
                let sym = match &existing {
                    Some(prev) => {
                        let prev_sym = prev.get(pos).ok_or_else(|| {
                            serr(
                                format!("COMMON /{block}/ has fewer members elsewhere"),
                                u.span,
                            )
                        })?;
                        if prev_sym.ty != info.ty || prev_sym.dims != info.dims {
                            return Err(serr(
                                format!(
                                    "COMMON /{block}/ member {pos} shape/type mismatch for `{name}`"
                                ),
                                u.span,
                            ));
                        }
                        if init_bits.is_some() || init_elems.is_some() {
                            let g = &mut self.globals[prev_sym.cell];
                            if g.init_bits.is_some() || g.init_elems.is_some() {
                                return Err(serr(
                                    format!(
                                        "COMMON /{block}/ member `{name}` is DATA-initialized \
                                         in more than one unit"
                                    ),
                                    u.span,
                                ));
                            }
                            g.init_bits = init_bits;
                            g.init_elems = init_elems;
                        }
                        prev_sym.clone()
                    }
                    None => {
                        let cell = self.globals.len();
                        self.globals.push(GlobalDecl {
                            name: format!("common {block}::{name}"),
                            ty: info.ty,
                            rank: info.dims.len(),
                            dims: info.dims.clone(),
                            allocatable: false,
                            per_thread: false,
                            reduction: false,
                            init_bits,
                            init_elems,
                        });
                        GlobalSym {
                            cell,
                            ty: info.ty,
                            rank: info.dims.len(),
                            dims: info.dims.clone(),
                            allocatable: false,
                        }
                    }
                };
                let idx = uc.vars.len();
                uc.vars.push(VarInfo {
                    name: name.clone(),
                    ty: sym.ty,
                    place: Place::Global(sym.cell),
                    rank: sym.rank,
                    dims: sym.dims.clone(),
                    allocatable: false,
                    is_param: false,
                });
                uc.names.insert(name.clone(), idx);
                layout.push(sym);
            }
            if existing.is_none() {
                self.commons.insert(block.clone(), layout);
            }
        }

        // Remaining locals.
        let mut local_names: Vec<String> = decls.keys().cloned().collect();
        local_names.sort();
        for name in local_names {
            let info = &decls[&name];
            let idx = uc.vars.len();
            let place = if info.save {
                // SAVE: persistent per-thread global (see DESIGN.md —
                // matches the paper's SAVE + threadprivate adaptation).
                let (init_bits, init_elems) = match &info.init {
                    Some(InitV::One(b)) => (Some(*b), None),
                    Some(InitV::Many(v)) => (None, Some(v.clone())),
                    None => (None, None),
                };
                let cell = self.globals.len();
                self.globals.push(GlobalDecl {
                    name: format!("{}::{}", u.name, name),
                    ty: info.ty,
                    rank: if info.allocatable { info.alloc_rank } else { info.dims.len() },
                    dims: info.dims.clone(),
                    allocatable: info.allocatable,
                    per_thread: true,
                    reduction: false,
                    init_bits,
                    init_elems,
                });
                Place::Global(cell)
            } else {
                let slot = uc.frame_size;
                uc.frame_size += 1;
                Place::Frame(slot)
            };
            uc.vars.push(VarInfo {
                name: name.clone(),
                ty: info.ty,
                place,
                rank: if info.allocatable { info.alloc_rank } else { info.dims.len() },
                dims: info.dims.clone(),
                allocatable: info.allocatable,
                is_param: false,
            });
            uc.names.insert(name.clone(), idx);
        }

        // Function result slot.
        if let UnitKind::Function(spec) = &u.kind {
            let ty = scalar_ty(spec).unwrap();
            let slot = uc.frame_size;
            uc.frame_size += 1;
            let idx = uc.vars.len();
            uc.vars.push(VarInfo {
                name: u.name.clone(),
                ty,
                place: Place::Frame(slot),
                rank: 0,
                dims: vec![],
                allocatable: false,
                is_param: false,
            });
            uc.names.insert(u.name.clone(), idx);
            uc.result = Some((idx, ty));
        }

        // Extra USE inside the unit: import those modules' symbols for
        // resolution (paper §3.1 — per-subprogram USE statements).
        let mut extra_syms: HashMap<String, GlobalSym> = HashMap::new();
        for used in &u.uses {
            let Some(&ui) = self.module_ids.get(used) else {
                return Err(serr(format!("USE of unknown module `{used}`"), u.span));
            };
            for (k, v) in &self.module_syms[ui] {
                extra_syms.entry(k.clone()).or_insert_with(|| v.clone());
            }
            for (k, v) in &self.module_consts[ui] {
                uc.consts.entry(k.clone()).or_insert(*v);
            }
        }
        uc.extra_syms = extra_syms;

        let body = self.resolve_block(&mut uc, &u.body)?;
        Ok(RUnit {
            name: u.name.clone(),
            params: (0..u.params.len()).collect(),
            frame_size: uc.frame_size,
            result: uc.result,
            vars: uc.vars,
            body,
        })
    }

    fn unit_const_dims(
        &self,
        uc: &UnitCtx,
        dims: Option<&Vec<DimDecl>>,
        span: Span,
    ) -> Result<Vec<(i64, i64)>, CompileError> {
        let Some(dims) = dims else { return Ok(vec![]) };
        dims.iter()
            .map(|d| {
                let hi_e = d.hi.as_ref().ok_or_else(|| serr("deferred dim here", span))?;
                let hi = self.unit_const_i(uc, hi_e, span)?;
                let lo = match &d.lo {
                    Some(e) => self.unit_const_i(uc, e, span)?,
                    None => 1,
                };
                if hi < lo {
                    return Err(serr(format!("empty dimension {lo}:{hi}"), span));
                }
                Ok((lo, hi))
            })
            .collect()
    }

    fn unit_const_i(&self, uc: &UnitCtx, e: &Expr, span: Span) -> Result<i64, CompileError> {
        let not_const = || {
            serr(
                "array dimensions must be compile-time constants (use ALLOCATABLE for dynamic shapes)",
                span,
            )
        };
        match e {
            Expr::Int(v) => Ok(*v),
            Expr::Neg(x) => Ok(-self.unit_const_i(uc, x, span)?),
            Expr::Name(d) if d.parts.len() == 1 && d.parts[0].subs.is_empty() => {
                match uc.consts.get(&d.parts[0].name) {
                    Some(Const::I(v)) => Ok(*v),
                    _ => self.const_i(uc.mi, e, span).map_err(|_| not_const()),
                }
            }
            Expr::Bin(..) => {
                // Try module consts.
                self.const_i(uc.mi, e, span).map_err(|_| not_const())
            }
            _ => Err(not_const()),
        }
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
                    .cloned()
                    .ok_or_else(|| serr(format!("CALL of unknown subroutine `{name}`"), *span))?;
                if sig.ret.is_some() {
                    return Err(serr(format!("`{name}` is a FUNCTION, not a SUBROUTINE"), *span));
                }
                if sig.nparams != args.len() {
                    return Err(serr(
                        format!("`{name}` takes {} args, got {}", sig.nparams, args.len()),
                        *span,
                    ));
                }
                let rargs = self.resolve_args(uc, args, *span)?;
                Ok(RStmt::CallSub { unit: sig.id, args: rargs })
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
                let v = uc.lookup(self, d.base(), *span)?;
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
                let v = uc.lookup(self, names[0].base(), *span)?;
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
        let info = uc.vars[v].clone();
        if atomic {
            // Must match `t = t op e` / `t = max(t, e)` etc.
            let (op, rest) = match_atomic_pattern(target, value).ok_or_else(|| {
                serr("!$OMP ATOMIC requires `x = x op expr` form", span)
            })?;
            let rsubs = subs
                .iter()
                .map(|e| self.resolve_int_expr_ast(uc, e, span))
                .collect::<Result<Vec<_>, _>>()?;
            let (re, rty) = self.resolve_expr(uc, &rest, span)?;
            let re = coerce(re, rty, info.ty, span)?;
            return Ok(RStmt::AtomicUpdate { v, subs: rsubs, op, e: re });
        }
        // Whole-array forms.
        if info.rank > 0 && subs.is_empty() {
            if let Expr::Name(d) = value {
                if d.parts.len() == 1 && d.parts[0].subs.is_empty() {
                    if let Ok(src) = uc.lookup(self, d.base(), span) {
                        if uc.vars[src].rank > 0 {
                            return Ok(RStmt::CopyArray { dst: v, src });
                        }
                    }
                }
            }
            let (re, rty) = self.resolve_expr(uc, value, span)?;
            let re = coerce(re, rty, info.ty, span)?;
            return Ok(RStmt::Broadcast { v, e: re });
        }
        if info.rank > 0 && subs.len() != info.rank {
            return Err(serr(
                format!("`{}` has rank {}, got {} subscripts", info.name, info.rank, subs.len()),
                span,
            ));
        }
        let rsubs = subs
            .iter()
            .map(|e| self.resolve_int_expr_ast(uc, e, span))
            .collect::<Result<Vec<_>, _>>()?;
        let (re, rty) = self.resolve_expr(uc, value, span)?;
        let re = coerce(re, rty, info.ty, span)?;
        if info.rank == 0 {
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
        let v = uc.lookup(self, var, span)?;
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
                    private.push(uc.lookup(self, n, span)?);
                }
                let mut reductions = Vec::new();
                for (op, names) in &o.reductions {
                    for n in names {
                        let rv = uc.lookup(self, n, span)?;
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
                        let iv = uc.lookup(self, var, *ispan)?;
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

    fn resolve_args(
        &mut self,
        uc: &mut UnitCtx,
        args: &[Expr],
        span: Span,
    ) -> Result<Vec<RArg>, CompileError> {
        args.iter()
            .map(|a| {
                if let Expr::Name(d) = a {
                    if d.parts.len() == 1 {
                        if let Ok(v) = uc.lookup(self, d.base(), span) {
                            let info = &uc.vars[v];
                            if d.parts[0].subs.is_empty() {
                                return Ok(if info.rank > 0 {
                                    RArg::Array(v)
                                } else {
                                    RArg::ByRefScalar(v)
                                });
                            } else if info.rank > 0 && d.parts[0].subs.len() == info.rank {
                                let subs = d.parts[0]
                                    .subs
                                    .iter()
                                    .map(|e| self.resolve_int_expr(uc, e, span))
                                    .collect::<Result<Vec<_>, _>>()?;
                                return Ok(RArg::ByRefElem { v, subs });
                            }
                        }
                    }
                }
                let (e, _) = self.resolve_expr(uc, a, span)?;
                Ok(RArg::Value(e))
            })
            .collect()
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

    fn resolve_int_expr_ast(
        &mut self,
        uc: &mut UnitCtx,
        e: &Expr,
        span: Span,
    ) -> Result<RExpr, CompileError> {
        self.resolve_int_expr(uc, e, span)
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
            let v = uc.lookup(self, &key, span)?;
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

        // Constants.
        if part.subs.is_empty() {
            if let Some(c) = uc.consts.get(name).copied().or_else(|| {
                self.module_consts[uc.mi].get(name).copied()
            }) {
                return Ok(match c {
                    Const::I(v) => (RExpr::ConstI(v), ScalarTy::I),
                    Const::F(v) => (RExpr::ConstF(v), ScalarTy::F),
                    Const::B(b) => (RExpr::ConstB(b), ScalarTy::B),
                });
            }
        }

        // Variables.
        if let Ok(v) = uc.lookup(self, name, span) {
            let info = uc.vars[v].clone();
            if part.subs.is_empty() {
                if info.rank == 0 {
                    return Ok((RExpr::LoadScalar(v), info.ty));
                }
                return Err(serr(
                    format!("whole-array `{name}` not valid in this expression"),
                    span,
                ));
            }
            if info.rank > 0 {
                if part.subs.len() != info.rank {
                    return Err(serr(
                        format!(
                            "`{name}` has rank {}, got {} subscripts",
                            info.rank,
                            part.subs.len()
                        ),
                        span,
                    ));
                }
                let subs = part
                    .subs
                    .iter()
                    .map(|e| self.resolve_int_expr(uc, e, span))
                    .collect::<Result<Vec<_>, _>>()?;
                return Ok((RExpr::LoadElem { v, subs }, info.ty));
            }
            return Err(serr(format!("scalar `{name}` subscripted"), span));
        }

        // ALLOCATED(x).
        if name == "allocated" && part.subs.len() == 1 {
            if let Expr::Name(ad) = &part.subs[0] {
                let v = uc.lookup(self, ad.base(), span)?;
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
                        if let Ok(v) = uc.lookup(self, ad.base(), span) {
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
        if let Some(sig) = self.unit_sigs.get(name).cloned() {
            let ret = sig
                .ret
                .ok_or_else(|| serr(format!("SUBROUTINE `{name}` used as a function"), span))?;
            if sig.nparams != part.subs.len() {
                return Err(serr(
                    format!("`{name}` takes {} args, got {}", sig.nparams, part.subs.len()),
                    span,
                ));
            }
            let rargs = self.resolve_args(uc, &part.subs, span)?;
            return Ok((RExpr::CallFn { unit: sig.id, args: rargs, ret }, ret));
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
            let v = uc.lookup(self, &key, span)?;
            let subs: Vec<&Expr> = d.parts[0].subs.iter().chain(d.parts[1].subs.iter()).collect();
            return Ok((v, subs));
        }
        let v = uc.lookup(self, d.base(), span)?;
        Ok((v, d.parts[0].subs.iter().collect()))
    }
}

/// Per-unit resolution context.
#[derive(Default)]
struct UnitCtx {
    vars: Vec<VarInfo>,
    names: HashMap<String, VarIdx>,
    consts: HashMap<String, Const>,
    extra_syms: HashMap<String, GlobalSym>,
    frame_size: usize,
    result: Option<(VarIdx, ScalarTy)>,
    unit_name: String,
    mi: usize,
    loop_depth: usize,
}

impl UnitCtx {
    /// Looks a name up: unit locals → unit USE imports → module symbols.
    /// Global hits are interned into the unit var table on first use.
    fn lookup(&mut self, r: &Resolver, name: &str, span: Span) -> Result<VarIdx, CompileError> {
        if let Some(&idx) = self.names.get(name) {
            return Ok(idx);
        }
        let sym = self
            .extra_syms
            .get(name)
            .or_else(|| r.module_syms[self.mi].get(name))
            .cloned()
            .ok_or_else(|| {
                serr(format!("unknown variable `{name}` in `{}`", self.unit_name), span)
            })?;
        let idx = self.vars.len();
        self.vars.push(VarInfo {
            name: name.to_string(),
            ty: sym.ty,
            place: Place::Global(sym.cell),
            rank: if sym.allocatable { r.globals[sym.cell].rank } else { sym.rank },
            dims: sym.dims,
            allocatable: sym.allocatable,
            is_param: false,
        });
        self.names.insert(name.to_string(), idx);
        Ok(idx)
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
