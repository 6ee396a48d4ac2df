//! FORTRAN 77 specification statements: their grammar, and the pass that
//! turns what they said into declarations.
//!
//! A unit that stands outside a `MODULE` may leave names undeclared and
//! say the rest in pieces — `IMPLICIT` ranges, `DIMENSION`, `COMMON`
//! groups with bounds, `PARAMETER`, `EQUIVALENCE`, `DATA`, `SAVE`,
//! `EXTERNAL`. The parser collects those statements into a [`Spec`] that
//! rides beside the [`Unit`]; once every unit name of the source set is
//! known, [`finalize`] folds them onto the unit's `decls` and `commons`:
//!
//! * **IMPLICIT typing** — default `I`–`N` INTEGER / rest REAL, plus
//!   `IMPLICIT` statements and `IMPLICIT NONE`; undeclared names get
//!   synthesized declarations.
//! * **COMMON / EQUIVALENCE / DATA / PARAMETER** — mapped onto the
//!   engine's global-storage model; `DATA` becomes static initializer
//!   words on the owning global cell, `EQUIVALENCE` is honoured for the
//!   exact-alias subset (same type and shape) by renaming.
//!
//! A unit inside a `MODULE` declares everything it uses, so there only
//! `IMPLICIT NONE` and a `COMMON` of bare names are accepted
//! ([`Spec::into_module_unit`]).

use crate::ast::{
    for_each_name, names_in_desig, Attrs, Decl, Desig, DimDecl, Entity, Expr, TypeSpec, Unit,
    UnitKind,
};
use crate::cfold::{cfold, extents};
use crate::error::{Diagnostics, Span};
use crate::lex::Tok;
use crate::parse::{self, perr, LineCur, PErr};
use std::collections::{HashMap, HashSet};

/// `(block-name, members)` where each member is `(name, dims)`.
type CommonGroup = (String, Vec<(String, Option<Vec<DimDecl>>)>);
/// `(targets, values)` where each value is `(repeat, literal)`.
type DataGroup = (Vec<Desig>, Vec<(usize, Expr)>);

/// What a unit's F77 specification statements said, each record with the
/// line it came from.
#[derive(Default)]
pub(crate) struct Spec {
    /// The unit is a FUNCTION whose head names no result type.
    untyped_function: bool,
    implicit_none: bool,
    implicit: Vec<(TypeSpec, Vec<(char, char)>)>,
    dimension: Vec<(String, Vec<DimDecl>, u32)>,
    commons: Vec<(CommonGroup, u32)>,
    params_c: Vec<(String, Expr, u32)>,
    equiv: Vec<(Vec<Desig>, u32)>,
    data: Vec<(DataGroup, u32)>,
    save_all: bool,
    save: HashSet<String>,
    externals: HashSet<String>,
}

fn sp(line: u32) -> Span {
    Span { line }
}

// ---------------------------------------------------------------------------
// Grammar
// ---------------------------------------------------------------------------

/// One `IMPLICIT` letter.
fn letter(c: &mut LineCur) -> Result<char, PErr> {
    let a = c.ident("a letter")?;
    match a.as_bytes() {
        [l] => Ok(*l as char),
        _ => Err(perr(format!("`{a}` is not a single letter"))),
    }
}

/// One DATA value: `[n*]value` where value is a possibly-signed literal.
fn data_value(c: &mut LineCur) -> Result<(usize, Expr), PErr> {
    let rep = match (c.peek(), c.peek_at(1)) {
        (Some(Tok::Int(n)), Some(Tok::Star)) if n > 0 => {
            c.skip(2);
            n as usize
        }
        _ => 1,
    };
    let neg = c.eat(Tok::Minus);
    if !neg {
        let _ = c.eat(Tok::Plus);
    }
    let e = match c.next() {
        Some(Tok::Int(v)) => Expr::Int(v),
        Some(Tok::Real(v)) => Expr::Real(v),
        Some(Tok::True) => Expr::Logical(true),
        Some(Tok::False) => Expr::Logical(false),
        Some(Tok::Str(s)) => Expr::Str(c.text(s).to_string()),
        Some(Tok::Ident(n)) => Expr::Name(Desig::scalar(c.text(n).to_string(), c.span())),
        _ => return Err(perr("expected a constant in the DATA value list")),
    };
    Ok((rep, if neg { Expr::Neg(Box::new(e)) } else { e }))
}

impl Spec {
    /// No records yet, for a unit that is (`untyped_function`) or is not
    /// a FUNCTION whose head names no result type.
    pub(crate) fn for_unit(untyped_function: bool) -> Spec {
        Spec { untyped_function, ..Spec::default() }
    }

    /// Parses the specification statement `c` opens, if it is one of
    /// these, into the records; `Ok(false)` hands any other statement
    /// back untouched. (What a statement said before it stopped parsing
    /// stays recorded: the compile is failing by then, and the records
    /// only steer which further problems it reports.)
    pub(crate) fn statement(&mut self, c: &mut LineCur) -> Result<bool, PErr> {
        let line = c.span().line;
        let Some(head) = c.word() else {
            return Ok(false);
        };
        match head {
            "dimension" => {
                c.skip(1);
                loop {
                    let name = c.ident("an array name")?;
                    self.dimension.push((name, parse::dims(c)?, line));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.finish()?;
            }
            "common" => {
                c.skip(1);
                let mut block = String::new();
                if c.eat(Tok::Slash) && !c.eat(Tok::Slash) {
                    block = c.ident("the COMMON block name")?;
                    c.expect(Tok::Slash, "`/` after the COMMON block name")?;
                }
                loop {
                    let mut members = Vec::new();
                    loop {
                        members.push(parse::entity(c)?);
                        if !c.eat(Tok::Comma) || c.peek() == Some(Tok::Slash) {
                            break;
                        }
                    }
                    self.commons.push(((std::mem::take(&mut block), members), line));
                    if !c.eat(Tok::Slash) {
                        break;
                    }
                    if !c.eat(Tok::Slash) {
                        block = c.ident("the COMMON block name")?;
                        c.expect(Tok::Slash, "`/` after the COMMON block name")?;
                    }
                }
                c.finish()?;
            }
            "implicit" => {
                c.skip(1);
                if c.eat_kw("none") {
                    c.finish()?;
                    self.implicit_none = true;
                    return Ok(true);
                }
                loop {
                    let ts =
                        parse::type_spec(c)?.ok_or_else(|| perr("expected a type in IMPLICIT"))?;
                    c.expect(Tok::LParen, "`(` after the IMPLICIT type")?;
                    let mut ranges = Vec::new();
                    loop {
                        let lo = letter(c)?;
                        let hi = if c.eat(Tok::Minus) { letter(c)? } else { lo };
                        ranges.push((lo, hi));
                        if !c.eat(Tok::Comma) {
                            break;
                        }
                    }
                    c.expect(Tok::RParen, "`)` after the IMPLICIT letter ranges")?;
                    self.implicit.push((ts, ranges));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.finish()?;
            }
            "parameter" => {
                c.skip(1);
                c.expect(Tok::LParen, "`(` after PARAMETER")?;
                loop {
                    let name = c.ident("a PARAMETER name")?;
                    c.expect(Tok::Assign, "`=` in PARAMETER")?;
                    self.params_c.push((name, parse::expr(c)?, line));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.expect(Tok::RParen, "`)` closing PARAMETER")?;
                c.finish()?;
            }
            "equivalence" => {
                c.skip(1);
                loop {
                    c.expect(Tok::LParen, "`(` opening an EQUIVALENCE group")?;
                    let mut items = vec![parse::desig(c)?];
                    while c.eat(Tok::Comma) {
                        items.push(parse::desig(c)?);
                    }
                    c.expect(Tok::RParen, "`)` closing an EQUIVALENCE group")?;
                    self.equiv.push((items, line));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.finish()?;
            }
            "data" => {
                c.skip(1);
                loop {
                    let mut targets = vec![parse::desig(c)?];
                    while c.eat(Tok::Comma) {
                        targets.push(parse::desig(c)?);
                    }
                    c.expect(Tok::Slash, "`/` before the DATA values")?;
                    let mut values = Vec::new();
                    loop {
                        values.push(data_value(c)?);
                        if c.eat(Tok::Slash) {
                            break;
                        }
                        c.expect(Tok::Comma, "`,` or `/` in the DATA value list")?;
                    }
                    self.data.push(((targets, values), line));
                    // The comma between groups is optional.
                    let _ = c.eat(Tok::Comma);
                    if c.done() {
                        break;
                    }
                }
            }
            "save" => {
                c.skip(1);
                if c.done() {
                    self.save_all = true;
                    return Ok(true);
                }
                loop {
                    if c.eat(Tok::Slash) {
                        // SAVE /block/ — COMMON storage is always persistent
                        // in this engine, so this is a no-op.
                        c.ident("the COMMON block name")?;
                        c.expect(Tok::Slash, "`/` after the COMMON block name")?;
                    } else {
                        self.save.insert(c.ident("a variable name")?);
                    }
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.finish()?;
            }
            "external" | "intrinsic" => {
                c.skip(1);
                loop {
                    self.externals.insert(c.ident("a procedure name")?);
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.finish()?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Applies to a unit inside a `MODULE` what it may say in F77 style:
    /// `IMPLICIT NONE` and `COMMON /block/` lists of bare names. Anything
    /// that would need [`finalize`] is refused.
    pub(crate) fn into_module_unit(
        self,
        commons: &mut Vec<(String, Vec<String>)>,
    ) -> Result<(), PErr> {
        let finalized = !self.implicit.is_empty()
            || !self.dimension.is_empty()
            || !self.params_c.is_empty()
            || !self.equiv.is_empty()
            || !self.data.is_empty()
            || self.save_all
            || !self.save.is_empty()
            || !self.externals.is_empty()
            || self
                .commons
                .iter()
                .any(|((_, members), _)| members.iter().any(|(_, d)| d.is_some()));
        if finalized {
            return Err(parse::perr_hint(
                "this specification statement needs a unit outside a MODULE",
                "inside a MODULE every name is declared: say it with a type declaration \
                 and its attributes",
            ));
        }
        for ((block, members), _) in self.commons {
            commons.push((block, members.into_iter().map(|(n, _)| n).collect()));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Finalization — IMPLICIT typing, PARAMETER folding, EQUIVALENCE aliasing,
// DATA expansion, synthesized declarations.
// ---------------------------------------------------------------------------

/// Folds a constant expression to a literal over the PARAMETERs folded so far.
fn fold(e: &Expr, consts: &HashMap<String, Expr>) -> Option<Expr> {
    cfold(e, &|n| consts.get(n).cloned()).ok()
}

/// Folded `(lo, hi)` bounds of each dimension; `None` if non-constant.
fn fold_extents(dims: &[DimDecl], consts: &HashMap<String, Expr>) -> Option<Vec<(i64, i64)>> {
    extents(dims, &|n| consts.get(n).cloned())
}

fn extent_count(ex: &[(i64, i64)]) -> i64 {
    ex.iter().map(|(lo, hi)| (hi - lo + 1).max(0)).product()
}

/// The per-unit implicit typing map, one slot per letter a..z.
fn build_imap(spec: &Spec) -> [Option<TypeSpec>; 26] {
    let mut m: [Option<TypeSpec>; 26] = Default::default();
    if !spec.implicit_none {
        for (i, slot) in m.iter_mut().enumerate() {
            let c = (b'a' + i as u8) as char;
            *slot = Some(if ('i'..='n').contains(&c) { TypeSpec::Integer } else { TypeSpec::Real });
        }
    }
    for (ts, ranges) in &spec.implicit {
        for (a, b) in ranges {
            let (a, b) = (a.to_ascii_lowercase(), b.to_ascii_lowercase());
            for c in a..=b {
                if c.is_ascii_lowercase() {
                    m[(c as u8 - b'a') as usize] = Some(ts.clone());
                }
            }
        }
    }
    m
}

fn imp_ty(imap: &[Option<TypeSpec>; 26], name: &str) -> Option<TypeSpec> {
    let c = name.chars().next()?.to_ascii_lowercase();
    if c.is_ascii_lowercase() {
        imap[(c as u8 - b'a') as usize].clone()
    } else {
        None
    }
}

/// What the specification part said about one name. The map key is the
/// only copy of the name until its declaration is emitted.
#[derive(Default)]
struct Rec {
    /// Position in first-mention order, the order declarations come out in.
    seq: usize,
    ty: Option<TypeSpec>,
    dims: Option<Vec<DimDecl>>,
    line: u32,
    in_common: bool,
    allocatable: bool,
    removed: bool,
}

fn ent<'a>(recs: &'a mut HashMap<String, Rec>, n: &str, line: u32) -> &'a mut Rec {
    if !recs.contains_key(n) {
        recs.insert(n.to_string(), Rec { seq: recs.len(), line, ..Default::default() });
    }
    recs.get_mut(n).expect("just inserted")
}

fn zero_of(ty: &TypeSpec) -> Expr {
    match ty {
        TypeSpec::Integer => Expr::Int(0),
        TypeSpec::Logical => Expr::Logical(false),
        _ => Expr::Real(0.0),
    }
}

enum InitAcc {
    Scalar(Option<Expr>),
    Arr(Vec<Option<Expr>>),
}

/// Finalizes one unit that stands outside a `MODULE`: applies IMPLICIT
/// typing, folds PARAMETERs, resolves EQUIVALENCE aliases, expands DATA
/// and synthesizes missing declarations. `unit_names` are the names of
/// every unit of the source set, so that cross-file calls are not
/// mistaken for implicitly-typed locals.
pub(crate) fn finalize(
    unit: &mut Unit,
    mut spec: Spec,
    file: usize,
    unit_names: &HashSet<String>,
    diags: &mut Diagnostics,
) {
    let imap = build_imap(&spec);

    let mut recs: HashMap<String, Rec> = HashMap::new();

    for d in std::mem::take(&mut unit.decls) {
        let line = d.span.line;
        for e in d.entities {
            let n = e.name;
            let r = ent(&mut recs, &n, line);
            if r.ty.is_some() {
                diags.error(file, line, format!("`{n}` is declared more than once"));
            } else {
                r.ty = Some(d.spec.clone());
            }
            if let Some(dims) = e.dims.or_else(|| d.attrs.dims.clone()) {
                if r.dims.is_some() {
                    diags.error(file, line, format!("`{n}` is dimensioned more than once"));
                } else {
                    r.dims = Some(dims);
                }
            }
            // F90 attributes say what F77 says with statements of its own.
            r.allocatable = d.attrs.allocatable;
            match e.init {
                Some(init) if d.attrs.parameter => spec.params_c.push((n.clone(), init, line)),
                Some(init) => {
                    let target = Desig::scalar(n.clone(), d.span);
                    spec.data.push(((vec![target], vec![(1, init)]), line));
                }
                None => {}
            }
            if d.attrs.save {
                spec.save.insert(n);
            }
        }
    }
    for (n, d, line) in std::mem::take(&mut spec.dimension) {
        let r = ent(&mut recs, &n, line);
        if r.dims.is_some() {
            diags.error(file, line, format!("`{n}` is dimensioned more than once"));
        } else {
            r.dims = Some(d);
        }
    }

    let mut commons_out: Vec<(String, Vec<String>)> = Vec::new();
    for ((b, members), line) in std::mem::take(&mut spec.commons) {
        let names: Vec<String> = members.iter().map(|(n, _)| n.clone()).collect();
        for (n, dims) in members {
            let r = ent(&mut recs, &n, line);
            if let Some(d) = dims {
                if r.dims.is_some() {
                    diags.error(file, line, format!("`{n}` is dimensioned more than once"));
                } else {
                    r.dims = Some(d);
                }
            }
            if r.in_common {
                diags.error(file, line, format!("`{n}` appears in COMMON more than once"));
            } else {
                r.in_common = true;
            }
        }
        if let Some((_, v)) = commons_out.iter_mut().find(|(bb, _)| *bb == b) {
            v.extend(names);
        } else {
            commons_out.push((b, names));
        }
    }

    // PARAMETER constants fold in declaration order; later parameters may
    // reference earlier ones.
    let mut consts: HashMap<String, Expr> = HashMap::new();
    let mut param_decls: Vec<Decl> = Vec::new();
    for (n, e, line) in &spec.params_c {
        let Some(lit) = fold(e, &consts) else {
            diags.error_hint(
                file,
                *line,
                format!("PARAMETER `{n}` is not a constant expression"),
                "parameter values must fold to literals (earlier parameters may be used)",
            );
            continue;
        };
        let ty = recs.get(n).and_then(|r| r.ty.clone()).or_else(|| imp_ty(&imap, n));
        let Some(ty) = ty else {
            diags.error_hint(
                file,
                *line,
                format!("`{n}` has no explicit type and IMPLICIT NONE is in effect"),
                "add a type declaration",
            );
            continue;
        };
        if let Some(r) = recs.get_mut(n) {
            if r.dims.is_some() || r.in_common {
                diags.error(
                    file,
                    *line,
                    format!("PARAMETER `{n}` cannot be an array or a COMMON member"),
                );
            }
            r.removed = true;
        }
        consts.insert(n.clone(), lit.clone());
        param_decls.push(Decl {
            spec: ty,
            attrs: Attrs { parameter: true, ..Default::default() },
            entities: vec![Entity {
                name: n.clone(),
                dims: None,
                init: Some(lit),
                init_list: None,
            }],
            span: sp(*line),
        });
    }

    // EQUIVALENCE: merge groups transitively, then alias whole variables.
    let mut groups: Vec<(Vec<String>, u32)> = Vec::new();
    for (g, line) in &spec.equiv {
        let mut names = Vec::new();
        for d in g {
            if d.parts.len() == 1 && d.parts[0].subs.is_empty() {
                names.push(d.parts[0].name.clone());
            } else {
                diags.error_hint(
                    file,
                    *line,
                    "only whole-variable EQUIVALENCE is supported",
                    "element or substring equivalence cannot be mapped onto the exact-alias \
                     storage model",
                );
            }
        }
        if names.len() < 2 {
            continue;
        }
        let (inter, keep): (Vec<_>, Vec<_>) =
            groups.drain(..).partition(|(g, _)| g.iter().any(|x| names.contains(x)));
        let mut merged = names;
        let mut gl = *line;
        for (g, l) in inter {
            gl = gl.min(l);
            for x in g {
                if !merged.contains(&x) {
                    merged.push(x);
                }
            }
        }
        let mut dedup = Vec::new();
        for x in merged {
            if !dedup.contains(&x) {
                dedup.push(x);
            }
        }
        groups = keep;
        groups.push((dedup, gl));
    }
    let mut ren: HashMap<String, String> = HashMap::new();
    for (g, gline) in &groups {
        let commoners: Vec<&String> =
            g.iter().filter(|n| recs.get(*n).is_some_and(|r| r.in_common)).collect();
        if commoners.len() > 1 {
            diags.error_hint(
                file,
                *gline,
                format!(
                    "EQUIVALENCE connects two COMMON members (`{}`, `{}`)",
                    commoners[0], commoners[1]
                ),
                "an equivalence class may contain at most one COMMON member",
            );
            continue;
        }
        let canon = commoners.first().map(|s| (*s).clone()).unwrap_or_else(|| g[0].clone());
        let cty = recs.get(&canon).and_then(|r| r.ty.clone()).or_else(|| imp_ty(&imap, &canon));
        let cex = recs
            .get(&canon)
            .and_then(|r| r.dims.as_ref())
            .map(|d| fold_extents(d, &consts))
            .unwrap_or(Some(Vec::new()));
        for m in g {
            if *m == canon {
                continue;
            }
            let mty = recs.get(m).and_then(|r| r.ty.clone()).or_else(|| imp_ty(&imap, m));
            let mex = recs
                .get(m)
                .and_then(|r| r.dims.as_ref())
                .map(|d| fold_extents(d, &consts))
                .unwrap_or(Some(Vec::new()));
            if mty != cty || mex != cex {
                diags.error_hint(
                    file,
                    *gline,
                    format!("EQUIVALENCE of `{canon}` and `{m}` with conflicting type or shape"),
                    "only exact-alias EQUIVALENCE (identical type and shape) is supported",
                );
                continue;
            }
            ren.insert(m.clone(), canon.clone());
            if let Some(r) = recs.get_mut(m) {
                r.removed = true;
            }
            if spec.save.contains(m) {
                spec.save.insert(canon.clone());
            }
        }
    }
    if !ren.is_empty() {
        let mut rename = |n: &mut String, _| {
            if let Some(nn) = ren.get(n) {
                n.clone_from(nn);
            }
        };
        for_each_name(&mut unit.body, &mut rename);
        for ((targets, _), _) in &mut spec.data {
            targets.iter_mut().for_each(|d| names_in_desig(d, false, &mut rename));
        }
    }

    // DATA: fold values, map targets onto scalars / whole arrays /
    // constant-subscript elements, force SAVE on initialized locals.
    let mut inits: HashMap<String, InitAcc> = HashMap::new();
    for ((targets, vals), line) in std::mem::take(&mut spec.data) {
        let mut flat: Vec<Expr> = Vec::new();
        let mut ok = true;
        for (rep, e) in &vals {
            match fold(e, &consts) {
                Some(l) => flat.extend(std::iter::repeat_n(l, *rep)),
                None => {
                    diags.error_hint(
                        file,
                        line,
                        "DATA value is not a constant",
                        "DATA values must fold to literals",
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        struct Slot<'a> {
            name: &'a str,
            arr_len: Option<i64>,
            idx: Option<i64>,
        }
        let mut slots: Vec<Slot> = Vec::new();
        let mut total = 0i64;
        for d in &targets {
            if d.parts.len() != 1 {
                diags.error(file, line, "DATA target must be a variable or array element");
                ok = false;
                continue;
            }
            let n = d.parts[0].name.as_str();
            if unit.params.iter().any(|p| p == n) {
                diags.error(file, line, format!("DATA initializes dummy argument `{n}`"));
                ok = false;
                continue;
            }
            let dims = recs.get(n).and_then(|r| r.dims.as_deref());
            let subs = &d.parts[0].subs;
            if subs.is_empty() {
                match dims {
                    None => {
                        slots.push(Slot { name: n, arr_len: None, idx: None });
                        total += 1;
                    }
                    Some(ds) => match fold_extents(ds, &consts) {
                        Some(ex) => {
                            let c = extent_count(&ex);
                            slots.push(Slot { name: n, arr_len: Some(c), idx: None });
                            total += c;
                        }
                        None => {
                            diags.error(
                                file,
                                line,
                                format!("`{n}`: array bounds are not constant"),
                            );
                            ok = false;
                        }
                    },
                }
            } else {
                let Some(ds) = dims else {
                    diags.error(file, line, format!("`{n}` is not an array"));
                    ok = false;
                    continue;
                };
                let Some(ex) = fold_extents(ds, &consts) else {
                    diags.error(file, line, format!("`{n}`: array bounds are not constant"));
                    ok = false;
                    continue;
                };
                if subs.len() != ex.len() {
                    diags.error(
                        file,
                        line,
                        format!("`{n}`: wrong number of subscripts in DATA target"),
                    );
                    ok = false;
                    continue;
                }
                let mut idx = 0i64;
                let mut stride = 1i64;
                let mut sok = true;
                for (s, (lo, hi)) in subs.iter().zip(&ex) {
                    match fold(s, &consts) {
                        Some(Expr::Int(v)) if (*lo..=*hi).contains(&v) => {
                            idx += (v - lo) * stride;
                            stride *= hi - lo + 1;
                        }
                        Some(Expr::Int(_)) => {
                            diags.error(file, line, format!("`{n}`: DATA subscript out of bounds"));
                            sok = false;
                            break;
                        }
                        _ => {
                            diags.error(
                                file,
                                line,
                                format!("`{n}`: DATA subscript is not constant"),
                            );
                            sok = false;
                            break;
                        }
                    }
                }
                if !sok {
                    ok = false;
                    continue;
                }
                let c = extent_count(&ex);
                slots.push(Slot { name: n, arr_len: Some(c), idx: Some(idx) });
                total += 1;
            }
        }
        if !ok {
            continue;
        }
        if total != flat.len() as i64 {
            diags.error_hint(
                file,
                line,
                format!("DATA statement has {} value(s) for {} element(s)", flat.len(), total),
                "the value list must match the target list exactly",
            );
            continue;
        }
        let mut it = flat.into_iter();
        for s in slots {
            ent(&mut recs, s.name, line);
            if !inits.contains_key(s.name) {
                let fresh = match s.arr_len {
                    Some(l) => InitAcc::Arr(vec![None; l.max(0) as usize]),
                    None => InitAcc::Scalar(None),
                };
                inits.insert(s.name.to_string(), fresh);
            }
            let slot = inits.get_mut(s.name).expect("just inserted");
            let mut put = |cell: &mut Option<Expr>, v: Expr| {
                if cell.is_some() {
                    diags.error(
                        file,
                        line,
                        format!("`{}` is DATA-initialized more than once", s.name),
                    );
                } else {
                    *cell = Some(v);
                }
            };
            match (slot, s.idx) {
                (InitAcc::Scalar(c), _) => put(c, it.next().expect("count checked")),
                (InitAcc::Arr(v), Some(i)) => {
                    put(&mut v[i as usize], it.next().expect("count checked"))
                }
                (InitAcc::Arr(v), None) => {
                    for cell in v.iter_mut() {
                        put(cell, it.next().expect("count checked"));
                    }
                }
            }
        }
    }

    // Synthesize declarations for dummies and implicitly-typed locals.
    let mut used: HashSet<&str> = HashSet::new();
    for_each_name(&mut unit.body, &mut |n, whole| {
        if whole {
            used.insert(&**n);
        }
    });
    let mut rest: Vec<&str> = used
        .into_iter()
        .filter(|n| {
            !recs.contains_key(*n)
                && !consts.contains_key(*n)
                && !unit.params.iter().any(|p| p == n)
                && *n != unit.name
                && !spec.externals.contains(*n)
                && !unit_names.contains(*n)
                && crate::intrinsics::Intr::from_name(n).is_none()
        })
        .collect();
    rest.sort_unstable();
    for n in unit.params.iter().map(String::as_str).chain(rest) {
        if recs.contains_key(n) {
            continue;
        }
        match imp_ty(&imap, n) {
            Some(t) => {
                let r = ent(&mut recs, n, unit.span.line);
                r.ty = Some(t);
            }
            None => diags.error_hint(
                file,
                unit.span.line,
                format!("`{n}` has no explicit type and IMPLICIT NONE is in effect"),
                "add a type declaration",
            ),
        }
    }

    // Untyped FUNCTION heads take their result type from an in-body
    // declaration or the implicit map; the placeholder decl is dropped.
    let mut kind = unit.kind.clone();
    if matches!(kind, UnitKind::Function(_)) {
        if spec.untyped_function {
            let ty = recs
                .get(&unit.name)
                .and_then(|r| r.ty.clone())
                .or_else(|| imp_ty(&imap, &unit.name));
            match ty {
                Some(t) => kind = UnitKind::Function(t),
                None => diags.error_hint(
                    file,
                    unit.span.line,
                    format!("function `{}` has no result type", unit.name),
                    "declare the function name or give it an implicit type",
                ),
            }
        }
        if let Some(r) = recs.get_mut(&unit.name) {
            r.removed = true;
        }
    }

    // Emit declarations: parameters first (array bounds may use them).
    let mut decls = param_decls;
    let mut recs: Vec<(String, Rec)> = recs.into_iter().collect();
    recs.sort_unstable_by_key(|(_, r)| r.seq);
    for (n, r) in recs {
        if r.removed {
            continue;
        }
        let Some(ty) = r.ty.or_else(|| imp_ty(&imap, &n)) else {
            diags.error_hint(
                file,
                r.line.max(1),
                format!("`{n}` has no explicit type and IMPLICIT NONE is in effect"),
                "add a type declaration",
            );
            continue;
        };
        // DATA-initialized locals are static storage.
        let saved = (spec.save_all || spec.save.contains(&n) || inits.contains_key(&n))
            && !r.in_common
            && !unit.params.contains(&n);
        let (init, init_list) = match inits.remove(&n) {
            Some(InitAcc::Scalar(v)) => (v, None),
            Some(InitAcc::Arr(v)) => {
                (None, Some(v.into_iter().map(|o| o.unwrap_or_else(|| zero_of(&ty))).collect()))
            }
            None => (None, None),
        };
        decls.push(Decl {
            spec: ty,
            attrs: Attrs { dims: None, allocatable: r.allocatable, save: saved, parameter: false },
            entities: vec![Entity { name: n, dims: r.dims, init, init_list }],
            span: sp(r.line.max(1)),
        });
    }

    unit.kind = kind;
    unit.decls = decls;
    unit.commons = commons_out;
}
