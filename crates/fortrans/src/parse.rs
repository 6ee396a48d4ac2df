//! The front end: logical lines → [`crate::ast`], for both source forms.
//!
//! [`crate::lex`] (free form) and [`crate::fixedform`] (cards) differ in
//! how physical lines become a [`Lexed`]; everything after that exists
//! once, here. A statement is parsed from one [`Line`] through one
//! cursor ([`LineCur`]); the statement set is the union of what F77 cards
//! and the free-form F90 subset say — assignment-first classification as
//! F77 requires, `MODULE`/`USE`/`CONTAINS`/`TYPE`, attribute
//! declarations and `ALLOCATE` beside `COMMON`/`DATA`/`GO TO`. The driver
//! is statement-at-a-time over a stack of open DO/IF/CRITICAL frames: a
//! frame closes on `END DO`/`END IF` *or* on its labelled (possibly
//! shared) terminal statement, and a statement that does not parse is
//! reported and skipped, so one pass reports every problem
//! ([`Diagnostics`], surfaced as [`CompileError::Source`]).
//!
//! The tree it builds is [`Stmt`] from the start. Labels and the four
//! legacy branches ride in it as [`Stmt::Label`] / [`Stmt::Branch`] until
//! [`crate::legalize`] has removed them; a unit that stands outside a
//! `MODULE` (implicit `main` included) leaves with the records of its F77
//! specification statements beside it, for [`crate::f77spec`] to fold
//! into declarations once every unit name of the source set is known.
//!
//! The cursor borrows the [`Lexed`] text and one line's slice of the flat
//! token buffer; identifier and string text is copied exactly once, into
//! the AST node that keeps it.

use crate::ast::*;
use crate::error::{CompileError, Diagnostics, Span};
use crate::f77spec::{self, Spec};
use crate::fixedform::{is_fixed_form, lex_fixed_in};
use crate::legalize::{self, Labels, TMP_PREFIX};
use crate::lex::{lex_in, Lexed, Line, Shown, Sym, Tok};
use std::collections::HashSet;

/// Parses one source file.
pub fn parse(source: &str) -> Result<Ast, CompileError> {
    Ok(ProgramSet::from_sources(&[source])?.ast)
}

/// A multi-file compilation: one combined [`Ast`] in which COMMON blocks
/// and calls resolve across every file, whatever form each is in.
pub struct ProgramSet {
    /// The combined AST, ready for [`crate::sema`].
    pub ast: Ast,
    /// Warnings accumulated by the front end (empty when every source is
    /// clean).
    pub warnings: Diagnostics,
}

impl ProgramSet {
    /// Parses every source (auto-detecting fixed vs. free form per file)
    /// and combines them. Errors do not stop at the first problem: the
    /// returned [`CompileError::Source`] carries the accumulated
    /// diagnostics for all files, in source order.
    ///
    /// Modules come first, in source order; the units of file `k` that
    /// stand outside a `MODULE` are collected into a module `f77_file{k}`
    /// after them.
    pub fn from_sources(sources: &[&str]) -> Result<ProgramSet, CompileError> {
        let mut diags = Diagnostics::default();
        let mut ast = Ast::default();
        let mut bare: Vec<(usize, Vec<(Unit, Spec)>)> = Vec::new();
        for (k, src) in sources.iter().enumerate() {
            let lx = if is_fixed_form(src) {
                lex_fixed_in(src, k, &mut diags)
            } else {
                lex_in(src, k, &mut diags)
            };
            let parsed = Builder::new(&lx, k, &mut diags).run();
            ast.modules.extend(parsed.modules);
            if !parsed.bare.is_empty() {
                bare.push((k, parsed.bare));
            }
        }
        if !bare.is_empty() {
            // Unit names must be known globally before finalization so
            // that cross-file calls are not mistaken for implicitly-typed
            // locals.
            let unit_names: HashSet<String> = (ast.modules.iter().flat_map(|m| &m.units))
                .chain(bare.iter().flat_map(|(_, units)| units.iter().map(|(u, _)| u)))
                .map(|u| u.name.clone())
                .collect();
            for (k, units) in bare {
                let mut module = Module::new(format!("f77_file{k}"), Span { line: 1 });
                for (mut unit, spec) in units {
                    f77spec::finalize(&mut unit, spec, k, &unit_names, &mut diags);
                    module.units.push(unit);
                }
                ast.modules.push(module);
            }
        }
        diags.list.sort_by_key(|d| (d.file, d.span.line));
        if diags.has_errors() {
            return Err(CompileError::Source { diags });
        }
        Ok(ProgramSet { ast, warnings: diags })
    }
}

// ---------------------------------------------------------------------------
// The cursor
// ---------------------------------------------------------------------------

/// Why a statement was refused: message and, when there is one, a hint.
pub(crate) type PErr = (String, Option<String>);

pub(crate) fn perr(msg: impl Into<String>) -> PErr {
    (msg.into(), None)
}

pub(crate) fn perr_hint(msg: impl Into<String>, hint: impl Into<String>) -> PErr {
    (msg.into(), Some(hint.into()))
}

/// A cursor over one statement: a slice of the flat token buffer plus
/// the statement text its identifiers are ranges of.
pub(crate) struct LineCur<'a> {
    text: &'a str,
    toks: &'a [Tok],
    i: usize,
    line: u32,
}

impl<'a> LineCur<'a> {
    fn new(text: &'a str, toks: &'a [Tok], line: u32) -> Self {
        LineCur { text, toks, i: 0, line }
    }

    pub(crate) fn span(&self) -> Span {
        Span { line: self.line }
    }

    pub(crate) fn peek(&self) -> Option<Tok> {
        self.peek_at(0)
    }

    /// The token `k` places ahead.
    pub(crate) fn peek_at(&self, k: usize) -> Option<Tok> {
        self.toks.get(self.i + k).copied()
    }

    pub(crate) fn next(&mut self) -> Option<Tok> {
        let t = self.peek();
        self.i += usize::from(t.is_some());
        t
    }

    /// Steps over `n` tokens the caller has looked at.
    pub(crate) fn skip(&mut self, n: usize) {
        self.i += n;
    }

    /// The text of an identifier or string-literal token.
    pub(crate) fn text(&self, s: Sym) -> &'a str {
        &self.text[s.range()]
    }

    /// What is next, as messages quote it.
    fn found(&self) -> String {
        match self.peek() {
            Some(t) => format!("`{}`", Shown(self.text, t)),
            None => "the end of the statement".to_string(),
        }
    }

    pub(crate) fn eat(&mut self, t: Tok) -> bool {
        let hit = self.peek() == Some(t);
        self.i += usize::from(hit);
        hit
    }

    pub(crate) fn expect(&mut self, t: Tok, what: &str) -> Result<(), PErr> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(perr(format!("expected {what}, found {}", self.found())))
        }
    }

    /// The identifier that is next, borrowed from the statement text.
    pub(crate) fn word(&self) -> Option<&'a str> {
        self.word_at(0)
    }

    /// The identifier `k` places ahead.
    fn word_at(&self, k: usize) -> Option<&'a str> {
        match self.peek_at(k) {
            Some(Tok::Ident(s)) => Some(self.text(s)),
            _ => None,
        }
    }

    /// Eats the identifier `kw` if it is next.
    pub(crate) fn eat_kw(&mut self, kw: &str) -> bool {
        let hit = self.word() == Some(kw);
        self.i += usize::from(hit);
        hit
    }

    /// Consumes an identifier into the `String` an AST node keeps.
    pub(crate) fn ident(&mut self, what: &str) -> Result<String, PErr> {
        let w =
            self.word().ok_or_else(|| perr(format!("expected {what}, found {}", self.found())))?;
        self.i += 1;
        Ok(w.to_string())
    }

    /// `name {, name}` appended to `out`, each copied for the AST.
    pub(crate) fn idents(&mut self, what: &str, out: &mut Vec<String>) -> Result<(), PErr> {
        loop {
            out.push(self.ident(what)?);
            if !self.eat(Tok::Comma) {
                return Ok(());
            }
        }
    }

    /// `( name {, name} )` appended to `out`.
    fn paren_idents(&mut self, what: &str, out: &mut Vec<String>) -> Result<(), PErr> {
        self.expect(Tok::LParen, "`(`")?;
        self.idents(what, out)?;
        self.expect(Tok::RParen, "`)` closing the name list")
    }

    fn label(&mut self) -> Result<u32, PErr> {
        match self.peek() {
            Some(Tok::Int(v)) if (1..=99_999).contains(&v) => {
                self.i += 1;
                Ok(v as u32)
            }
            _ => Err(perr("expected a statement label (1-99999)")),
        }
    }

    pub(crate) fn done(&self) -> bool {
        self.i >= self.toks.len()
    }

    /// A statement ends where its tokens do.
    pub(crate) fn finish(&self) -> Result<(), PErr> {
        if self.done() {
            Ok(())
        } else {
            Err(perr(format!("unexpected {} after statement", self.found())))
        }
    }

    /// True when the statement opens with a designator-shaped run of
    /// tokens (`a`, `a(...)`, `a%b(...)`) directly followed by `=`.
    /// Decided on the token kinds alone, so that only an assignment pays
    /// for parsing its target.
    fn opens_assignment(&self) -> bool {
        let mut i = self.i;
        loop {
            if !matches!(self.toks.get(i), Some(Tok::Ident(_))) {
                return false;
            }
            i += 1;
            let mut depth = 0i32;
            while depth > 0 || self.toks.get(i) == Some(&Tok::LParen) {
                match self.toks.get(i) {
                    Some(Tok::LParen) => depth += 1,
                    Some(Tok::RParen) => depth -= 1,
                    Some(_) => {}
                    None => return false,
                }
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            if self.toks.get(i) != Some(&Tok::Percent) {
                return self.toks.get(i) == Some(&Tok::Assign);
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// `expr {, expr}`
fn expr_list(c: &mut LineCur) -> Result<Vec<Expr>, PErr> {
    let mut out = Vec::new();
    loop {
        out.push(expr(c)?);
        if !c.eat(Tok::Comma) {
            return Ok(out);
        }
    }
}

/// `[( [expr {, expr}] )]`: subscripts or actual arguments.
fn paren_exprs(c: &mut LineCur) -> Result<Vec<Expr>, PErr> {
    if !c.eat(Tok::LParen) || c.eat(Tok::RParen) {
        return Ok(Vec::new());
    }
    let out = expr_list(c)?;
    c.expect(Tok::RParen, "`,` or `)` in the argument list")?;
    Ok(out)
}

/// A designator: `a`, `a(i,j)`, `fi%vd(i)`.
pub(crate) fn desig(c: &mut LineCur) -> Result<Desig, PErr> {
    let span = c.span();
    let mut parts = Vec::new();
    loop {
        let name = c.ident("a name")?;
        parts.push(Part { name, subs: paren_exprs(c)? });
        if !c.eat(Tok::Percent) {
            return Ok(Desig { parts, span });
        }
    }
}

pub(crate) fn expr(c: &mut LineCur) -> Result<Expr, PErr> {
    expr_bp(c, 0)
}

/// Pratt parser. Binding powers (low→high): OR, AND, NOT, comparisons,
/// +/- (incl. unary), * and /, ** (right-assoc).
fn expr_bp(c: &mut LineCur, min_bp: u8) -> Result<Expr, PErr> {
    let mut lhs = prefix(c)?;
    loop {
        let (op, lbp, rbp) = match c.peek() {
            Some(Tok::Or) => (Bin::Or, 1, 2),
            Some(Tok::And) => (Bin::And, 3, 4),
            Some(Tok::Eq) => (Bin::Eq, 5, 6),
            Some(Tok::Ne) => (Bin::Ne, 5, 6),
            Some(Tok::Lt) => (Bin::Lt, 5, 6),
            Some(Tok::Le) => (Bin::Le, 5, 6),
            Some(Tok::Gt) => (Bin::Gt, 5, 6),
            Some(Tok::Ge) => (Bin::Ge, 5, 6),
            Some(Tok::Plus) => (Bin::Add, 7, 8),
            Some(Tok::Minus) => (Bin::Sub, 7, 8),
            Some(Tok::Star) => (Bin::Mul, 9, 10),
            Some(Tok::Slash) => (Bin::Div, 9, 10),
            Some(Tok::StarStar) => (Bin::Pow, 12, 11), // right assoc
            _ => break,
        };
        if lbp < min_bp {
            break;
        }
        c.next();
        let rhs = expr_bp(c, rbp)?;
        lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn prefix(c: &mut LineCur) -> Result<Expr, PErr> {
    let e = match c.peek() {
        // Unary minus binds like addition (Fortran: -a**2 = -(a**2),
        // -a*b = -(a*b)); parsing the operand at mul precedence keeps
        // `-a + b` == (-a) + b while `-a*b` folds the product.
        Some(Tok::Minus) => {
            c.next();
            return Ok(Expr::Neg(Box::new(expr_bp(c, 9)?)));
        }
        Some(Tok::Plus) => {
            c.next();
            return prefix(c);
        }
        Some(Tok::Not) => {
            c.next();
            return Ok(Expr::Not(Box::new(expr_bp(c, 5)?)));
        }
        Some(Tok::LParen) => {
            c.next();
            let e = expr(c)?;
            c.expect(Tok::RParen, "`)`")?;
            return Ok(e);
        }
        Some(Tok::Ident(_)) => return Ok(Expr::Name(desig(c)?)),
        Some(Tok::Int(v)) => Expr::Int(v),
        Some(Tok::Real(v)) => Expr::Real(v),
        Some(Tok::True) => Expr::Logical(true),
        Some(Tok::False) => Expr::Logical(false),
        Some(Tok::Str(s)) => Expr::Str(c.text(s).to_string()),
        _ => return Err(perr(format!("expected an expression, found {}", c.found()))),
    };
    c.next();
    Ok(e)
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

/// `( dim {, dim} )` where a dim is `lo:hi`, `n` (meaning `1:n`) or `:`
/// (deferred); at most [`MAX_RANK`] of them.
pub(crate) fn dims(c: &mut LineCur) -> Result<Vec<DimDecl>, PErr> {
    c.expect(Tok::LParen, "`(`")?;
    let mut dims = Vec::new();
    loop {
        dims.push(if c.eat(Tok::Colon) {
            DimDecl { lo: None, hi: None, deferred: true }
        } else {
            let first = expr(c)?;
            if c.eat(Tok::Colon) {
                DimDecl { lo: Some(first), hi: Some(expr(c)?), deferred: false }
            } else {
                DimDecl { lo: None, hi: Some(first), deferred: false }
            }
        });
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    c.expect(Tok::RParen, "`)` after array bounds")?;
    if dims.len() > MAX_RANK {
        return Err(perr(rank_error(dims.len())));
    }
    Ok(dims)
}

/// A type keyword plus optional kind or length — `INTEGER`, `REAL*8`,
/// `REAL(8)`, `REAL(KIND=8)`, `DOUBLE PRECISION`, `CHARACTER(LEN=n)`,
/// `TYPE(name)`. `None`, with nothing consumed, when `c` does not open
/// with one.
pub(crate) fn type_spec(c: &mut LineCur) -> Result<Option<TypeSpec>, PErr> {
    let ts = match (c.word(), c.word_at(1)) {
        (Some("integer"), _) => TypeSpec::Integer,
        (Some("real"), _) => TypeSpec::Real,
        (Some("logical"), _) => TypeSpec::Logical,
        (Some("character"), _) => TypeSpec::Character,
        (Some("doubleprecision"), _) => TypeSpec::Real8,
        (Some("double"), Some("precision")) => {
            c.skip(1);
            TypeSpec::Real8
        }
        (Some("type"), _) if c.peek_at(1) == Some(Tok::LParen) => {
            c.skip(2);
            let name = c.ident("the derived type name")?;
            c.expect(Tok::RParen, "`)` after the derived type name")?;
            return Ok(Some(TypeSpec::Derived(name)));
        }
        _ => return Ok(None),
    };
    c.skip(1);
    let named = matches!(c.word_at(1), Some("kind" | "len")) && c.peek_at(2) == Some(Tok::Assign);
    let kind = if c.eat(Tok::Star) {
        c.next()
    } else if c.peek() == Some(Tok::LParen)
        && (named || matches!(c.peek_at(1), Some(Tok::Int(_) | Tok::Star)))
    {
        c.skip(if named { 3 } else { 1 });
        let kind = c.next();
        if !matches!(kind, Some(Tok::Int(_) | Tok::Star)) {
            return Err(perr("expected a kind or length value"));
        }
        c.expect(Tok::RParen, "`)` after the kind")?;
        kind
    } else {
        None
    };
    Ok(Some(if ts == TypeSpec::Real && kind == Some(Tok::Int(8)) { TypeSpec::Real8 } else { ts }))
}

/// `name` or `name(dims)` (a `CHARACTER` entity's `*len` is tolerated
/// and discarded).
pub(crate) fn entity(c: &mut LineCur) -> Result<(String, Option<Vec<DimDecl>>), PErr> {
    let name = c.ident("a variable name")?;
    if c.eat(Tok::Star) {
        c.next();
    }
    let dims = if c.peek() == Some(Tok::LParen) { Some(dims(c)?) } else { None };
    Ok((name, dims))
}

/// The rest of a declaration after its type: `[, attr]... [::] entity
/// [= init] {, entity [= init]}`.
fn decl(c: &mut LineCur, spec: TypeSpec) -> Result<Decl, PErr> {
    let mut attrs = Attrs::default();
    while c.eat(Tok::Comma) {
        let attr = c.word();
        c.skip(1);
        match attr {
            Some("dimension") => attrs.dims = Some(dims(c)?),
            Some("allocatable") => attrs.allocatable = true,
            Some("save") => attrs.save = true,
            Some("parameter") => attrs.parameter = true,
            // INTENT(IN|OUT|INOUT): parsed and ignored (the engine uses
            // reference semantics for arrays, value-result for scalars).
            Some("intent") => {
                c.expect(Tok::LParen, "`(` after INTENT")?;
                if c.word().is_none() {
                    return Err(perr("expected IN, OUT or INOUT"));
                }
                c.skip(1);
                c.expect(Tok::RParen, "`)` after the intent")?;
            }
            Some(other) => return Err(perr(format!("unsupported attribute `{other}`"))),
            None => return Err(perr("expected an attribute after `,`")),
        }
    }
    let _ = c.eat(Tok::DoubleColon);
    let mut entities = Vec::new();
    loop {
        let (name, dims) = entity(c)?;
        let init = if c.eat(Tok::Assign) { Some(expr(c)?) } else { None };
        entities.push(Entity { name, dims, init, init_list: None });
        if !c.eat(Tok::Comma) {
            break;
        }
    }
    c.finish()?;
    Ok(Decl { spec, attrs, entities, span: c.span() })
}

/// `name [( [name {, name}] )]`: what follows SUBROUTINE or FUNCTION,
/// to the end of the statement.
fn unit_head(c: &mut LineCur) -> Result<(String, Vec<String>), PErr> {
    let name = c.ident("the subprogram name")?;
    let mut params = Vec::new();
    if c.eat(Tok::LParen) && !c.eat(Tok::RParen) {
        c.idents("a dummy argument name", &mut params)?;
        c.expect(Tok::RParen, "`,` or `)` in the dummy argument list")?;
    }
    c.finish()?;
    Ok((name, params))
}

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

/// The clauses of `!$OMP PARALLEL DO`, commas between them optional.
fn omp_clauses(c: &mut LineCur) -> Result<OmpDo, PErr> {
    let mut omp = OmpDo { collapse: 1, ..Default::default() };
    loop {
        while c.eat(Tok::Comma) {}
        if c.done() {
            return Ok(omp);
        }
        let at = c.i;
        let clause = c.word();
        c.skip(1);
        match clause {
            Some("private") => c.paren_idents("a variable name", &mut omp.private)?,
            Some("firstprivate") => c.paren_idents("a variable name", &mut omp.firstprivate)?,
            Some("reduction") => {
                c.expect(Tok::LParen, "`(` after REDUCTION")?;
                let op = match c.next() {
                    Some(Tok::Plus) => RedOp::Add,
                    Some(Tok::Star) => RedOp::Mul,
                    Some(Tok::Ident(s)) if c.text(s) == "max" => RedOp::Max,
                    Some(Tok::Ident(s)) if c.text(s) == "min" => RedOp::Min,
                    _ => return Err(perr("expected +, *, MAX or MIN in REDUCTION")),
                };
                c.expect(Tok::Colon, "`:` in REDUCTION")?;
                let mut names = Vec::new();
                c.idents("a reduction variable", &mut names)?;
                c.expect(Tok::RParen, "`)` closing REDUCTION")?;
                omp.reductions.push((op, names));
            }
            Some("collapse") => {
                c.expect(Tok::LParen, "`(` after COLLAPSE")?;
                omp.collapse = match c.next() {
                    Some(Tok::Int(v)) if v >= 1 => v as usize,
                    _ => return Err(perr("COLLAPSE needs a positive integer")),
                };
                c.expect(Tok::RParen, "`)` closing COLLAPSE")?;
            }
            Some("num_threads") => {
                c.expect(Tok::LParen, "`(` after NUM_THREADS")?;
                omp.num_threads = Some(expr(c)?);
                c.expect(Tok::RParen, "`)` closing NUM_THREADS")?;
            }
            Some("schedule") => {
                c.expect(Tok::LParen, "`(` after SCHEDULE")?;
                let kind = match c.word() {
                    Some("static") => SchedKind::Static,
                    Some("dynamic") => SchedKind::Dynamic,
                    Some("guided") => SchedKind::Guided,
                    _ => return Err(perr("expected STATIC, DYNAMIC or GUIDED in SCHEDULE")),
                };
                c.skip(1);
                let chunk = if c.eat(Tok::Comma) {
                    match c.next() {
                        Some(Tok::Int(v)) if v >= 1 => Some(v as usize),
                        _ => return Err(perr("SCHEDULE chunk must be a positive integer")),
                    }
                } else {
                    None
                };
                c.expect(Tok::RParen, "`)` closing SCHEDULE")?;
                omp.schedule = Some((kind, chunk));
            }
            // Sharing is the default: DEFAULT(...) and SHARED(...) say
            // nothing the engine needs.
            Some("default" | "shared") => {
                if c.eat(Tok::LParen) {
                    while !c.done() && !c.eat(Tok::RParen) {
                        c.skip(1);
                    }
                }
            }
            Some("nowait") => {}
            _ => {
                c.i = at;
                return Err(perr(format!("unknown PARALLEL DO clause near {}", c.found())));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The driver: statement stream -> modules and units
// ---------------------------------------------------------------------------

/// What one source parsed to.
struct Parsed {
    /// Its `MODULE`s, in order.
    modules: Vec<Module>,
    /// Its units outside any `MODULE`, each with what its F77
    /// specification statements said.
    bare: Vec<(Unit, Spec)>,
}

/// An open DO / DO WHILE / IF / CRITICAL: the statement under
/// construction and the block statements are currently appended to.
struct Frame {
    /// The construct with the blocks closed so far; the open block moves
    /// in when it closes.
    stmt: Stmt,
    /// The label whose statement ends this loop (`DO 10 ...`).
    term: Option<u32>,
    /// An IF frame is past its ELSE.
    in_else: bool,
    body: Vec<Stmt>,
}

/// The open program unit.
struct Open {
    /// Head and declarations; `body` is the block outside every frame.
    unit: Unit,
    /// The F77 specification records of a unit outside a `MODULE`.
    spec: Option<Spec>,
    labels: Labels,
    /// The body holds a label or a branch for the legalizer.
    legalize: bool,
    /// Where the unit's tokens start in the flat buffer.
    first_tok: u32,
    frames: Vec<Frame>,
}

impl Open {
    /// The block statements are appended to.
    fn body(&mut self) -> &mut Vec<Stmt> {
        match self.frames.last_mut() {
            Some(f) => &mut f.body,
            None => &mut self.unit.body,
        }
    }

    /// Pops the top frame into its parent block as a finished statement.
    fn close_top(&mut self) {
        let Frame { mut stmt, in_else, body, .. } = self.frames.pop().expect("an open frame");
        match &mut stmt {
            Stmt::If { else_body, .. } if in_else => *else_body = body,
            Stmt::If { arms, .. } => arms.last_mut().expect("an IF has an arm").1 = body,
            Stmt::Do { body: b, .. }
            | Stmt::DoWhile { body: b, .. }
            | Stmt::Critical { body: b, .. } => {
                *b = body;
            }
            _ => unreachable!("only block statements open frames"),
        }
        self.body().push(stmt);
    }

    /// True when an open loop is waiting for terminal `l`.
    fn open_term(&self, l: u32) -> bool {
        self.frames.iter().any(|f| f.term == Some(l))
    }

    /// Closes every top frame whose terminal label is `l` (shared
    /// terminals close all their loops at once).
    fn close_terms(&mut self, l: u32) {
        while self.frames.last().is_some_and(|f| f.term == Some(l)) {
            self.close_top();
        }
    }
}

struct Builder<'a> {
    lx: &'a Lexed,
    file: usize,
    diags: &'a mut Diagnostics,
    out: Parsed,
    /// The open `MODULE`, and whether its `CONTAINS` has been seen.
    module: Option<(Module, bool)>,
    /// The open `TYPE ... END TYPE` of the module's specification part.
    typedef: Option<TypeDef>,
    unit: Option<Open>,
    /// The last unit's frame stack, empty again, kept for the next unit.
    spare_frames: Vec<Frame>,
    /// A `PARALLEL DO` directive waiting for its DO statement.
    pending_omp: Option<OmpDo>,
    /// An `ATOMIC` directive waiting for its assignment.
    pending_atomic: bool,
}

const NO_UNIT: &str = "an open unit was checked for";

impl<'a> Builder<'a> {
    fn new(lx: &'a Lexed, file: usize, diags: &'a mut Diagnostics) -> Self {
        Builder {
            lx,
            file,
            diags,
            out: Parsed { modules: Vec::new(), bare: Vec::new() },
            module: None,
            typedef: None,
            unit: None,
            spare_frames: Vec::new(),
            pending_omp: None,
            pending_atomic: false,
        }
    }

    /// Parses every line, recovering at statement boundaries.
    fn run(mut self) -> Parsed {
        let lx = self.lx;
        for line in lx.lines() {
            let c = LineCur::new(&lx.text, lx.toks(line), line.lineno);
            if let Err((msg, hint)) = self.statement(c, line) {
                match hint {
                    Some(h) => self.diags.error_hint(self.file, line.lineno, msg, h),
                    None => self.diags.error(self.file, line.lineno, msg),
                }
            }
        }
        if let Some(u) = &self.unit {
            self.diags.error_hint(
                self.file,
                u.unit.span.line,
                "program unit is missing its END statement",
                "every PROGRAM/SUBROUTINE/FUNCTION must be closed with END",
            );
            self.close_unit(lx.toks.len() as u32);
        }
        if let Some((m, _)) = &self.module {
            // Reported where the source ran out.
            let eof = lx.lines().last().map_or(1, |l| l.lineno);
            let (name, at) = (&m.name, m.span.line);
            self.diags.error(
                self.file,
                eof,
                format!("MODULE `{name}` (line {at}) is missing its END MODULE"),
            );
            self.close_module();
        }
        self.out
    }

    fn in_module_spec(&self) -> bool {
        self.unit.is_none() && matches!(self.module, Some((_, false)))
    }

    // ---------------- units and modules ----------------

    /// Makes sure a unit is open: outside a `MODULE` any statement before
    /// a unit head opens the implicit main program (classic F77 main
    /// without a PROGRAM card).
    fn need_unit(&mut self, line: &Line) -> Result<(), PErr> {
        match (&self.unit, &self.module) {
            (Some(_), _) => {}
            (None, Some((_, true))) => {
                return Err(perr("expected SUBROUTINE, FUNCTION or END MODULE"));
            }
            (None, Some((_, false))) => {
                return Err(perr("expected a declaration, CONTAINS or END MODULE"));
            }
            (None, None) => {
                self.open_unit(UnitKind::Subroutine, "main".to_string(), vec![], false, line);
            }
        }
        Ok(())
    }

    fn open_unit(
        &mut self,
        kind: UnitKind,
        name: String,
        params: Vec<String>,
        untyped: bool,
        line: &Line,
    ) {
        if self.unit.is_some() {
            self.diags.error_hint(
                self.file,
                line.lineno,
                format!("`{name}` starts before the previous unit's END"),
                "add an END statement to close the previous program unit",
            );
            self.close_unit(line.toks.start);
        }
        if let Some((m, contains @ false)) = &mut self.module {
            self.diags.error(
                self.file,
                line.lineno,
                format!("`{name}` starts before the CONTAINS of MODULE `{}`", m.name),
            );
            *contains = true;
        }
        let span = Span { line: line.lineno };
        self.unit = Some(Open {
            unit: Unit {
                kind,
                name,
                params,
                uses: vec![],
                decls: vec![],
                commons: vec![],
                body: vec![],
                span,
            },
            spec: self.module.is_none().then(|| Spec::for_unit(untyped)),
            labels: Labels::default(),
            legalize: false,
            first_tok: line.toks.start,
            frames: std::mem::take(&mut self.spare_frames),
        });
    }

    /// Closes the open unit, whose tokens end at `end_tok`: every frame
    /// still open is reported, the body is legalized if it needs it, and
    /// the unit goes to its module or to the units outside one.
    fn close_unit(&mut self, end_tok: u32) {
        let Some(mut u) = self.unit.take() else {
            return;
        };
        while let Some(f) = u.frames.last() {
            let at = f.stmt.span().line;
            let msg = match (&f.stmt, f.term) {
                (_, Some(t)) => {
                    format!("DO terminal label {t} never appears (loop opened at line {at})")
                }
                (Stmt::If { .. }, _) => {
                    format!("IF block opened at line {at} is never closed with END IF")
                }
                (Stmt::Critical { .. }, _) => {
                    format!("CRITICAL section opened at line {at} is never closed")
                }
                _ => format!("DO loop opened at line {at} is never closed"),
            };
            self.diags.error_hint(
                self.file,
                u.unit.span.line,
                msg,
                "every DO needs its terminal statement or END DO, every IF (...) THEN its END IF",
            );
            u.close_top();
        }
        self.spare_frames = std::mem::take(&mut u.frames);
        if u.legalize {
            let lx = self.lx;
            let taken = lx.toks[u.first_tok as usize..end_tok as usize]
                .iter()
                .filter_map(|t| match t {
                    Tok::Ident(s) if lx.text(*s).starts_with(TMP_PREFIX) => {
                        Some(lx.text(*s).to_string())
                    }
                    _ => None,
                })
                .collect();
            legalize::legalize(&mut u.unit, &u.labels, taken, self.file, self.diags);
        }
        match (&mut self.module, u.spec) {
            (Some((m, _)), _) => m.units.push(u.unit),
            (None, spec) => {
                self.out.bare.push((u.unit, spec.expect("a unit outside a MODULE has records")))
            }
        }
    }

    /// Closes the open `TYPE`, if there is one, at its `END TYPE` or
    /// (`ended` false) where something else shows it was left open.
    fn close_type(&mut self, ended: bool) -> Result<(), PErr> {
        let t = self.typedef.take().ok_or_else(|| perr("END TYPE without an open TYPE"))?;
        if !ended {
            self.diags.error(
                self.file,
                t.span.line,
                format!("TYPE `{}` is missing its END TYPE", t.name),
            );
        }
        self.module.as_mut().expect("a TYPE opens inside a MODULE").0.typedefs.push(t);
        Ok(())
    }

    fn close_module(&mut self) {
        let _ = self.close_type(false);
        if let Some((m, _)) = self.module.take() {
            self.out.modules.push(m);
        }
    }

    // ---------------- labels and pending directives ----------------

    /// Registers the statement's label (cards only): unique per unit, and
    /// a DO terminal only on a simple statement.
    fn note_label(&mut self, line: &Line, simple: bool) {
        let (Some(l), Some(u)) = (line.label, &mut self.unit) else {
            return;
        };
        u.legalize = true;
        if !u.labels.all.insert(l) {
            self.diags.error(self.file, line.lineno, format!("duplicate statement label {l}"));
        }
        if !simple && u.open_term(l) {
            self.diags.error_hint(
                self.file,
                line.lineno,
                format!("DO terminal label {l} is on a non-executable or block statement"),
                "terminate the loop with a labeled CONTINUE",
            );
        }
    }

    /// A pending `PARALLEL DO` must meet a DO statement next, a pending
    /// `ATOMIC` an assignment; anything else is reported on its own line.
    fn settle(&mut self, line: &Line, is_do: bool, is_assign: bool) {
        if self.pending_omp.is_some() && !is_do {
            self.diags.error_hint(
                self.file,
                line.lineno,
                "PARALLEL DO directive is not followed by a DO loop",
                "put the `!$OMP PARALLEL DO` line directly above the DO statement",
            );
            self.pending_omp = None;
        }
        if self.pending_atomic && !is_assign {
            self.diags.error(
                self.file,
                line.lineno,
                "ATOMIC directive is not followed by an assignment",
            );
            self.pending_atomic = false;
        }
    }

    /// A statement of the open unit that is neither executable nor opens
    /// a block: it may carry a label, and ends the wait of a directive.
    fn other(&mut self, line: &Line) {
        self.note_label(line, false);
        self.settle(line, false, false);
    }

    // ---------------- blocks ----------------

    /// Appends one executable statement to the open block; its label, if
    /// it has one, closes the loops that end there.
    fn exec(&mut self, mut stmt: Stmt, line: &Line) {
        self.note_label(line, !matches!(stmt, Stmt::Branch(..) | Stmt::If { .. }));
        self.settle(line, false, matches!(stmt, Stmt::Assign { .. }));
        if let Stmt::Assign { atomic, .. } = &mut stmt {
            *atomic = std::mem::take(&mut self.pending_atomic);
        }
        let u = self.unit.as_mut().expect(NO_UNIT);
        if let Some(l) = line.label {
            u.body().push(Stmt::Label(l, stmt.span()));
        }
        u.body().push(stmt);
        if let Some(l) = line.label {
            u.close_terms(l);
        }
    }

    /// Opens a DO / DO WHILE / IF / CRITICAL whose blocks are still empty.
    fn open_block(&mut self, stmt: Stmt, term: Option<u32>, line: &Line) {
        self.note_label(line, false);
        self.settle(line, matches!(stmt, Stmt::Do { .. }), false);
        let u = self.unit.as_mut().expect(NO_UNIT);
        if let Some(l) = line.label {
            u.body().push(Stmt::Label(l, stmt.span()));
        }
        u.frames.push(Frame { stmt, term, in_else: false, body: Vec::new() });
    }

    /// `END ...` in all its spellings: `END IF`/`ENDIF`, `END DO`,
    /// `END TYPE`, `END MODULE`, and `END [SUBROUTINE|FUNCTION|PROGRAM
    /// [name]]` for the open unit.
    fn end(&mut self, c: &mut LineCur<'a>, line: &Line) -> Result<(), PErr> {
        let first = c.word().expect("the caller saw an END word");
        c.skip(1);
        let what = match first.strip_prefix("end") {
            Some("") => {
                let second = c.word();
                c.skip(usize::from(second.is_some()));
                second
            }
            merged => merged,
        };
        let top = self.unit.as_ref().and_then(|u| u.frames.last()).map(|f| (&f.stmt, f.term));
        match what {
            Some("if") => {
                c.finish()?;
                let Some((Stmt::If { .. }, _)) = top else {
                    return Err(perr("END IF without a matching IF (...) THEN"));
                };
            }
            Some("do") => {
                c.finish()?;
                let Some((Stmt::Do { .. } | Stmt::DoWhile { .. }, None)) = top else {
                    return Err(perr("END DO without a matching DO"));
                };
            }
            Some("type") => return self.close_type(true),
            Some("module") => {
                if self.module.is_none() {
                    return Err(perr("END MODULE without an open MODULE"));
                }
                if let Some(u) = &self.unit {
                    self.diags.error(
                        self.file,
                        line.lineno,
                        format!("END MODULE before the END of `{}`", u.unit.name),
                    );
                    self.close_unit(line.toks.start);
                }
                self.close_module();
                return Ok(());
            }
            _ => {
                if self.unit.is_none() {
                    return Err(perr("END without an open program unit"));
                }
                self.settle(line, false, false);
                self.close_unit(line.toks.end);
                return Ok(());
            }
        }
        self.other(line);
        self.unit.as_mut().expect(NO_UNIT).close_top();
        Ok(())
    }

    // ---------------- statements ----------------

    /// Parses one non-directive statement and applies it.
    fn statement(&mut self, mut c: LineCur<'a>, line: &Line) -> Result<(), PErr> {
        if line.omp {
            return self.directive(c, line);
        }
        let span = c.span();
        // Assignment first — the classic F77 classifier: a leading
        // designator followed by `=` is an assignment no matter what its
        // first identifier looks like.
        let head = if c.opens_assignment() { None } else { c.word() };
        // Inside TYPE ... END TYPE only field declarations are at home.
        if self.typedef.is_some() && !opens_decl(&c) {
            let ends_type =
                matches!((head, c.word_at(1)), (Some("endtype"), _) | (Some("end"), Some("type")));
            if !ends_type {
                self.close_type(false)?;
            }
        }

        // Statements that do not need an open unit.
        match head {
            Some("module") => {
                c.skip(1);
                let name = c.ident("the module name")?;
                c.finish()?;
                if self.unit.is_some() || self.module.is_some() {
                    self.diags.error(
                        self.file,
                        line.lineno,
                        format!(
                            "MODULE `{name}` starts before the previous unit or module has ended"
                        ),
                    );
                    self.close_unit(line.toks.start);
                    self.close_module();
                }
                self.module = Some((Module::new(name, span), false));
                return Ok(());
            }
            Some("contains") => {
                c.skip(1);
                c.finish()?;
                return match (&self.unit, &mut self.module) {
                    (None, Some((_, contains @ false))) => {
                        *contains = true;
                        Ok(())
                    }
                    _ => Err(perr(
                        "CONTAINS belongs once between a MODULE's declarations and its subprograms",
                    )),
                };
            }
            Some("program") => {
                c.skip(1);
                let name = c.ident("the program name")?;
                c.finish()?;
                self.open_unit(UnitKind::Subroutine, name, vec![], false, line);
                return Ok(());
            }
            Some("blockdata" | "block") => {
                c.skip(1);
                if head == Some("block") && !c.eat_kw("data") {
                    return Err(perr("expected DATA after BLOCK"));
                }
                let name = if c.done() {
                    "blockdata".to_string()
                } else {
                    c.ident("the block data name")?
                };
                c.finish()?;
                self.open_unit(UnitKind::Subroutine, name, vec![], false, line);
                return Ok(());
            }
            Some("subroutine" | "function") => {
                c.skip(1);
                let (name, params) = unit_head(&mut c)?;
                // An untyped FUNCTION's result type follows from IMPLICIT
                // rules; the placeholder is patched during finalization.
                let kind = match head {
                    Some("function") if self.module.is_some() => {
                        return Err(perr(format!(
                            "FUNCTION `{name}` needs a result type inside a MODULE"
                        )));
                    }
                    Some("function") => UnitKind::Function(TypeSpec::Character),
                    _ => UnitKind::Subroutine,
                };
                self.open_unit(kind, name, params, head == Some("function"), line);
                return Ok(());
            }
            Some("use") => {
                c.skip(1);
                let name = c.ident("the module name")?;
                match &mut self.module {
                    Some((m, false)) if self.unit.is_none() => m.uses.push(name),
                    _ => {
                        self.need_unit(line)?;
                        self.unit.as_mut().expect(NO_UNIT).unit.uses.push(name);
                    }
                }
                return Ok(());
            }
            Some("type") if !opens_decl(&c) => {
                c.skip(1);
                let name = c.ident("the type name")?;
                c.finish()?;
                if !self.in_module_spec() {
                    return Err(perr(
                        "a TYPE definition belongs in the specification part of a MODULE",
                    ));
                }
                self.typedef = Some(TypeDef { name, fields: Vec::new(), span });
                return Ok(());
            }
            Some("implicit") if self.in_module_spec() => {
                let mut said = Spec::default();
                said.statement(&mut c)?;
                return said.into_module_unit(&mut Vec::new());
            }
            Some(w) if w.starts_with("end") => return self.end(&mut c, line),
            Some(_) => {
                if let Some(spec) = type_spec(&mut c)? {
                    if c.eat_kw("function") {
                        let (name, params) = unit_head(&mut c)?;
                        self.open_unit(UnitKind::Function(spec), name, params, false, line);
                        return Ok(());
                    }
                    let decl = decl(&mut c, spec)?;
                    if let Some(t) = &mut self.typedef {
                        t.fields.push(decl);
                    } else if self.in_module_spec() {
                        self.module.as_mut().expect("checked").0.decls.push(decl);
                    } else {
                        self.need_unit(line)?;
                        self.other(line);
                        self.unit.as_mut().expect(NO_UNIT).unit.decls.push(decl);
                    }
                    return Ok(());
                }
            }
            None => {}
        }

        self.need_unit(line)?;
        if let Some(stmt) = self.action(&mut c, head)? {
            c.finish()?;
            self.exec(stmt, line);
            return Ok(());
        }
        match head.expect("`action` takes every statement without a head word") {
            "if" => {
                c.skip(1);
                let cond = if_condition(&mut c)?;
                if c.eat_kw("then") {
                    c.finish()?;
                    let stmt =
                        Stmt::If { arms: vec![(cond, Vec::new())], else_body: Vec::new(), span };
                    self.open_block(stmt, None, line);
                    return Ok(());
                }
                // Arithmetic IF, or a logical IF over one action statement
                // (which may itself be an arithmetic IF).
                let stmt = if matches!(c.peek(), Some(Tok::Int(_))) {
                    self.arithmetic_if(&mut c, cond)?
                } else {
                    let head = c.word().filter(|_| !c.opens_assignment());
                    let inner = match self.action(&mut c, head)? {
                        Some(inner) => Some(inner),
                        None if c.eat_kw("if") => {
                            let cond = if_condition(&mut c)?;
                            match c.peek() {
                                Some(Tok::Int(_)) => Some(self.arithmetic_if(&mut c, cond)?),
                                _ => None,
                            }
                        }
                        None => None,
                    };
                    let inner = inner
                        .ok_or_else(|| perr("this statement cannot be the body of a logical IF"))?;
                    Stmt::If { arms: vec![(cond, vec![inner])], else_body: Vec::new(), span }
                };
                c.finish()?;
                self.exec(stmt, line);
            }
            head @ ("else" | "elseif") => {
                c.skip(1);
                let cond = if head == "elseif" || c.eat_kw("if") {
                    let cond = if_condition(&mut c)?;
                    if !c.eat_kw("then") {
                        return Err(perr("expected THEN after ELSE IF (...)"));
                    }
                    Some(cond)
                } else {
                    None
                };
                c.finish()?;
                self.other(line);
                match self.unit.as_mut().expect(NO_UNIT).frames.last_mut() {
                    Some(Frame {
                        stmt: Stmt::If { arms, .. },
                        in_else: in_else @ false,
                        body,
                        ..
                    }) => {
                        arms.last_mut().expect("an IF has an arm").1 = std::mem::take(body);
                        match cond {
                            Some(cond) => arms.push((cond, Vec::new())),
                            None => *in_else = true,
                        }
                    }
                    _ if cond.is_some() => {
                        return Err(perr("ELSE IF without a matching IF (...) THEN"))
                    }
                    _ => return Err(perr("ELSE without a matching IF (...) THEN")),
                }
            }
            "do" => {
                c.skip(1);
                let term = match c.peek() {
                    Some(Tok::Int(_)) => Some(c.label()?),
                    _ => None,
                };
                let stmt = if c.eat_kw("while") {
                    c.expect(Tok::LParen, "`(` after DO WHILE")?;
                    let cond = expr(&mut c)?;
                    c.expect(Tok::RParen, "`)` closing the DO WHILE condition")?;
                    c.finish()?;
                    Stmt::DoWhile { cond, body: Vec::new(), span }
                } else {
                    let var = c.ident("the DO control variable")?;
                    c.expect(Tok::Assign, "`=` in the DO statement")?;
                    let start = expr(&mut c)?;
                    c.expect(Tok::Comma, "`,` between the DO bounds")?;
                    let end = expr(&mut c)?;
                    let step = if c.eat(Tok::Comma) { Some(expr(&mut c)?) } else { None };
                    c.finish()?;
                    let omp = self.pending_omp.take();
                    Stmt::Do { var, start, end, step, body: Vec::new(), omp, span }
                };
                self.open_block(stmt, term, line);
            }
            "format" => {
                self.diags.warn_hint(
                    self.file,
                    line.lineno,
                    "FORMAT statements are ignored; output is list-directed",
                    "the engine prints PRINT/WRITE arguments in list-directed form",
                );
                // May sit between a directive and its statement.
                self.note_label(line, false);
                self.unit.as_mut().expect(NO_UNIT).labels.format.extend(line.label);
            }
            head => {
                let u = self.unit.as_mut().expect(NO_UNIT);
                let known = match &mut u.spec {
                    Some(spec) => spec.statement(&mut c)?,
                    None => {
                        let mut said = Spec::default();
                        let known = said.statement(&mut c)?;
                        said.into_module_unit(&mut u.unit.commons)?;
                        known
                    }
                };
                if !known {
                    return Err(perr(format!("unrecognized statement `{head}`")));
                }
                self.other(line);
            }
        }
        Ok(())
    }

    /// `l1, l2, l3` after `IF (e)`.
    fn arithmetic_if(&mut self, c: &mut LineCur<'a>, e: Expr) -> Result<Stmt, PErr> {
        let l1 = c.label()?;
        c.expect(Tok::Comma, "`,` in arithmetic IF")?;
        let l2 = c.label()?;
        c.expect(Tok::Comma, "`,` in arithmetic IF")?;
        let l3 = c.label()?;
        self.unit.as_mut().expect(NO_UNIT).legalize = true;
        Ok(Stmt::Branch(Branch::Arith(e, l1, l2, l3), c.span()))
    }

    /// Parses an action statement — one that does something and is done,
    /// the kind a logical IF may guard — up to where it should end.
    /// `head` is its first word, or `None` for an assignment (which any
    /// statement that opens like one is); `Ok(None)`, with nothing
    /// consumed, hands any other statement back.
    fn action(&mut self, c: &mut LineCur<'a>, head: Option<&str>) -> Result<Option<Stmt>, PErr> {
        let span = c.span();
        let Some(head) = head else {
            if c.word().is_none() {
                return Err(perr(format!("expected a statement, found {}", c.found())));
            }
            let target = desig(c)?;
            c.expect(Tok::Assign, "`=`")?;
            return Ok(Some(Stmt::Assign { target, value: expr(c)?, atomic: false, span }));
        };
        let u = self.unit.as_mut().expect(NO_UNIT);
        let stmt = match head {
            "goto" | "go" => {
                c.skip(1);
                if head == "go" && !c.eat_kw("to") {
                    return Err(perr("expected TO after GO"));
                }
                u.legalize = true;
                let branch = match c.peek() {
                    Some(Tok::Int(_)) => Branch::Goto(c.label()?),
                    Some(Tok::LParen) => {
                        let labels = label_list(c)?;
                        let _ = c.eat(Tok::Comma);
                        Branch::Computed(labels, expr(c)?)
                    }
                    Some(Tok::Ident(_)) => {
                        let var = c.ident("a variable")?;
                        let _ = c.eat(Tok::Comma);
                        let labels =
                            if c.peek() == Some(Tok::LParen) { label_list(c)? } else { vec![] };
                        Branch::Assigned(var, labels)
                    }
                    _ => return Err(perr("GO TO needs a label, a label list, or a variable")),
                };
                Stmt::Branch(branch, span)
            }
            "assign" => {
                c.skip(1);
                let l = c.label()?;
                if !c.eat_kw("to") {
                    return Err(perr_hint(
                        "expected TO in ASSIGN",
                        "the form is `ASSIGN <label> TO <variable>`",
                    ));
                }
                let var = c.ident("a variable")?;
                u.labels.assigns.entry(var.clone()).or_default().push(l);
                let target = Desig::scalar(var, span);
                Stmt::Assign { target, value: Expr::Int(i64::from(l)), atomic: false, span }
            }
            "call" => {
                c.skip(1);
                let name = c.ident("the subroutine name")?;
                Stmt::Call { name, args: paren_exprs(c)?, span }
            }
            "return" => {
                c.skip(1);
                Stmt::Return(span)
            }
            "exit" => {
                c.skip(1);
                Stmt::Exit(span)
            }
            "cycle" => {
                c.skip(1);
                Stmt::Cycle(span)
            }
            "continue" => {
                c.skip(1);
                Stmt::Continue(span)
            }
            "stop" => {
                c.skip(1);
                let message = match c.peek() {
                    Some(Tok::Str(s)) => Some(c.text(s).to_string()),
                    Some(Tok::Int(v)) => Some(v.to_string()),
                    _ => None,
                };
                c.skip(usize::from(message.is_some()));
                Stmt::Stop { message, span }
            }
            "print" | "write" => {
                c.skip(1);
                let mut labelled = false;
                if head == "write" {
                    // WRITE(unit[, fmt]): any unit, `UNIT=` forms included.
                    c.expect(Tok::LParen, "`(` after WRITE")?;
                    match c.peek() {
                        Some(Tok::Star | Tok::Int(_)) => c.skip(1),
                        Some(Tok::Ident(_)) => {}
                        _ => return Err(perr("expected a unit specifier in WRITE")),
                    }
                    if c.eat(Tok::Comma) && !c.eat(Tok::Star) {
                        c.label().map_err(|_| perr("expected `*` or a format label in WRITE"))?;
                        labelled = true;
                    }
                    c.expect(Tok::RParen, "`)` closing the WRITE control list")?;
                } else if !c.eat(Tok::Star) {
                    c.label().map_err(|_| perr("expected `*` or a format label after PRINT"))?;
                    labelled = true;
                }
                if labelled {
                    self.diags.warn_hint(
                        self.file,
                        span.line,
                        format!(
                            "{} format label ignored; output is list-directed",
                            head.to_uppercase()
                        ),
                        "the engine prints arguments in list-directed form",
                    );
                }
                // `PRINT *, a, b` but `WRITE(*,*) a, b`.
                let args = if c.done() || (head == "print" && !c.eat(Tok::Comma)) {
                    Vec::new()
                } else {
                    expr_list(c)?
                };
                Stmt::Print { args, span }
            }
            "allocate" => {
                c.skip(1);
                c.expect(Tok::LParen, "`(` after ALLOCATE")?;
                let mut items = Vec::new();
                loop {
                    let name = c.ident("an array name")?;
                    items.push((Desig::scalar(name, span), dims(c)?));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.expect(Tok::RParen, "`)` closing ALLOCATE")?;
                Stmt::Allocate { items, span }
            }
            "deallocate" => {
                c.skip(1);
                c.expect(Tok::LParen, "`(` after DEALLOCATE")?;
                let mut names = Vec::new();
                loop {
                    let name = c.ident("an array name")?;
                    names.push(Desig::scalar(name, span));
                    if !c.eat(Tok::Comma) {
                        break;
                    }
                }
                c.expect(Tok::RParen, "`)` closing DEALLOCATE")?;
                Stmt::Deallocate { names, span }
            }
            _ => return Ok(None),
        };
        Ok(Some(stmt))
    }

    /// Parses an OMP directive line and applies it.
    fn directive(&mut self, mut c: LineCur<'a>, line: &Line) -> Result<(), PErr> {
        if c.word() == Some("threadprivate") && self.in_module_spec() {
            c.skip(1);
            let names = &mut self.module.as_mut().expect("checked").0.threadprivate;
            return c.paren_idents("a variable name", names);
        }
        self.need_unit(line)?;
        if c.eat_kw("parallel") && c.eat_kw("do") {
            // A repeated directive replaces the one before it.
            self.settle(line, true, false);
            self.pending_omp = Some(omp_clauses(&mut c)?);
            return Ok(());
        }
        self.settle(line, false, false);
        if c.eat_kw("atomic") {
            self.pending_atomic = true;
        } else if c.eat_kw("critical") {
            let name = if c.eat(Tok::LParen) {
                let n = c.ident("the critical section name")?;
                c.expect(Tok::RParen, "`)` closing the critical section name")?;
                Some(n)
            } else {
                None
            };
            self.open_block(Stmt::Critical { name, body: Vec::new(), span: c.span() }, None, line);
        } else if c.eat_kw("end") {
            // END PARALLEL [DO] closes nothing: the loop ended at its END DO.
            if c.eat_kw("critical") {
                let u = self.unit.as_mut().expect(NO_UNIT);
                let Some(Frame { stmt: Stmt::Critical { .. }, .. }) = u.frames.last() else {
                    return Err(perr("END CRITICAL without an open CRITICAL"));
                };
                u.close_top();
            }
        } else {
            self.diags.warn_hint(
                self.file,
                line.lineno,
                "unsupported OpenMP directive ignored",
                "only PARALLEL DO, ATOMIC and CRITICAL are honoured",
            );
        }
        Ok(())
    }
}

/// True when the statement opens with a type: a declaration, or a typed
/// FUNCTION head. (`TYPE name` opens a definition, `TYPE(name)` a
/// declaration.)
fn opens_decl(c: &LineCur) -> bool {
    match c.word() {
        Some("integer" | "real" | "logical" | "character" | "double" | "doubleprecision") => true,
        Some("type") => c.peek_at(1) == Some(Tok::LParen),
        _ => false,
    }
}

/// `( e )` after `IF` / `ELSE IF`.
fn if_condition(c: &mut LineCur) -> Result<Expr, PErr> {
    c.expect(Tok::LParen, "`(` after IF")?;
    let cond = expr(c)?;
    c.expect(Tok::RParen, "`)` closing the IF condition")?;
    Ok(cond)
}

/// `( l1 {, l2} )`
fn label_list(c: &mut LineCur) -> Result<Vec<u32>, PErr> {
    c.expect(Tok::LParen, "`(`")?;
    let mut labels = vec![c.label()?];
    while c.eat(Tok::Comma) {
        labels.push(c.label()?);
    }
    c.expect(Tok::RParen, "`)` after the label list")?;
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Ast {
        parse(src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
    }

    const MINI: &str = "\
MODULE m
  IMPLICIT NONE
  REAL(8) :: shared_x
CONTAINS
  SUBROUTINE s(a, n)
    INTEGER :: n
    REAL(8), DIMENSION(1:10) :: a
    INTEGER :: i
    DO i = 1, n
      a(i) = a(i) * 2.0D0
    END DO
  END SUBROUTINE s
END MODULE m
";

    #[test]
    fn parses_minimal_module() {
        let ast = parse_ok(MINI);
        assert_eq!(ast.modules.len(), 1);
        let m = &ast.modules[0];
        assert_eq!(m.name, "m");
        assert_eq!(m.decls.len(), 1);
        assert_eq!(m.units.len(), 1);
        let u = &m.units[0];
        assert_eq!(u.name, "s");
        assert_eq!(u.params, vec!["a", "n"]);
        assert_eq!(u.decls.len(), 3);
        assert_eq!(u.body.len(), 1);
        assert!(matches!(&u.body[0], Stmt::Do { var, .. } if var == "i"));
    }

    #[test]
    fn parses_function_and_return() {
        let src = "\
MODULE m
CONTAINS
  REAL(8) FUNCTION total(b)
    REAL(8), DIMENSION(1:4) :: b
    total = b(1) + b(2)
    RETURN
  END FUNCTION total
END MODULE m
";
        let ast = parse_ok(src);
        let u = &ast.modules[0].units[0];
        assert!(matches!(&u.kind, UnitKind::Function(TypeSpec::Real8)));
        assert_eq!(u.body.len(), 2);
    }

    #[test]
    fn parses_omp_parallel_do() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s(a)
    REAL(8), DIMENSION(1:10) :: a
    INTEGER :: i, j
    !$OMP PARALLEL DO DEFAULT(SHARED) COLLAPSE(2) PRIVATE(t) REDUCTION(+:acc, acc2)
    DO i = 1, 2
      DO j = 1, 5
        a(j) = 0.0D0
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let u = &ast.modules[0].units[0];
        let Stmt::Do { omp: Some(omp), .. } = &u.body[0] else {
            panic!("expected OMP DO, got {:?}", u.body[0]);
        };
        assert_eq!(omp.collapse, 2);
        assert_eq!(omp.private, vec!["t"]);
        assert_eq!(omp.reductions, vec![(RedOp::Add, vec!["acc".into(), "acc2".into()])]);
    }

    #[test]
    fn parses_atomic_and_critical() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s(x)
    REAL(8) :: x
    !$OMP ATOMIC
    x = x + 1.0D0
    !$OMP CRITICAL (upd)
    x = x * 2.0D0
    !$OMP END CRITICAL
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let u = &ast.modules[0].units[0];
        assert!(matches!(&u.body[0], Stmt::Assign { atomic: true, .. }));
        let Stmt::Critical { name: Some(n), body, .. } = &u.body[1] else {
            panic!("expected critical");
        };
        assert_eq!(n, "upd");
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn parses_if_chain_and_one_liner() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s(x)
    REAL(8) :: x
    IF (x > 1.0D0) THEN
      x = 1.0D0
    ELSE IF (x < -1.0D0) THEN
      x = -1.0D0
    ELSE
      x = 0.0D0
    END IF
    IF (x == 0.0D0) x = 0.5D0
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let u = &ast.modules[0].units[0];
        let Stmt::If { arms, else_body, .. } = &u.body[0] else { panic!() };
        assert_eq!(arms.len(), 2);
        assert_eq!(else_body.len(), 1);
        let Stmt::If { arms, else_body, .. } = &u.body[1] else { panic!() };
        assert_eq!(arms.len(), 1);
        assert!(else_body.is_empty());
    }

    #[test]
    fn parses_common_and_use() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s()
    USE fuliou_mod
    REAL(8) :: cc
    REAL(8), DIMENSION(1:60) :: dd
    COMMON /rad/ cc, dd
    cc = 1.0D0
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let u = &ast.modules[0].units[0];
        assert_eq!(u.uses, vec!["fuliou_mod"]);
        assert_eq!(u.commons, vec![("rad".to_string(), vec!["cc".into(), "dd".into()])]);
    }

    #[test]
    fn parses_typedef_and_percent_access() {
        let src = "\
MODULE m
  TYPE fuout_t
    REAL(8), DIMENSION(1:60) :: fd
    REAL(8) :: total
  END TYPE fuout_t
  TYPE(fuout_t) :: fo
CONTAINS
  SUBROUTINE s()
    fo%fd(3) = fo%total * 2.0D0
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let m = &ast.modules[0];
        assert_eq!(m.typedefs.len(), 1);
        assert_eq!(m.typedefs[0].fields.len(), 2);
        let Stmt::Assign { target, .. } = &m.units[0].body[0] else { panic!() };
        assert_eq!(target.parts.len(), 2);
        assert_eq!(target.parts[0].name, "fo");
        assert_eq!(target.parts[1].name, "fd");
        assert_eq!(target.parts[1].subs.len(), 1);
    }

    #[test]
    fn parses_allocate_deallocate() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s()
    REAL(8), DIMENSION(:), ALLOCATABLE :: tmp
    IF (.NOT. ALLOCATED(tmp)) ALLOCATE(tmp(1:50))
    tmp(1) = 0.0D0
    DEALLOCATE(tmp)
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let u = &ast.modules[0].units[0];
        assert_eq!(u.body.len(), 3);
        let Stmt::If { arms, .. } = &u.body[0] else { panic!() };
        assert!(matches!(&arms[0].1[0], Stmt::Allocate { .. }));
    }

    #[test]
    fn parses_do_while_exit_cycle() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s(n)
    INTEGER :: n
    DO WHILE (n > 0)
      n = n - 1
      IF (n == 5) EXIT
      IF (n == 3) CYCLE
    END DO
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        assert!(matches!(&ast.modules[0].units[0].body[0], Stmt::DoWhile { .. }));
    }

    #[test]
    fn precedence_pow_right_assoc() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s(x)
    REAL(8) :: x
    x = 2.0D0 ** 3 ** 2
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let Stmt::Assign { value, .. } = &ast.modules[0].units[0].body[0] else { panic!() };
        // 2 ** (3 ** 2)
        let Expr::Bin(Bin::Pow, _, r) = value else { panic!("{value:?}") };
        assert!(matches!(**r, Expr::Bin(Bin::Pow, _, _)));
    }

    #[test]
    fn unary_minus_folds_products() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s(x, a, b)
    REAL(8) :: x, a, b
    x = -a * b + 1.0D0
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let Stmt::Assign { value, .. } = &ast.modules[0].units[0].body[0] else { panic!() };
        // (-(a*b)) + 1.0
        let Expr::Bin(Bin::Add, l, _) = value else { panic!("{value:?}") };
        assert!(matches!(**l, Expr::Neg(_)));
    }

    #[test]
    fn module_scope_threadprivate() {
        let src = "\
MODULE m
  REAL(8), DIMENSION(1:8) :: buf
  !$OMP THREADPRIVATE(buf)
CONTAINS
  SUBROUTINE s()
    buf(1) = 0.0D0
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        assert_eq!(ast.modules[0].threadprivate, vec!["buf"]);
    }

    #[test]
    fn parse_errors_have_lines() {
        let src = "MODULE m\nCONTAINS\n  SUBROUTINE s(\n";
        let err = parse(src).unwrap_err();
        match err {
            CompileError::Source { diags } => assert_eq!(diags.list[0].span.line, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn print_and_stop() {
        let src = "\
MODULE m
CONTAINS
  SUBROUTINE s(x)
    REAL(8) :: x
    PRINT *, 'value', x
    STOP 'bad'
  END SUBROUTINE s
END MODULE m
";
        let ast = parse_ok(src);
        let u = &ast.modules[0].units[0];
        assert!(matches!(&u.body[0], Stmt::Print { args, .. } if args.len() == 2));
        assert!(matches!(&u.body[1], Stmt::Stop { message: Some(m), .. } if m == "bad"));
    }
}
