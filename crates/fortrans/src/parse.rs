//! Recursive-descent parser: logical lines → [`crate::ast`].
//!
//! The parser borrows a [`Lexed`] source and never copies a line or a
//! token: a `LineCur` is a cursor over one line's slice of the flat
//! token buffer plus the text its identifiers point into, and a one-line
//! `IF` continues on the same slice. Identifier and string text is copied
//! exactly once, into the AST node that keeps it.

use crate::ast::*;
use crate::error::{CompileError, Span};
use crate::lex::{lex, Lexed, Shown, Tok};

/// Parses a source file.
pub fn parse(source: &str) -> Result<Ast, CompileError> {
    let lx = lex(source)?;
    let mut p = P { lx: &lx, li: 0, skip: 0 };
    let mut ast = Ast::default();
    while !p.at_end() {
        ast.modules.push(p.parse_module()?);
    }
    Ok(ast)
}

struct P<'a> {
    lx: &'a Lexed,
    /// Index of the current logical line.
    li: usize,
    /// Tokens of the current line already consumed by a one-line `IF`
    /// whose trailing statement is being parsed.
    skip: usize,
}

/// Parses one expression from a token slice of `text`, returning it plus
/// the number of tokens consumed. Reused by the fixed-form front end so
/// both forms share one Pratt parser (same precedence, same intrinsics
/// disambiguation downstream).
pub(crate) fn expr_from_toks(
    text: &str,
    toks: &[Tok],
    lineno: u32,
) -> Result<(Expr, usize), CompileError> {
    let mut c = LineCur::new(text, toks, lineno);
    let e = P::parse_expr_prec(&mut c, 0)?;
    Ok((e, c.i))
}

/// Parses one designator (`a`, `a(i,j)`, `fi%vd(i)`) from a token slice
/// of `text`, returning it plus the number of tokens consumed.
pub(crate) fn desig_from_toks(
    text: &str,
    toks: &[Tok],
    lineno: u32,
) -> Result<(Desig, usize), CompileError> {
    let mut c = LineCur::new(text, toks, lineno);
    let d = P::parse_desig(&mut c)?;
    Ok((d, c.i))
}

/// A cursor over one line's tokens.
struct LineCur<'a> {
    text: &'a str,
    toks: &'a [Tok],
    i: usize,
    span: Span,
}

impl<'a> LineCur<'a> {
    fn new(text: &'a str, toks: &'a [Tok], lineno: u32) -> Self {
        LineCur { text, toks, i: 0, span: Span { line: lineno } }
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError::Parse { msg: msg.into(), span: self.span }
    }

    fn peek(&self) -> Option<Tok> {
        self.toks.get(self.i).copied()
    }

    fn peek2(&self) -> Option<Tok> {
        self.toks.get(self.i + 1).copied()
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.peek();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    /// `t` as error messages print it.
    fn shown(&self, t: Option<Tok>) -> Option<Shown<'a>> {
        t.map(|t| Shown(self.text, t))
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(*t) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), CompileError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.shown(self.peek()))))
        }
    }

    /// The identifier at `i`, borrowed from the source text.
    fn word_at(&self, i: usize) -> Option<&'a str> {
        match self.toks.get(i) {
            Some(Tok::Ident(s)) => Some(&self.text[s.range()]),
            _ => None,
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.word_at(self.i) == Some(kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    /// Consumes an identifier that is only matched against, not kept.
    fn expect_word(&mut self, what: &str) -> Result<&'a str, CompileError> {
        match self.word_at(self.i) {
            Some(w) => {
                self.i += 1;
                Ok(w)
            }
            None => {
                let other = self.next();
                Err(self.err(format!("expected {what}, found {:?}", self.shown(other))))
            }
        }
    }

    /// Consumes an identifier into the `String` an AST node keeps.
    fn expect_ident(&mut self, what: &str) -> Result<String, CompileError> {
        self.expect_word(what).map(str::to_string)
    }

    /// `name {, name}` appended to `out`, each copied for the AST.
    fn ident_list(&mut self, what: &str, out: &mut Vec<String>) -> Result<(), CompileError> {
        loop {
            out.push(self.expect_ident(what)?);
            if !self.eat(&Tok::Comma) {
                return Ok(());
            }
        }
    }

    fn done(&self) -> bool {
        self.i >= self.toks.len()
    }

    fn expect_done(&self) -> Result<(), CompileError> {
        if self.done() {
            Ok(())
        } else {
            let rest: Vec<_> = self.toks[self.i..].iter().map(|t| Shown(self.text, *t)).collect();
            Err(self.err(format!("unexpected trailing tokens: {rest:?}")))
        }
    }
}

impl<'a> P<'a> {
    fn at_end(&self) -> bool {
        self.li >= self.lx.lines.len()
    }

    /// A cursor over what is left of the current line.
    fn cur(&self) -> LineCur<'a> {
        let lx = self.lx;
        let line = &lx.lines[self.li];
        LineCur::new(&lx.text, &lx.toks(line)[self.skip..], line.lineno)
    }

    /// True when the current line is an OMP directive.
    fn cur_omp(&self) -> bool {
        self.lx.lines[self.li].omp
    }

    fn span(&self) -> Span {
        Span { line: self.lx.lines.get(self.li).map(|l| l.lineno).unwrap_or(0) }
    }

    fn err_here(&self, msg: impl Into<String>) -> CompileError {
        CompileError::Parse { msg: msg.into(), span: self.span() }
    }

    fn advance(&mut self) {
        self.li += 1;
        self.skip = 0;
    }

    /// First identifier of the current line, lowercase.
    fn head(&self) -> Option<&'a str> {
        self.cur().word_at(0)
    }

    fn second_kw(&self) -> Option<&'a str> {
        self.cur().word_at(1)
    }

    // ---------------- module level ----------------

    fn parse_module(&mut self) -> Result<Module, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        if !c.eat_kw("module") {
            return Err(self.err_here("expected MODULE"));
        }
        let name = c.expect_ident("module name")?;
        c.expect_done()?;
        self.advance();

        let mut m = Module {
            name,
            uses: vec![],
            typedefs: vec![],
            decls: vec![],
            threadprivate: vec![],
            units: vec![],
            span,
        };

        // Specification part.
        loop {
            if self.at_end() {
                return Err(self.err_here("unexpected end of file inside MODULE"));
            }
            if self.cur_omp() {
                let mut c = self.cur();
                if c.eat_kw("threadprivate") {
                    c.expect(&Tok::LParen, "(")?;
                    c.ident_list("variable name", &mut m.threadprivate)?;
                    c.expect(&Tok::RParen, ")")?;
                    self.advance();
                    continue;
                }
                return Err(self.err_here("unexpected OMP directive in module specification"));
            }
            match self.head() {
                Some("use") => {
                    let mut c = self.cur();
                    c.eat_kw("use");
                    m.uses.push(c.expect_ident("module name")?);
                    self.advance();
                }
                Some("implicit") => self.advance(),
                Some("contains") => {
                    self.advance();
                    break;
                }
                Some("end") => break, // module without CONTAINS
                Some("type") if !matches!(self.cur().toks.get(1), Some(Tok::LParen)) => {
                    m.typedefs.push(self.parse_typedef()?);
                }
                Some(_) => {
                    m.decls.push(self.parse_decl()?);
                }
                None => return Err(self.err_here("unexpected line in module")),
            }
        }

        // Subprograms until END MODULE.
        loop {
            if self.at_end() {
                return Err(self.err_here("missing END MODULE"));
            }
            match self.head() {
                Some("end") => {
                    let mut c = self.cur();
                    c.eat_kw("end");
                    if !c.eat_kw("module") {
                        return Err(self.err_here("expected END MODULE"));
                    }
                    self.advance();
                    return Ok(m);
                }
                Some("subroutine") | Some("function") => {
                    m.units.push(self.parse_unit()?);
                }
                Some(_) if self.second_kw() == Some("function")
                    || matches!(
                        (self.head(), self.cur().toks.get(1)),
                        (Some("real") | Some("integer") | Some("logical") | Some("double"), _)
                    ) =>
                {
                    m.units.push(self.parse_unit()?);
                }
                _ => return Err(self.err_here("expected SUBROUTINE, FUNCTION or END MODULE")),
            }
        }
    }

    fn parse_typedef(&mut self) -> Result<TypeDef, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        c.eat_kw("type");
        let name = c.expect_ident("type name")?;
        c.expect_done()?;
        self.advance();
        let mut fields = Vec::new();
        loop {
            if self.at_end() {
                return Err(self.err_here("missing END TYPE"));
            }
            if self.head() == Some("end") {
                let mut c = self.cur();
                c.eat_kw("end");
                if !c.eat_kw("type") {
                    return Err(self.err_here("expected END TYPE"));
                }
                self.advance();
                return Ok(TypeDef { name, fields, span });
            }
            fields.push(self.parse_decl()?);
        }
    }

    /// Parses a type-spec: `INTEGER`, `REAL`, `REAL(8)`, `REAL(KIND=8)`,
    /// `DOUBLE PRECISION`, `LOGICAL`, `CHARACTER(LEN=n)`, `TYPE(name)`.
    fn parse_type_spec(c: &mut LineCur) -> Result<TypeSpec, CompileError> {
        let kw = c.expect_word("type keyword")?;
        match kw {
            "integer" => {
                Self::skip_kind(c)?;
                Ok(TypeSpec::Integer)
            }
            "logical" => Ok(TypeSpec::Logical),
            "double" => {
                if !c.eat_kw("precision") {
                    return Err(c.err("expected DOUBLE PRECISION"));
                }
                Ok(TypeSpec::Real8)
            }
            "real" => {
                if c.peek() == Some(Tok::LParen) {
                    c.next();
                    // (8) or (KIND=8)
                    if c.eat_kw("kind") {
                        c.expect(&Tok::Assign, "=")?;
                    }
                    let k = match c.next() {
                        Some(Tok::Int(v)) => v,
                        other => {
                            let other = c.shown(other);
                            return Err(c.err(format!("expected kind value, got {other:?}")));
                        }
                    };
                    c.expect(&Tok::RParen, ")")?;
                    Ok(if k == 8 { TypeSpec::Real8 } else { TypeSpec::Real })
                } else {
                    Ok(TypeSpec::Real)
                }
            }
            "character" => {
                if c.eat(&Tok::LParen) {
                    // LEN=n or LEN=* or n
                    if c.eat_kw("len") {
                        c.expect(&Tok::Assign, "=")?;
                    }
                    match c.next() {
                        Some(Tok::Int(_)) | Some(Tok::Star) => {}
                        other => {
                            return Err(c.err(format!("bad CHARACTER length {:?}", c.shown(other))))
                        }
                    }
                    c.expect(&Tok::RParen, ")")?;
                }
                Ok(TypeSpec::Character)
            }
            "type" => {
                c.expect(&Tok::LParen, "(")?;
                let n = c.expect_ident("derived type name")?;
                c.expect(&Tok::RParen, ")")?;
                Ok(TypeSpec::Derived(n))
            }
            other => Err(c.err(format!("unknown type keyword `{other}`"))),
        }
    }

    fn skip_kind(c: &mut LineCur) -> Result<(), CompileError> {
        if c.peek() == Some(Tok::LParen) && !matches!(c.peek2(), Some(Tok::Ident(_))) {
            c.next();
            loop {
                match c.next() {
                    Some(Tok::RParen) => break,
                    Some(_) => {}
                    None => return Err(c.err("unterminated kind spec")),
                }
            }
        }
        Ok(())
    }

    fn parse_decl(&mut self) -> Result<Decl, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        let spec = Self::parse_type_spec(&mut c)?;
        let mut attrs = Attrs::default();
        while c.eat(&Tok::Comma) {
            let attr = c.expect_word("attribute")?;
            match attr {
                "dimension" => {
                    c.expect(&Tok::LParen, "(")?;
                    attrs.dims = Some(Self::parse_dim_list(&mut c)?);
                    c.expect(&Tok::RParen, ")")?;
                }
                "allocatable" => attrs.allocatable = true,
                "save" => attrs.save = true,
                "parameter" => attrs.parameter = true,
                "intent" => {
                    // INTENT(IN|OUT|INOUT): parsed and ignored (the engine
                    // uses reference semantics for arrays, value-result for
                    // scalars).
                    c.expect(&Tok::LParen, "(")?;
                    c.expect_word("intent")?;
                    c.expect(&Tok::RParen, ")")?;
                }
                other => return Err(c.err(format!("unsupported attribute `{other}`"))),
            }
        }
        c.expect(&Tok::DoubleColon, "::")?;
        let mut entities = Vec::new();
        loop {
            let name = c.expect_ident("entity name")?;
            let mut dims = None;
            if c.eat(&Tok::LParen) {
                dims = Some(Self::parse_dim_list(&mut c)?);
                c.expect(&Tok::RParen, ")")?;
            }
            let mut init = None;
            if c.eat(&Tok::Assign) {
                init = Some(Self::parse_expr_prec(&mut c, 0)?);
            }
            entities.push(Entity { name, dims, init, init_list: None });
            if !c.eat(&Tok::Comma) {
                break;
            }
        }
        c.expect_done()?;
        self.advance();
        Ok(Decl { spec, attrs, entities, span })
    }

    fn parse_dim_list(c: &mut LineCur) -> Result<Vec<DimDecl>, CompileError> {
        let mut dims = Vec::new();
        loop {
            if c.peek() == Some(Tok::Colon) {
                c.next();
                dims.push(DimDecl { lo: None, hi: None, deferred: true });
            } else {
                let first = Self::parse_expr_prec(c, 0)?;
                if c.eat(&Tok::Colon) {
                    let hi = Self::parse_expr_prec(c, 0)?;
                    dims.push(DimDecl { lo: Some(first), hi: Some(hi), deferred: false });
                } else {
                    dims.push(DimDecl { lo: None, hi: Some(first), deferred: false });
                }
            }
            if !c.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(dims)
    }

    // ---------------- subprograms ----------------

    fn parse_unit(&mut self) -> Result<Unit, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        let kind = if c.eat_kw("subroutine") {
            UnitKind::Subroutine
        } else {
            let spec = Self::parse_type_spec(&mut c)?;
            if !c.eat_kw("function") {
                return Err(c.err("expected FUNCTION after type spec"));
            }
            UnitKind::Function(spec)
        };
        let name = c.expect_ident("subprogram name")?;
        let mut params = Vec::new();
        if c.eat(&Tok::LParen)
            && !c.eat(&Tok::RParen) {
                c.ident_list("parameter name", &mut params)?;
                c.expect(&Tok::RParen, ")")?;
            }
        c.expect_done()?;
        self.advance();

        let mut unit = Unit {
            kind,
            name,
            params,
            uses: vec![],
            decls: vec![],
            commons: vec![],
            body: vec![],
            span,
        };

        // Specification statements.
        loop {
            if self.at_end() {
                return Err(self.err_here("unexpected EOF in subprogram"));
            }
            if self.cur_omp() {
                break; // directives start the executable part
            }
            match self.head() {
                Some("use") => {
                    let mut c = self.cur();
                    c.eat_kw("use");
                    unit.uses.push(c.expect_ident("module name")?);
                    self.advance();
                }
                Some("implicit") => self.advance(),
                Some("common") => {
                    let mut c = self.cur();
                    c.eat_kw("common");
                    c.expect(&Tok::Slash, "/")?;
                    let block = c.expect_ident("common block name")?;
                    c.expect(&Tok::Slash, "/")?;
                    let mut vars = Vec::new();
                    c.ident_list("variable", &mut vars)?;
                    c.expect_done()?;
                    unit.commons.push((block, vars));
                    self.advance();
                }
                Some("integer") | Some("logical") | Some("double") | Some("character") => {
                    unit.decls.push(self.parse_decl()?);
                }
                Some("real") => {
                    // Could be a declaration `REAL(8) :: x` or an assignment
                    // to a variable named... we forbid variables named like
                    // type keywords, so: declaration.
                    unit.decls.push(self.parse_decl()?);
                }
                Some("type") if matches!(self.cur().toks.get(1), Some(Tok::LParen)) => {
                    unit.decls.push(self.parse_decl()?);
                }
                _ => break,
            }
        }

        // Executable part.
        unit.body = self.parse_block(&["end"])?;
        // END [SUBROUTINE|FUNCTION] [name]
        let mut c = self.cur();
        c.eat_kw("end");
        let _ = c.eat_kw("subroutine") || c.eat_kw("function");
        self.advance();
        Ok(unit)
    }

    /// True when the current line begins a block terminator from `stops`
    /// ("end", "else", "elseif", ...).
    fn at_terminator(&self, stops: &[&str]) -> bool {
        if self.cur_omp() {
            // OMP END CRITICAL terminates a critical block.
            let mut c = self.cur();
            if c.eat_kw("end") {
                return stops.contains(&"!$omp end");
            }
            return false;
        }
        match self.head() {
            Some("end") => stops.contains(&"end"),
            Some("else") => stops.contains(&"else"),
            Some("elseif") => stops.contains(&"else"),
            _ => false,
        }
    }

    fn parse_block(&mut self, stops: &[&str]) -> Result<Vec<Stmt>, CompileError> {
        let mut body = Vec::new();
        let mut pending_atomic = false;
        let mut pending_omp: Option<OmpDo> = None;
        loop {
            if self.at_end() {
                return Err(self.err_here("unexpected EOF inside block"));
            }
            if self.at_terminator(stops) {
                if pending_atomic || pending_omp.is_some() {
                    return Err(self.err_here("dangling OMP directive before block end"));
                }
                return Ok(body);
            }
            if self.cur_omp() {
                let mut c = self.cur();
                if c.eat_kw("parallel") {
                    if !c.eat_kw("do") {
                        return Err(self.err_here("only PARALLEL DO is supported"));
                    }
                    pending_omp = Some(Self::parse_omp_clauses(&mut c)?);
                    self.advance();
                    continue;
                } else if c.eat_kw("atomic") {
                    pending_atomic = true;
                    self.advance();
                    continue;
                } else if c.eat_kw("critical") {
                    let mut name = None;
                    if c.eat(&Tok::LParen) {
                        name = Some(c.expect_ident("critical name")?);
                        c.expect(&Tok::RParen, ")")?;
                    }
                    let span = self.span();
                    self.advance();
                    let inner = self.parse_block(&["!$omp end"])?;
                    // consume "!$OMP END CRITICAL"
                    let mut e = self.cur();
                    e.eat_kw("end");
                    if !e.eat_kw("critical") {
                        return Err(self.err_here("expected !$OMP END CRITICAL"));
                    }
                    self.advance();
                    body.push(Stmt::Critical { name, body: inner, span });
                    continue;
                } else if c.eat_kw("end") {
                    // "!$OMP END PARALLEL DO" after a DO we've already
                    // closed: consume silently.
                    if c.eat_kw("parallel") {
                        self.advance();
                        continue;
                    }
                    return Err(self.err_here("unexpected OMP END directive"));
                } else {
                    return Err(self.err_here("unsupported OMP directive"));
                }
            }

            let stmt = self.parse_stmt()?;
            let stmt = match (stmt, pending_atomic, pending_omp.take()) {
                (Stmt::Assign { target, value, span, .. }, true, _) => {
                    pending_atomic = false;
                    Stmt::Assign { target, value, atomic: true, span }
                }
                (Stmt::Do { var, start, end, step, body, span, .. }, false, Some(omp)) => {
                    Stmt::Do { var, start, end, step, body, omp: Some(omp), span }
                }
                (s, false, None) => s,
                (_, true, _) => {
                    return Err(self.err_here("!$OMP ATOMIC must precede an assignment"))
                }
                (_, _, Some(_)) => {
                    return Err(self.err_here("!$OMP PARALLEL DO must precede a DO loop"))
                }
            };
            body.push(stmt);
        }
    }

    fn parse_omp_clauses(c: &mut LineCur) -> Result<OmpDo, CompileError> {
        let mut omp = OmpDo { collapse: 1, ..Default::default() };
        loop {
            // Optional commas between clauses.
            while c.eat(&Tok::Comma) {}
            let Some(kw) = c.word_at(c.i) else {
                break;
            };
            c.next();
            match kw {
                "default" => {
                    c.expect(&Tok::LParen, "(")?;
                    c.expect_word("shared/none")?;
                    c.expect(&Tok::RParen, ")")?;
                }
                "private" => {
                    c.expect(&Tok::LParen, "(")?;
                    c.ident_list("name", &mut omp.private)?;
                    c.expect(&Tok::RParen, ")")?;
                }
                "firstprivate" => {
                    c.expect(&Tok::LParen, "(")?;
                    c.ident_list("name", &mut omp.firstprivate)?;
                    c.expect(&Tok::RParen, ")")?;
                }
                "reduction" => {
                    c.expect(&Tok::LParen, "(")?;
                    let op = match c.next() {
                        Some(Tok::Plus) => RedOp::Add,
                        Some(Tok::Star) => RedOp::Mul,
                        Some(Tok::Ident(s)) if &c.text[s.range()] == "max" => RedOp::Max,
                        Some(Tok::Ident(s)) if &c.text[s.range()] == "min" => RedOp::Min,
                        other => {
                            return Err(c.err(format!("bad reduction op {:?}", c.shown(other))))
                        }
                    };
                    c.expect(&Tok::Colon, ":")?;
                    let mut vars = Vec::new();
                    c.ident_list("name", &mut vars)?;
                    c.expect(&Tok::RParen, ")")?;
                    omp.reductions.push((op, vars));
                }
                "collapse" => {
                    c.expect(&Tok::LParen, "(")?;
                    match c.next() {
                        Some(Tok::Int(n)) if n >= 1 => omp.collapse = n as usize,
                        other => return Err(c.err(format!("bad collapse {:?}", c.shown(other)))),
                    }
                    c.expect(&Tok::RParen, ")")?;
                }
                "num_threads" => {
                    c.expect(&Tok::LParen, "(")?;
                    omp.num_threads = Some(Self::parse_expr_prec(c, 0)?);
                    c.expect(&Tok::RParen, ")")?;
                }
                "schedule" => {
                    c.expect(&Tok::LParen, "(")?;
                    let kind = match c.expect_word("schedule kind")? {
                        "static" => SchedKind::Static,
                        "dynamic" => SchedKind::Dynamic,
                        "guided" => SchedKind::Guided,
                        other => {
                            return Err(
                                c.err(format!("unsupported schedule kind `{other}`"))
                            )
                        }
                    };
                    let mut chunk = None;
                    if c.eat(&Tok::Comma) {
                        match c.next() {
                            Some(Tok::Int(n)) if n >= 1 => chunk = Some(n as usize),
                            other => {
                                return Err(c.err(format!("bad chunk {:?}", c.shown(other))))
                            }
                        }
                    }
                    c.expect(&Tok::RParen, ")")?;
                    omp.schedule = Some((kind, chunk));
                }
                other => return Err(c.err(format!("unsupported OMP clause `{other}`"))),
            }
        }
        c.expect_done()?;
        Ok(omp)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        match c.word_at(0) {
            Some(kw) => match kw {
                "do" => self.parse_do(),
                "if" => self.parse_if(),
                "call" => {
                    c.eat_kw("call");
                    let name = c.expect_ident("subroutine name")?;
                    let mut args = Vec::new();
                    if c.eat(&Tok::LParen)
                        && !c.eat(&Tok::RParen) {
                            loop {
                                args.push(Self::parse_expr_prec(&mut c, 0)?);
                                if !c.eat(&Tok::Comma) {
                                    break;
                                }
                            }
                            c.expect(&Tok::RParen, ")")?;
                        }
                    c.expect_done()?;
                    self.advance();
                    Ok(Stmt::Call { name, args, span })
                }
                "allocate" => {
                    c.eat_kw("allocate");
                    c.expect(&Tok::LParen, "(")?;
                    let mut items = Vec::new();
                    loop {
                        let name = c.expect_ident("array name")?;
                        c.expect(&Tok::LParen, "(")?;
                        let dims = Self::parse_dim_list(&mut c)?;
                        c.expect(&Tok::RParen, ")")?;
                        items.push((
                            Desig { parts: vec![Part { name, subs: vec![] }], span },
                            dims,
                        ));
                        if !c.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    c.expect(&Tok::RParen, ")")?;
                    c.expect_done()?;
                    self.advance();
                    Ok(Stmt::Allocate { items, span })
                }
                "deallocate" => {
                    c.eat_kw("deallocate");
                    c.expect(&Tok::LParen, "(")?;
                    let mut names = Vec::new();
                    loop {
                        let name = c.expect_ident("array name")?;
                        names.push(Desig { parts: vec![Part { name, subs: vec![] }], span });
                        if !c.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    c.expect(&Tok::RParen, ")")?;
                    c.expect_done()?;
                    self.advance();
                    Ok(Stmt::Deallocate { names, span })
                }
                "return" => {
                    self.advance();
                    Ok(Stmt::Return(span))
                }
                "exit" => {
                    self.advance();
                    Ok(Stmt::Exit(span))
                }
                "cycle" => {
                    self.advance();
                    Ok(Stmt::Cycle(span))
                }
                "continue" => {
                    self.advance();
                    Ok(Stmt::Continue(span))
                }
                "stop" => {
                    c.eat_kw("stop");
                    let message = match c.peek() {
                        Some(Tok::Str(s)) => Some(c.text[s.range()].to_string()),
                        _ => None,
                    };
                    self.advance();
                    Ok(Stmt::Stop { message, span })
                }
                "print" => {
                    c.eat_kw("print");
                    c.expect(&Tok::Star, "*")?;
                    let mut args = Vec::new();
                    while c.eat(&Tok::Comma) {
                        args.push(Self::parse_expr_prec(&mut c, 0)?);
                    }
                    c.expect_done()?;
                    self.advance();
                    Ok(Stmt::Print { args, span })
                }
                _ => self.parse_assignment(),
            },
            _ => Err(self.err_here("expected a statement")),
        }
    }

    fn parse_assignment(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        let target = Self::parse_desig(&mut c)?;
        c.expect(&Tok::Assign, "=")?;
        let value = Self::parse_expr_prec(&mut c, 0)?;
        c.expect_done()?;
        self.advance();
        Ok(Stmt::Assign { target, value, atomic: false, span })
    }

    fn parse_do(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        c.eat_kw("do");
        if c.eat_kw("while") {
            c.expect(&Tok::LParen, "(")?;
            let cond = Self::parse_expr_prec(&mut c, 0)?;
            c.expect(&Tok::RParen, ")")?;
            c.expect_done()?;
            self.advance();
            let body = self.parse_block(&["end"])?;
            self.expect_end_kw("do")?;
            return Ok(Stmt::DoWhile { cond, body, span });
        }
        let var = c.expect_ident("loop variable")?;
        c.expect(&Tok::Assign, "=")?;
        let start = Self::parse_expr_prec(&mut c, 0)?;
        c.expect(&Tok::Comma, ",")?;
        let end = Self::parse_expr_prec(&mut c, 0)?;
        let step = if c.eat(&Tok::Comma) {
            Some(Self::parse_expr_prec(&mut c, 0)?)
        } else {
            None
        };
        c.expect_done()?;
        self.advance();
        let body = self.parse_block(&["end"])?;
        self.expect_end_kw("do")?;
        Ok(Stmt::Do { var, start, end, step, body, omp: None, span })
    }

    fn expect_end_kw(&mut self, kw: &str) -> Result<(), CompileError> {
        let mut c = self.cur();
        if !(c.eat_kw("end") && c.eat_kw(kw)) {
            return Err(self.err_here(format!("expected END {}", kw.to_uppercase())));
        }
        self.advance();
        Ok(())
    }

    fn parse_if(&mut self) -> Result<Stmt, CompileError> {
        let span = self.span();
        let mut c = self.cur();
        c.eat_kw("if");
        c.expect(&Tok::LParen, "(")?;
        let cond = Self::parse_expr_prec(&mut c, 0)?;
        c.expect(&Tok::RParen, ")")?;
        if c.eat_kw("then") {
            c.expect_done()?;
            self.advance();
            let mut arms = vec![(cond, self.parse_block(&["end", "else"])?)];
            let mut else_body = Vec::new();
            loop {
                let mut c = self.cur();
                if c.eat_kw("end") {
                    if !c.eat_kw("if") {
                        return Err(self.err_here("expected END IF"));
                    }
                    self.advance();
                    break;
                }
                if c.eat_kw("elseif") || (c.eat_kw("else") && c.eat_kw("if")) {
                    c.expect(&Tok::LParen, "(")?;
                    let cond = Self::parse_expr_prec(&mut c, 0)?;
                    c.expect(&Tok::RParen, ")")?;
                    if !c.eat_kw("then") {
                        return Err(self.err_here("expected THEN"));
                    }
                    self.advance();
                    arms.push((cond, self.parse_block(&["end", "else"])?));
                    continue;
                }
                // plain ELSE (the `else if` case was consumed above; a lone
                // `else` has no more tokens)
                self.advance();
                else_body = self.parse_block(&["end"])?;
                let mut e = self.cur();
                if !(e.eat_kw("end") && e.eat_kw("if")) {
                    return Err(self.err_here("expected END IF"));
                }
                self.advance();
                break;
            }
            Ok(Stmt::If { arms, else_body, span })
        } else {
            // One-line IF: `IF (cond) stmt`. Parse the rest of the line as
            // a single statement.
            if c.done() {
                return Err(self.err_here("empty one-line IF"));
            }
            self.skip += c.i;
            let inner = self.parse_stmt()?; // advances past the line
            Ok(Stmt::If { arms: vec![(cond, vec![inner])], else_body: vec![], span })
        }
    }

    // ---------------- expressions ----------------

    fn parse_desig(c: &mut LineCur) -> Result<Desig, CompileError> {
        let span = c.span;
        let mut parts = Vec::new();
        loop {
            let name = c.expect_ident("name")?;
            let mut subs = Vec::new();
            if c.eat(&Tok::LParen)
                && !c.eat(&Tok::RParen) {
                    loop {
                        subs.push(Self::parse_expr_prec(c, 0)?);
                        if !c.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    c.expect(&Tok::RParen, ")")?;
                }
            parts.push(Part { name, subs });
            if !c.eat(&Tok::Percent) {
                break;
            }
        }
        Ok(Desig { parts, span })
    }

    /// Pratt parser. Binding powers (low→high): OR, AND, NOT, comparisons,
    /// +/- (incl. unary), * and /, ** (right-assoc).
    fn parse_expr_prec(c: &mut LineCur, min_bp: u8) -> Result<Expr, CompileError> {
        let mut lhs = Self::parse_prefix(c)?;
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
            let rhs = Self::parse_expr_prec(c, rbp)?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_prefix(c: &mut LineCur) -> Result<Expr, CompileError> {
        match c.peek() {
            Some(Tok::Minus) => {
                c.next();
                // Unary minus binds like addition (Fortran: -a**2 = -(a**2),
                // -a*b = -(a*b)); parsing the operand at mul precedence
                // keeps `-a + b` == (-a) + b while `-a*b` folds the product.
                let e = Self::parse_expr_prec(c, 9)?;
                Ok(Expr::Neg(Box::new(e)))
            }
            Some(Tok::Plus) => {
                c.next();
                Self::parse_prefix(c)
            }
            Some(Tok::Not) => {
                c.next();
                let e = Self::parse_expr_prec(c, 5)?;
                Ok(Expr::Not(Box::new(e)))
            }
            Some(Tok::LParen) => {
                c.next();
                let e = Self::parse_expr_prec(c, 0)?;
                c.expect(&Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::Int(v)) => {
                c.next();
                Ok(Expr::Int(v))
            }
            Some(Tok::Real(v)) => {
                c.next();
                Ok(Expr::Real(v))
            }
            Some(Tok::True) => {
                c.next();
                Ok(Expr::Logical(true))
            }
            Some(Tok::False) => {
                c.next();
                Ok(Expr::Logical(false))
            }
            Some(Tok::Str(s)) => {
                c.next();
                Ok(Expr::Str(c.text[s.range()].to_string()))
            }
            Some(Tok::Ident(_)) => Ok(Expr::Name(Self::parse_desig(c)?)),
            other => Err(c.err(format!("unexpected token in expression: {:?}", c.shown(other)))),
        }
    }
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
        let Stmt::If { arms, else_body, .. } = &u.body[0] else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(else_body.len(), 1);
        let Stmt::If { arms, else_body, .. } = &u.body[1] else {
            panic!()
        };
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
        let Stmt::Assign { target, .. } = &m.units[0].body[0] else {
            panic!()
        };
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
        let Stmt::Assign { value, .. } = &ast.modules[0].units[0].body[0] else {
            panic!()
        };
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
        let Stmt::Assign { value, .. } = &ast.modules[0].units[0].body[0] else {
            panic!()
        };
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
            CompileError::Parse { span, .. } => assert_eq!(span.line, 3),
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
