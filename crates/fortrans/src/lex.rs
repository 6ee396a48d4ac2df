//! The lexer: raw source → logical lines of tokens.
//!
//! A [`Lexed`] is what the one statement parser ([`crate::parse`]) reads,
//! whichever source form it came from. The token scanner here serves both
//! forms; what differs is how physical lines become logical statements.
//! [`lex`] assembles free-form lines, [`crate::fixedform`] assembles
//! punched cards. Free form follows the conventions the GLAF code
//! generator (and our hand-written "legacy" sources) use:
//!
//! * `!` starts a comment — except the OpenMP sentinel `!$OMP`, which makes
//!   the line a *directive line* (a trailing `!` comment is stripped from
//!   directive text too);
//! * `&` at end of line continues onto the next line (an optional leading
//!   `&` on the continuation is consumed);
//! * keywords and identifiers are case-insensitive — identifiers are
//!   normalized to lowercase;
//! * numeric literals accept `D`/`E` exponents (`1.5D0`, `2E-3`);
//! * dot-operators (`.AND.`, `.LT.`, `.TRUE.`, ...) are recognized as
//!   single tokens.
//!
//! ## Who owns what
//!
//! A [`Lexed`] owns everything the scan produced: one `text` buffer with
//! the statement text of the whole source (comments and continuation
//! marks gone, case folded outside character literals), one flat token
//! buffer, and one [`Line`] per logical line naming its token range. A
//! token is `Copy`: identifiers and string literals are [`Sym`] byte
//! ranges of `text`, never owned strings. The source is read once, each
//! statement is copied once into `text`, and nothing else is allocated
//! per line or per token. The parser's cursor borrows `text` and a token
//! slice; an identifier is first copied into a `String` when an AST node
//! that keeps it is built.
//!
//! A statement that does not scan is reported into the [`Diagnostics`]
//! and left out; the scan goes on with the next one.

use crate::error::{CompileError, Diagnostics};
use std::ops::Range;

/// The byte range of a [`Lexed`]'s text that spells an identifier
/// (lowercase) or the contents of a string literal (verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sym {
    start: u32,
    end: u32,
}

impl Sym {
    fn new(r: Range<usize>) -> Sym {
        // `Lexed::for_source` bounds the text below 4 GiB.
        Sym { start: r.start as u32, end: r.end as u32 }
    }

    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    /// The sub-range `from..to` of this symbol, for splitting a keyword
    /// off a blank-merged fixed-form word.
    pub(crate) fn sub(self, r: Range<usize>) -> Sym {
        debug_assert!(r.start <= r.end && r.end <= self.range().len());
        Sym { start: self.start + r.start as u32, end: self.start + r.end as u32 }
    }
}

/// One token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok {
    /// Lowercased identifier or keyword.
    Ident(Sym),
    Int(i64),
    Real(f64),
    Str(Sym),
    LParen,
    RParen,
    Comma,
    Percent,
    DoubleColon,
    Colon,
    Assign,
    Plus,
    Minus,
    Star,
    StarStar,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    True,
    False,
}

/// A logical line: continuations joined, comments stripped.
#[derive(Debug, Clone)]
pub struct Line {
    /// This line's range of the flat token buffer.
    pub(crate) toks: Range<u32>,
    /// 1-based physical line number where the logical line starts.
    pub lineno: u32,
    /// True when the line came from an OMP sentinel.
    pub omp: bool,
    /// Fixed-form statement label (columns 1-5); always `None` in free form.
    pub label: Option<u32>,
}

/// A lexed source: statement text, flat token buffer, logical lines.
#[derive(Debug, Default)]
pub struct Lexed {
    pub(crate) text: String,
    pub(crate) toks: Vec<Tok>,
    pub(crate) lines: Vec<Line>,
    /// Scratch for rewriting a `D` exponent to the `E` that `f64::from_str`
    /// reads.
    num: String,
}

/// A token with its text resolved. `Debug` renders it the way a token
/// owning its `String` would (`Ident("x")`, `Int(3)`, `Comma`), which is
/// what the lexer property tests compare; `Display` spells it as source
/// (`x`, `3`, `,`, `'b'`, `.and.`), which is what messages quote.
pub struct Shown<'a>(pub(crate) &'a str, pub(crate) Tok);

impl std::fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let spelt = match self.1 {
            Tok::Ident(s) => &self.0[s.range()],
            Tok::Int(v) => return write!(f, "{v}"),
            Tok::Real(v) => return write!(f, "{v:?}"),
            Tok::Str(s) => return write!(f, "'{}'", &self.0[s.range()]),
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::Comma => ",",
            Tok::Percent => "%",
            Tok::DoubleColon => "::",
            Tok::Colon => ":",
            Tok::Assign => "=",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::StarStar => "**",
            Tok::Slash => "/",
            Tok::Eq => "==",
            Tok::Ne => "/=",
            Tok::Lt => "<",
            Tok::Le => "<=",
            Tok::Gt => ">",
            Tok::Ge => ">=",
            Tok::And => ".and.",
            Tok::Or => ".or.",
            Tok::Not => ".not.",
            Tok::True => ".true.",
            Tok::False => ".false.",
        };
        f.write_str(spelt)
    }
}

impl std::fmt::Debug for Shown<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.1 {
            Tok::Ident(s) => f.debug_tuple("Ident").field(&&self.0[s.range()]).finish(),
            Tok::Str(s) => f.debug_tuple("Str").field(&&self.0[s.range()]).finish(),
            other => other.fmt(f),
        }
    }
}

impl Lexed {
    /// An empty result sized for `source`; the text buffer never outgrows
    /// the source it is copied from. A source too large for [`Sym`]'s
    /// offsets is reported and yields `None`.
    pub(crate) fn for_source(source: &str, file: usize, diags: &mut Diagnostics) -> Option<Lexed> {
        if u32::try_from(source.len()).is_err() {
            diags.error(file, 1, "source is larger than 4 GiB");
            return None;
        }
        Some(Lexed {
            text: String::with_capacity(source.len()),
            toks: Vec::with_capacity(source.len() / 8),
            lines: Vec::with_capacity(source.len() / 32),
            num: String::new(),
        })
    }

    /// The logical lines, in source order.
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// The tokens of one of this source's lines.
    pub fn toks(&self, line: &Line) -> &[Tok] {
        &self.toks[line.toks.start as usize..line.toks.end as usize]
    }

    /// The text of an identifier or string-literal token.
    pub(crate) fn text(&self, s: Sym) -> &str {
        &self.text[s.range()]
    }

    /// `t` with its text resolved, for printing and comparing.
    pub fn show(&self, t: Tok) -> Shown<'_> {
        Shown(&self.text, t)
    }

    /// Records the tokens scanned since `t0` as one logical line (an
    /// all-blank statement leaves no line behind).
    pub(crate) fn end_line(&mut self, t0: usize, lineno: u32, omp: bool, label: Option<u32>) {
        if self.toks.len() > t0 {
            self.lines.push(Line { toks: t0 as u32..self.toks.len() as u32, lineno, omp, label });
        }
    }
}

/// Lexes a whole free-form source file into logical lines, reporting
/// every statement that does not scan.
pub fn lex(source: &str) -> Result<Lexed, CompileError> {
    let mut diags = Diagnostics::default();
    let lx = lex_in(source, 0, &mut diags);
    if diags.has_errors() {
        return Err(CompileError::Source { diags });
    }
    Ok(lx)
}

/// [`lex`] for source `file` of a set: problems go to `diags`, the
/// statements that scanned come back.
pub(crate) fn lex_in(source: &str, file: usize, diags: &mut Diagnostics) -> Lexed {
    let Some(mut lx) = Lexed::for_source(source, file, diags) else { return Lexed::default() };
    // Case is folded after the scan, so a lex error quotes the text as it
    // was written.
    let mut close = |lx: &mut Lexed, (lineno, omp, from): (u32, bool, usize)| {
        let t0 = lx.toks.len();
        if let Err(msg) = lx.scan(from..lx.text.len()) {
            lx.toks.truncate(t0);
            diags.error(file, lineno, msg);
        }
        fold_outside_quotes(&mut lx.text[from..]);
        lx.end_line(t0, lineno, omp, None);
    };
    // The logical line a trailing `&` left open: first physical line, OMP
    // flag, start of its text. A directive line can itself be continued.
    let mut open: Option<(u32, bool, usize)> = None;
    for (idx, raw) in source.lines().enumerate() {
        let (content, omp) = match strip_omp_sentinel(raw.trim_start()) {
            Some(rest) => (rest, true),
            None => (raw, false),
        };
        let content = strip_comment(content).trim_end();
        let (content, continued) = match content.strip_suffix('&') {
            Some(head) => (head, true),
            None => (content, false),
        };
        let line = match open.take() {
            Some(line) => {
                let piece = content.trim_start();
                lx.text.push(' ');
                lx.text.push_str(piece.strip_prefix('&').unwrap_or(piece));
                line
            }
            None => {
                if content.trim().is_empty() && !continued {
                    continue;
                }
                let from = lx.text.len();
                lx.text.push_str(content);
                (idx as u32 + 1, omp, from)
            }
        };
        if continued {
            open = Some(line);
        } else {
            close(&mut lx, line);
        }
    }
    if let Some(line) = open {
        close(&mut lx, line);
    }
    lx
}

/// Strips the OMP sentinel, returning the directive text if present.
fn strip_omp_sentinel(line: &str) -> Option<&str> {
    let (head, rest) = line.split_at_checked(5)?;
    head.eq_ignore_ascii_case("!$OMP").then_some(rest)
}

/// Removes a trailing `!` comment (respecting string literals).
pub(crate) fn strip_comment(line: &str) -> &str {
    // Most lines have no `!` at all; only one that does needs the quotes
    // before it counted.
    let Some(first) = line.find('!') else { return line };
    let mut in_str = line[..first].bytes().filter(|&b| b == b'\'').count() % 2 == 1;
    for (i, &b) in line.as_bytes().iter().enumerate().skip(first) {
        match b {
            b'\'' => in_str = !in_str,
            b'!' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Lowercases ASCII letters outside character literals, in place.
pub(crate) fn fold_outside_quotes(mut s: &mut str) {
    loop {
        let Some(q) = s.find('\'') else {
            s.make_ascii_lowercase();
            return;
        };
        let (head, lit) = s.split_at_mut(q);
        head.make_ascii_lowercase();
        match lit[1..].find('\'') {
            Some(close) => s = &mut lit[close + 2..],
            None => return,
        }
    }
}

const DOT_OPS: [(&str, Tok); 11] = [
    ("and", Tok::And),
    ("or", Tok::Or),
    ("not", Tok::Not),
    ("true", Tok::True),
    ("false", Tok::False),
    ("eq", Tok::Eq),
    ("ne", Tok::Ne),
    ("lt", Tok::Lt),
    ("le", Tok::Le),
    ("gt", Tok::Gt),
    ("ge", Tok::Ge),
];

impl Lexed {
    /// Tokenizes the statement text `text[range]` onto the token buffer
    /// (no continuation/comment handling; the caller folds case
    /// afterwards, and on an error drops what was scanned so far). Both
    /// forms' token streams come from this one scanner: the card
    /// assembler feeds it blank-stripped card text.
    pub(crate) fn scan(&mut self, range: Range<usize>) -> Result<(), String> {
        let Lexed { text, toks, num, .. } = self;
        let text = &text[..range.end];
        let b = text.as_bytes();
        let mut i = range.start;

        while i < b.len() {
            let c = b[i];
            // One- and two-character operators: `(second byte, token)`
            // when the pair forms one, else the single-character token.
            let (two, one) = match c {
                b' ' | b'\t' | b'\r' => {
                    i += 1;
                    continue;
                }
                b'(' => (None, Tok::LParen),
                b')' => (None, Tok::RParen),
                b',' => (None, Tok::Comma),
                b'%' => (None, Tok::Percent),
                b'+' => (None, Tok::Plus),
                b'-' => (None, Tok::Minus),
                b'*' => (Some((b'*', Tok::StarStar)), Tok::Star),
                b'=' => (Some((b'=', Tok::Eq)), Tok::Assign),
                b'<' => (Some((b'=', Tok::Le)), Tok::Lt),
                b'>' => (Some((b'=', Tok::Ge)), Tok::Gt),
                b':' => (Some((b':', Tok::DoubleColon)), Tok::Colon),
                b'/' if b.get(i + 1) == Some(&b'/') => {
                    // String concatenation — unsupported, but lex it so the
                    // parser can report a sensible error.
                    return Err("string concatenation `//` is not supported".into());
                }
                b'/' => (Some((b'=', Tok::Ne)), Tok::Slash),
                b'\'' => {
                    let start = i + 1;
                    let Some(len) = text[start..].find('\'') else {
                        return Err("unterminated string literal".into());
                    };
                    toks.push(Tok::Str(Sym::new(start..start + len)));
                    i = start + len + 1;
                    continue;
                }
                // Dot-operator (a dot-led real literal is a number).
                b'.' if !b.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                    let mut j = i + 1;
                    while j < b.len() && b[j].is_ascii_alphabetic() {
                        j += 1;
                    }
                    if j >= b.len() || b[j] != b'.' {
                        let mut end = (i + 6).min(text.len());
                        while !text.is_char_boundary(end) {
                            end -= 1;
                        }
                        return Err(format!("malformed dot-operator near `{}`", &text[i..end]));
                    }
                    let word = &text[i + 1..j];
                    let Some((_, tok)) = DOT_OPS.iter().find(|(w, _)| w.eq_ignore_ascii_case(word))
                    else {
                        let other = word.to_ascii_uppercase();
                        return Err(format!("unknown dot-operator `.{other}.`"));
                    };
                    toks.push(*tok);
                    i = j + 1;
                    continue;
                }
                c if c == b'.' || c.is_ascii_digit() => {
                    let (tok, ni) = lex_number(text, i, num)?;
                    toks.push(tok);
                    i = ni;
                    continue;
                }
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let start = i;
                    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                        i += 1;
                    }
                    toks.push(Tok::Ident(Sym::new(start..i)));
                    continue;
                }
                other => {
                    return Err(format!("unexpected character `{}`", other as char));
                }
            };
            match two {
                Some((second, tok)) if b.get(i + 1) == Some(&second) => {
                    toks.push(tok);
                    i += 2;
                }
                _ => {
                    toks.push(one);
                    i += 1;
                }
            }
        }
        Ok(())
    }
}

/// Lexes a numeric literal starting at `i`. Handles `123`, `1.5`, `.5`,
/// `1.5D0`, `2E-3`, `1D-3`. A trailing `.` followed by a dot-operator
/// letter (e.g. `1.AND.`) is left for the dot-operator path.
fn lex_number(text: &str, i: usize, num: &mut String) -> Result<(Tok, usize), String> {
    let b = text.as_bytes();
    let mut j = i;
    let mut is_real = false;
    while j < b.len() && b[j].is_ascii_digit() {
        j += 1;
    }
    if j < b.len() && b[j] == b'.' {
        // `1.AND.` must not eat the dot; a dot is part of the number only
        // if followed by a digit, exponent, or end/non-letter.
        let next = b.get(j + 1).copied();
        let is_dotop = matches!(next, Some(c) if c.is_ascii_alphabetic()) && {
            // find matching closing dot to confirm a dot-op like .and.
            let mut k = j + 1;
            while k < b.len() && b[k].is_ascii_alphabetic() {
                k += 1;
            }
            k < b.len() && b[k] == b'.'
        };
        if !is_dotop {
            is_real = true;
            j += 1;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
        }
    }
    // Exponent: D or E.
    let mut d_exp = None;
    if j < b.len() && matches!(b[j], b'd' | b'D' | b'e' | b'E') {
        let mut k = j + 1;
        if k < b.len() && matches!(b[k], b'+' | b'-') {
            k += 1;
        }
        if k < b.len() && b[k].is_ascii_digit() {
            is_real = true;
            if matches!(b[j], b'd' | b'D') {
                d_exp = Some(j);
            }
            j = k;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
        }
    }
    let lit = &text[i..j];
    if is_real {
        let norm = match d_exp {
            Some(d) => {
                num.clear();
                num.push_str(&text[i..d]);
                num.push('e');
                num.push_str(&text[d + 1..j]);
                num.as_str()
            }
            None => lit,
        };
        let v: f64 = norm.parse().map_err(|_| format!("bad real literal `{lit}`"))?;
        Ok((Tok::Real(v), j))
    } else {
        let v: i64 = lit.parse().map_err(|_| format!("bad integer literal `{lit}`"))?;
        Ok((Tok::Int(v), j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of a one-line source, as `Debug` shows them.
    fn toks(src: &str) -> Vec<String> {
        let lx = lex(src).unwrap();
        assert_eq!(lx.lines().len(), 1, "{lx:?}");
        lx.toks(&lx.lines()[0]).iter().map(|t| format!("{:?}", lx.show(*t))).collect()
    }

    #[test]
    fn idents_lowercased() {
        assert_eq!(toks("Module SARB_Kernels"), [r#"Ident("module")"#, r#"Ident("sarb_kernels")"#]);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), ["Int(42)"]);
        assert_eq!(toks("1.5"), ["Real(1.5)"]);
        assert_eq!(toks("1.5D0"), ["Real(1.5)"]);
        assert_eq!(toks("2E-3"), ["Real(0.002)"]);
        assert_eq!(toks("1D-3"), ["Real(0.001)"]);
        assert_eq!(toks(".5"), ["Real(0.5)"]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a = b ** 2 / c"),
            [
                r#"Ident("a")"#,
                "Assign",
                r#"Ident("b")"#,
                "StarStar",
                "Int(2)",
                "Slash",
                r#"Ident("c")"#
            ]
        );
    }

    #[test]
    fn dot_operators_and_modern_comparisons() {
        assert_eq!(toks(".TRUE. .AND. .false."), ["True", "And", "False"]);
        assert_eq!(toks("a .LT. b"), [r#"Ident("a")"#, "Lt", r#"Ident("b")"#]);
        assert_eq!(toks("a /= b"), [r#"Ident("a")"#, "Ne", r#"Ident("b")"#]);
        assert_eq!(toks("a <= b"), [r#"Ident("a")"#, "Le", r#"Ident("b")"#]);
    }

    #[test]
    fn number_followed_by_dotop() {
        assert_eq!(
            toks("i == 1 .AND. ok"),
            [r#"Ident("i")"#, "Eq", "Int(1)", "And", r#"Ident("ok")"#]
        );
    }

    #[test]
    fn comments_stripped() {
        let lx = lex("x = 1 ! set x\n! whole line\ny = 2").unwrap();
        assert_eq!(lx.lines().len(), 2);
        assert_eq!(lx.toks(&lx.lines()[0]).len(), 3);
        assert!(!lx.lines()[0].omp);
    }

    #[test]
    fn omp_sentinel_detected() {
        let lx = lex("!$OMP PARALLEL DO PRIVATE(t)\nx = 1").unwrap();
        assert_eq!(lx.lines().len(), 2);
        assert!(lx.lines()[0].omp);
        assert_eq!(format!("{:?}", lx.show(lx.toks(&lx.lines()[0])[0])), r#"Ident("parallel")"#);
        assert!(!lx.lines()[1].omp);
    }

    #[test]
    fn directive_trailing_comment_stripped() {
        let with = lex("!$omp parallel do private(i) ! hot 'loop\n").unwrap();
        let without = lex("!$omp parallel do private(i)\n").unwrap();
        assert!(with.lines()[0].omp);
        assert_eq!(with.toks, without.toks);
    }

    #[test]
    fn continuations_joined() {
        assert_eq!(
            toks("x = 1 + &\n    & 2 + &\n    3"),
            [r#"Ident("x")"#, "Assign", "Int(1)", "Plus", "Int(2)", "Plus", "Int(3)"]
        );
    }

    #[test]
    fn strings_and_percent() {
        assert_eq!(toks("fi%vd"), [r#"Ident("fi")"#, "Percent", r#"Ident("vd")"#]);
        assert_eq!(toks("'hello world'"), [r#"Str("hello world")"#]);
    }

    #[test]
    fn string_literals_keep_their_case_and_may_span_a_continuation() {
        assert_eq!(toks("X = 'It''s'"), [r#"Ident("x")"#, "Assign", r#"Str("It")"#, r#"Str("s")"#]);
        assert_eq!(toks("'Ab &\n  &Cd'"), [r#"Str("Ab  Cd")"#]);
    }

    #[test]
    fn comment_bang_inside_string_kept() {
        assert_eq!(toks("'a!b'"), [r#"Str("a!b")"#]);
    }

    #[test]
    fn double_colon_vs_colon() {
        assert_eq!(
            toks("REAL(8) :: a(1:60)"),
            [
                r#"Ident("real")"#,
                "LParen",
                "Int(8)",
                "RParen",
                "DoubleColon",
                r#"Ident("a")"#,
                "LParen",
                "Int(1)",
                "Colon",
                "Int(60)",
                "RParen",
            ]
        );
    }

    #[test]
    fn lex_errors_reported() {
        assert!(lex("x = 'unterminated").is_err());
        assert!(lex("x = @").is_err());
        assert!(lex("x = .bogus.").is_err());
    }

    #[test]
    fn lex_errors_quote_the_text_as_written() {
        let msg = |src| match lex(src) {
            Err(CompileError::Source { diags }) => diags.list[0].message.clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(msg("X = .TRUE"), "malformed dot-operator near `.TRUE`");
        // The six-byte excerpt never ends inside a UTF-8 sequence.
        assert_eq!(msg("x = .ab\u{e9}\u{e9}"), "malformed dot-operator near `.ab\u{e9}`");
        assert_eq!(msg("x = .Bogus."), "unknown dot-operator `.BOGUS.`");
    }

    #[test]
    fn blank_lines_skipped() {
        let lx = lex("\n\nx = 1\n\n").unwrap();
        assert_eq!(lx.lines().len(), 1);
        assert_eq!(lx.lines()[0].lineno, 3);
    }
}
