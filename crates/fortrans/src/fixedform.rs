//! Fixed-form (FORTRAN 77) ingestion front end.
//!
//! Lowers legacy punched-card sources onto the same AST the free-form
//! parser produces, so COMMON-heavy whole programs flow through the
//! existing sema/RIR/bytecode pipeline unchanged (DESIGN.md §8):
//!
//! * **Column rules** — cols 1–5 statement label, col 6 continuation,
//!   cols 7–72 statement text, col 73+ discarded (with a warning when
//!   non-blank); `C`/`*`/`!` in column 1 start a comment; `C$OMP`,
//!   `*$OMP` and `!$OMP` are directive sentinels.
//! * **Blank insensitivity** — card text is stripped of blanks (outside
//!   character literals) and tokenized by the free-form scanner
//!   ([`crate::lex`]); merged leading keywords (`DO10I`, `GOTO20`,
//!   `ENDIF`) are re-split against a keyword table, gated on the classic
//!   `DO10I=1.5` vs `DO10I=1,5` assignment classification.
//! * **One buffer, borrowed cursors** — each card is walked once on the
//!   `&str` (column boundaries are character positions, so the same path
//!   serves ASCII and non-ASCII cards) and its text, minus inline
//!   comment and blanks, is appended to the one statement buffer of a
//!   [`Lexed`]; tokens are ranges of that buffer, re-splitting edits the
//!   flat token buffer in place, and the statement parser's cursor
//!   borrows both. An identifier is first copied into a `String` when
//!   the AST node that keeps it is built.
//! * **IMPLICIT typing** — default `I`–`N` INTEGER / rest REAL, plus
//!   `IMPLICIT` statements and `IMPLICIT NONE`; undeclared names get
//!   synthesized declarations.
//! * **COMMON / EQUIVALENCE / DATA / PARAMETER** — mapped onto the
//!   engine's global-storage model; `DATA` becomes static initializer
//!   words on the owning global cell, `EQUIVALENCE` is honoured for the
//!   exact-alias subset (same type and shape) by renaming.
//! * **Legacy control flow** — arithmetic IF, computed and assigned
//!   GOTO, and plain GOTO webs are desugared into structured
//!   RIR-representable control flow: loop-terminal jumps become
//!   `CYCLE`/`EXIT`, and remaining branch webs are linearized into a
//!   basic-block state machine driven by a `DO WHILE` dispatcher.
//!
//! The front end never stops at the first problem: it recovers at
//! statement boundaries and accumulates a [`Diagnostics`] list, so one
//! submission reports *every* error (surfaced through
//! [`CompileError::Fixed`] and the service layer's `Rejected` results).

use crate::ast::{
    Ast, Attrs, Bin, Decl, Desig, DimDecl, Entity, Expr, Module, OmpDo, Part, RedOp, SchedKind,
    Stmt, TypeSpec, Unit, UnitKind,
};
use crate::error::{CompileError, Diagnostics, Span};
use crate::lex::{fold_outside_quotes, strip_comment, Lexed, Line, Sym, Tok};
use crate::parse::{desig_from_toks, expr_from_toks};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

// ---------------------------------------------------------------------------
// Form detection
// ---------------------------------------------------------------------------

/// Heuristic form detection for mixed source sets. Free-form sources in
/// this codebase always open with `MODULE`; anything else is routed to
/// the fixed-form front end. (A previously-accepted free-form source can
/// therefore never be re-routed.)
pub fn is_fixed_form(src: &str) -> bool {
    for line in src.lines() {
        let t = line.trim_start();
        if t.is_empty() || t.starts_with('!') {
            continue;
        }
        let b = t.as_bytes();
        let module = b.get(..6).is_some_and(|h| h.eq_ignore_ascii_case(b"module"))
            && matches!(b.get(6), None | Some(b' '));
        return !module;
    }
    false
}

// ---------------------------------------------------------------------------
// Phase 1: cards -> logical statements
// ---------------------------------------------------------------------------

/// One logical fixed-form statement after card assembly: label field, the
/// range of the statement buffer holding its blank-stripped text, first
/// physical line, OMP flag.
#[derive(Debug)]
struct RawStmt {
    label: Option<u32>,
    text: Range<usize>,
    lineno: u32,
    omp: bool,
}

fn omp_sentinel(card: &str) -> bool {
    card.as_bytes().get(..5).is_some_and(|head| {
        [b"C$OMP", b"*$OMP", b"!$OMP"].iter().any(|s| head.eq_ignore_ascii_case(*s))
    })
}

/// Appends card text to the statement buffer without its blanks —
/// fixed-form FORTRAN is blank-insensitive outside character literals, so
/// `D O 1 0 I` and `DO10I` are the same text. `in_str` carries the
/// literal state across the cards of one statement.
fn push_dense(text: &mut String, piece: &str, in_str: &mut bool) {
    let mut run = 0;
    for (i, c) in piece.char_indices() {
        if c == '\'' {
            *in_str = !*in_str;
        } else if !*in_str && c.is_whitespace() {
            text.push_str(&piece[run..i]);
            run = i + c.len_utf8();
        }
    }
    text.push_str(&piece[run..]);
}

/// Splits one source into card-assembled raw statements, reporting
/// column-discipline problems (bad labels, dangling continuations,
/// col-73 overflow) without giving up on the file. Each card is walked
/// once: its column boundaries are character positions found on the
/// `&str` (columns count characters, not bytes), and its statement text
/// goes straight into `text`, the one buffer all statements share.
fn split_cards(
    src: &str,
    file: usize,
    text: &mut String,
    diags: &mut Diagnostics,
) -> Vec<RawStmt> {
    let mut out: Vec<RawStmt> = Vec::new();
    // The statement later continuation cards may still extend (its text
    // runs to the end of the buffer), and whether that text so far ends
    // inside a character literal.
    let mut pending: Option<RawStmt> = None;
    let mut in_str = false;
    let flush =
        |p: &mut Option<RawStmt>, end: usize, out: &mut Vec<RawStmt>, diags: &mut Diagnostics| {
            if let Some(mut s) = p.take() {
                s.text.end = end;
                if !s.text.is_empty() {
                    out.push(s);
                } else if s.label.is_some() {
                    diags.error_hint(
                        file,
                        s.lineno,
                        "labeled statement has no text",
                        "a label in columns 1-5 must be followed by a statement in column 7+",
                    );
                }
            }
        };

    // A statement that starts at `at`, the end of the buffer so far.
    let open = |at: usize, label, lineno, omp| Some(RawStmt { label, text: at..at, lineno, omp });

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let omp = omp_sentinel(raw);
        if !omp && raw.starts_with(['c', 'C', '*', '!']) {
            continue; // comments may sit between continuation cards
        }

        // DEC tab format: a leading tab ends the label field; a digit
        // 1-9 right after the tab marks a continuation card.
        let (label_field, cont_ch, body) = match raw.strip_prefix('\t') {
            Some(rest) if !omp => match rest.chars().next() {
                Some(d @ '1'..='9') => ("", d, &rest[1..]),
                _ => ("", ' ', rest),
            },
            _ => match raw.char_indices().nth(5) {
                Some((at, c)) => (&raw[..at], c, &raw[at + c.len_utf8()..]),
                None => (raw, ' ', ""),
            },
        };

        // Column 73+ is ignored (classic card sequence field). A body of
        // at most 66 bytes has at most 66 characters: nothing to cut.
        let col73 = if body.len() > 66 { body.char_indices().nth(66) } else { None };
        let body = match col73 {
            Some((cut, _)) => {
                if !body[cut..].trim().is_empty() {
                    diags.warn_hint(
                        file,
                        lineno,
                        "text beyond column 72 is ignored",
                        "fixed-form statements end at column 72; split the statement onto a \
                         continuation card",
                    );
                }
                &body[..cut]
            }
            None => body,
        };
        let piece = strip_comment(body).trim_end();

        let is_cont = cont_ch != ' ' && cont_ch != '0';
        let (label, label_junk) = if omp {
            (None, false)
        } else {
            parse_label_field(label_field)
        };
        if label_junk {
            // Most often a free-form-style statement that starts in
            // column 1: recover by treating the whole line as text.
            diags.error_hint(
                file,
                lineno,
                "invalid character in label field (columns 1-5)",
                "statement labels are 1-5 digits; statement text starts in column 7",
            );
            flush(&mut pending, text.len(), &mut out, diags);
            let whole = raw.char_indices().nth(72).map_or(raw, |(cut, _)| &raw[..cut]);
            pending = open(text.len(), None, lineno, false);
            in_str = false;
            push_dense(text, strip_comment(whole).trim_end(), &mut in_str);
            continue;
        }

        if is_cont {
            if label.is_some() {
                diags.error_hint(
                    file,
                    lineno,
                    "label on a continuation line",
                    "only the initial line of a statement may carry a label",
                );
            }
            if pending.as_ref().is_none_or(|p| p.omp != omp) {
                diags.error_hint(
                    file,
                    lineno,
                    "continuation line has nothing to continue",
                    "column 6 must be blank or `0` on an initial line",
                );
                flush(&mut pending, text.len(), &mut out, diags);
                pending = open(text.len(), None, lineno, omp);
                in_str = false;
            }
        } else {
            flush(&mut pending, text.len(), &mut out, diags);
            pending = open(text.len(), label, lineno, omp);
            in_str = false;
        }
        push_dense(text, piece, &mut in_str);
    }
    flush(&mut pending, text.len(), &mut out, diags);
    out
}

/// Parses columns 1-5: blanks are insignificant, digits form the label.
/// Returns `(label, junk)` where `junk` flags non-digit characters.
fn parse_label_field(field: &str) -> (Option<u32>, bool) {
    let mut label = None;
    for c in field.chars() {
        if let Some(d) = c.to_digit(10) {
            label = Some(label.unwrap_or(0) * 10 + d);
        } else if !c.is_whitespace() {
            return (None, true);
        }
    }
    (label.filter(|&l| l > 0), false)
}

/// The classic fixed-form classification: a statement is an assignment
/// iff it has a depth-0 `=` (not part of `==`/`<=`/`>=`/`/=`) with no
/// depth-0 `,` after it. `DO10I=1.5` assigns to `DO10I`; `DO10I=1,5`
/// opens a loop.
fn is_assignment(dense: &str) -> bool {
    let b = dense.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut eq_at: Option<usize> = None;
    for (i, &c) in b.iter().enumerate() {
        if in_str {
            if c == b'\'' {
                in_str = false;
            }
            continue;
        }
        match c {
            b'\'' => in_str = true,
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'=' if depth == 0 && eq_at.is_none() => {
                let prev = if i > 0 { b[i - 1] } else { 0 };
                let next = b.get(i + 1).copied().unwrap_or(0);
                if !matches!(prev, b'<' | b'>' | b'=' | b'/') && next != b'=' {
                    eq_at = Some(i);
                }
            }
            // Comma after a depth-0 `=`: a DO statement, not an assignment.
            b',' if depth == 0 && eq_at.is_some() => return false,
            _ => {}
        }
    }
    eq_at.is_some()
}

// ---------------------------------------------------------------------------
// Phase 2: keyword re-splitting of blank-merged token streams
// ---------------------------------------------------------------------------

/// Statement keywords that may absorb following text when blanks vanish,
/// longest first so `ENDDO` wins over `END`. Each comes with the length
/// of its first word: `ENDDO` is the two tokens `END` `DO`.
const KWS: &[(&str, usize)] = &[
    ("doubleprecision", 15),
    ("endsubroutine", 3),
    ("implicitnone", 8),
    ("endfunction", 3),
    ("equivalence", 11),
    ("endprogram", 3),
    ("subroutine", 10),
    ("endmodule", 3),
    ("character", 9),
    ("blockdata", 9),
    ("dimension", 9),
    ("parameter", 9),
    ("intrinsic", 9),
    ("continue", 8),
    ("critical", 8),
    ("external", 8),
    ("function", 8),
    ("implicit", 8),
    ("endtype", 3),
    ("integer", 7),
    ("logical", 7),
    ("program", 7),
    ("elseif", 4),
    ("assign", 6),
    ("common", 6),
    ("format", 6),
    ("module", 6),
    ("return", 6),
    ("cycle", 5),
    ("endif", 3),
    ("enddo", 3),
    ("print", 5),
    ("write", 5),
    ("call", 4),
    ("data", 4),
    ("exit", 4),
    ("else", 4),
    ("goto", 4),
    ("real", 4),
    ("save", 4),
    ("stop", 4),
    ("type", 4),
    ("end", 3),
    ("use", 3),
    ("do", 2),
    ("if", 2),
];

/// Keywords OpenMP directive text can merge into (`PARALLELDOPRIVATE`).
const OMP_KWS: &[&str] = &[
    "firstprivate",
    "num_threads",
    "threadprivate",
    "parallel",
    "reduction",
    "schedule",
    "critical",
    "collapse",
    "private",
    "default",
    "barrier",
    "atomic",
    "shared",
    "nowait",
    "end",
    "do",
];

/// The identifier token at `i`, if that is what is there.
fn ident_at(lx: &Lexed, i: usize) -> Option<Sym> {
    match lx.toks.get(i) {
        Some(&Tok::Ident(w)) => Some(w),
        _ => None,
    }
}

/// Replaces the identifier at `i` by two identifiers spelt by its first
/// `n` bytes and by the rest.
fn split_ident(lx: &mut Lexed, i: usize, w: Sym, n: usize) {
    lx.toks[i] = Tok::Ident(w.sub(0..n));
    lx.toks.insert(i + 1, Tok::Ident(w.sub(n..w.range().len())));
}

/// Re-splits, in place, the merged leading identifier of the
/// non-assignment statement `toks[from..]` (the last one scanned) against
/// the keyword table, then fixes up the handful of second-word merges
/// (`INTEGERFUNCTIONF`, `ASSIGN10TOK`, logical-IF tails). The new tokens
/// are sub-ranges of the merged word: nothing is copied or re-lexed but
/// the word's non-keyword remainder.
fn resplit_stmt(lx: &mut Lexed, from: usize, lineno: u32) {
    let Some(w) = ident_at(lx, from) else { return };
    for &(kw, first) in KWS {
        let Some(rest) = lx.text(w).strip_prefix(kw) else { continue };
        // `IF` must stand alone (it is always followed by `(`), and a
        // non-empty remainder must itself lex cleanly (`10I`, `FOO`).
        if kw == "if" && !rest.is_empty() {
            continue;
        }
        let tail = lx.toks.len();
        if lx.scan(w.sub(kw.len()..kw.len() + rest.len()).range(), lineno).is_err() {
            lx.toks.truncate(tail);
            continue;
        }
        // The remainder's tokens were scanned onto the end of the
        // buffer: bring them in right behind the word.
        let scanned = lx.toks.len() - tail;
        lx.toks[from + 1..].rotate_right(scanned);
        if first < kw.len() {
            split_ident(lx, from, w.sub(0..kw.len()), first);
        } else {
            lx.toks[from] = Tok::Ident(w.sub(0..kw.len()));
        }
        break;
    }
    let head_is = |lx: &Lexed, kws: &[&str]| {
        ident_at(lx, from).is_some_and(|w| kws.contains(&lx.text(w)))
    };

    // `<type> FUNCTION name` with the middle words merged.
    if head_is(lx, &["integer", "real", "logical", "doubleprecision"]) {
        let mut j = from + 1;
        // Skip a kind spec: `*8` or `(8)`.
        if lx.toks.get(j) == Some(&Tok::Star) {
            j += 2;
        } else if lx.toks.get(j) == Some(&Tok::LParen) {
            while j < lx.toks.len() && lx.toks[j] != Tok::RParen {
                j += 1;
            }
            j += 1;
        }
        if let Some(w2) = ident_at(lx, j) {
            if let Some(name) = lx.text(w2).strip_prefix("function") {
                if name.starts_with(|c: char| c.is_ascii_alphabetic()) {
                    split_ident(lx, j, w2, "function".len());
                }
            }
        }
    }

    // `ASSIGN 10 TO K` -> [assign][10][tok]; split the trailing `tok`.
    if head_is(lx, &["assign"]) && matches!(lx.toks.get(from + 1), Some(Tok::Int(_))) {
        if let Some(w2) = ident_at(lx, from + 2) {
            if lx.text(w2).strip_prefix("to").is_some_and(|var| !var.is_empty()) {
                split_ident(lx, from + 2, w2, "to".len());
            }
        }
    }

    // Logical-IF tail: `IF(e)GOTO10` — the tail after the closing paren
    // is its own statement and needs the same treatment.
    if head_is(lx, &["if"]) && lx.toks.get(from + 1) == Some(&Tok::LParen) {
        let mut depth = 0i32;
        let mut close = None;
        for (i, t) in lx.toks.iter().enumerate().skip(from + 1) {
            match t {
                Tok::LParen => depth += 1,
                Tok::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(i);
                        break;
                    }
                }
                _ => {}
            }
        }
        if let Some(ci) = close {
            if ident_at(lx, ci + 1).is_some_and(|first| lx.text(first) != "then") {
                resplit_stmt(lx, ci + 1, lineno);
            }
        }
    }
}

/// Decomposes, in place, the merged keyword runs of the directive
/// `toks[from..]` (the last statement scanned) outside parentheses —
/// clause argument lists keep their names. The decomposition is greedy;
/// a word is left intact when any segment of it is not a keyword.
fn split_omp_words(lx: &mut Lexed, from: usize) {
    let mut depth = 0i32;
    let mut i = from;
    while i < lx.toks.len() {
        match lx.toks[i] {
            Tok::LParen => depth += 1,
            Tok::RParen => depth -= 1,
            Tok::Ident(w) if depth == 0 => {
                // Spell the keywords onto the end of the buffer, then swap
                // them in for the word if it decomposed completely.
                let tail = lx.toks.len();
                let word = &lx.text[w.range()];
                let mut at = 0;
                while let Some(kw) = OMP_KWS.iter().find(|kw| word[at..].starts_with(**kw)) {
                    lx.toks.push(Tok::Ident(w.sub(at..at + kw.len())));
                    at += kw.len();
                }
                let words = lx.toks.len() - tail;
                if at == word.len() {
                    lx.toks[i..].rotate_right(words);
                    lx.toks.remove(i + words);
                    i += words - 1;
                } else {
                    lx.toks.truncate(tail);
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Lexes one fixed-form source into logical statements, accumulating
/// diagnostics instead of failing fast.
pub fn lex_fixed(src: &str) -> (Lexed, Diagnostics) {
    let mut diags = Diagnostics::default();
    let lexed = lex_fixed_in(src, 0, &mut diags);
    (lexed, diags)
}

fn lex_fixed_in(src: &str, file: usize, diags: &mut Diagnostics) -> Lexed {
    let mut lx = match Lexed::for_source(src) {
        Ok(lx) => lx,
        Err(e) => {
            diags.absorb(file, &e);
            return Lexed::default();
        }
    };
    for raw in split_cards(src, file, &mut lx.text, diags) {
        let from = lx.toks.len();
        if let Err(e) = lx.scan(raw.text.clone(), raw.lineno) {
            diags.absorb(file, &e);
            lx.toks.truncate(from);
            continue;
        }
        // Folded after the scan: a lex error quotes the card as written.
        fold_outside_quotes(&mut lx.text[raw.text.clone()]);
        if raw.omp {
            split_omp_words(&mut lx, from);
        } else if !is_assignment(&lx.text[raw.text]) {
            resplit_stmt(&mut lx, from, raw.lineno);
        }
        lx.lines.push(Line {
            toks: from as u32..lx.toks.len() as u32,
            lineno: raw.lineno,
            omp: raw.omp,
            label: raw.label,
        });
    }
    lx
}

// ---------------------------------------------------------------------------
// Free-form -> fixed-form pretty printer (property-test oracle)
// ---------------------------------------------------------------------------

fn tok_text(text: &str, t: &Tok) -> String {
    match t {
        Tok::Ident(s) => text[s.range()].to_string(),
        Tok::Int(v) => v.to_string(),
        Tok::Real(v) => format!("{v:?}"),
        Tok::Str(s) => format!("'{}'", &text[s.range()]),
        Tok::LParen => "(".into(),
        Tok::RParen => ")".into(),
        Tok::Comma => ",".into(),
        Tok::Percent => "%".into(),
        Tok::DoubleColon => "::".into(),
        Tok::Colon => ":".into(),
        Tok::Assign => "=".into(),
        Tok::Plus => "+".into(),
        Tok::Minus => "-".into(),
        Tok::Star => "*".into(),
        Tok::StarStar => "**".into(),
        Tok::Slash => "/".into(),
        Tok::Eq => "==".into(),
        Tok::Ne => "/=".into(),
        Tok::Lt => "<".into(),
        Tok::Le => "<=".into(),
        Tok::Gt => ">".into(),
        Tok::Ge => ">=".into(),
        Tok::And => ".and.".into(),
        Tok::Or => ".or.".into(),
        Tok::Not => ".not.".into(),
        Tok::True => ".true.".into(),
        Tok::False => ".false.".into(),
    }
}

/// Renders a free-form source as fixed-form cards (72-column discipline,
/// `&`-free continuations via column 6). Used by the round-trip property
/// tests: `lex_fixed(to_fixed_form(src))` must reproduce the free-form
/// token stream exactly.
pub fn to_fixed_form(free_src: &str) -> Result<String, CompileError> {
    to_fixed_form_wrapped(free_src, 66)
}

/// As [`to_fixed_form`] but wrapping statement text every `width`
/// characters (1..=66), exercising continuation splits at arbitrary —
/// including mid-token — columns. Splits never land inside a character
/// literal (trailing card blanks are not preserved there).
pub fn to_fixed_form_wrapped(free_src: &str, width: usize) -> Result<String, CompileError> {
    let width = width.clamp(1, 66);
    let lx = crate::lex::lex(free_src)?;
    let mut out = String::new();
    for line in lx.lines() {
        let text: String = {
            let parts: Vec<String> =
                lx.toks(line).iter().map(|t| tok_text(&lx.text, t)).collect();
            parts.join(" ")
        };
        let mut dense = String::new();
        push_dense(&mut dense, &text, &mut false);
        // Cut points every `width` chars, nudged out of string literals.
        let chars: Vec<char> = dense.chars().collect();
        let mut pieces: Vec<String> = Vec::new();
        let mut i = 0usize;
        let mut in_str = false;
        let mut start = 0usize;
        while i < chars.len() {
            if chars[i] == '\'' {
                in_str = !in_str;
            }
            i += 1;
            if i - start >= width && !in_str && i < chars.len() {
                pieces.push(chars[start..i].iter().collect());
                start = i;
            }
        }
        if start < chars.len() {
            pieces.push(chars[start..].iter().collect());
        }
        for (k, piece) in pieces.iter().enumerate() {
            let head = match (line.omp, k) {
                (true, 0) => "!$omp ".to_string(),
                (true, _) => "!$omp&".to_string(),
                (false, 0) => "      ".to_string(),
                (false, _) => "     &".to_string(),
            };
            out.push_str(&head);
            out.push_str(piece);
            out.push('\n');
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Phase 3: statement parsing (token stream -> mid-level statement)
// ---------------------------------------------------------------------------

/// `(block-name, members)` where each member is `(name, dims)`.
type CommonGroup = (String, Vec<(String, Option<Vec<DimDecl>>)>);
/// `(targets, values)` where each value is `(repeat, literal)`.
type DataGroup = (Vec<Desig>, Vec<(usize, Expr)>);

/// Mid-level fixed-form statements, one per logical line. Structure
/// (DO/IF nesting) and legacy-control-flow desugaring happen later.
#[derive(Debug, Clone)]
#[allow(clippy::enum_variant_names, clippy::large_enum_variant)]
enum S {
    Program(String),
    Subroutine(String, Vec<String>),
    Function(TypeSpec, String, Vec<String>),
    BlockData(Option<String>),
    EndUnit,
    Decl(TypeSpec, Vec<(String, Option<Vec<DimDecl>>)>),
    Dimension(Vec<(String, Vec<DimDecl>)>),
    Common(Vec<CommonGroup>),
    Implicit(Vec<(TypeSpec, Vec<(char, char)>)>),
    ImplicitNone,
    Parameter(Vec<(String, Expr)>),
    EquivalenceS(Vec<Vec<Desig>>),
    /// `(targets, values)` per DATA group; values carry repeat counts.
    Data(Vec<DataGroup>),
    Save(Vec<String>),
    SaveAll,
    External(Vec<String>),
    Format,
    Assign(Desig, Expr),
    Goto(u32),
    CGoto(Vec<u32>, Expr),
    AGoto(String, Vec<u32>),
    LabelAssign(u32, String),
    ArithIf(Expr, u32, u32, u32),
    IfThen(Expr),
    ElseIf(Expr),
    Else,
    EndIf,
    LogIf(Expr, Box<S>),
    DoStart { term: Option<u32>, var: String, start: Expr, end: Expr, step: Option<Expr> },
    DoWhileStart { term: Option<u32>, cond: Expr },
    EndDo,
    CallS(String, Vec<Expr>),
    Return,
    Stop(Option<String>),
    ExitS,
    CycleS,
    ContinueS,
    PrintS(Vec<Expr>),
    OmpPar(OmpDo),
    OmpEndPar,
    OmpAtomic,
    OmpCrit(Option<String>),
    OmpEndCrit,
    OmpIgnored,
}

type PErr = (String, Option<String>);

fn perr(msg: impl Into<String>) -> PErr {
    (msg.into(), None)
}

fn perr_hint(msg: impl Into<String>, hint: impl Into<String>) -> PErr {
    (msg.into(), Some(hint.into()))
}

/// Strips the location prefix off a nested [`CompileError`] (the
/// diagnostic carries its own span).
fn emsg(e: &CompileError) -> String {
    match e {
        CompileError::Lex { msg, .. }
        | CompileError::Parse { msg, .. }
        | CompileError::Sema { msg, .. } => msg.clone(),
        other => other.to_string(),
    }
}

/// A cursor over one statement: a slice of the flat token buffer plus
/// the statement text its identifiers are ranges of.
struct Cur<'a> {
    text: &'a str,
    t: &'a [Tok],
    i: usize,
    line: u32,
}

impl<'a> Cur<'a> {
    fn new(text: &'a str, t: &'a [Tok], line: u32) -> Self {
        Cur { text, t, i: 0, line }
    }

    fn peek(&self) -> Option<&'a Tok> {
        self.t.get(self.i)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.t.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    /// The text of an identifier or string-literal token.
    fn str(&self, s: &Sym) -> &'a str {
        &self.text[s.range()]
    }

    /// The identifier that is next, borrowed from the statement text.
    fn word(&self) -> Option<&'a str> {
        match self.peek() {
            Some(Tok::Ident(s)) => Some(self.str(s)),
            _ => None,
        }
    }

    fn done(&self) -> bool {
        self.i >= self.t.len()
    }

    /// True when the statement opens with a designator-shaped run of
    /// tokens (`a`, `a(...)`, `a%b(...)`) directly followed by `=`.
    /// Decided on the token kinds alone, so that only an assignment pays
    /// for parsing its target.
    fn opens_assignment(&self) -> bool {
        let mut i = self.i;
        loop {
            if !matches!(self.t.get(i), Some(Tok::Ident(_))) {
                return false;
            }
            i += 1;
            let mut depth = 0i32;
            while depth > 0 || self.t.get(i) == Some(&Tok::LParen) {
                match self.t.get(i) {
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
            if self.t.get(i) != Some(&Tok::Percent) {
                return self.t.get(i) == Some(&Tok::Assign);
            }
            i += 1;
        }
    }

    /// Eats the identifier `kw` if it is next.
    fn kw(&mut self, kw: &str) -> bool {
        if self.word() == Some(kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), PErr> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(perr(format!("expected {what}")))
        }
    }

    /// Consumes an identifier into the `String` an AST node keeps.
    fn ident(&mut self, what: &str) -> Result<String, PErr> {
        let w = self.word().ok_or_else(|| perr(format!("expected {what}")))?;
        self.i += 1;
        Ok(w.to_string())
    }

    fn label(&mut self) -> Result<u32, PErr> {
        match self.peek() {
            Some(Tok::Int(v)) if (1..=99_999).contains(v) => {
                let v = *v as u32;
                self.i += 1;
                Ok(v)
            }
            _ => Err(perr("expected a statement label (1-99999)")),
        }
    }

    fn expr(&mut self) -> Result<Expr, PErr> {
        let (e, used) =
            expr_from_toks(self.text, &self.t[self.i..], self.line).map_err(|e| perr(emsg(&e)))?;
        self.i += used;
        Ok(e)
    }

    fn desig(&mut self) -> Result<Desig, PErr> {
        let (d, used) =
            desig_from_toks(self.text, &self.t[self.i..], self.line).map_err(|e| perr(emsg(&e)))?;
        self.i += used;
        Ok(d)
    }

    fn finish(&self, s: S) -> Result<S, PErr> {
        if self.done() {
            Ok(s)
        } else {
            Err(perr(format!(
                "unexpected `{}` after statement",
                tok_text(self.text, &self.t[self.i])
            )))
        }
    }
}

/// One `lo:hi` / `n` dimension declarator.
fn parse_dim(c: &mut Cur) -> Result<DimDecl, PErr> {
    let e1 = c.expr()?;
    if c.eat(&Tok::Colon) {
        let e2 = c.expr()?;
        Ok(DimDecl { lo: Some(e1), hi: Some(e2), deferred: false })
    } else {
        Ok(DimDecl { lo: None, hi: Some(e1), deferred: false })
    }
}

fn parse_dims(c: &mut Cur) -> Result<Vec<DimDecl>, PErr> {
    c.expect(&Tok::LParen, "`(`")?;
    let mut dims = vec![parse_dim(c)?];
    while c.eat(&Tok::Comma) {
        dims.push(parse_dim(c)?);
    }
    c.expect(&Tok::RParen, "`)` after array bounds")?;
    Ok(dims)
}

/// `name` or `name(dims)`.
fn parse_entity(c: &mut Cur) -> Result<(String, Option<Vec<DimDecl>>), PErr> {
    let name = c.ident("a variable name")?;
    // CHARACTER*len entity form: tolerate and discard the length.
    if c.eat(&Tok::Star) {
        let _ = c.bump();
    }
    let dims = if c.peek() == Some(&Tok::LParen) { Some(parse_dims(c)?) } else { None };
    Ok((name, dims))
}

/// A type keyword plus optional kind spec (`REAL*8`, `INTEGER*4`,
/// `REAL(8)`). Returns `None` if the next token is not a type keyword.
fn parse_type_kw(c: &mut Cur) -> Option<TypeSpec> {
    let base = c.word()?;
    let mut ts = match base {
        "integer" => TypeSpec::Integer,
        "real" => TypeSpec::Real,
        "logical" => TypeSpec::Logical,
        "character" => TypeSpec::Character,
        "doubleprecision" => TypeSpec::Real8,
        _ => return None,
    };
    c.i += 1;
    let kind = if c.eat(&Tok::Star) {
        match c.bump() {
            Some(Tok::Int(v)) => Some(*v),
            _ => None,
        }
    } else if base != "character"
        && c.peek() == Some(&Tok::LParen)
        && matches!(c.t.get(c.i + 1), Some(Tok::Int(_)))
        && c.t.get(c.i + 2) == Some(&Tok::RParen)
    {
        let v = match c.t.get(c.i + 1) {
            Some(Tok::Int(v)) => *v,
            _ => 0,
        };
        c.i += 3;
        Some(v)
    } else {
        None
    };
    if ts == TypeSpec::Real && kind == Some(8) {
        ts = TypeSpec::Real8;
    }
    Some(ts)
}

fn parse_params(c: &mut Cur) -> Result<Vec<String>, PErr> {
    let mut params = Vec::new();
    if c.eat(&Tok::LParen) && !c.eat(&Tok::RParen) {
        {
            loop {
                params.push(c.ident("a dummy argument name")?);
                if c.eat(&Tok::RParen) {
                    break;
                }
                c.expect(&Tok::Comma, "`,` or `)` in the dummy argument list")?;
            }
        }
    }
    Ok(params)
}

fn parse_label_list(c: &mut Cur) -> Result<Vec<u32>, PErr> {
    c.expect(&Tok::LParen, "`(`")?;
    let mut labels = vec![c.label()?];
    while c.eat(&Tok::Comma) {
        labels.push(c.label()?);
    }
    c.expect(&Tok::RParen, "`)` after the label list")?;
    Ok(labels)
}

fn parse_stmt(mut c: Cur, omp: bool, file: usize, diags: &mut Diagnostics) -> Result<S, PErr> {
    if omp {
        return parse_omp(c, file, diags);
    }

    // Assignment first — mirrors the classic F77 classifier. A leading
    // designator followed by `=` is an assignment no matter what the
    // first identifier looks like.
    if c.opens_assignment() {
        let save = c.i;
        if let Ok(d) = c.desig() {
            if c.eat(&Tok::Assign) {
                let value = c.expr()?;
                return c.finish(S::Assign(d, value));
            }
        }
        c.i = save;
    }

    let head = match c.peek() {
        Some(Tok::Ident(s)) => c.str(s),
        Some(t) => {
            return Err(perr(format!("statement cannot start with `{}`", tok_text(c.text, t))))
        }
        None => return Err(perr("empty statement")),
    };

    match head {
        "program" => {
            c.i += 1;
            let name = c.ident("the program name")?;
            c.finish(S::Program(name))
        }
        "subroutine" => {
            c.i += 1;
            let name = c.ident("the subroutine name")?;
            let params = parse_params(&mut c)?;
            c.finish(S::Subroutine(name, params))
        }
        "function" => {
            c.i += 1;
            let name = c.ident("the function name")?;
            let params = parse_params(&mut c)?;
            // Untyped FUNCTION: result type follows from IMPLICIT rules;
            // marked Character here and patched during finalization.
            c.finish(S::Function(TypeSpec::Character, name, params))
        }
        "blockdata" => {
            c.i += 1;
            let name = c.ident("the block data name").ok();
            c.finish(S::BlockData(name))
        }
        "integer" | "real" | "logical" | "character" | "doubleprecision" => {
            let ts = parse_type_kw(&mut c).expect("checked type keyword");
            if c.kw("function") {
                let name = c.ident("the function name")?;
                let params = parse_params(&mut c)?;
                return c.finish(S::Function(ts, name, params));
            }
            let _ = c.eat(&Tok::DoubleColon);
            let mut ents = vec![parse_entity(&mut c)?];
            while c.eat(&Tok::Comma) {
                ents.push(parse_entity(&mut c)?);
            }
            c.finish(S::Decl(ts, ents))
        }
        "dimension" => {
            c.i += 1;
            let mut items = Vec::new();
            loop {
                let name = c.ident("an array name")?;
                let dims = parse_dims(&mut c)?;
                items.push((name, dims));
                if !c.eat(&Tok::Comma) {
                    break;
                }
            }
            c.finish(S::Dimension(items))
        }
        "common" => {
            c.i += 1;
            let mut groups: Vec<CommonGroup> = Vec::new();
            let mut block = String::new();
            if c.eat(&Tok::Slash) && !c.eat(&Tok::Slash) {
                block = c.ident("the COMMON block name")?;
                c.expect(&Tok::Slash, "`/` after the COMMON block name")?;
            }
            loop {
                let mut members = Vec::new();
                loop {
                    members.push(parse_entity(&mut c)?);
                    if !c.eat(&Tok::Comma) {
                        break;
                    }
                    if c.peek() == Some(&Tok::Slash) {
                        break;
                    }
                }
                groups.push((block.clone(), members));
                if c.eat(&Tok::Slash) {
                    if c.eat(&Tok::Slash) {
                        block = String::new();
                    } else {
                        block = c.ident("the COMMON block name")?;
                        c.expect(&Tok::Slash, "`/` after the COMMON block name")?;
                    }
                } else {
                    break;
                }
            }
            c.finish(S::Common(groups))
        }
        "implicit" => {
            c.i += 1;
            if c.kw("none") {
                return c.finish(S::ImplicitNone);
            }
            let mut specs = Vec::new();
            loop {
                let ts = parse_type_kw(&mut c)
                    .ok_or_else(|| perr("expected a type in IMPLICIT"))?;
                c.expect(&Tok::LParen, "`(` after the IMPLICIT type")?;
                let mut ranges = Vec::new();
                loop {
                    let a = c.ident("a letter")?;
                    if a.len() != 1 {
                        return Err(perr(format!("`{a}` is not a single letter")));
                    }
                    let lo = a.chars().next().unwrap_or('a');
                    let hi = if c.eat(&Tok::Minus) {
                        let b = c.ident("a letter")?;
                        if b.len() != 1 {
                            return Err(perr(format!("`{b}` is not a single letter")));
                        }
                        b.chars().next().unwrap_or('z')
                    } else {
                        lo
                    };
                    ranges.push((lo, hi));
                    if !c.eat(&Tok::Comma) {
                        break;
                    }
                }
                c.expect(&Tok::RParen, "`)` after the IMPLICIT letter ranges")?;
                specs.push((ts, ranges));
                if !c.eat(&Tok::Comma) {
                    break;
                }
            }
            c.finish(S::Implicit(specs))
        }
        "parameter" => {
            c.i += 1;
            c.expect(&Tok::LParen, "`(` after PARAMETER")?;
            let mut items = Vec::new();
            loop {
                let name = c.ident("a PARAMETER name")?;
                c.expect(&Tok::Assign, "`=` in PARAMETER")?;
                let e = c.expr()?;
                items.push((name, e));
                if !c.eat(&Tok::Comma) {
                    break;
                }
            }
            c.expect(&Tok::RParen, "`)` closing PARAMETER")?;
            c.finish(S::Parameter(items))
        }
        "equivalence" => {
            c.i += 1;
            let mut groups = Vec::new();
            loop {
                c.expect(&Tok::LParen, "`(` opening an EQUIVALENCE group")?;
                let mut items = vec![c.desig()?];
                while c.eat(&Tok::Comma) {
                    items.push(c.desig()?);
                }
                c.expect(&Tok::RParen, "`)` closing an EQUIVALENCE group")?;
                groups.push(items);
                if !c.eat(&Tok::Comma) {
                    break;
                }
            }
            c.finish(S::EquivalenceS(groups))
        }
        "data" => {
            c.i += 1;
            let mut groups = Vec::new();
            loop {
                let mut targets = vec![c.desig()?];
                while c.eat(&Tok::Comma) {
                    targets.push(c.desig()?);
                }
                c.expect(&Tok::Slash, "`/` before the DATA values")?;
                let mut values: Vec<(usize, Expr)> = Vec::new();
                loop {
                    let (rep, val) = parse_data_value(&mut c)?;
                    values.push((rep, val));
                    if c.eat(&Tok::Slash) {
                        break;
                    }
                    c.expect(&Tok::Comma, "`,` or `/` in the DATA value list")?;
                }
                groups.push((targets, values));
                if !c.eat(&Tok::Comma) && c.done() {
                    break;
                }
                if c.done() {
                    break;
                }
            }
            c.finish(S::Data(groups))
        }
        "save" => {
            c.i += 1;
            if c.done() {
                return Ok(S::SaveAll);
            }
            let mut names = Vec::new();
            loop {
                if c.eat(&Tok::Slash) {
                    // SAVE /block/ — COMMON storage is always persistent
                    // in this engine, so this is a no-op.
                    let _ = c.ident("the COMMON block name")?;
                    c.expect(&Tok::Slash, "`/` after the COMMON block name")?;
                } else {
                    names.push(c.ident("a variable name")?);
                }
                if !c.eat(&Tok::Comma) {
                    break;
                }
            }
            c.finish(S::Save(names))
        }
        "external" | "intrinsic" => {
            c.i += 1;
            let mut names = vec![c.ident("a procedure name")?];
            while c.eat(&Tok::Comma) {
                names.push(c.ident("a procedure name")?);
            }
            c.finish(S::External(names))
        }
        "format" => {
            diags.warn_hint(
                file,
                c.line,
                "FORMAT statements are ignored; output is list-directed",
                "the engine prints PRINT/WRITE arguments in list-directed form",
            );
            Ok(S::Format)
        }
        "goto" => {
            c.i += 1;
            match c.peek() {
                Some(Tok::Int(_)) => {
                    let l = c.label()?;
                    c.finish(S::Goto(l))
                }
                Some(Tok::LParen) => {
                    let labels = parse_label_list(&mut c)?;
                    let _ = c.eat(&Tok::Comma);
                    let e = c.expr()?;
                    c.finish(S::CGoto(labels, e))
                }
                Some(Tok::Ident(_)) => {
                    let var = c.ident("a variable")?;
                    let _ = c.eat(&Tok::Comma);
                    let labels = if c.peek() == Some(&Tok::LParen) {
                        parse_label_list(&mut c)?
                    } else {
                        vec![]
                    };
                    c.finish(S::AGoto(var, labels))
                }
                _ => Err(perr("GO TO needs a label, a label list, or a variable")),
            }
        }
        "assign" => {
            c.i += 1;
            let l = c.label()?;
            if !c.kw("to") {
                return Err(perr_hint(
                    "expected TO in ASSIGN",
                    "the form is `ASSIGN <label> TO <variable>`",
                ));
            }
            let var = c.ident("a variable")?;
            c.finish(S::LabelAssign(l, var))
        }
        "if" => {
            c.i += 1;
            c.expect(&Tok::LParen, "`(` after IF")?;
            let cond = c.expr()?;
            c.expect(&Tok::RParen, "`)` closing the IF condition")?;
            if c.kw("then") {
                return c.finish(S::IfThen(cond));
            }
            if matches!(c.peek(), Some(Tok::Int(_))) {
                let l1 = c.label()?;
                c.expect(&Tok::Comma, "`,` in arithmetic IF")?;
                let l2 = c.label()?;
                c.expect(&Tok::Comma, "`,` in arithmetic IF")?;
                let l3 = c.label()?;
                return c.finish(S::ArithIf(cond, l1, l2, l3));
            }
            // Logical IF: one simple trailing statement.
            let inner = Cur::new(c.text, &c.t[c.i..], c.line);
            let s = parse_stmt(inner, false, file, diags)?;
            match &s {
                S::Assign(..)
                | S::Goto(..)
                | S::CGoto(..)
                | S::AGoto(..)
                | S::LabelAssign(..)
                | S::ArithIf(..)
                | S::CallS(..)
                | S::Return
                | S::Stop(_)
                | S::ExitS
                | S::CycleS
                | S::ContinueS
                | S::PrintS(_) => Ok(S::LogIf(cond, Box::new(s))),
                _ => Err(perr("this statement cannot be the body of a logical IF")),
            }
        }
        "else" => {
            c.i += 1;
            if c.kw("if") {
                c.expect(&Tok::LParen, "`(` after ELSE IF")?;
                let cond = c.expr()?;
                c.expect(&Tok::RParen, "`)` closing the ELSE IF condition")?;
                if !c.kw("then") {
                    return Err(perr("expected THEN after ELSE IF (...)"));
                }
                return c.finish(S::ElseIf(cond));
            }
            c.finish(S::Else)
        }
        "end" => {
            c.i += 1;
            if c.kw("if") {
                return c.finish(S::EndIf);
            }
            if c.kw("do") {
                return c.finish(S::EndDo);
            }
            // END [SUBROUTINE|FUNCTION|PROGRAM [name]]
            while c.bump().is_some() {}
            Ok(S::EndUnit)
        }
        "do" => {
            c.i += 1;
            let term = match c.peek() {
                Some(Tok::Int(_)) => Some(c.label()?),
                _ => None,
            };
            if c.kw("while") {
                c.expect(&Tok::LParen, "`(` after DO WHILE")?;
                let cond = c.expr()?;
                c.expect(&Tok::RParen, "`)` closing the DO WHILE condition")?;
                return c.finish(S::DoWhileStart { term, cond });
            }
            let var = c.ident("the DO control variable")?;
            c.expect(&Tok::Assign, "`=` in the DO statement")?;
            let start = c.expr()?;
            c.expect(&Tok::Comma, "`,` between the DO bounds")?;
            let end = c.expr()?;
            let step = if c.eat(&Tok::Comma) { Some(c.expr()?) } else { None };
            c.finish(S::DoStart { term, var, start, end, step })
        }
        "continue" => {
            c.i += 1;
            c.finish(S::ContinueS)
        }
        "return" => {
            c.i += 1;
            c.finish(S::Return)
        }
        "exit" => {
            c.i += 1;
            c.finish(S::ExitS)
        }
        "cycle" => {
            c.i += 1;
            c.finish(S::CycleS)
        }
        "stop" => {
            c.i += 1;
            let msg = match c.peek() {
                Some(Tok::Str(s)) => {
                    c.i += 1;
                    Some(c.str(s).to_string())
                }
                Some(Tok::Int(v)) => {
                    let s = v.to_string();
                    c.i += 1;
                    Some(s)
                }
                _ => None,
            };
            c.finish(S::Stop(msg))
        }
        "call" => {
            c.i += 1;
            let name = c.ident("the subroutine name")?;
            let mut args = Vec::new();
            if c.eat(&Tok::LParen) && !c.eat(&Tok::RParen) {
                loop {
                    args.push(c.expr()?);
                    if c.eat(&Tok::RParen) {
                        break;
                    }
                    c.expect(&Tok::Comma, "`,` or `)` in the argument list")?;
                }
            }
            c.finish(S::CallS(name, args))
        }
        "print" => {
            c.i += 1;
            if !c.eat(&Tok::Star) {
                if matches!(c.peek(), Some(Tok::Int(_))) {
                    let _ = c.label()?;
                    diags.warn_hint(
                        file,
                        c.line,
                        "PRINT format label ignored; output is list-directed",
                        "the engine prints arguments in list-directed form",
                    );
                } else {
                    return Err(perr("expected `*` or a format label after PRINT"));
                }
            }
            let mut args = Vec::new();
            while c.eat(&Tok::Comma) {
                args.push(c.expr()?);
            }
            c.finish(S::PrintS(args))
        }
        "write" => {
            c.i += 1;
            c.expect(&Tok::LParen, "`(` after WRITE")?;
            match c.peek() {
                Some(Tok::Star | Tok::Int(_)) => {
                    c.i += 1;
                }
                Some(Tok::Ident(_)) => {
                    // WRITE(UNIT=..., ...) — tolerate by skipping to `)`.
                }
                _ => return Err(perr("expected a unit specifier in WRITE")),
            }
            if c.eat(&Tok::Comma) {
                match c.peek() {
                    Some(Tok::Star) => {
                        c.i += 1;
                    }
                    Some(Tok::Int(_)) => {
                        let _ = c.label()?;
                        diags.warn_hint(
                            file,
                            c.line,
                            "WRITE format label ignored; output is list-directed",
                            "the engine prints arguments in list-directed form",
                        );
                    }
                    _ => return Err(perr("expected `*` or a format label in WRITE")),
                }
            }
            c.expect(&Tok::RParen, "`)` closing the WRITE control list")?;
            let mut args = Vec::new();
            if !c.done() {
                loop {
                    args.push(c.expr()?);
                    if !c.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            c.finish(S::PrintS(args))
        }
        "module" | "use" | "contains" | "allocate" | "deallocate" | "critical" => {
            Err(perr_hint(
                format!("`{head}` is not a fixed-form F77 statement"),
                "free-form sources must start with MODULE; fixed-form sources may not \
                 use F90 module features",
            ))
        }
        other => Err(perr(format!("unrecognized statement `{other}`"))),
    }
}

/// One DATA value: `[n*]value` where value is a possibly-signed literal.
fn parse_data_value(c: &mut Cur) -> Result<(usize, Expr), PErr> {
    // Repeat count?
    if let (Some(Tok::Int(n)), Some(Tok::Star)) = (c.peek(), c.t.get(c.i + 1)) {
        if *n > 0 {
            let n = *n as usize;
            c.i += 2;
            let v = parse_data_scalar(c)?;
            return Ok((n, v));
        }
    }
    Ok((1, parse_data_scalar(c)?))
}

fn parse_data_scalar(c: &mut Cur) -> Result<Expr, PErr> {
    let neg = if c.eat(&Tok::Minus) {
        true
    } else {
        let _ = c.eat(&Tok::Plus);
        false
    };
    let e = match c.bump() {
        Some(Tok::Int(v)) => Expr::Int(*v),
        Some(Tok::Real(v)) => Expr::Real(*v),
        Some(Tok::True) => Expr::Logical(true),
        Some(Tok::False) => Expr::Logical(false),
        Some(Tok::Str(s)) => Expr::Str(c.str(s).to_string()),
        Some(Tok::Ident(n)) => Expr::Name(Desig {
            parts: vec![Part { name: c.str(n).to_string(), subs: vec![] }],
            span: Span { line: c.line },
        }),
        _ => return Err(perr("expected a constant in the DATA value list")),
    };
    Ok((if neg { Expr::Neg(Box::new(e)) } else { e }, ()).0)
}

/// Parses an OMP directive statement.
fn parse_omp(mut c: Cur, file: usize, diags: &mut Diagnostics) -> Result<S, PErr> {
    if c.kw("parallel") {
        if !c.kw("do") {
            diags.warn_hint(
                file,
                c.line,
                "unsupported OpenMP directive ignored",
                "only PARALLEL DO, ATOMIC and CRITICAL are honoured",
            );
            return Ok(S::OmpIgnored);
        }
        let mut omp = OmpDo { collapse: 1, ..Default::default() };
        while !c.done() {
            if c.kw("private") {
                omp.private.extend(parse_name_list(&mut c)?);
            } else if c.kw("firstprivate") {
                omp.firstprivate.extend(parse_name_list(&mut c)?);
            } else if c.kw("reduction") {
                c.expect(&Tok::LParen, "`(` after REDUCTION")?;
                let op = match c.bump() {
                    Some(Tok::Plus) => RedOp::Add,
                    Some(Tok::Star) => RedOp::Mul,
                    Some(Tok::Ident(s)) if c.str(s) == "max" => RedOp::Max,
                    Some(Tok::Ident(s)) if c.str(s) == "min" => RedOp::Min,
                    _ => return Err(perr("expected +, *, MAX or MIN in REDUCTION")),
                };
                c.expect(&Tok::Colon, "`:` in REDUCTION")?;
                let mut names = vec![c.ident("a reduction variable")?];
                while c.eat(&Tok::Comma) {
                    names.push(c.ident("a reduction variable")?);
                }
                c.expect(&Tok::RParen, "`)` closing REDUCTION")?;
                omp.reductions.push((op, names));
            } else if c.kw("collapse") {
                c.expect(&Tok::LParen, "`(` after COLLAPSE")?;
                let n = match c.bump() {
                    Some(Tok::Int(v)) if *v >= 1 => *v as usize,
                    _ => return Err(perr("COLLAPSE needs a positive integer")),
                };
                c.expect(&Tok::RParen, "`)` closing COLLAPSE")?;
                omp.collapse = n;
            } else if c.kw("num_threads") {
                c.expect(&Tok::LParen, "`(` after NUM_THREADS")?;
                omp.num_threads = Some(c.expr()?);
                c.expect(&Tok::RParen, "`)` closing NUM_THREADS")?;
            } else if c.kw("schedule") {
                c.expect(&Tok::LParen, "`(` after SCHEDULE")?;
                let kind = match c.bump() {
                    Some(Tok::Ident(s)) if c.str(s) == "static" => SchedKind::Static,
                    Some(Tok::Ident(s)) if c.str(s) == "dynamic" => SchedKind::Dynamic,
                    Some(Tok::Ident(s)) if c.str(s) == "guided" => SchedKind::Guided,
                    _ => return Err(perr("expected STATIC, DYNAMIC or GUIDED in SCHEDULE")),
                };
                let chunk = if c.eat(&Tok::Comma) {
                    match c.bump() {
                        Some(Tok::Int(v)) if *v >= 1 => Some(*v as usize),
                        _ => return Err(perr("SCHEDULE chunk must be a positive integer")),
                    }
                } else {
                    None
                };
                c.expect(&Tok::RParen, "`)` closing SCHEDULE")?;
                omp.schedule = Some((kind, chunk));
            } else if c.kw("default") || c.kw("shared") {
                if c.eat(&Tok::LParen) {
                    while !c.done() && !c.eat(&Tok::RParen) {
                        c.i += 1;
                    }
                }
            } else if c.kw("nowait") {
                // no-op
            } else {
                return Err(perr(format!(
                    "unknown PARALLEL DO clause near `{}`",
                    c.peek().map(|t| tok_text(c.text, t)).unwrap_or_default()
                )));
            }
        }
        return Ok(S::OmpPar(omp));
    }
    if c.kw("end") {
        if c.kw("parallel") {
            let _ = c.kw("do");
            return Ok(S::OmpEndPar);
        }
        if c.kw("critical") {
            return Ok(S::OmpEndCrit);
        }
        return Ok(S::OmpIgnored);
    }
    if c.kw("atomic") {
        return Ok(S::OmpAtomic);
    }
    if c.kw("critical") {
        let name = if c.eat(&Tok::LParen) {
            let n = c.ident("the critical section name")?;
            c.expect(&Tok::RParen, "`)` closing the critical section name")?;
            Some(n)
        } else {
            None
        };
        return Ok(S::OmpCrit(name));
    }
    diags.warn_hint(
        file,
        c.line,
        "unsupported OpenMP directive ignored",
        "only PARALLEL DO, ATOMIC and CRITICAL are honoured",
    );
    Ok(S::OmpIgnored)
}

fn parse_name_list(c: &mut Cur) -> Result<Vec<String>, PErr> {
    c.expect(&Tok::LParen, "`(`")?;
    let mut names = vec![c.ident("a variable name")?];
    while c.eat(&Tok::Comma) {
        names.push(c.ident("a variable name")?);
    }
    c.expect(&Tok::RParen, "`)` closing the name list")?;
    Ok(names)
}

// ---------------------------------------------------------------------------
// Phase 4: structure building (statement list -> nested body with branches)
// ---------------------------------------------------------------------------

/// Legacy branch statements kept symbolic until legalization.
#[derive(Debug, Clone)]
enum Branch {
    Goto(u32),
    CGoto(Vec<u32>, Expr),
    AGoto(String, Vec<u32>),
    Arith(Expr, u32, u32, u32),
}

/// A loop body is raw until its region has been legalized.
#[derive(Debug, Clone)]
enum LBody {
    Raw(Vec<LNode>),
    Done(Vec<Stmt>),
}

#[derive(Debug, Clone)]
enum Node {
    St(Stmt),
    Br(Branch),
    Do {
        var: String,
        start: Expr,
        end: Expr,
        step: Option<Expr>,
        omp: Option<OmpDo>,
        body: LBody,
        line: u32,
    },
    DoW {
        cond: Expr,
        body: LBody,
        line: u32,
    },
    If {
        arms: Vec<(Expr, Vec<LNode>)>,
        els: Vec<LNode>,
        line: u32,
    },
    Crit {
        name: Option<String>,
        body: Vec<LNode>,
        line: u32,
    },
}

#[derive(Debug, Clone)]
struct LNode {
    label: Option<u32>,
    line: u32,
    node: Node,
}

/// Everything gathered about one program unit before finalization.
struct UnitAcc {
    kind: UnitKind,
    name: String,
    params: Vec<String>,
    line: u32,
    file: usize,
    /// BLOCK DATA and PROGRAM units compile as parameterless subroutines.
    untyped_function: bool,
    implicit_none: bool,
    implicit: Vec<(TypeSpec, Vec<(char, char)>)>,
    decls_ty: Vec<(TypeSpec, String, Option<Vec<DimDecl>>, u32)>,
    dimension: Vec<(String, Vec<DimDecl>, u32)>,
    commons: Vec<(CommonGroup, u32)>,
    params_c: Vec<(String, Expr, u32)>,
    equiv: Vec<(Vec<Desig>, u32)>,
    data: Vec<(DataGroup, u32)>,
    save_all: bool,
    save: HashSet<String>,
    externals: HashSet<String>,
    label_assigns: HashMap<String, Vec<u32>>,
    format_labels: HashSet<u32>,
    labels: HashSet<u32>,
    body: Vec<LNode>,
}

impl UnitAcc {
    fn new(kind: UnitKind, name: String, params: Vec<String>, line: u32, file: usize) -> Self {
        UnitAcc {
            kind,
            name,
            params,
            line,
            file,
            untyped_function: false,
            implicit_none: false,
            implicit: Vec::new(),
            decls_ty: Vec::new(),
            dimension: Vec::new(),
            commons: Vec::new(),
            params_c: Vec::new(),
            equiv: Vec::new(),
            data: Vec::new(),
            save_all: false,
            save: HashSet::new(),
            externals: HashSet::new(),
            label_assigns: HashMap::new(),
            format_labels: HashSet::new(),
            labels: HashSet::new(),
            body: Vec::new(),
        }
    }
}

#[allow(clippy::large_enum_variant)]
enum Fr {
    Base,
    Do {
        term: Option<u32>,
        var: String,
        start: Expr,
        end: Expr,
        step: Option<Expr>,
        omp: Option<OmpDo>,
        label: Option<u32>,
        line: u32,
    },
    DoW {
        term: Option<u32>,
        cond: Expr,
        label: Option<u32>,
        line: u32,
    },
    If {
        arms: Vec<(Expr, Vec<LNode>)>,
        cond: Expr,
        in_else: bool,
        label: Option<u32>,
        line: u32,
    },
    Crit {
        name: Option<String>,
        label: Option<u32>,
        line: u32,
    },
}

/// The per-unit structure builder: a stack of open DO/IF/CRITICAL frames,
/// each with its growing body.
struct Shape {
    frames: Vec<(Fr, Vec<LNode>)>,
}

impl Shape {
    fn new() -> Self {
        Shape { frames: vec![(Fr::Base, Vec::new())] }
    }

    fn body(&mut self) -> &mut Vec<LNode> {
        &mut self.frames.last_mut().expect("base frame").1
    }

    /// Pops the top frame into its parent body as a finished node.
    fn close_top(&mut self) {
        let (fr, body) = self.frames.pop().expect("non-base frame");
        let node = match fr {
            Fr::Base => unreachable!("base frame never closed"),
            Fr::Do { var, start, end, step, omp, label, line, .. } => LNode {
                label,
                line,
                node: Node::Do { var, start, end, step, omp, body: LBody::Raw(body), line },
            },
            Fr::DoW { cond, label, line, .. } => {
                LNode { label, line, node: Node::DoW { cond, body: LBody::Raw(body), line } }
            }
            Fr::If { mut arms, cond, in_else, label, line } => {
                let els = if in_else {
                    body
                } else {
                    arms.push((cond, body));
                    Vec::new()
                };
                LNode { label, line, node: Node::If { arms, els, line } }
            }
            Fr::Crit { name, label, line } => {
                LNode { label, line, node: Node::Crit { name, body, line } }
            }
        };
        self.body().push(node);
    }

    /// True when an open DO/DO WHILE frame is waiting for terminal `l`.
    fn open_term(&self, l: u32) -> bool {
        self.frames.iter().any(|(f, _)| {
            matches!(f, Fr::Do { term: Some(t), .. } | Fr::DoW { term: Some(t), .. } if *t == l)
        })
    }

    /// Closes every top frame whose terminal label is `l` (shared
    /// terminals close all their loops at once).
    fn close_terms(&mut self, l: u32) {
        while matches!(
            self.frames.last(),
            Some((Fr::Do { term: Some(t), .. } | Fr::DoW { term: Some(t), .. }, _)) if *t == l
        ) {
            self.close_top();
        }
    }
}

/// Lowers one simple S to an AST statement (never a branch/frame S).
fn lower_simple(s: S, line: u32, atomic: bool) -> Stmt {
    let span = Span { line };
    match s {
        S::Assign(target, value) => Stmt::Assign { target, value, atomic, span },
        S::CallS(name, args) => Stmt::Call { name, args, span },
        S::Return => Stmt::Return(span),
        S::Stop(message) => Stmt::Stop { message, span },
        S::PrintS(args) => Stmt::Print { args, span },
        S::ContinueS => Stmt::Continue(span),
        S::ExitS => Stmt::Exit(span),
        S::CycleS => Stmt::Cycle(span),
        S::LabelAssign(l, var) => Stmt::Assign {
            target: Desig { parts: vec![Part { name: var, subs: vec![] }], span },
            value: Expr::Int(i64::from(l)),
            atomic: false,
            span,
        },
        _ => unreachable!("lower_simple called on a structural statement"),
    }
}

/// The symbolic branch a branching S stands for.
fn branch_of(s: S) -> Branch {
    match s {
        S::Goto(l) => Branch::Goto(l),
        S::CGoto(ls, e) => Branch::CGoto(ls, e),
        S::AGoto(v, ls) => Branch::AGoto(v, ls),
        S::ArithIf(e, a, b, c) => Branch::Arith(e, a, b, c),
        _ => unreachable!("branch_of called on a non-branch statement"),
    }
}

fn is_simple(s: &S) -> bool {
    matches!(
        s,
        S::Assign(..)
            | S::CallS(..)
            | S::Return
            | S::Stop(_)
            | S::PrintS(_)
            | S::ContinueS
            | S::ExitS
            | S::CycleS
            | S::LabelAssign(..)
    )
}

/// Scans one fixed-form source into unit accumulators, recovering at
/// statement boundaries and reporting every problem found.
fn lower_source(src: &str, file: usize, diags: &mut Diagnostics) -> Vec<UnitAcc> {
    let lx = lex_fixed_in(src, file, diags);
    let mut units: Vec<UnitAcc> = Vec::new();
    let mut cur: Option<(UnitAcc, Shape)> = None;
    let mut pending_omp: Option<OmpDo> = None;
    let mut pending_atomic = false;

    let close_unit = |cur: &mut Option<(UnitAcc, Shape)>,
                      units: &mut Vec<UnitAcc>,
                      diags: &mut Diagnostics| {
        if let Some((mut acc, mut shape)) = cur.take() {
            while shape.frames.len() > 1 {
                let msg = match &shape.frames.last().expect("frame").0 {
                    Fr::Do { term: Some(t), line, .. } => format!(
                        "DO terminal label {t} never appears (loop opened at line {line})"
                    ),
                    Fr::Do { line, .. } | Fr::DoW { line, .. } => {
                        format!("DO loop opened at line {line} is never closed")
                    }
                    Fr::If { line, .. } => {
                        format!("IF block opened at line {line} is never closed with END IF")
                    }
                    Fr::Crit { line, .. } => {
                        format!("CRITICAL section opened at line {line} is never closed")
                    }
                    Fr::Base => unreachable!("base frame"),
                };
                diags.error_hint(
                    file,
                    acc.line,
                    msg,
                    "every DO needs its terminal statement or END DO, every IF (...) THEN \
                     its END IF",
                );
                shape.close_top();
            }
            acc.body = shape.frames.pop().map(|(_, b)| b).unwrap_or_default();
            units.push(acc);
        }
    };

    for f in lx.lines() {
        let stmt = Cur::new(&lx.text, lx.toks(f), f.lineno);
        let s = match parse_stmt(stmt, f.omp, file, diags) {
            Ok(s) => s,
            Err((msg, hint)) => {
                match hint {
                    Some(h) => diags.error_hint(file, f.lineno, msg, h),
                    None => diags.error(file, f.lineno, msg),
                }
                continue; // statement-boundary recovery
            }
        };

        // Unit heads (`Err` hands any other statement back).
        let head = match s {
            S::Program(n) => Ok((UnitKind::Subroutine, n, vec![], false)),
            S::Subroutine(n, p) => Ok((UnitKind::Subroutine, n, p, false)),
            S::Function(ts, n, p) => {
                let untyped = ts == TypeSpec::Character;
                Ok((UnitKind::Function(ts), n, p, untyped))
            }
            S::BlockData(n) => {
                let name = n.unwrap_or_else(|| "blockdata".to_string());
                Ok((UnitKind::Subroutine, name, vec![], false))
            }
            other => Err(other),
        };
        let s = match head {
            Err(s) => s,
            Ok((kind, name, params, untyped)) => {
                if cur.is_some() {
                    diags.error_hint(
                        file,
                        f.lineno,
                        format!("`{name}` starts before the previous unit's END"),
                        "add an END statement to close the previous program unit",
                    );
                    close_unit(&mut cur, &mut units, diags);
                }
                let mut acc = UnitAcc::new(kind, name, params, f.lineno, file);
                acc.untyped_function = untyped;
                cur = Some((acc, Shape::new()));
                continue;
            }
        };

        // Any other statement before a unit head opens the implicit
        // main program (classic F77 main without a PROGRAM card).
        if cur.is_none() {
            if matches!(s, S::EndUnit) {
                diags.error(file, f.lineno, "END without an open program unit");
                continue;
            }
            cur = Some((
                UnitAcc::new(UnitKind::Subroutine, "main".to_string(), vec![], f.lineno, file),
                Shape::new(),
            ));
        }
        let (acc, shape) = cur.as_mut().expect("unit open");

        // Labels: uniqueness + terminal-label discipline.
        if let Some(l) = f.label {
            if !acc.labels.insert(l) {
                diags.error(file, f.lineno, format!("duplicate statement label {l}"));
            }
            if shape.open_term(l) && !is_simple(&s) {
                diags.error_hint(
                    file,
                    f.lineno,
                    format!("DO terminal label {l} is on a non-executable or block statement"),
                    "terminate the loop with a labeled CONTINUE",
                );
            }
        }

        // A pending PARALLEL DO must be followed by a DO statement.
        if pending_omp.is_some()
            && !matches!(s, S::DoStart { .. } | S::OmpPar(_) | S::Format)
        {
            diags.error_hint(
                file,
                f.lineno,
                "PARALLEL DO directive is not followed by a DO loop",
                "put the `C$OMP PARALLEL DO` card directly above the DO statement",
            );
            pending_omp = None;
        }
        if pending_atomic && !matches!(s, S::Assign(..)) {
            diags.error(file, f.lineno, "ATOMIC directive is not followed by an assignment");
            pending_atomic = false;
        }

        match s {
            S::EndUnit => {
                close_unit(&mut cur, &mut units, diags);
            }
            // --- specification statements -------------------------------
            S::Decl(ts, ents) => {
                for (n, d) in ents {
                    acc.decls_ty.push((ts.clone(), n, d, f.lineno));
                }
            }
            S::Dimension(items) => {
                for (n, d) in items {
                    acc.dimension.push((n, d, f.lineno));
                }
            }
            S::Common(groups) => {
                for (b, members) in groups {
                    acc.commons.push(((b, members), f.lineno));
                }
            }
            S::Implicit(specs) => acc.implicit.extend(specs),
            S::ImplicitNone => acc.implicit_none = true,
            S::Parameter(items) => {
                for (n, e) in items {
                    acc.params_c.push((n, e, f.lineno));
                }
            }
            S::EquivalenceS(groups) => {
                for g in groups {
                    acc.equiv.push((g, f.lineno));
                }
            }
            S::Data(groups) => {
                for (t, v) in groups {
                    acc.data.push(((t, v), f.lineno));
                }
            }
            S::SaveAll => acc.save_all = true,
            S::Save(names) => acc.save.extend(names),
            S::External(names) => acc.externals.extend(names),
            S::Format => {
                if let Some(l) = f.label {
                    acc.format_labels.insert(l);
                }
            }
            // --- OMP ----------------------------------------------------
            S::OmpPar(o) => pending_omp = Some(o),
            S::OmpEndPar | S::OmpIgnored => {}
            S::OmpAtomic => pending_atomic = true,
            S::OmpCrit(name) => {
                shape
                    .frames
                    .push((Fr::Crit { name, label: f.label, line: f.lineno }, Vec::new()));
            }
            S::OmpEndCrit => {
                if matches!(shape.frames.last(), Some((Fr::Crit { .. }, _))) {
                    shape.close_top();
                } else {
                    diags.error(file, f.lineno, "END CRITICAL without an open CRITICAL");
                }
            }
            // --- structure ----------------------------------------------
            S::DoStart { term, var, start, end, step } => {
                shape.frames.push((
                    Fr::Do {
                        term,
                        var,
                        start,
                        end,
                        step,
                        omp: pending_omp.take(),
                        label: f.label,
                        line: f.lineno,
                    },
                    Vec::new(),
                ));
            }
            S::DoWhileStart { term, cond } => {
                shape
                    .frames
                    .push((Fr::DoW { term, cond, label: f.label, line: f.lineno }, Vec::new()));
            }
            S::IfThen(cond) => {
                shape.frames.push((
                    Fr::If { arms: Vec::new(), cond, in_else: false, label: f.label, line: f.lineno },
                    Vec::new(),
                ));
            }
            S::ElseIf(newcond) => match shape.frames.last_mut() {
                Some((Fr::If { arms, cond, in_else: false, .. }, body)) => {
                    arms.push((std::mem::replace(cond, newcond), std::mem::take(body)));
                }
                _ => diags.error(file, f.lineno, "ELSE IF without a matching IF (...) THEN"),
            },
            S::Else => match shape.frames.last_mut() {
                Some((Fr::If { arms, cond, in_else, .. }, body)) if !*in_else => {
                    // The ELSE arm has no condition: leave a placeholder.
                    let cond = std::mem::replace(cond, Expr::Logical(true));
                    arms.push((cond, std::mem::take(body)));
                    *in_else = true;
                }
                _ => diags.error(file, f.lineno, "ELSE without a matching IF (...) THEN"),
            },
            S::EndIf => {
                if matches!(shape.frames.last(), Some((Fr::If { .. }, _))) {
                    shape.close_top();
                } else {
                    diags.error(file, f.lineno, "END IF without a matching IF (...) THEN");
                }
            }
            S::EndDo => {
                if matches!(shape.frames.last(), Some((Fr::Do { term: None, .. } | Fr::DoW { term: None, .. }, _)))
                {
                    shape.close_top();
                } else {
                    diags.error(file, f.lineno, "END DO without a matching DO");
                }
            }
            // --- branches -----------------------------------------------
            s @ (S::Goto(..) | S::CGoto(..) | S::AGoto(..) | S::ArithIf(..)) => {
                shape.body().push(LNode {
                    label: f.label,
                    line: f.lineno,
                    node: Node::Br(branch_of(s)),
                });
                if let Some(l) = f.label {
                    shape.close_terms(l);
                }
            }
            S::LogIf(cond, inner) => {
                let inner_node = match *inner {
                    s @ (S::Goto(..) | S::CGoto(..) | S::AGoto(..) | S::ArithIf(..)) => {
                        Node::Br(branch_of(s))
                    }
                    other => {
                        if let S::LabelAssign(l, v) = &other {
                            acc.label_assigns.entry(v.clone()).or_default().push(*l);
                        }
                        Node::St(lower_simple(other, f.lineno, false))
                    }
                };
                shape.body().push(LNode {
                    label: f.label,
                    line: f.lineno,
                    node: Node::If {
                        arms: vec![(
                            cond,
                            vec![LNode { label: None, line: f.lineno, node: inner_node }],
                        )],
                        els: Vec::new(),
                        line: f.lineno,
                    },
                });
                if let Some(l) = f.label {
                    shape.close_terms(l);
                }
            }
            // --- simple executable statements ---------------------------
            other if is_simple(&other) => {
                if let S::LabelAssign(l, v) = &other {
                    acc.label_assigns.entry(v.clone()).or_default().push(*l);
                }
                let atomic = pending_atomic && matches!(other, S::Assign(..));
                pending_atomic = false;
                shape.body().push(LNode {
                    label: f.label,
                    line: f.lineno,
                    node: Node::St(lower_simple(other, f.lineno, atomic)),
                });
                if let Some(l) = f.label {
                    shape.close_terms(l);
                }
            }
            _ => unreachable!("all statement kinds handled"),
        }
    }
    if cur.is_some() {
        let line = cur.as_ref().map(|(a, _)| a.line).unwrap_or(1);
        diags.error_hint(
            file,
            line,
            "program unit is missing its END statement",
            "every PROGRAM/SUBROUTINE/FUNCTION must be closed with END",
        );
        close_unit(&mut cur, &mut units, diags);
    }
    units
}

// ---------------------------------------------------------------------------
// Phase 5: legalization — desugar GOTO/computed-GOTO/assigned-GOTO and
// arithmetic IF into structured control flow the RIR can represent.
//
// Strategy (see DESIGN.md §8): structure first. DO nests and IF blocks are
// recovered from labels/END statements by the structure pass; inside each
// *region* (a unit body or one loop body) the classic patterns
// `GOTO <terminal CONTINUE>` and `GOTO <label right after the loop>` become
// CYCLE and EXIT. Whatever branches remain turn the region into a flat
// state machine: basic blocks dispatched by an integer state variable
// inside `DO WHILE (s /= 0)`.
// ---------------------------------------------------------------------------

fn sp(line: u32) -> Span {
    Span { line }
}

fn dvar(n: &str, line: u32) -> Desig {
    Desig { parts: vec![Part { name: n.to_string(), subs: vec![] }], span: sp(line) }
}

fn evar(n: &str, line: u32) -> Expr {
    Expr::Name(dvar(n, line))
}

/// `n = k`
fn seti(n: &str, k: i64, line: u32) -> Stmt {
    Stmt::Assign { target: dvar(n, line), value: Expr::Int(k), atomic: false, span: sp(line) }
}

/// `n = e`
fn sete(n: &str, e: Expr, line: u32) -> Stmt {
    Stmt::Assign { target: dvar(n, line), value: e, atomic: false, span: sp(line) }
}

/// `n == k`
fn eqi(n: &str, k: i64, line: u32) -> Expr {
    Expr::Bin(Bin::Eq, Box::new(evar(n, line)), Box::new(Expr::Int(k)))
}

/// Fresh-name generator for synthesized state variables and temporaries,
/// seeded with the unit's identifiers it could collide with: every fresh
/// name starts with [`TMP_PREFIX`], so only those are collected.
struct TmpGen {
    used: HashSet<String>,
    n: u32,
}

impl TmpGen {
    fn fresh(&mut self, base: &str) -> String {
        loop {
            self.n += 1;
            debug_assert!(base.starts_with(TMP_PREFIX));
            let c = format!("{base}{}", self.n);
            if self.used.insert(c.clone()) {
                return c;
            }
        }
    }
}

const TMP_PREFIX: &str = "go_";

/// Records `n` as taken if a fresh name could ever spell it.
fn note_name(n: &str, out: &mut HashSet<String>) {
    if n.starts_with(TMP_PREFIX) {
        out.insert(n.to_string());
    }
}

fn names_in_expr(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::Name(d) => names_in_desig(d, out),
        Expr::Bin(_, a, b) => {
            names_in_expr(a, out);
            names_in_expr(b, out);
        }
        Expr::Neg(a) | Expr::Not(a) => names_in_expr(a, out),
        _ => {}
    }
}

fn names_in_desig(d: &Desig, out: &mut HashSet<String>) {
    for p in &d.parts {
        note_name(&p.name, out);
        for s in &p.subs {
            names_in_expr(s, out);
        }
    }
}

fn names_in_stmt(s: &Stmt, out: &mut HashSet<String>) {
    match s {
        Stmt::Assign { target, value, .. } => {
            names_in_desig(target, out);
            names_in_expr(value, out);
        }
        Stmt::If { arms, else_body, .. } => {
            for (c, b) in arms {
                names_in_expr(c, out);
                for s in b {
                    names_in_stmt(s, out);
                }
            }
            for s in else_body {
                names_in_stmt(s, out);
            }
        }
        Stmt::Do { var, start, end, step, body, .. } => {
            note_name(var, out);
            names_in_expr(start, out);
            names_in_expr(end, out);
            if let Some(e) = step {
                names_in_expr(e, out);
            }
            for s in body {
                names_in_stmt(s, out);
            }
        }
        Stmt::DoWhile { cond, body, .. } => {
            names_in_expr(cond, out);
            for s in body {
                names_in_stmt(s, out);
            }
        }
        Stmt::Call { name, args, .. } => {
            note_name(name, out);
            for a in args {
                names_in_expr(a, out);
            }
        }
        Stmt::Critical { body, .. } => {
            for s in body {
                names_in_stmt(s, out);
            }
        }
        Stmt::Print { args, .. } => {
            for a in args {
                names_in_expr(a, out);
            }
        }
        _ => {}
    }
}

fn names_in_node(n: &LNode, out: &mut HashSet<String>) {
    match &n.node {
        Node::St(s) => names_in_stmt(s, out),
        Node::Br(b) => match b {
            Branch::Goto(_) => {}
            Branch::CGoto(_, e) | Branch::Arith(e, ..) => names_in_expr(e, out),
            Branch::AGoto(v, _) => {
                note_name(v, out);
            }
        },
        Node::Do { var, start, end, step, body, .. } => {
            note_name(var, out);
            names_in_expr(start, out);
            names_in_expr(end, out);
            if let Some(e) = step {
                names_in_expr(e, out);
            }
            names_in_body(body, out);
        }
        Node::DoW { cond, body, .. } => {
            names_in_expr(cond, out);
            names_in_body(body, out);
        }
        Node::If { arms, els, .. } => {
            for (c, b) in arms {
                names_in_expr(c, out);
                for n in b {
                    names_in_node(n, out);
                }
            }
            for n in els {
                names_in_node(n, out);
            }
        }
        Node::Crit { body, .. } => {
            for n in body {
                names_in_node(n, out);
            }
        }
    }
}

fn names_in_body(b: &LBody, out: &mut HashSet<String>) {
    match b {
        LBody::Raw(ns) => {
            for n in ns {
                names_in_node(n, out);
            }
        }
        LBody::Done(ss) => {
            for s in ss {
                names_in_stmt(s, out);
            }
        }
    }
}

fn collect_unit_names(acc: &UnitAcc) -> HashSet<String> {
    let mut out = HashSet::new();
    let singles = std::iter::once(&acc.name)
        .chain(&acc.params)
        .chain(&acc.save)
        .chain(&acc.externals)
        .chain(acc.label_assigns.keys());
    for n in singles {
        note_name(n, &mut out);
    }
    for (_, n, dims, _) in &acc.decls_ty {
        note_name(n, &mut out);
        for d in dims.iter().flatten() {
            if let Some(e) = &d.lo {
                names_in_expr(e, &mut out);
            }
            if let Some(e) = &d.hi {
                names_in_expr(e, &mut out);
            }
        }
    }
    for (n, dims, _) in &acc.dimension {
        note_name(n, &mut out);
        for d in dims {
            if let Some(e) = &d.lo {
                names_in_expr(e, &mut out);
            }
            if let Some(e) = &d.hi {
                names_in_expr(e, &mut out);
            }
        }
    }
    for ((b, members), _) in &acc.commons {
        note_name(b, &mut out);
        for (n, _) in members {
            note_name(n, &mut out);
        }
    }
    for (n, e, _) in &acc.params_c {
        note_name(n, &mut out);
        names_in_expr(e, &mut out);
    }
    for (g, _) in &acc.equiv {
        for d in g {
            names_in_desig(d, &mut out);
        }
    }
    for ((targets, vals), _) in &acc.data {
        for d in targets {
            names_in_desig(d, &mut out);
        }
        for (_, e) in vals {
            names_in_expr(e, &mut out);
        }
    }
    for n in &acc.body {
        names_in_node(n, &mut out);
    }
    out
}

/// True if the node list (not descending into already-legalized loop
/// bodies) still contains a symbolic branch.
fn has_branch(nodes: &[LNode]) -> bool {
    nodes.iter().any(|n| match &n.node {
        Node::Br(_) => true,
        Node::If { arms, els, .. } => {
            arms.iter().any(|(_, b)| has_branch(b)) || has_branch(els)
        }
        Node::Crit { body, .. } => has_branch(body),
        _ => false,
    })
}

fn has_target_label(nodes: &[LNode], targets: &HashSet<u32>) -> bool {
    nodes.iter().any(|n| {
        n.label.is_some_and(|l| targets.contains(&l))
            || match &n.node {
                Node::If { arms, els, .. } => {
                    arms.iter().any(|(_, b)| has_target_label(b, targets))
                        || has_target_label(els, targets)
                }
                Node::Crit { body, .. } => has_target_label(body, targets),
                _ => false,
            }
    })
}

fn collect_targets(
    nodes: &[LNode],
    la: &HashMap<String, Vec<u32>>,
    out: &mut HashSet<u32>,
) {
    for n in nodes {
        match &n.node {
            Node::Br(b) => match b {
                Branch::Goto(l) => {
                    out.insert(*l);
                }
                Branch::CGoto(ls, _) => out.extend(ls.iter().copied()),
                Branch::AGoto(v, ls) => {
                    if ls.is_empty() {
                        if let Some(xs) = la.get(v) {
                            out.extend(xs.iter().copied());
                        }
                    } else {
                        out.extend(ls.iter().copied());
                    }
                }
                Branch::Arith(_, a, b, c) => {
                    out.insert(*a);
                    out.insert(*b);
                    out.insert(*c);
                }
            },
            Node::If { arms, els, .. } => {
                for (_, b) in arms {
                    collect_targets(b, la, out);
                }
                collect_targets(els, la, out);
            }
            Node::Crit { body, .. } => collect_targets(body, la, out),
            _ => {}
        }
    }
}

/// Rewrites depth-0 `GOTO target` (through IF/CRITICAL, not into nested
/// loops) into CYCLE or EXIT.
fn rewrite_goto(nodes: &mut [LNode], target: u32, to_exit: bool) {
    for n in nodes {
        match &mut n.node {
            Node::Br(Branch::Goto(l)) if *l == target => {
                let line = n.line;
                n.node = Node::St(if to_exit {
                    Stmt::Exit(sp(line))
                } else {
                    Stmt::Cycle(sp(line))
                });
            }
            Node::If { arms, els, .. } => {
                for (_, b) in arms.iter_mut() {
                    rewrite_goto(b, target, to_exit);
                }
                rewrite_goto(els, target, to_exit);
            }
            Node::Crit { body, .. } => rewrite_goto(body, target, to_exit),
            _ => {}
        }
    }
}

/// When a loop body becomes a state machine, its depth-0 EXIT/CYCLE would
/// bind to the machine's DO WHILE instead of the real loop. Compensate:
/// EXIT -> set the escape flag then leave the machine; CYCLE -> just leave
/// the machine (the real loop then iterates normally).
fn compensate(nodes: Vec<LNode>, flag: &str) -> Vec<LNode> {
    let mut out = Vec::with_capacity(nodes.len());
    for mut n in nodes {
        match n.node {
            Node::St(Stmt::Exit(s)) => {
                out.push(LNode {
                    label: n.label,
                    line: n.line,
                    node: Node::St(seti(flag, 1, s.line)),
                });
                out.push(LNode { label: None, line: n.line, node: Node::St(Stmt::Exit(s)) });
            }
            Node::St(Stmt::Cycle(s)) => {
                out.push(LNode { label: n.label, line: n.line, node: Node::St(Stmt::Exit(s)) });
            }
            Node::If { arms, els, line } => {
                let arms = arms
                    .into_iter()
                    .map(|(c, b)| (c, compensate(b, flag)))
                    .collect();
                let els = compensate(els, flag);
                n.node = Node::If { arms, els, line };
                out.push(n);
            }
            Node::Crit { name, body, line } => {
                n.node = Node::Crit { name, body: compensate(body, flag), line };
                out.push(n);
            }
            other => {
                n.node = other;
                out.push(n);
            }
        }
    }
    out
}

#[allow(clippy::large_enum_variant)]
enum FlatItem {
    Label(u32),
    St(Stmt),
    // Branch items carry the source line of the original GO TO / IF so
    // unresolved-label diagnostics point at the jump, not the region.
    Go(u32, u32),
    Cond(Expr, u32, u32),
    CG(Vec<u32>, Expr, u32),
    AG(String, Vec<u32>, u32),
    Ar(Expr, u32, u32, u32, u32),
}

enum Term {
    Fall,
    Go(u32),
    Cond(Expr, u32),
    CG(Vec<u32>, Expr),
    AG(String, Vec<u32>),
    Ar(Expr, u32, u32, u32),
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
    format_labels: &'a HashSet<u32>,
    all_labels: &'a HashSet<u32>,
    label_assigns: &'a HashMap<String, Vec<u32>>,
    tmp: TmpGen,
    extra: Vec<(TypeSpec, String)>,
    synth: u32,
}

impl Lg<'_> {
    fn fresh_int(&mut self, base: &str) -> String {
        let n = self.tmp.fresh(base);
        self.extra.push((TypeSpec::Integer, n.clone()));
        n
    }

    fn fresh_real(&mut self, base: &str) -> String {
        let n = self.tmp.fresh(base);
        self.extra.push((TypeSpec::Real8, n.clone()));
        n
    }

    fn synth_label(&mut self) -> u32 {
        self.synth += 1;
        self.synth
    }

    fn legalize_top(&mut self, mut body: Vec<LNode>) -> Vec<Stmt> {
        self.legalize_children(&mut body);
        if !has_branch(&body) {
            return self.assemble(body);
        }
        let line = body.first().map(|n| n.line).unwrap_or(1);
        self.machine(body, line)
    }

    /// Bottom-up: legalize every nested loop body, applying the
    /// GOTO->EXIT rewrite for jumps to the label right after the loop.
    fn legalize_children(&mut self, nodes: &mut [LNode]) {
        for i in 0..nodes.len() {
            let next_label = nodes.get(i + 1).and_then(|x| x.label);
            match &mut nodes[i].node {
                Node::Do { body, .. } | Node::DoW { body, .. } => {
                    if let LBody::Raw(raw) = body {
                        let mut raw = std::mem::take(raw);
                        if let Some(xl) = next_label {
                            rewrite_goto(&mut raw, xl, true);
                        }
                        let stmts = self.legalize_loop_body(raw);
                        *body = LBody::Done(stmts);
                    }
                }
                Node::If { arms, els, .. } => {
                    for (_, b) in arms.iter_mut() {
                        self.legalize_children(b);
                    }
                    self.legalize_children(els);
                }
                Node::Crit { body, .. } => self.legalize_children(body),
                _ => {}
            }
        }
    }

    fn legalize_loop_body(&mut self, mut raw: Vec<LNode>) -> Vec<Stmt> {
        // `GOTO <terminal CONTINUE>` is CYCLE.
        let term = raw.last().and_then(|n| {
            if matches!(n.node, Node::St(Stmt::Continue(_))) {
                n.label
            } else {
                None
            }
        });
        if let Some(l) = term {
            rewrite_goto(&mut raw, l, false);
        }
        self.legalize_children(&mut raw);
        if !has_branch(&raw) {
            return self.assemble(raw);
        }
        let line = raw.first().map(|n| n.line).unwrap_or(1);
        let flag = self.fresh_int("go_x");
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

    fn assemble(&mut self, nodes: Vec<LNode>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            let line = n.line;
            out.push(match n.node {
                Node::St(s) => s,
                // Only reachable after a diagnostic was already issued.
                Node::Br(_) => Stmt::Continue(sp(line)),
                Node::Do { var, start, end, step, omp, body, line } => Stmt::Do {
                    var,
                    start,
                    end,
                    step,
                    body: self.done(body),
                    omp,
                    span: sp(line),
                },
                Node::DoW { cond, body, line } => {
                    Stmt::DoWhile { cond, body: self.done(body), span: sp(line) }
                }
                Node::If { arms, els, line } => Stmt::If {
                    arms: arms.into_iter().map(|(c, b)| (c, self.assemble(b))).collect(),
                    else_body: self.assemble(els),
                    span: sp(line),
                },
                Node::Crit { name, body, line } => {
                    Stmt::Critical { name, body: self.assemble(body), span: sp(line) }
                }
            });
        }
        out
    }

    fn done(&mut self, b: LBody) -> Vec<Stmt> {
        match b {
            LBody::Done(s) => s,
            LBody::Raw(ns) => self.assemble(ns),
        }
    }

    fn flatten(&mut self, nodes: Vec<LNode>, targets: &HashSet<u32>, out: &mut Vec<FlatItem>) {
        for n in nodes {
            if let Some(l) = n.label {
                out.push(FlatItem::Label(l));
            }
            let line = n.line;
            match n.node {
                Node::Br(b) => out.push(match b {
                    Branch::Goto(l) => FlatItem::Go(l, line),
                    Branch::CGoto(ls, e) => FlatItem::CG(ls, e, line),
                    Branch::AGoto(v, ls) => FlatItem::AG(v, ls, line),
                    Branch::Arith(e, a, b, c) => FlatItem::Ar(e, a, b, c, line),
                }),
                Node::If { arms, els, line } => {
                    let needs = arms.iter().any(|(_, b)| has_branch(b) || has_target_label(b, targets))
                        || has_branch(&els)
                        || has_target_label(&els, targets);
                    if !needs {
                        let s = self
                            .assemble(vec![LNode { label: None, line, node: Node::If { arms, els, line } }])
                            .pop()
                            .expect("one node in, one out");
                        out.push(FlatItem::St(s));
                    } else if arms.len() == 1
                        && els.is_empty()
                        && arms[0].1.len() == 1
                        && arms[0].1[0].label.is_none()
                        && matches!(arms[0].1[0].node, Node::Br(Branch::Goto(_)))
                    {
                        let (c, mut b) = arms.into_iter().next().expect("one arm");
                        let l = match b.pop().expect("one node").node {
                            Node::Br(Branch::Goto(l)) => l,
                            _ => unreachable!("matched above"),
                        };
                        out.push(FlatItem::Cond(c, l, line));
                    } else {
                        // Decompose into conditional jumps over synthetic labels.
                        let endl = self.synth_label();
                        let armls: Vec<u32> = arms.iter().map(|_| self.synth_label()).collect();
                        for (k, (c, _)) in arms.iter().enumerate() {
                            out.push(FlatItem::Cond(c.clone(), armls[k], line));
                        }
                        let elsel = if els.is_empty() { endl } else { self.synth_label() };
                        out.push(FlatItem::Go(elsel, line));
                        for (k, (_, b)) in arms.into_iter().enumerate() {
                            out.push(FlatItem::Label(armls[k]));
                            self.flatten(b, targets, out);
                            out.push(FlatItem::Go(endl, line));
                        }
                        if !els.is_empty() {
                            out.push(FlatItem::Label(elsel));
                            self.flatten(els, targets, out);
                        }
                        out.push(FlatItem::Label(endl));
                    }
                }
                Node::Crit { name, body, line } => {
                    if has_branch(&body) {
                        self.diags.error_hint(
                            self.file,
                            line,
                            "branch out of a CRITICAL section cannot be legalized",
                            "restructure the critical section without GO TO",
                        );
                    }
                    let body = self.assemble(body);
                    out.push(FlatItem::St(Stmt::Critical { name, body, span: sp(line) }));
                }
                other @ (Node::St(_) | Node::Do { .. } | Node::DoW { .. }) => {
                    let s = self
                        .assemble(vec![LNode { label: None, line, node: other }])
                        .pop()
                        .expect("one node in, one out");
                    out.push(FlatItem::St(s));
                }
            }
        }
    }

    fn resolve(&mut self, l: u32, map: &HashMap<u32, usize>, line: u32) -> i64 {
        if let Some(b) = map.get(&l) {
            (*b + 1) as i64
        } else {
            if self.format_labels.contains(&l) {
                self.diags.error_hint(
                    self.file,
                    line,
                    format!("branch targets FORMAT statement label {l}"),
                    "a GO TO must target an executable statement",
                );
            } else if self.all_labels.contains(&l) {
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
    }

    /// Linearizes a region with irreducible branches into basic blocks
    /// dispatched by a state variable inside `DO WHILE (s /= 0)`.
    fn machine(&mut self, nodes: Vec<LNode>, line: u32) -> Vec<Stmt> {
        let mut targets = HashSet::new();
        collect_targets(&nodes, self.label_assigns, &mut targets);
        let mut items = Vec::new();
        self.flatten(nodes, &targets, &mut items);

        let mut blocks: Vec<Blk> = Vec::new();
        let mut label_block: HashMap<u32, usize> = HashMap::new();
        let mut cur = Blk { stmts: Vec::new(), term: Term::Fall, line };
        for item in items {
            match item {
                FlatItem::Label(l) => {
                    if !cur.stmts.is_empty() {
                        blocks.push(std::mem::replace(
                            &mut cur,
                            Blk { stmts: Vec::new(), term: Term::Fall, line },
                        ));
                    }
                    label_block.insert(l, blocks.len());
                }
                FlatItem::St(s) => cur.stmts.push(s),
                FlatItem::Go(l, tl) => {
                    cur.term = Term::Go(l);
                    cur.line = tl;
                    blocks.push(std::mem::replace(
                        &mut cur,
                        Blk { stmts: Vec::new(), term: Term::Fall, line },
                    ));
                }
                FlatItem::Cond(c, l, tl) => {
                    cur.term = Term::Cond(c, l);
                    cur.line = tl;
                    blocks.push(std::mem::replace(
                        &mut cur,
                        Blk { stmts: Vec::new(), term: Term::Fall, line },
                    ));
                }
                FlatItem::CG(ls, e, tl) => {
                    cur.term = Term::CG(ls, e);
                    cur.line = tl;
                    blocks.push(std::mem::replace(
                        &mut cur,
                        Blk { stmts: Vec::new(), term: Term::Fall, line },
                    ));
                }
                FlatItem::AG(v, ls, tl) => {
                    cur.term = Term::AG(v, ls);
                    cur.line = tl;
                    blocks.push(std::mem::replace(
                        &mut cur,
                        Blk { stmts: Vec::new(), term: Term::Fall, line },
                    ));
                }
                FlatItem::Ar(e, a, b, c, tl) => {
                    cur.term = Term::Ar(e, a, b, c);
                    cur.line = tl;
                    blocks.push(std::mem::replace(
                        &mut cur,
                        Blk { stmts: Vec::new(), term: Term::Fall, line },
                    ));
                }
            }
        }
        blocks.push(cur);

        let sv = self.fresh_int("go_s");
        let n = blocks.len();
        let mut arms = Vec::with_capacity(n);
        for (i, mut blk) in blocks.into_iter().enumerate() {
            let next = if i + 1 < n { (i + 2) as i64 } else { 0 };
            let bl = blk.line;
            match std::mem::replace(&mut blk.term, Term::Fall) {
                Term::Fall => blk.stmts.push(seti(&sv, next, bl)),
                Term::Go(l) => {
                    let st = self.resolve(l, &label_block, bl);
                    blk.stmts.push(seti(&sv, st, bl));
                }
                Term::Cond(c, l) => {
                    let st = self.resolve(l, &label_block, bl);
                    blk.stmts.push(Stmt::If {
                        arms: vec![(c, vec![seti(&sv, st, bl)])],
                        else_body: vec![seti(&sv, next, bl)],
                        span: sp(bl),
                    });
                }
                Term::CG(ls, e) => {
                    let t = self.fresh_int("go_t");
                    blk.stmts.push(sete(&t, e, bl));
                    let mut carms = Vec::with_capacity(ls.len());
                    for (k, l) in ls.iter().enumerate() {
                        let st = self.resolve(*l, &label_block, bl);
                        carms.push((eqi(&t, (k + 1) as i64, bl), vec![seti(&sv, st, bl)]));
                    }
                    blk.stmts.push(Stmt::If {
                        arms: carms,
                        // Out-of-range selector falls through (F77 semantics).
                        else_body: vec![seti(&sv, next, bl)],
                        span: sp(bl),
                    });
                }
                Term::AG(v, ls) => {
                    let ls = if ls.is_empty() {
                        self.label_assigns.get(&v).cloned().unwrap_or_default()
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
                    let mut carms = Vec::with_capacity(ls.len());
                    for l in &ls {
                        let st = self.resolve(*l, &label_block, bl);
                        carms.push((
                            Expr::Bin(
                                Bin::Eq,
                                Box::new(evar(&v, bl)),
                                Box::new(Expr::Int(i64::from(*l))),
                            ),
                            vec![seti(&sv, st, bl)],
                        ));
                    }
                    blk.stmts.push(Stmt::If {
                        arms: carms,
                        else_body: vec![seti(&sv, next, bl)],
                        span: sp(bl),
                    });
                }
                Term::Ar(e, l1, l2, l3) => {
                    let t = self.fresh_real("go_t");
                    blk.stmts.push(sete(&t, e, bl));
                    let s1 = self.resolve(l1, &label_block, bl);
                    let s2 = self.resolve(l2, &label_block, bl);
                    let s3 = self.resolve(l3, &label_block, bl);
                    blk.stmts.push(Stmt::If {
                        arms: vec![
                            (
                                Expr::Bin(
                                    Bin::Lt,
                                    Box::new(evar(&t, bl)),
                                    Box::new(Expr::Real(0.0)),
                                ),
                                vec![seti(&sv, s1, bl)],
                            ),
                            (
                                Expr::Bin(
                                    Bin::Eq,
                                    Box::new(evar(&t, bl)),
                                    Box::new(Expr::Real(0.0)),
                                ),
                                vec![seti(&sv, s2, bl)],
                            ),
                        ],
                        else_body: vec![seti(&sv, s3, bl)],
                        span: sp(bl),
                    });
                }
            }
            arms.push((eqi(&sv, (i + 1) as i64, blk.line), blk.stmts));
        }

        vec![
            seti(&sv, 1, line),
            Stmt::DoWhile {
                cond: Expr::Bin(Bin::Ne, Box::new(evar(&sv, line)), Box::new(Expr::Int(0))),
                body: vec![Stmt::If { arms, else_body: vec![], span: sp(line) }],
                span: sp(line),
            },
        ]
    }
}

/// Legalizes a unit's body in place, appending declarations for any
/// synthesized state variables and temporaries.
fn legalize_unit(acc: &mut UnitAcc, diags: &mut Diagnostics) -> Vec<Stmt> {
    let used = collect_unit_names(acc);
    let body = std::mem::take(&mut acc.body);
    let mut lg = Lg {
        file: acc.file,
        diags,
        format_labels: &acc.format_labels,
        all_labels: &acc.labels,
        label_assigns: &acc.label_assigns,
        tmp: TmpGen { used, n: 0 },
        extra: Vec::new(),
        synth: 1_000_000,
    };
    let stmts = lg.legalize_top(body);
    let extra = std::mem::take(&mut lg.extra);
    for (ts, n) in extra {
        acc.decls_ty.push((ts, n, None, acc.line));
    }
    stmts
}

// ---------------------------------------------------------------------------
// Phase 6: unit finalization — IMPLICIT typing, PARAMETER folding,
// EQUIVALENCE aliasing, DATA expansion, synthesized declarations — and the
// multi-file ProgramSet entry point.
// ---------------------------------------------------------------------------

/// Folds a constant expression to a literal, resolving named constants.
fn cfold(e: &Expr, consts: &HashMap<String, Expr>) -> Option<Expr> {
    fn num(e: &Expr) -> Option<f64> {
        match e {
            Expr::Int(i) => Some(*i as f64),
            Expr::Real(r) => Some(*r),
            _ => None,
        }
    }
    Some(match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) => e.clone(),
        Expr::Name(d) => {
            if d.parts.len() == 1 && d.parts[0].subs.is_empty() {
                consts.get(&d.parts[0].name)?.clone()
            } else {
                return None;
            }
        }
        Expr::Neg(a) => match cfold(a, consts)? {
            Expr::Int(i) => Expr::Int(i.wrapping_neg()),
            Expr::Real(r) => Expr::Real(-r),
            _ => return None,
        },
        Expr::Not(a) => match cfold(a, consts)? {
            Expr::Logical(b) => Expr::Logical(!b),
            _ => return None,
        },
        Expr::Bin(op, a, b) => {
            let a = cfold(a, consts)?;
            let b = cfold(b, consts)?;
            match (op, &a, &b) {
                (Bin::Add, Expr::Int(x), Expr::Int(y)) => Expr::Int(x.wrapping_add(*y)),
                (Bin::Sub, Expr::Int(x), Expr::Int(y)) => Expr::Int(x.wrapping_sub(*y)),
                (Bin::Mul, Expr::Int(x), Expr::Int(y)) => Expr::Int(x.wrapping_mul(*y)),
                (Bin::Div, Expr::Int(x), Expr::Int(y)) if *y != 0 => Expr::Int(x / y),
                (Bin::Pow, Expr::Int(x), Expr::Int(y)) if (0..=62).contains(y) => {
                    Expr::Int(x.checked_pow(*y as u32)?)
                }
                (Bin::Add, _, _) => Expr::Real(num(&a)? + num(&b)?),
                (Bin::Sub, _, _) => Expr::Real(num(&a)? - num(&b)?),
                (Bin::Mul, _, _) => Expr::Real(num(&a)? * num(&b)?),
                (Bin::Div, _, _) => Expr::Real(num(&a)? / num(&b)?),
                (Bin::Pow, _, _) => Expr::Real(num(&a)?.powf(num(&b)?)),
                (Bin::Eq, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(x == y),
                (Bin::Ne, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(x != y),
                (Bin::Eq, _, _) => Expr::Logical(num(&a)? == num(&b)?),
                (Bin::Ne, _, _) => Expr::Logical(num(&a)? != num(&b)?),
                (Bin::Lt, _, _) => Expr::Logical(num(&a)? < num(&b)?),
                (Bin::Le, _, _) => Expr::Logical(num(&a)? <= num(&b)?),
                (Bin::Gt, _, _) => Expr::Logical(num(&a)? > num(&b)?),
                (Bin::Ge, _, _) => Expr::Logical(num(&a)? >= num(&b)?),
                (Bin::And, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(*x && *y),
                (Bin::Or, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(*x || *y),
                _ => return None,
            }
        }
    })
}

/// Folded `(lo, hi)` bounds of each dimension; `None` if non-constant.
fn fold_extents(
    dims: &[DimDecl],
    consts: &HashMap<String, Expr>,
) -> Option<Vec<(i64, i64)>> {
    let mut out = Vec::with_capacity(dims.len());
    for d in dims {
        if d.deferred {
            return None;
        }
        let lo = match &d.lo {
            Some(e) => match cfold(e, consts)? {
                Expr::Int(i) => i,
                _ => return None,
            },
            None => 1,
        };
        let hi = match cfold(d.hi.as_ref()?, consts)? {
            Expr::Int(i) => i,
            _ => return None,
        };
        out.push((lo, hi));
    }
    Some(out)
}

fn extent_count(ex: &[(i64, i64)]) -> i64 {
    ex.iter().map(|(lo, hi)| (hi - lo + 1).max(0)).product()
}

/// The per-unit implicit typing map, one slot per letter a..z.
fn build_imap(acc: &UnitAcc) -> [Option<TypeSpec>; 26] {
    let mut m: [Option<TypeSpec>; 26] = Default::default();
    if !acc.implicit_none {
        for (i, slot) in m.iter_mut().enumerate() {
            let c = (b'a' + i as u8) as char;
            *slot = Some(if ('i'..='n').contains(&c) { TypeSpec::Integer } else { TypeSpec::Real });
        }
    }
    for (ts, ranges) in &acc.implicit {
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

// --- EQUIVALENCE renaming over the legalized body ---------------------------

fn rename_desig(d: &mut Desig, map: &HashMap<String, String>) {
    if let Some(nn) = map.get(&d.parts[0].name) {
        d.parts[0].name = nn.clone();
    }
    for p in &mut d.parts {
        for s in &mut p.subs {
            rename_expr(s, map);
        }
    }
}

fn rename_expr(e: &mut Expr, map: &HashMap<String, String>) {
    match e {
        Expr::Name(d) => rename_desig(d, map),
        Expr::Bin(_, a, b) => {
            rename_expr(a, map);
            rename_expr(b, map);
        }
        Expr::Neg(a) | Expr::Not(a) => rename_expr(a, map),
        _ => {}
    }
}

fn rename_stmt(s: &mut Stmt, map: &HashMap<String, String>) {
    match s {
        Stmt::Assign { target, value, .. } => {
            rename_desig(target, map);
            rename_expr(value, map);
        }
        Stmt::If { arms, else_body, .. } => {
            for (c, b) in arms {
                rename_expr(c, map);
                for s in b {
                    rename_stmt(s, map);
                }
            }
            for s in else_body {
                rename_stmt(s, map);
            }
        }
        Stmt::Do { var, start, end, step, body, .. } => {
            if let Some(nn) = map.get(var) {
                *var = nn.clone();
            }
            rename_expr(start, map);
            rename_expr(end, map);
            if let Some(e) = step {
                rename_expr(e, map);
            }
            for s in body {
                rename_stmt(s, map);
            }
        }
        Stmt::DoWhile { cond, body, .. } => {
            rename_expr(cond, map);
            for s in body {
                rename_stmt(s, map);
            }
        }
        Stmt::Call { args, .. } => {
            for a in args {
                rename_expr(a, map);
            }
        }
        Stmt::Critical { body, .. } => {
            for s in body {
                rename_stmt(s, map);
            }
        }
        Stmt::Print { args, .. } => {
            for a in args {
                rename_expr(a, map);
            }
        }
        _ => {}
    }
}

// --- bare-name collection for implicit typing -------------------------------

fn bare_expr<'a>(e: &'a Expr, out: &mut HashSet<&'a str>) {
    match e {
        Expr::Name(d) => {
            if d.parts.len() == 1 && d.parts[0].subs.is_empty() {
                out.insert(&d.parts[0].name);
            }
            for p in &d.parts {
                for s in &p.subs {
                    bare_expr(s, out);
                }
            }
        }
        Expr::Bin(_, a, b) => {
            bare_expr(a, out);
            bare_expr(b, out);
        }
        Expr::Neg(a) | Expr::Not(a) => bare_expr(a, out),
        _ => {}
    }
}

fn bare_stmt<'a>(s: &'a Stmt, out: &mut HashSet<&'a str>) {
    match s {
        Stmt::Assign { target, value, .. } => {
            out.insert(&target.parts[0].name);
            for p in &target.parts {
                for e in &p.subs {
                    bare_expr(e, out);
                }
            }
            bare_expr(value, out);
        }
        Stmt::If { arms, else_body, .. } => {
            for (c, b) in arms {
                bare_expr(c, out);
                for s in b {
                    bare_stmt(s, out);
                }
            }
            for s in else_body {
                bare_stmt(s, out);
            }
        }
        Stmt::Do { var, start, end, step, body, .. } => {
            out.insert(var);
            bare_expr(start, out);
            bare_expr(end, out);
            if let Some(e) = step {
                bare_expr(e, out);
            }
            for s in body {
                bare_stmt(s, out);
            }
        }
        Stmt::DoWhile { cond, body, .. } => {
            bare_expr(cond, out);
            for s in body {
                bare_stmt(s, out);
            }
        }
        Stmt::Call { args, .. } => {
            for a in args {
                bare_expr(a, out);
            }
        }
        Stmt::Critical { body, .. } => {
            for s in body {
                bare_stmt(s, out);
            }
        }
        Stmt::Print { args, .. } => {
            for a in args {
                bare_expr(a, out);
            }
        }
        _ => {}
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

/// Finalizes one accumulated unit into a free-form AST `Unit`: legalizes
/// control flow, applies IMPLICIT typing, folds PARAMETERs, resolves
/// EQUIVALENCE aliases, expands DATA and synthesizes missing declarations.
fn finalize_unit(
    mut acc: UnitAcc,
    unit_names: &HashSet<String>,
    diags: &mut Diagnostics,
) -> Unit {
    let file = acc.file;
    let mut body = legalize_unit(&mut acc, diags);
    let imap = build_imap(&acc);

    let mut recs: HashMap<String, Rec> = HashMap::new();

    for (ts, n, dims, line) in std::mem::take(&mut acc.decls_ty) {
        let r = ent(&mut recs, &n, line);
        if r.ty.is_some() {
            diags.error(file, line, format!("`{n}` is declared more than once"));
        } else {
            r.ty = Some(ts);
        }
        if let Some(d) = dims {
            if r.dims.is_some() {
                diags.error(file, line, format!("`{n}` is dimensioned more than once"));
            } else {
                r.dims = Some(d);
            }
        }
    }
    for (n, d, line) in std::mem::take(&mut acc.dimension) {
        let r = ent(&mut recs, &n, line);
        if r.dims.is_some() {
            diags.error(file, line, format!("`{n}` is dimensioned more than once"));
        } else {
            r.dims = Some(d);
        }
    }

    let mut commons_out: Vec<(String, Vec<String>)> = Vec::new();
    for ((b, members), line) in std::mem::take(&mut acc.commons) {
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
    for (n, e, line) in &acc.params_c {
        let Some(lit) = cfold(e, &consts) else {
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
            entities: vec![Entity { name: n.clone(), dims: None, init: Some(lit), init_list: None }],
            span: sp(*line),
        });
    }

    // EQUIVALENCE: merge groups transitively, then alias whole variables.
    let mut groups: Vec<(Vec<String>, u32)> = Vec::new();
    for (g, line) in &acc.equiv {
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
        let (inter, keep): (Vec<_>, Vec<_>) = groups
            .drain(..)
            .partition(|(g, _)| g.iter().any(|x| names.contains(x)));
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
            if acc.save.contains(m) {
                acc.save.insert(canon.clone());
            }
        }
    }
    if !ren.is_empty() {
        for s in &mut body {
            rename_stmt(s, &ren);
        }
        for ((targets, _), _) in &mut acc.data {
            for d in targets {
                rename_desig(d, &ren);
            }
        }
    }

    // DATA: fold values, map targets onto scalars / whole arrays /
    // constant-subscript elements, force SAVE on initialized locals.
    let mut inits: HashMap<String, InitAcc> = HashMap::new();
    for ((targets, vals), line) in std::mem::take(&mut acc.data) {
        let mut flat: Vec<Expr> = Vec::new();
        let mut ok = true;
        for (rep, e) in &vals {
            match cfold(e, &consts) {
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
            if acc.params.iter().any(|p| p == n) {
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
                    match cfold(s, &consts) {
                        Some(Expr::Int(v)) if (*lo..=*hi).contains(&v) => {
                            idx += (v - lo) * stride;
                            stride *= hi - lo + 1;
                        }
                        Some(Expr::Int(_)) => {
                            diags.error(
                                file,
                                line,
                                format!("`{n}`: DATA subscript out of bounds"),
                            );
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
                format!(
                    "DATA statement has {} value(s) for {} element(s)",
                    flat.len(),
                    total
                ),
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
    let mut used = HashSet::new();
    for s in &body {
        bare_stmt(s, &mut used);
    }
    let mut rest: Vec<&str> = used
        .into_iter()
        .filter(|n| {
            !recs.contains_key(*n)
                && !consts.contains_key(*n)
                && !acc.params.iter().any(|p| p == n)
                && *n != acc.name
                && !acc.externals.contains(*n)
                && !unit_names.contains(*n)
                && crate::intrinsics::Intr::from_name(n).is_none()
        })
        .collect();
    rest.sort_unstable();
    for n in acc.params.iter().map(String::as_str).chain(rest) {
        if recs.contains_key(n) {
            continue;
        }
        match imp_ty(&imap, n) {
            Some(t) => {
                let r = ent(&mut recs, n, acc.line);
                r.ty = Some(t);
            }
            None => diags.error_hint(
                file,
                acc.line,
                format!("`{n}` has no explicit type and IMPLICIT NONE is in effect"),
                "add a type declaration",
            ),
        }
    }

    // Untyped FUNCTION heads take their result type from an in-body
    // declaration or the implicit map; the placeholder decl is dropped.
    let mut kind = acc.kind.clone();
    if matches!(kind, UnitKind::Function(_)) {
        if acc.untyped_function {
            let ty =
                recs.get(&acc.name).and_then(|r| r.ty.clone()).or_else(|| imp_ty(&imap, &acc.name));
            match ty {
                Some(t) => kind = UnitKind::Function(t),
                None => diags.error_hint(
                    file,
                    acc.line,
                    format!("function `{}` has no result type", acc.name),
                    "declare the function name or give it an implicit type",
                ),
            }
        }
        if let Some(r) = recs.get_mut(&acc.name) {
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
        let saved = (acc.save_all || acc.save.contains(&n) || inits.contains_key(&n))
            && !r.in_common
            && !acc.params.contains(&n);
        let (init, init_list) = match inits.remove(&n) {
            Some(InitAcc::Scalar(v)) => (v, None),
            Some(InitAcc::Arr(v)) => (
                None,
                Some(v.into_iter().map(|o| o.unwrap_or_else(|| zero_of(&ty))).collect()),
            ),
            None => (None, None),
        };
        decls.push(Decl {
            spec: ty,
            attrs: Attrs { dims: None, allocatable: false, save: saved, parameter: false },
            entities: vec![Entity { name: n, dims: r.dims, init, init_list }],
            span: sp(r.line.max(1)),
        });
    }

    Unit {
        kind,
        name: acc.name,
        params: acc.params,
        uses: Vec::new(),
        decls,
        commons: commons_out,
        body,
        span: sp(acc.line),
    }
}

// ---------------------------------------------------------------------------
// ProgramSet: the multi-file entry point.
// ---------------------------------------------------------------------------

/// A multi-file compilation: fixed-form F77 sources are lowered through the
/// legacy front end, free-form sources go through [`crate::parse`]; the
/// result is one combined [`Ast`] in which COMMON blocks and calls resolve
/// across every file.
pub struct ProgramSet {
    /// The combined AST, ready for [`crate::sema`].
    pub ast: Ast,
    /// Warnings accumulated by the fixed-form front end (empty when all
    /// sources are free-form and clean).
    pub warnings: Diagnostics,
}

impl ProgramSet {
    /// Parses every source (auto-detecting fixed vs. free form per file)
    /// and combines them. Fixed-form errors do not stop at the first
    /// problem: the returned [`CompileError::Fixed`] carries the full
    /// accumulated diagnostics for all files.
    pub fn from_sources(sources: &[&str]) -> Result<ProgramSet, CompileError> {
        let fixed: Vec<bool> = sources.iter().map(|s| is_fixed_form(s)).collect();
        Self::from_detected(sources, &fixed)
    }

    /// [`Self::from_sources`] for a caller that has already detected each
    /// source's form (`fixed_form[k]` is `is_fixed_form(sources[k])`).
    pub(crate) fn from_detected(
        sources: &[&str],
        fixed_form: &[bool],
    ) -> Result<ProgramSet, CompileError> {
        let mut diags = Diagnostics::default();
        let mut ast = Ast::default();
        let mut fixed: Vec<(usize, Vec<UnitAcc>)> = Vec::new();
        for (k, src) in sources.iter().enumerate() {
            if fixed_form[k] {
                let accs = lower_source(src, k, &mut diags);
                fixed.push((k, accs));
            } else {
                match crate::parse::parse(src) {
                    Ok(a) => ast.modules.extend(a.modules),
                    Err(e) => diags.absorb(k, &e),
                }
            }
        }
        // Unit names must be known globally before finalization so that
        // cross-file calls are not mistaken for implicitly-typed locals.
        let mut unit_names: HashSet<String> = HashSet::new();
        for m in &ast.modules {
            for u in &m.units {
                unit_names.insert(u.name.clone());
            }
        }
        for (_, accs) in &fixed {
            for a in accs {
                unit_names.insert(a.name.clone());
            }
        }
        for (k, accs) in fixed {
            let mut units = Vec::new();
            for acc in accs {
                units.push(finalize_unit(acc, &unit_names, &mut diags));
            }
            ast.modules.push(Module {
                name: format!("f77_file{k}"),
                uses: Vec::new(),
                typedefs: Vec::new(),
                decls: Vec::new(),
                threadprivate: Vec::new(),
                units,
                span: sp(1),
            });
        }
        if diags.has_errors() {
            return Err(CompileError::Fixed { diags });
        }
        Ok(ProgramSet { ast, warnings: diags })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ArgVal;
    use crate::service::Session;
    use crate::interp::{ExecMode, Val};

    fn run1(src: &str, unit: &str, args: &[ArgVal]) -> Option<Val> {
        let engine = Session::compile(&[src]).expect("compile");
        engine
            .run_tiered(unit, args, ExecMode::Serial, crate::engine::ExecTier::Vm)
            .expect("run")
            .result
    }

    #[test]
    fn detects_fixed_form() {
        assert!(is_fixed_form("      PROGRAM MAIN\n      END\n"));
        assert!(is_fixed_form("C comment\n      X = 1\n      END\n"));
        assert!(!is_fixed_form("module m\ncontains\nend module m\n"));
    }

    #[test]
    fn classic_common_data_do() {
        let src = "
C     CLASSIC FIXED-FORM KERNEL
      PROGRAM MAIN
      COMMON /BLK/ A(10), S
      INTEGER I
      DATA A /10*0.0/
      S = 0.0
      DO 10 I = 1, 10
         A(I) = I*2.0
   10 CONTINUE
      DO 20 I = 1, 10
         S = S + A(I)
   20 CONTINUE
      END
";
        let engine = Session::compile(&[src]).expect("compile");
        engine
            .run_tiered("main", &[], ExecMode::Serial, crate::engine::ExecTier::Vm)
            .expect("run");
        assert_eq!(engine.global_scalar("common blk::s"), Some(Val::F(110.0)));
    }

    #[test]
    fn goto_loop_becomes_state_machine() {
        let src = "
      REAL FUNCTION ACCUM(N)
      INTEGER N, I
      ACCUM = 0.0
      I = 0
   30 I = I + 1
      IF (I .GT. N) GOTO 40
      ACCUM = ACCUM + 1.5
      GOTO 30
   40 CONTINUE
      END
";
        assert_eq!(run1(src, "accum", &[ArgVal::I(5)]), Some(Val::F(7.5)));
    }

    #[test]
    fn computed_goto_dispatch() {
        let src = "
      INTEGER FUNCTION PICK(K)
      INTEGER K, R
      R = 0
      GOTO (110, 120, 130), K
      R = -1
      GOTO 140
  110 R = 11
      GOTO 140
  120 R = 22
      GOTO 140
  130 R = 33
  140 CONTINUE
      PICK = R
      END
";
        for (k, want) in [(1i64, 11i64), (2, 22), (3, 33), (7, -1)] {
            assert_eq!(run1(src, "pick", &[ArgVal::I(k)]), Some(Val::I(want)));
        }
    }

    #[test]
    fn arithmetic_if_three_way() {
        let src = "
      INTEGER FUNCTION SGN(X)
      REAL X
      IF (X) 1, 2, 3
    1 SGN = -1
      GOTO 4
    2 SGN = 0
      GOTO 4
    3 SGN = 1
    4 CONTINUE
      END
";
        for (x, want) in [(-2.5f64, -1i64), (0.0, 0), (9.0, 1)] {
            assert_eq!(run1(src, "sgn", &[ArgVal::F(x)]), Some(Val::I(want)));
        }
    }

    #[test]
    fn continuation_and_blank_insensitivity() {
        let src = "
      INTEGER FUNCTION TRICKY(N)
      IN TE GER N, K
      K = N +
     &    N +
     1    N
      DO10K=K,K
   10 CONTINUE
      TRICKY = K
      END
";
        assert_eq!(run1(src, "tricky", &[ArgVal::I(4)]), Some(Val::I(12)));
    }

    #[test]
    fn do10i_assignment_vs_loop() {
        // `DO10I = 1.5` is an assignment to DO10I; `DO 10 I = 1, 5` loops.
        let src = "
      REAL FUNCTION AMBIG(N)
      INTEGER N, I
      REAL DO10I
      DO10I = 1.5
      DO 10 I = 1, N
         DO10I = DO10I + 1.0
   10 CONTINUE
      AMBIG = DO10I
      END
";
        assert_eq!(run1(src, "ambig", &[ArgVal::I(3)]), Some(Val::F(4.5)));
    }

    #[test]
    fn multi_file_common_and_implicit_main() {
        let f1 = "
      SUBROUTINE SETUP(N)
      INTEGER N, I
      COMMON /SHARED/ V(8), TOTAL
      DO 10 I = 1, N
         V(I) = I * 1.0
   10 CONTINUE
      TOTAL = 0.0
      END
";
        let f2 = "
      COMMON /SHARED/ V(8), TOTAL
      INTEGER J
      CALL SETUP(8)
      DO 20 J = 1, 8
         TOTAL = TOTAL + V(J)
   20 CONTINUE
      END
";
        let engine = Session::compile(&[f1, f2]).expect("compile");
        engine
            .run_tiered("main", &[], ExecMode::Serial, crate::engine::ExecTier::Vm)
            .expect("run");
        assert_eq!(engine.global_scalar("common shared::total"), Some(Val::F(36.0)));
    }

    #[test]
    fn equivalence_exact_alias() {
        let src = "
      REAL FUNCTION EQV(X)
      REAL X, A, B
      EQUIVALENCE (A, B)
      A = X
      B = B + 1.0
      EQV = A
      END
";
        assert_eq!(run1(src, "eqv", &[ArgVal::F(2.0)]), Some(Val::F(3.0)));
    }

    #[test]
    fn implicit_typing_and_parameter() {
        let src = "
      FUNCTION SCALE(J)
      PARAMETER (FACTOR = 2.5)
      SCALE = J * FACTOR
      END
";
        // SCALE and FACTOR are implicitly REAL, J implicitly INTEGER.
        assert_eq!(run1(src, "scale", &[ArgVal::I(4)]), Some(Val::F(10.0)));
    }

    #[test]
    fn save_and_data_persist_across_calls() {
        let src = "
      INTEGER FUNCTION COUNTER()
      INTEGER C
      DATA C /100/
      C = C + 1
      COUNTER = C
      END
";
        let engine = Session::compile(&[src]).expect("compile");
        for want in [101i64, 102, 103] {
            let got = engine
                .run_tiered("counter", &[], ExecMode::Serial, crate::engine::ExecTier::Vm)
                .expect("run")
                .result;
            assert_eq!(got, Some(Val::I(want)));
        }
    }

    #[test]
    fn malformed_source_reports_every_error() {
        let src = "
      PROGRAM BAD
      INTEGER I
      GOTO 999
      I = )( + 1
      X = UNDEF(
      END
";
        let err = match Session::compile(&[src]) {
            Ok(_) => panic!("must fail"),
            Err(e) => e,
        };
        let msg = err.to_string();
        assert!(msg.contains("label 999 is not defined"), "{msg}");
        assert!(msg.contains("error"), "{msg}");
        match err {
            CompileError::Fixed { diags } => {
                assert!(diags.error_count() >= 2, "wanted multiple errors: {}", diags.render());
            }
            other => panic!("expected Fixed, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_fixed_printer() {
        let free = "
subroutine axpy(n, a, x, y)
  integer :: n, i
  real(8) :: a, x(n), y(n)
  !$omp parallel do
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end subroutine axpy
";
        let fixed = to_fixed_form(free).expect("print");
        assert!(is_fixed_form(&fixed));
        let (stmts, diags) = lex_fixed(&fixed);
        assert!(!diags.has_errors(), "{}", diags.render());
        assert!(stmts.lines().iter().any(|s| s.omp));
    }
}
