//! Fixed-form (FORTRAN 77) line assembly: punched cards → [`Lexed`].
//!
//! The only thing that differs between the two source forms is how
//! physical lines become logical statements. This module is that
//! difference for cards; everything after the [`Lexed`] it fills — the
//! statement parser, the nesting builder, GOTO legalization, IMPLICIT /
//! COMMON / EQUIVALENCE / DATA finalization, the diagnostics — is the one
//! front end both forms share ([`crate::parse`], DESIGN.md §8).
//!
//! * **Column rules** — cols 1–5 statement label, col 6 continuation,
//!   cols 7–72 statement text, col 73+ discarded (with a warning when
//!   non-blank); `C`/`*`/`!` in column 1 start a comment; `C$OMP`,
//!   `*$OMP` and `!$OMP` are directive sentinels.
//! * **Blank insensitivity** — card text is stripped of blanks (outside
//!   character literals) and tokenized by the one scanner
//!   ([`crate::lex`]); merged leading keywords (`DO10I`, `GOTO20`,
//!   `ENDIF`) are re-split against a keyword table, gated on the classic
//!   `DO10I=1.5` vs `DO10I=1,5` assignment classification.
//! * **One buffer** — each card is walked once on the `&str` (column
//!   boundaries are character positions, so the same path serves ASCII
//!   and non-ASCII cards) and its text, minus inline comment and blanks,
//!   is appended to the one statement buffer of a [`Lexed`]; tokens are
//!   ranges of that buffer and re-splitting edits the flat token buffer
//!   in place.
//!
//! Card problems (bad labels, dangling continuations, col-73 overflow,
//! statements that do not scan) are accumulated, never fatal: the
//! assembler reports and goes on with the next card.

use crate::error::Diagnostics;
use crate::lex::{fold_outside_quotes, strip_comment, Lexed, Sym, Tok};
use std::ops::Range;

// ---------------------------------------------------------------------------
// Form detection
// ---------------------------------------------------------------------------

/// Heuristic form detection for mixed source sets. Free-form sources in
/// this codebase always open with `MODULE`; anything else is assembled as
/// cards. (A previously-accepted free-form source can therefore never be
/// re-routed.)
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
// Cards -> logical statements
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
// Keyword re-splitting of blank-merged token streams
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
fn resplit_stmt(lx: &mut Lexed, from: usize) {
    let Some(w) = ident_at(lx, from) else { return };
    for &(kw, first) in KWS {
        let Some(rest) = lx.text(w).strip_prefix(kw) else { continue };
        // `IF` must stand alone (it is always followed by `(`), and a
        // non-empty remainder must itself lex cleanly (`10I`, `FOO`).
        if kw == "if" && !rest.is_empty() {
            continue;
        }
        let tail = lx.toks.len();
        if lx.scan(w.sub(kw.len()..kw.len() + rest.len()).range()).is_err() {
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
                resplit_stmt(lx, ci + 1);
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

/// [`lex_fixed`] for source `file` of a set.
pub(crate) fn lex_fixed_in(src: &str, file: usize, diags: &mut Diagnostics) -> Lexed {
    let Some(mut lx) = Lexed::for_source(src, file, diags) else { return Lexed::default() };
    for raw in split_cards(src, file, &mut lx.text, diags) {
        let from = lx.toks.len();
        if let Err(msg) = lx.scan(raw.text.clone()) {
            lx.toks.truncate(from);
            diags.error(file, raw.lineno, msg);
            continue;
        }
        // Folded after the scan: a lex error quotes the card as written.
        fold_outside_quotes(&mut lx.text[raw.text.clone()]);
        if raw.omp {
            split_omp_words(&mut lx, from);
        } else if !is_assignment(&lx.text[raw.text]) {
            resplit_stmt(&mut lx, from);
        }
        lx.end_line(from, raw.lineno, raw.omp, raw.label);
    }
    lx
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
            crate::CompileError::Source { diags } => {
                assert!(diags.error_count() >= 2, "wanted multiple errors: {}", diags.render());
            }
            other => panic!("expected Source, got {other:?}"),
        }
    }
}
