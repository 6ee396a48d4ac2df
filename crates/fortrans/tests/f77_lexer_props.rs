//! Property tests for the fixed-form lexer against the free-form lexer.
//!
//! The bridge is [`sources::to_fixed_form`]: it prints a free-form
//! program's token stream onto fixed-form cards (labels blank, text in
//! columns 7-72, `C$OMP` sentinels for directives). Two invariants:
//!
//! 1. **Round trip**: lexing the printed cards with the fixed-form,
//!    blank-insensitive lexer yields exactly the free-form token stream
//!    — same tokens, same statement count, same OMP flags.
//! 2. **Wrap invariance**: printing with any wrap width (1..=66 columns
//!    per card, continuation cards for the rest) must lex to the same
//!    token stream — continuation splitting, even mid-token, is
//!    invisible to the fixed-form lexer.

#[path = "common/sources.rs"]
mod sources;

use fortrans::fixedform::lex_fixed;
use fortrans::gen::Rng;
use fortrans::lex::{lex, Lexed};
use sources::{to_fixed_form, to_fixed_form_wrapped};

/// Free-form sources chosen for lexical variety: keywords that collide
/// with identifier prefixes, string literals with blanks, reals in every
/// notation, OMP directives, dense operator runs.
const CORPUS: &[&str] = &[
    "program p\n  integer :: i, total\n  total = 0\n  do i = 1, 10\n    total = total + i\n  end do\n  print *, total\nend program p\n",
    "subroutine s(a, n)\n  real(8) :: a(n)\n  integer :: n, i\n  !$omp parallel do\n  do i = 1, n\n    a(i) = a(i) * 2.5d0 + 1.0e-3\n  end do\nend subroutine s\n",
    "function f(x) result(y)\n  real(8) :: x, y\n  y = x ** 2 - 3.25 / (x + 1.0)\n  if (y <= 0.0 .and. x /= 4.0) y = -y\nend function f\n",
    "program q\n  character(10) :: msg\n  msg = 'hi  there'\n  print *, msg, 'a''b'\nend program q\n",
    "program dotest\n  integer :: dook, ifx, endq\n  dook = 1\n  ifx = dook + 2\n  endq = ifx * dook\n  print *, endq\nend program dotest\n",
    "program ops\n  integer :: k\n  logical :: t\n  k = 7\n  t = k >= 3 .or. .not. (k == 5)\n  do while (k > 0)\n    k = k - 2\n  end do\nend program ops\n",
];

/// One statement as compared across lexers: label, tokens (with their
/// text resolved — token offsets differ between two buffers), OMP flag.
type Stmt = (Option<u32>, Vec<String>, bool);

fn stmts_of(lx: &Lexed) -> Vec<Stmt> {
    lx.lines()
        .iter()
        .map(|l| {
            let toks = lx.toks(l).iter().map(|t| format!("{:?}", lx.show(*t))).collect();
            (l.label, toks, l.omp)
        })
        .collect()
}

fn toks_of_fixed(fixed: &str) -> Vec<Stmt> {
    let (stmts, diags) = lex_fixed(fixed);
    assert!(
        !diags.has_errors(),
        "printed fixed form must lex clean, got:\n{}",
        diags.render()
    );
    stmts_of(&stmts)
}

#[test]
fn free_to_fixed_roundtrip_is_token_identical() {
    for (i, src) in CORPUS.iter().enumerate() {
        let free =
            stmts_of(&lex(src).unwrap_or_else(|e| panic!("corpus[{i}] must lex free-form: {e}")));
        let fixed = to_fixed_form(src).unwrap_or_else(|e| panic!("corpus[{i}] prints: {e}"));
        let back = toks_of_fixed(&fixed);
        assert_eq!(
            free, back,
            "corpus[{i}]: token stream changed through the fixed-form printer:\n{fixed}"
        );
    }
}

#[test]
fn wrap_width_never_changes_the_token_stream() {
    let mut r = Rng::new(0x77AB1E);
    for (i, src) in CORPUS.iter().enumerate() {
        let baseline = toks_of_fixed(
            &to_fixed_form(src).unwrap_or_else(|e| panic!("corpus[{i}] prints: {e}")),
        );
        // Every extreme plus a random sample of interior widths.
        let mut widths = vec![1, 2, 3, 66];
        for _ in 0..12 {
            widths.push(1 + r.below(66) as usize);
        }
        for w in widths {
            let fixed = to_fixed_form_wrapped(src, w)
                .unwrap_or_else(|e| panic!("corpus[{i}] width {w}: {e}"));
            let got = toks_of_fixed(&fixed);
            assert_eq!(
                baseline, got,
                "corpus[{i}]: wrap width {w} altered the token stream:\n{fixed}"
            );
        }
    }
}

/// Generated fixed-form programs (the differential corpus) must also be
/// stable under re-lexing: lexing twice gives identical statements.
#[test]
fn generated_fixed_sources_lex_deterministically() {
    for seed in 0..20u64 {
        for src in fortrans::gen::generate(seed) {
            let (a, d1) = lex_fixed(&src);
            let (b, d2) = lex_fixed(&src);
            assert!(!d1.has_errors(), "seed {seed}: {}", d1.render());
            assert_eq!(d1, d2);
            assert_eq!(stmts_of(&a), stmts_of(&b), "seed {seed}: non-deterministic lex");
        }
    }
}

/// The printer's output is detected as fixed form, keeps its directive
/// lines, and lexes clean.
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
    assert!(fortrans::is_fixed_form(&fixed));
    let (stmts, diags) = lex_fixed(&fixed);
    assert!(!diags.has_errors(), "{}", diags.render());
    assert!(stmts.lines().iter().any(|s| s.omp));
}
