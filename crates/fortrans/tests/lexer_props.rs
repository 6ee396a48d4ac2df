//! Property tests at the token level: every literal the code generator
//! can emit must survive the lexer exactly.

use fortrans::lex::{lex, Lexed, Tok};
use proptest::prelude::*;

/// The code generator's double-precision literal form (mirrors
/// `glaf_codegen::fortran::real_literal`).
fn fortran_real_literal(v: f64) -> String {
    format!("{v:e}").replacen('e', "D", 1)
}

/// The tokens of a one-line source.
fn lex_single(src: &str) -> Vec<Tok> {
    lex_single_in(src).1
}

/// As [`lex_single`], with the buffer identifier tokens point into.
fn lex_single_in(src: &str) -> (Lexed, Vec<Tok>) {
    let lx = lex(src).unwrap_or_else(|e| panic!("{e} for {src:?}"));
    assert_eq!(lx.lines().len(), 1, "{src:?} -> {lx:?}");
    let toks = lx.toks(&lx.lines()[0]).to_vec();
    (lx, toks)
}

proptest! {
    /// Positive reals round-trip bit-exactly through emit + lex.
    #[test]
    fn real_literals_roundtrip(v in prop::num::f64::POSITIVE) {
        let lit = fortran_real_literal(v);
        let toks = lex_single(&format!("x = {lit}"));
        prop_assert_eq!(toks.len(), 3);
        match &toks[2] {
            Tok::Real(got) => prop_assert_eq!(*got, v, "{}", lit),
            other => prop_assert!(false, "expected real, got {:?} from {}", other, lit),
        }
    }

    /// Integers round-trip.
    #[test]
    fn int_literals_roundtrip(v in 0i64..=i64::MAX) {
        let toks = lex_single(&format!("x = {v}"));
        match &toks[2] {
            Tok::Int(got) => prop_assert_eq!(*got, v),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// Identifiers fold to lowercase regardless of input case.
    #[test]
    fn identifiers_case_fold(name in "[A-Za-z][A-Za-z0-9_]{0,12}") {
        let (lx, toks) = lex_single_in(&name);
        prop_assert_eq!(
            format!("{:?}", lx.show(toks[0])),
            format!("Ident({:?})", name.to_ascii_lowercase())
        );
    }

    /// Splitting a statement across continuations never changes tokens.
    #[test]
    fn continuations_token_equivalent(a in 1i64..1000, b in 1i64..1000, c in 1i64..1000) {
        let one = lex_single(&format!("x = {a} + {b} * {c}"));
        // The only identifier, `x`, sits at the same offset in both.
        prop_assert_eq!(lex_single(&format!("x = {a} + &\n  {b} * &\n  {c}")), one);
    }
}

#[test]
fn subnormal_and_extreme_reals() {
    for v in [f64::MIN_POSITIVE, 1e-300, 1e300, 4.9e-324] {
        let lit = fortran_real_literal(v);
        let toks = lex_single(&format!("x = {lit}"));
        match &toks[2] {
            Tok::Real(got) => assert_eq!(*got, v, "{lit}"),
            other => panic!("{other:?}"),
        }
    }
}
