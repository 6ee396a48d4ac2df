//! Golden tests for fixed-form front-end diagnostics.
//!
//! Each case pins the *exact* rendered output of
//! [`fortrans::Diagnostics::render`] — message text, help hints, file
//! indices and line numbers — so diagnostics cannot silently regress.
//! The same malformed sources are also pushed through the service batch
//! path to prove the full multi-error report reaches `Rejected` job
//! results, not just direct [`Session::compile`] callers.

use fortrans::{CompileError, EngineService, ExecMode, Job, ProgramSet, RunError, Session};

/// Compiles and returns the accumulated diagnostics, panicking if the
/// front end accepted the sources.
fn expect_fixed_err(sources: &[&str]) -> fortrans::Diagnostics {
    match Session::compile(sources) {
        Ok(_) => panic!("sources unexpectedly compiled"),
        Err(CompileError::Source { diags }) => diags,
        Err(e) => panic!("expected CompileError::Source, got: {e}"),
    }
}

#[test]
fn golden_bad_continuation() {
    // Line 2 is a continuation card with nothing before it; line 5
    // carries a label on a continuation card. Both recover and both are
    // reported in one pass.
    let src = "\n     &X = 1\n      K = 1\n      END\n";
    let diags = expect_fixed_err(&[src]);
    assert_eq!(
        diags.render(),
        "file 0, line 2: error: continuation line has nothing to continue\n\
         \x20 help: column 6 must be blank or `0` on an initial line"
    );

    let src2 = "\n      K = 1\n   10&0\n      END\n";
    let diags2 = expect_fixed_err(&[src2]);
    assert_eq!(
        diags2.render(),
        "file 0, line 3: error: label on a continuation line\n\
         \x20 help: only the initial line of a statement may carry a label"
    );
}

#[test]
fn golden_column_73_overflow_is_a_warning() {
    // Text past column 72 is discarded with a warning; the program still
    // compiles, so the warning surfaces on the successful ProgramSet.
    let line = format!("      K = 1{}XTRA", " ".repeat(61));
    assert!(line.len() > 72);
    let src = format!("\n{line}\n      END\n");
    let set = ProgramSet::from_sources(&[&src]).expect("warnings alone must not fail");
    assert_eq!(
        set.warnings.render(),
        "file 0, line 2: warning: text beyond column 72 is ignored\n\
         \x20 help: fixed-form statements end at column 72; split the statement onto a \
         continuation card"
    );
    // And the discarded text really is gone: the program compiles clean.
    let refs = [src.as_str()];
    Session::compile(&refs).expect("compiles despite overflow");
}

#[test]
fn golden_conflicting_equivalence() {
    let src = "\n      INTEGER X\n      REAL Y\n      EQUIVALENCE (X, Y)\n      END\n";
    let diags = expect_fixed_err(&[src]);
    assert_eq!(
        diags.render(),
        "file 0, line 4: error: EQUIVALENCE of `x` and `y` with conflicting type or shape\n\
         \x20 help: only exact-alias EQUIVALENCE (identical type and shape) is supported"
    );
}

#[test]
fn golden_missing_label() {
    let src = "\n      K = 1\n      GO TO 999\n      END\n";
    let diags = expect_fixed_err(&[src]);
    assert_eq!(
        diags.render(),
        "file 0, line 3: error: label 999 is not defined in this unit\n\
         \x20 help: add the labeled statement or fix the GO TO target"
    );
}

#[test]
fn golden_multi_error_single_pass() {
    // One pass over a file with three independent problems must report
    // all three, in source order — never just the first.
    let src = "\n     &X = 1\n      GO TO 999\n      INTEGER Z\n      REAL Z\n      END\n";
    let diags = expect_fixed_err(&[src]);
    assert_eq!(
        diags.render(),
        "file 0, line 2: error: continuation line has nothing to continue\n\
         \x20 help: column 6 must be blank or `0` on an initial line\n\
         file 0, line 3: error: label 999 is not defined in this unit\n\
         \x20 help: add the labeled statement or fix the GO TO target\n\
         file 0, line 5: error: `z` is declared more than once"
    );
}

#[test]
fn golden_second_file_index() {
    // Diagnostics carry the index of the offending source in the set.
    let good = "\n      SUBROUTINE OK\n      END\n";
    let bad = "\n      GO TO 7\n      END\n";
    let diags = expect_fixed_err(&[good, bad]);
    assert_eq!(
        diags.render(),
        "file 1, line 2: error: label 7 is not defined in this unit\n\
         \x20 help: add the labeled statement or fix the GO TO target"
    );
}

/// The full multi-error report must flow through a service batch: a
/// malformed source job becomes `Rejected` carrying every diagnostic,
/// while sibling jobs in the same batch run normally.
#[test]
fn batch_rejection_carries_full_diagnostics() {
    let service = EngineService::new(4);
    let mut queue = service.queue(2);

    let good = "\n      K = 1\n      PRINT *, K\n      END\n";
    let bad = "\n     &X = 1\n      GO TO 999\n      END\n";
    queue.submit_sources(&[bad], Job::new("main", vec![]));
    queue.submit_sources(&[good], Job::new("main", vec![]));
    let results = queue.run_batch_report().results;
    assert_eq!(results.len(), 2);

    match &results[0].result {
        Err(RunError::Rejected { msg }) => {
            assert!(msg.starts_with("compile failed: source rejected: 2 error(s), 0 warning(s)"), "msg: {msg}");
            assert!(msg.contains("continuation line has nothing to continue"), "msg: {msg}");
            assert!(msg.contains("label 999 is not defined in this unit"), "msg: {msg}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    let out = results[1].result.as_ref().expect("sibling job unaffected");
    assert_eq!(out.printed.trim(), "1");
}

// --- non-ASCII cards ---------------------------------------------------------
//
// Columns count characters, not bytes: the card walker finds its column
// boundaries on the `&str`, and these cases pin what that means for text
// outside ASCII.

/// Runs `main` and returns what it printed.
fn printed(sources: &[&str]) -> String {
    let session = Session::compile(sources).unwrap_or_else(|e| panic!("{e}"));
    session.run("main", &[], ExecMode::Serial).expect("runs").printed
}

#[test]
fn non_ascii_comment_card_is_a_comment() {
    let src = "C  r\u{e9}sum\u{e9} of the run\n      PRINT *, 7\n\
               *  \u{2014} fin \u{2014}\n      END\n";
    let set = ProgramSet::from_sources(&[src]).expect("comment cards are skipped");
    assert!(set.warnings.is_empty(), "{}", set.warnings.render());
    assert_eq!(printed(&[src]), "7\n");
}

#[test]
fn columns_are_characters_not_bytes() {
    // The literal closes in column 72 exactly: 72 characters, 76 bytes.
    // A byte-counting walker would cut it at "column 72" and report an
    // overflow plus an unterminated literal.
    let lit = "caf\u{e9}".repeat(4);
    let card = format!("      PRINT *, {:>57}", format!("'{lit}'"));
    assert_eq!(card.chars().count(), 72);
    assert_eq!(card.len(), 76);
    let src = format!("{card}\n      END\n");
    let set = ProgramSet::from_sources(&[&src]).expect("fits the card");
    assert!(set.warnings.is_empty(), "{}", set.warnings.render());
    assert_eq!(printed(&[&src]), format!("{lit}\n"));
}

#[test]
fn golden_non_ascii_literal_cut_at_column_72() {
    // 70 two-byte characters after `      X = '`: the cut at column 72
    // falls between two of them (never inside one), which drops the rest
    // of the literal and its closing quote.
    let src = format!("      K = 1\n      X = '{}'\n      END\n", "\u{e9}".repeat(70));
    let diags = expect_fixed_err(&[&src]);
    assert_eq!(
        diags.render(),
        "file 0, line 2: warning: text beyond column 72 is ignored\n\
         \x20 help: fixed-form statements end at column 72; split the statement onto a \
         continuation card\n\
         file 0, line 2: error: unterminated string literal"
    );
}

#[test]
fn dec_tab_format_continuation_card() {
    // A leading tab ends the label field; a digit 1-9 right after it marks
    // a continuation card, whatever follows (here a non-ASCII literal).
    let src = "\tPRINT *, 'na\u{ef}ve',\n\t1 40 + 2\n\tEND\n";
    let set = ProgramSet::from_sources(&[src]).expect("tab-format cards assemble");
    assert!(set.warnings.is_empty(), "{}", set.warnings.render());
    assert_eq!(printed(&[src]), "na\u{ef}ve 42\n");
}
