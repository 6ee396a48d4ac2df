//! One front end, two line assemblers: the same statement must mean the
//! same thing whichever source form carries it.
//!
//! Each case is a run of statements rendered twice — into a unit of a
//! free-form `MODULE`, and onto cards as a fixed-form unit — and pushed
//! through [`ProgramSet::from_sources`]. Accepted cases must yield
//! `Debug`-equal unit bodies and equal warnings once line numbers are
//! taken relative to the first statement; rejected cases the same
//! rendered error, message for message, on the same relative lines.
//! Nothing here names a `CompileError` variant: outcomes are compared as
//! rendered text, so the table reads the same against any front end.
//!
//! **Not parity cases.** Cards are blank-insensitive outside character
//! literals, free form is not, so a statement whose meaning hangs on a
//! blank differs by design, not by drift:
//!
//! * `X = 1 2` is `x = 12` on a card, a trailing token in free form
//!   (and the tail of `RETURN 1 2 3` is quoted as `123` on a card, as
//!   `1` in free form: both reject it);
//! * `A(1) = = 2` is `a(1) == 2` on a card (an expression, not a
//!   statement), two `=` in free form;
//! * `DO 10 I = 1.5` assigns to `do10i` on a card and is a malformed DO
//!   in free form; `CALLFOO(X)` is `CALL FOO(X)` on a card only;
//! * a directive word that does not split into OpenMP keywords stays
//!   whole on a card: `PARALLEL DO LASTPRIVATE(t)` is the unknown
//!   directive `paralleldolastprivate` there (ignored with a warning),
//!   an unknown clause in free form;
//! * statement labels exist on cards only (columns 1-5), so a `GO TO`
//!   can only ever find its target there.
//!
//! `blank_stripping_is_not_drift` pins the first of these so the list
//! stays honest.

use fortrans::{ExecMode, ExecTier, ProgramSet, Session, Val};

/// The statements of a case, one per line; a line opening with `!$OMP`
/// is a directive.
type Case = &'static str;

/// What the free-form rendering puts above the first statement.
const FREE_HEAD: &str = "MODULE m\nCONTAINS\n  SUBROUTINE s()\n";
/// What the card rendering puts above the first statement.
const FIXED_HEAD: &str = "      SUBROUTINE S()\n";

fn render_free(case: &str) -> String {
    let mut src = FREE_HEAD.to_string();
    for stmt in case.lines() {
        src.push_str(&format!("    {stmt}\n"));
    }
    src + "  END SUBROUTINE s\nEND MODULE m\n"
}

fn render_fixed(case: &str) -> String {
    let mut src = FIXED_HEAD.to_string();
    for stmt in case.lines() {
        match stmt.strip_prefix("!$OMP") {
            Some(directive) => src.push_str(&format!("!$OMP{directive}\n")),
            None => src.push_str(&format!("      {stmt}\n")),
        }
        assert!(src.lines().last().is_some_and(|card| card.len() <= 72), "card overflow: {stmt}");
    }
    src + "      END\n"
}

/// `text` with every `line N` / `line: N` taken relative to `base`, the
/// line of the case's first statement.
fn relative_lines(text: &str, base: u32) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find("line") {
        let (head, tail) = rest.split_at(at + "line".len());
        out.push_str(head);
        let sep = tail.len() - tail.trim_start_matches([':', ' ']).len();
        let number = &tail[sep..];
        let digits = number.len() - number.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        match number[..digits].parse::<i64>() {
            Ok(n) if sep > 0 => {
                out.push_str(&format!("{}{:+}", &tail[..sep], n - i64::from(base)));
                rest = &tail[sep + digits..];
            }
            _ => rest = tail,
        }
    }
    out + rest
}

/// The outcome of one rendering, in comparable form: the unit body and
/// the warnings, or the rendered rejection.
fn outcome(src: &str, head: &str) -> Result<(String, String), String> {
    let base = head.lines().count() as u32 + 1;
    match ProgramSet::from_sources(&[src]) {
        Ok(set) => {
            let unit = &set.ast.modules[0].units[0];
            Ok((
                relative_lines(&format!("{:#?}", unit.body), base),
                relative_lines(&set.warnings.render(), base),
            ))
        }
        // The header counts errors and names the front end; the
        // diagnostics follow it line by line.
        Err(e) => Err(relative_lines(e.to_string().split_once('\n').map_or("", |(_, d)| d), base)),
    }
}

fn free(case: Case) -> Result<(String, String), String> {
    outcome(&render_free(case), FREE_HEAD)
}

fn fixed(case: Case) -> Result<(String, String), String> {
    outcome(&render_fixed(case), FIXED_HEAD)
}

/// Accepted by both forms, with the same body and the same warnings.
const ACCEPTED: &[Case] = &[
    // --- every executable statement kind -------------------------------
    "x = a(1) + 2.0 * y",
    "a(i + 1) = -x ** 2 / (y - 1.5D0)",
    "ok = x .GT. 0.0 .AND. .NOT. (y <= 1.0 .OR. i /= 3)",
    "CALL helper(x, a(2), 3)",
    "CALL tick",
    "CALL tick()",
    "RETURN",
    "CONTINUE",
    "STOP",
    "STOP 7",
    "STOP 'done here'",
    "PRINT *, 'x is', x, a(1)",
    "PRINT *",
    "PRINT 100, a(1)",
    "WRITE(*,*) x, y",
    "WRITE(6, 100) x",
    "ALLOCATE(w(1:4))",
    "ALLOCATE(w(n), v(0:n, 3))",
    "DEALLOCATE(w)",
    "DO i = 1, n\n  x = x + a(i)\nEND DO",
    "DO i = n, 1, -2\n  IF (a(i) < 0.0) CYCLE\n  IF (a(i) > 9.0) EXIT\n  x = x + a(i)\nEND DO",
    "DO WHILE (x > 1.0)\n  x = x / 2.0\nEND DO",
    "DO i = 1, 2\n  DO j = 1, 3\n    a(j) = i * j\n  END DO\nEND DO",
    // --- block IF, logical IF -------------------------------------------
    "IF (x > 1.0) THEN\n  x = 1.0\nEND IF",
    "IF (x > 1.0) THEN\n  x = 1.0\nELSE\n  x = 0.0\nEND IF",
    "IF (x > 1.0) THEN\n  x = 1.0\nELSE IF (x < -1.0) THEN\n  x = -1.0\nELSE\n  x = 0.0\nEND IF",
    "IF (x > 1.0) THEN\n  IF (y > 1.0) THEN\n    x = y\n  END IF\nEND IF",
    "IF (x == 0.0) x = 0.5",
    "IF (x == 0.0) CALL helper(x)",
    "IF (x == 0.0) RETURN",
    "IF (x == 0.0) STOP 'zero'",
    "IF (x == 0.0) PRINT *, x",
    "IF (.NOT. ok) ALLOCATE(w(1:50))",
    // --- every directive and clause --------------------------------------
    "!$OMP PARALLEL DO\nDO i = 1, n\n  a(i) = 0.0\nEND DO\n!$OMP END PARALLEL DO",
    "!$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(t, u) FIRSTPRIVATE(v)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO REDUCTION(+:acc, acc2) REDUCTION(*:p)\nDO i = 1, n\n  acc = acc + a(i)\nEND DO",
    "!$OMP PARALLEL DO REDUCTION(MAX:hi) REDUCTION(MIN:lo)\nDO i = 1, n\n  hi = MAX(hi, a(i))\nEND DO",
    "!$OMP PARALLEL DO COLLAPSE(2) NUM_THREADS(4)\nDO i = 1, 2\n  DO j = 1, 3\n    a(j) = 0.0\n  END DO\nEND DO",
    "!$OMP PARALLEL DO SCHEDULE(STATIC)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO SCHEDULE(DYNAMIC, 4)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO SCHEDULE(GUIDED) NOWAIT\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO PRIVATE(t), SCHEDULE(STATIC)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO SHARED(a) PRIVATE(t)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP ATOMIC\nx = x + 1.0",
    "!$OMP CRITICAL\nx = x * 2.0\n!$OMP END CRITICAL",
    "!$OMP CRITICAL (upd)\nx = x * 2.0\n!$OMP END CRITICAL",
    "!$OMP BARRIER\nx = 1.0",
    "!$OMP PARALLEL\nx = 1.0\n!$OMP END PARALLEL",
];

/// Rejected by both forms, with the same messages on the same lines.
const REJECTED: &[Case] = &[
    "RETURN x",
    "DO i = 1, 2\n  EXIT now\nEND DO",
    "DO i = 1, 2\n  CYCLE 9\nEND DO",
    "CONTINUE x",
    "STOP 'a' 'b'",
    "x = ",
    "x = (1.0 + ",
    "x = 1.0 +* 2.0",
    "CALL helper(x,",
    "CALL 7",
    "PRINT x",
    "IF (x > 1.0) THEN",
    "IF (x > 1.0",
    "IF (x > 1.0) DO i = 1, 2",
    "IF (x > 1.0) IF (y > 1.0) x = y",
    "x = 1.0\nEND IF",
    "x = 1.0\nELSE",
    "x = 1.0\nEND DO",
    "DO i = 1,\nEND DO",
    "DO i = 1, 2\n  x = 1.0",
    "DO WHILE (x > 1.0\nEND DO",
    "GOTO 999",
    "GO TO 999",
    "GO TO (10, 20), i",
    "IF (x) 10, 20, 30",
    "ALLOCATE(w)",
    "FROBNICATE(x)",
    "x = 1.0\n= 2.0",
    // Two malformed statements: both are reported.
    "x = )\ny = (",
    // A misplaced directive is reported on the statement that is not
    // what it wanted.
    "x = 1.0\n!$OMP ATOMIC\nCALL helper(x)",
    "!$OMP PARALLEL DO\nx = 1.0",
    "!$OMP PARALLEL DO\nDO WHILE (x > 1.0)\n  x = x / 2.0\nEND DO",
    "!$OMP PARALLEL DO PRIVATE(t) LASTPRIVATE(u)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO COLLAPSE(0)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO SCHEDULE(AUTO)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP PARALLEL DO REDUCTION(-:x)\nDO i = 1, n\n  a(i) = 0.0\nEND DO",
    "!$OMP END CRITICAL",
    "!$OMP CRITICAL\nx = 1.0",
    // More dimensions than the engine supports, through every statement
    // that takes a dimension list.
    "REAL(8) :: t(2,2,2,2,2,2,2,2,2)",
    "REAL(8), DIMENSION(2,2,2,2,2,2,2,2,2) :: t",
    "DIMENSION t(2,2,2,2,2,2,2,2,2)",
    "COMMON /blk/ t(2,2,2,2,2,2,2,2,2)",
    "ALLOCATE(w(2,2,2,2,2,2,2,2,2))",
];

#[test]
fn accepted_statements_build_the_same_body() {
    for case in ACCEPTED {
        let (free, fixed) = (free(case), fixed(case));
        assert!(free.is_ok(), "free form rejects:\n{case}\n{}", free.unwrap_err());
        assert!(fixed.is_ok(), "fixed form rejects:\n{case}\n{}", fixed.unwrap_err());
        assert_eq!(free, fixed, "the forms disagree on:\n{case}");
    }
}

#[test]
fn rejected_statements_get_the_same_diagnostics() {
    for case in REJECTED {
        let (free, fixed) = (free(case), fixed(case));
        assert!(free.is_err(), "free form accepts:\n{case}");
        assert!(fixed.is_err(), "fixed form accepts:\n{case}");
        assert_eq!(free, fixed, "the forms disagree on:\n{case}");
    }
}

/// What the drift cost at the seam: the defaults and conversions each
/// parser used to choose for itself.
#[test]
fn shared_answers_are_the_documented_ones() {
    for render in [free, fixed] {
        let (body, _) = render("!$OMP PARALLEL DO\nDO i = 1, n\n  a(i) = 0.0\nEND DO").unwrap();
        assert!(body.contains("collapse: 1,"), "{body}");
        let (body, _) = render("STOP 7").unwrap();
        assert!(body.contains("\"7\""), "{body}");
        let (_, warnings) = render("PRINT 100, a(1)").unwrap();
        assert!(warnings.contains("+0: warning: PRINT format label ignored"), "{warnings}");
        for ignored in ["!$OMP BARRIER", "!$OMP PARALLEL"] {
            let (body, warnings) = render(ignored).unwrap();
            assert_eq!(body, "[]");
            assert!(warnings.contains("+0: warning: unsupported OpenMP directive ignored"));
        }
        let both = render("x = )\ny = (").unwrap_err();
        assert!(both.contains("line +0: error") && both.contains("line +1: error"), "{both}");
        let rank = render("x = 1.0\nALLOCATE(w(2,2,2,2,2,2,2,2,2))").unwrap_err();
        assert!(rank.contains("line +1: error: rank 9 exceeds the supported maximum of 8"), "{rank}");
        let late = render("x = 1.0\n!$OMP ATOMIC\nCALL helper(x)").unwrap_err();
        assert!(late.contains("line +2: error: ATOMIC directive is not followed"), "{late}");
    }
}

/// Alternative spellings of one statement: every spelling, in either
/// form, is the same statement.
#[test]
fn spellings_are_one_statement() {
    let pairs: &[(Case, Case)] = &[
        ("DO i = 1, n\n  x = x + 1.0\nEND DO", "DO i = 1, n\n  x = x + 1.0\nENDDO"),
        ("IF (x > 1.0) THEN\n  x = 1.0\nEND IF", "IF (x > 1.0) THEN\n  x = 1.0\nENDIF"),
        (
            "IF (x > 1.0) THEN\n  x = 1.0\nELSE IF (x < 0.0) THEN\n  x = 0.0\nEND IF",
            "IF (x > 1.0) THEN\n  x = 1.0\nELSEIF (x < 0.0) THEN\n  x = 0.0\nEND IF",
        ),
        ("IF (x .GT. 1.0) x = 1.0", "IF (x > 1.0) x = 1.0"),
        // Only cards can define the label: compared as rejections.
        ("GO TO 999", "GOTO 999"),
        ("IF (x > 1.0) GO TO 999", "IF (x > 1.0) GOTO 999"),
    ];
    for (a, b) in pairs {
        assert_eq!(free(a), free(b), "free form:\n{a}\nvs\n{b}");
        assert_eq!(fixed(a), fixed(b), "fixed form:\n{a}\nvs\n{b}");
        assert_eq!(free(a), fixed(a), "across forms:\n{a}");
    }
    // A declaration is not in the body: compare the whole unit per form.
    for render in [render_free, render_fixed] {
        let unit = |case| {
            let set = ProgramSet::from_sources(&[&render(case)]).expect("declares");
            format!("{:?}", set.ast.modules[0].units[0])
        };
        assert_eq!(unit("DOUBLE PRECISION d\nd = 1.0D0"), unit("DOUBLEPRECISION d\nd = 1.0D0"));
        assert!(unit("DOUBLE PRECISION d\nd = 1.0D0").contains("Real8"));
    }
}

/// A constant expression means the same number whichever form declares
/// it, and wherever sema meets it: one evaluator folds `PARAMETER`
/// values and array bounds for both. Each case leaves its answer in
/// `COMMON /out/ r`; the four answers — two forms, two tiers — must be
/// the expected one. (Free form used to refuse all of these but the
/// last, and cards the first.)
#[test]
fn parameter_expressions_run_the_same_in_both_forms() {
    let cases: &[(Case, f64)] = &[
        // A unit's PARAMETER inside the bounds of one of its locals.
        (
            "INTEGER, PARAMETER :: n = 4\nREAL(8) :: a(n + 1)\nINTEGER :: i\n\
             DO i = 1, n + 1\n  a(i) = 2.0D0 * i\nEND DO\nr = a(n + 1) + SIZE(a)",
            15.0,
        ),
        // REAL division and subtraction.
        ("REAL(8), PARAMETER :: half = 1.0D0 / 2.0D0, d = 3.0D0 - 1.0D0\nr = half + d", 2.5),
        // A PARAMETER over an earlier one of the same unit.
        ("INTEGER, PARAMETER :: n = 4\nINTEGER, PARAMETER :: k = n * 2\nr = k", 8.0),
        // Integer overflow wraps instead of panicking a debug build.
        ("INTEGER, PARAMETER :: big = 9223372036854775807 + 1\nr = big", i64::MIN as f64),
    ];
    for (case, expected) in cases {
        let case = format!("REAL(8) :: r\nCOMMON /out/ r\n{case}");
        for (form, src) in [("free", render_free(&case)), ("fixed", render_fixed(&case))] {
            let session = Session::compile(&[&src])
                .unwrap_or_else(|e| panic!("{form} form rejects:\n{src}\n{e}"));
            for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
                session.run_tiered("s", &[], ExecMode::Serial, tier).expect("runs");
                let r = session.global_scalar("common out::r");
                assert_eq!(r, Some(Val::F(*expected)), "{form} form on {tier:?}:\n{src}");
            }
        }
    }
}

/// An initialized local is implicitly SAVE: it starts from its
/// initializer once and keeps its value from call to call, whichever
/// form declares it and whichever tier runs it. (Free form used to
/// re-run without the initializer: `calls` read 1 on every call.)
#[test]
fn initialized_locals_are_saved_in_both_forms() {
    let case = "REAL(8) :: r\nCOMMON /out/ r\n\
                INTEGER :: calls = 10\ncalls = calls + 1\nr = calls";
    let want = [11.0, 12.0, 13.0].map(|v| Some(Val::F(v)));
    for (form, src) in [("free", render_free(case)), ("fixed", render_fixed(case))] {
        for tier in [ExecTier::Vm, ExecTier::TreeWalk] {
            let session = Session::compile(&[&src])
                .unwrap_or_else(|e| panic!("{form} form rejects:\n{src}\n{e}"));
            let seen = [(); 3].map(|()| {
                session.run_tiered("s", &[], ExecMode::Serial, tier).expect("runs");
                session.global_scalar("common out::r")
            });
            assert_eq!(seen, want, "{form} form on {tier:?}:\n{src}");
        }
    }
}

/// A GOTO web is legal on cards and has no spelling in free form; what
/// free form can say about it — a jump whose target is missing — it
/// says with the card front end's words.
#[test]
fn labels_are_cards_only() {
    let web = "      SUBROUTINE S()\n      I = 0\n   10 I = I + 1\n      IF (I .LT. 3) GO TO 10\n      END\n";
    ProgramSet::from_sources(&[web]).expect("a card GOTO web legalizes");
    let missing = free("GO TO 10").unwrap_err();
    assert_eq!(missing, fixed("GO TO 10").unwrap_err());
    assert!(missing.contains("label 10 is not defined in this unit"), "{missing}");
}

#[test]
fn blank_stripping_is_not_drift() {
    let (card, _) = fixed("X = 1 2").expect("blanks vanish on a card");
    assert!(card.contains("Int(\n            12,") || card.contains("Int(12)"), "{card}");
    let line = free("X = 1 2").unwrap_err();
    assert!(line.contains("unexpected `2` after statement"), "{line}");
}
