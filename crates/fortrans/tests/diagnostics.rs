//! Diagnostics-quality tests: the engine must reject malformed programs
//! with precise, located errors — a FORTRAN front-end that silently
//! mis-executes legacy code is worse than none.

#[path = "common/sources.rs"]
mod sources;

use fortrans::{ArgVal, CompileError, ExecMode, Session};

fn compile_err(src: &str) -> CompileError {
    match Session::compile(&[src]) {
        Err(e) => e,
        Ok(_) => panic!("should not compile:\n{src}"),
    }
}

fn wrap(body: &str) -> String {
    format!(
        "MODULE m\nCONTAINS\n  SUBROUTINE s()\n    REAL(8) :: x\n    REAL(8), DIMENSION(1:4) :: a\n{body}\n  END SUBROUTINE s\nEND MODULE m\n"
    )
}

#[test]
fn unknown_variable_reports_name_and_line() {
    let err = compile_err(&wrap("    x = ghost + 1.0D0"));
    let msg = err.to_string();
    assert!(msg.contains("ghost"), "{msg}");
    assert!(msg.contains("line 6"), "{msg}");
}

#[test]
fn rank_mismatch_reported() {
    let err = compile_err(&wrap("    x = a(1, 2)"));
    assert!(err.to_string().contains("rank"), "{err}");
}

#[test]
fn scalar_subscripted_reported() {
    let err = compile_err(&wrap("    x = x(3)"));
    assert!(err.to_string().contains("subscripted"), "{err}");
}

/// A fixed-shape local is allocated for the whole call: freeing or
/// querying it is a compile error, as it is for ALLOCATE.
#[test]
fn allocation_status_of_a_fixed_array_rejected() {
    for body in ["    DEALLOCATE(a)", "    IF (ALLOCATED(a)) x = 1.0D0"] {
        let msg = compile_err(&wrap(body)).to_string();
        assert!(msg.contains("`a` is not ALLOCATABLE") && msg.contains("line 6"), "{msg}");
    }
}

#[test]
fn exit_outside_loop_rejected() {
    let err = compile_err(&wrap("    EXIT"));
    assert!(err.to_string().contains("EXIT outside a loop"), "{err}");
}

#[test]
fn function_called_as_subroutine_rejected() {
    let src = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION f()
    f = 1.0D0
  END FUNCTION f
  SUBROUTINE s()
    CALL f()
  END SUBROUTINE s
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("FUNCTION, not a SUBROUTINE"), "{err}");
}

#[test]
fn subroutine_used_as_function_rejected() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE s2()
    RETURN
  END SUBROUTINE s2
  SUBROUTINE s()
    REAL(8) :: x
    x = s2()
  END SUBROUTINE s
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("used as a function"), "{err}");
}

#[test]
fn wrong_arg_count_rejected() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE takes2(a, b)
    REAL(8) :: a, b
    a = b
  END SUBROUTINE takes2
  SUBROUTINE s()
    CALL takes2(1.0D0)
  END SUBROUTINE s
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("takes 2 args, got 1"), "{err}");
}

#[test]
fn common_block_shape_mismatch_rejected() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE a1()
    REAL(8) :: u
    COMMON /blk/ u
    u = 1.0D0
  END SUBROUTINE a1
  SUBROUTINE a2()
    REAL(8), DIMENSION(1:4) :: u
    COMMON /blk/ u
    u(1) = 1.0D0
  END SUBROUTINE a2
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("mismatch"), "{err}");
}

#[test]
fn use_of_unknown_module_rejected() {
    let src = "MODULE m\n  USE nonexistent_mod\nCONTAINS\n  SUBROUTINE s()\n    RETURN\n  END SUBROUTINE s\nEND MODULE m\n";
    let err = compile_err(src);
    assert!(err.to_string().contains("nonexistent_mod"), "{err}");
}

#[test]
fn duplicate_subprogram_rejected() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE twin()
    RETURN
  END SUBROUTINE twin
  SUBROUTINE twin()
    RETURN
  END SUBROUTINE twin
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("duplicate"), "{err}");
}

#[test]
fn dynamic_dims_require_allocatable() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE s(n)
    INTEGER :: n
    REAL(8), DIMENSION(1:n) :: w
    w(1) = 0.0D0
  END SUBROUTINE s
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("ALLOCATABLE"), "{err}");
}

#[test]
fn reduction_on_array_rejected() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE s(a)
    REAL(8), DIMENSION(1:4) :: a
    INTEGER :: i
    !$OMP PARALLEL DO REDUCTION(+:a)
    DO i = 1, 4
      a(i) = a(i) + 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE s
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("must be scalar"), "{err}");
}

#[test]
fn atomic_requires_update_form() {
    let src = r#"
MODULE m
  REAL(8) :: g
CONTAINS
  SUBROUTINE s()
    !$OMP ATOMIC
    g = 1.0D0
  END SUBROUTINE s
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("x = x op expr"), "{err}");
}

#[test]
fn collapse_requires_perfect_nest() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE s(a)
    REAL(8), DIMENSION(1:4, 1:4) :: a
    INTEGER :: i, j
    !$OMP PARALLEL DO COLLAPSE(2)
    DO i = 1, 4
      a(i, 1) = 0.0D0
      DO j = 1, 4
        a(i, j) = 1.0D0
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE s
END MODULE m
"#;
    let err = compile_err(src);
    assert!(err.to_string().contains("perfectly nested"), "{err}");
}

#[test]
fn runtime_unallocated_use_reported() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE s()
    REAL(8), DIMENSION(:), ALLOCATABLE :: w
    w(1) = 1.0D0
  END SUBROUTINE s
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let err = e.run("s", &[], ExecMode::Serial).unwrap_err();
    assert!(err.to_string().contains("before ALLOCATE"), "{err}");
}

#[test]
fn runtime_double_allocate_reported() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE s()
    REAL(8), DIMENSION(:), ALLOCATABLE :: w
    ALLOCATE(w(1:4))
    ALLOCATE(w(1:4))
  END SUBROUTINE s
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let err = e.run("s", &[], ExecMode::Serial).unwrap_err();
    assert!(err.to_string().contains("already allocated"), "{err}");
}

#[test]
fn entry_arg_count_checked() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE s(x)
    REAL(8) :: x
    x = x + 1.0D0
  END SUBROUTINE s
END MODULE m
"#;
    let e = Session::compile(&[src]).unwrap();
    let err = e.run("s", &[], ExecMode::Serial).unwrap_err();
    assert!(err.to_string().contains("takes 1 args, got 0"), "{err}");

    let err = e
        .run("nosuch", &[ArgVal::F(1.0)], ExecMode::Serial)
        .unwrap_err();
    assert!(err.to_string().contains("unknown unit"), "{err}");
}

// --- statement-boundary recovery in free form --------------------------------

/// The accumulated diagnostics of a source the front end rejects.
fn source_diags(src: &str) -> fortrans::Diagnostics {
    match compile_err(src) {
        CompileError::Source { diags } => diags,
        other => panic!("expected CompileError::Source, got: {other}"),
    }
}

#[test]
fn trailing_tokens_after_simple_statements_rejected() {
    for (stmt, tail) in [
        ("RETURN 1 2 3", "1"),
        ("CONTINUE please", "please"),
        ("STOP 'a' 'b'", "'b'"),
        ("DO WHILE (x > 0.0)\n      EXIT now please\n    END DO", "now"),
        ("DO WHILE (x > 0.0)\n      CYCLE 7\n    END DO", "7"),
    ] {
        let msg = compile_err(&wrap(&format!("    {stmt}"))).to_string();
        assert!(msg.contains(&format!("unexpected `{tail}` after statement")), "{stmt}: {msg}");
    }
}

#[test]
fn stop_keeps_its_numeric_code() {
    let e = Session::compile(&[&wrap("    STOP 7")]).unwrap();
    let err = e.run("s", &[], ExecMode::Serial).unwrap_err();
    assert_eq!(err.root().to_string(), "STOP: 7");
}

#[test]
fn misplaced_directive_reported_on_the_offending_line() {
    // `wrap` puts the body on line 6: the directive, then the statement
    // that is not what the directive wanted on line 7.
    let diags = source_diags(&wrap("    !$OMP ATOMIC\n    CALL s()"));
    assert_eq!(
        diags.render(),
        "file 0, line 7: error: ATOMIC directive is not followed by an assignment"
    );
    let diags = source_diags(&wrap("    !$OMP PARALLEL DO\n    x = 1.0D0"));
    assert_eq!(diags.list.len(), 1, "{}", diags.render());
    assert_eq!(diags.list[0].span.line, 7);
    assert_eq!(diags.list[0].message, "PARALLEL DO directive is not followed by a DO loop");
}

#[test]
fn rank_above_eight_rejected_on_the_declaring_line() {
    let nine = "2,2,2,2,2,2,2,2,2";
    // `wrap` puts the body on line 6.
    for stmt in [
        format!("    REAL(8) :: t({nine})"),
        format!("    REAL(8), DIMENSION({nine}) :: t"),
        "    REAL(8), ALLOCATABLE, DIMENSION(:,:,:,:,:,:,:,:,:) :: t".to_string(),
        format!("    ALLOCATE(t({nine}))"),
    ] {
        let diags = source_diags(&wrap(&stmt));
        assert_eq!(
            diags.render(),
            "file 0, line 6: error: rank 9 exceeds the supported maximum of 8",
            "{stmt}"
        );
    }
    // Rank 8 is the most there is (FORTRAN 77/90 stop at 7).
    Session::compile(&[&wrap("    REAL(8) :: t(2,2,2,2,2,2,2,2)\n    t(1,1,1,1,1,1,1,1) = x")])
        .expect("rank 8 compiles");
    // A derived-type variable is flattened to one array per field whose
    // shape is the variable's dimensions followed by the field's: each
    // list is short enough, the two together are not.
    let src = "MODULE m\n  TYPE cell\n    REAL(8), DIMENSION(2,2,2,2,2) :: f\n  END TYPE cell\n  \
               TYPE(cell), DIMENSION(2,2,2,2) :: grid\nEND MODULE m\n";
    let msg = compile_err(src).to_string();
    assert!(msg.contains("`grid%f`: rank 9 exceeds the supported maximum of 8"), "{msg}");
    assert!(msg.contains("line 5"), "{msg}");
}

#[test]
fn every_malformed_statement_is_reported() {
    let diags = source_diags(&wrap("    x = )\n    a(1) = 2.0D0\n    a(2 = x"));
    let lines: Vec<u32> = diags.list.iter().map(|d| d.span.line).collect();
    assert_eq!(lines, [6, 8], "{}", diags.render());
    // A statement that does not lex is one more entry, not the end of the
    // report.
    let diags = source_diags(&wrap("    x = 'open\n    x = x +"));
    let lines: Vec<u32> = diags.list.iter().map(|d| d.span.line).collect();
    assert_eq!(lines, [6, 7], "{}", diags.render());
    assert_eq!(diags.list[0].message, "unterminated string literal");
}

/// Corruption sweep over the 13 GLAF source sets: a damaged free-form
/// source must never panic the front end — the frame stack now meets
/// `END DO` without `DO`, a unit head inside an open `IF`, `CONTAINS`
/// twice. Every outcome is a clean compile or an error that says
/// something.
#[test]
fn corrupted_free_form_sources_never_panic() {
    use fortrans::gen::Rng;
    for (k, set) in sources::glaf_source_sets().into_iter().enumerate() {
        for seed in 0..6u64 {
            let mut r = Rng::new((k as u64) << 8 ^ seed ^ 0xDEAD_BEEF);
            let mut srcs = set.clone();
            let fi = r.below(srcs.len() as u64) as usize;
            let mut lines: Vec<String> = srcs[fi].lines().map(String::from).collect();
            let li = r.below(lines.len() as u64) as usize;
            match (seed + k as u64) % 5 {
                0 => {
                    lines.remove(li);
                }
                1 => {
                    let mut cut = r.below(1 + lines[li].len() as u64) as usize;
                    while !lines[li].is_char_boundary(cut) {
                        cut -= 1;
                    }
                    lines[li].truncate(cut);
                }
                // A dangling continuation mark stands in for the orphaned
                // continuation card.
                2 => lines[li].push_str(" &"),
                3 => lines[li] = lines[li].replacen(['0', '1', '2'], "X", 1),
                _ => lines.insert(li, "$ %^ 123 ((".to_string()),
            }
            srcs[fi] = lines.join("\n");
            let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
            match Session::compile(&refs) {
                Ok(_) => {}
                Err(CompileError::Source { diags }) => {
                    assert!(diags.has_errors(), "set {k} seed {seed}: rejected without an error");
                }
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }
}
