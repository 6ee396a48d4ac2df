//! Diagnostics-quality tests: the engine must reject malformed programs
//! with precise, located errors — a FORTRAN front-end that silently
//! mis-executes legacy code is worse than none.

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
