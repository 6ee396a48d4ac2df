//! Static bytecode verifier: targeted rejection corpus plus a
//! verify-everything sweep.
//!
//! Each rejection test takes *real* compiler output, breaks one
//! invariant by hand, and checks that [`fortrans::verify::verify_program`]
//! refuses the stream with a diagnostic naming the violation. The sweep
//! at the bottom compiles a corpus spanning the whole feature surface,
//! 200 generated F77 programs and the 13 GLAF source sets the benchmark
//! compiles, and checks both bytecode variants (optimized and traced)
//! verify clean. `CompiledProgram::compile` verifies only the optimized
//! build; the traced one is verified on the first Simulated run, which
//! turns a failure into a trap and an oracle fallback. So a traced
//! lowering bug fails here, by program name, rather than through some
//! downstream test.

#[path = "common/sources.rs"]
mod sources;

use fortrans::bytecode::{compile_program, BInstr, BUnit, SubOp, VSlot, MAX_INLINE_RANK};
use fortrans::verify::verify_program;
use fortrans::Session;

/// The `traced` or optimized build of `engine`'s program, lowered from
/// the program that build runs (`CompiledProgram::lowered_program`).
fn build(engine: &Session, traced: bool) -> Vec<BUnit> {
    compile_program(engine.artifact().lowered_program(traced), traced)
}

/// A session over `src` and its optimized build.
fn compiled(src: &str) -> (Session, Vec<BUnit>) {
    let engine = Session::compile(&[src]).expect("corpus program compiles");
    let bunits = build(&engine, false);
    (engine, bunits)
}

/// Verifies `bunits` as the `traced` or optimized build of `engine`'s
/// program.
fn verify(engine: &Session, traced: bool, bunits: &[BUnit]) -> Result<(), String> {
    verify_program(engine.artifact().lowered_program(traced), bunits).map_err(|e| e.to_string())
}

fn reject_msg(engine: &Session, traced: bool, bad: &[BUnit]) -> String {
    verify(engine, traced, bad).expect_err("verifier accepts a corrupted stream")
}

const BRANCHY: &str = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION pick(a, b, k)
    REAL(8) :: a, b
    INTEGER :: k
    INTEGER :: i
    pick = 0.0D0
    DO i = 1, k
      IF (MOD(i, 2) == 0) THEN
        pick = pick + a
      ELSE
        pick = pick - b
      END IF
    END DO
  END FUNCTION pick
END MODULE m
"#;

#[test]
fn rejects_branch_target_out_of_range() {
    let (engine, mut bad) = compiled(BRANCHY);
    let (u, pc) = bad
        .iter()
        .enumerate()
        .find_map(|(u, b)| {
            b.code
                .iter()
                .position(|i| matches!(i, BInstr::Jump(_) | BInstr::JumpIfFalse(_)))
                .map(|pc| (u, pc))
        })
        .expect("branchy program has a branch");
    let wild = bad[u].code.len() as u32 + 7;
    match &mut bad[u].code[pc] {
        BInstr::Jump(t) | BInstr::JumpIfFalse(t) => *t = wild,
        _ => unreachable!(),
    }
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("out of range"), "got: {msg}");
    assert!(msg.contains("target"), "got: {msg}");
}

#[test]
fn rejects_scalar_slot_out_of_range() {
    let (engine, mut bad) = compiled(BRANCHY);
    let (u, pc) = bad
        .iter()
        .enumerate()
        .find_map(|(u, b)| {
            b.code
                .iter()
                .position(|i| matches!(i, BInstr::LoadF(_) | BInstr::StoreF(_)))
                .map(|pc| (u, pc))
        })
        .expect("program touches an f-slot");
    match &mut bad[u].code[pc] {
        BInstr::LoadF(s) | BInstr::StoreF(s) => *s = u32::MAX,
        _ => unreachable!(),
    }
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("out of range"), "got: {msg}");
}

const GATHER: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE gather(a, nbr, n)
    REAL(8), DIMENSION(1:8, 1:8) :: a
    INTEGER, DIMENSION(1:8) :: nbr
    INTEGER :: n, i, j
    DO j = 1, n
      DO i = 1, n
        a(i, j) = a(nbr(i), j) + a(i, 1)
      END DO
    END DO
  END SUBROUTINE gather
END MODULE m
"#;

/// The first operand-addressed store of `GATHER` with an i-slot operand.
fn slot_addressed_store(bad: &[BUnit]) -> (usize, usize) {
    bad.iter()
        .enumerate()
        .find_map(|(u, b)| {
            b.code
                .iter()
                .position(|i| match *i {
                    BInstr::StoreElemS { subs, n, .. } => b.subops
                        [subs as usize..subs as usize + n as usize]
                        .iter()
                        .any(|op| matches!(op, SubOp::Slot(_))),
                    _ => false,
                })
                .map(|pc| (u, pc))
        })
        .expect("a(i, j) = ... lowers to a slot-addressed store")
}

#[test]
fn rejects_subscript_table_index_out_of_range() {
    let (engine, mut bad) = compiled(GATHER);
    let (u, pc) = slot_addressed_store(&bad);
    let len = bad[u].subops.len() as u32;
    let BInstr::StoreElemS { subs, .. } = &mut bad[u].code[pc] else { unreachable!() };
    *subs = len - 1; // the run now hangs over the end of the table
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("subscript operands"), "got: {msg}");
    assert!(msg.contains("out of range"), "got: {msg}");
}

#[test]
fn rejects_subscript_operand_slot_out_of_range() {
    let (engine, mut bad) = compiled(GATHER);
    let (u, pc) = slot_addressed_store(&bad);
    let BInstr::StoreElemS { subs, .. } = bad[u].code[pc] else { unreachable!() };
    bad[u].subops[subs as usize] = SubOp::Slot(bad[u].ni);
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("subscript operand i-slot"), "got: {msg}");
    assert!(msg.contains("out of range"), "got: {msg}");
}

#[test]
fn rejects_over_long_subscript_operand_list() {
    let (engine, mut bad) = compiled(GATHER);
    let (u, pc) = slot_addressed_store(&bad);
    // Even with the table grown so the run itself is in range.
    bad[u].subops.extend([SubOp::Const(1); MAX_INLINE_RANK + 1]);
    let BInstr::StoreElemS { n, .. } = &mut bad[u].code[pc] else { unreachable!() };
    *n = MAX_INLINE_RANK as u8 + 1;
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("exceeds the cap"), "got: {msg}");
}

/// Subscript and bound lists the VM gathers into fixed buffers: a
/// by-reference element argument's copies in and back, an ATOMIC element
/// update and an ALLOCATE.
const STACK_SUBSCRIPTS: &str = r#"
MODULE m
  REAL(8), ALLOCATABLE, DIMENSION(:,:) :: w
CONTAINS
  SUBROUTINE bump(x)
    REAL(8) :: x
    x = x + 1.0D0
  END SUBROUTINE bump
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:4, 1:4) :: a
    INTEGER :: n
    INTEGER :: i
    ALLOCATE(w(1:n, 1:n))
    CALL bump(a(1, 2))
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      !$OMP ATOMIC
      a(1, 1) = a(1, 1) + 1.0D0
    END DO
    !$OMP END PARALLEL DO
    DEALLOCATE(w)
  END SUBROUTINE work
END MODULE m
"#;

#[test]
fn rejects_element_access_of_rank_above_the_inline_cap() {
    // The VM gathers these into `[_; MAX_INLINE_RANK]` buffers; the
    // front end never declares a longer list, so only a damaged stream
    // can name one.
    let over = MAX_INLINE_RANK as u8 + 1;
    let (engine, base) = compiled(STACK_SUBSCRIPTS);
    verify(&engine, false, &base).expect("baseline verifies");
    let mut hits = 0;
    for (u, unit) in base.iter().enumerate() {
        for (pc, ins) in unit.code.iter().enumerate() {
            let mut bad = base.clone();
            match &mut bad[u].code[pc] {
                BInstr::LoadElemS { n, .. }
                | BInstr::StoreElemS { n, .. }
                | BInstr::AtomicElem { nsubs: n, .. }
                | BInstr::Alloc { ndims: n, .. } => *n = over,
                _ => continue,
            }
            let msg = reject_msg(&engine, false, &bad);
            assert!(msg.contains("exceeds the cap"), "{ins:?}: got: {msg}");
            hits += 1;
        }
    }
    assert_eq!(hits, 4, "the element argument's copy in and back, atomic and allocate");
}

/// `t` is a scoped temporary (a fixed frame array in the optimized build
/// only), `w` an allocatable that is queried, `f` a fixed-shape local.
const FIXED: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE work(a)
    REAL(8), DIMENSION(1:5) :: a
    REAL(8), DIMENSION(:), ALLOCATABLE :: t
    REAL(8), DIMENSION(:), ALLOCATABLE :: w
    REAL(8), DIMENSION(1:2) :: f
    ALLOCATE(t(1:5))
    t(1) = a(1)
    IF (ALLOCATED(w)) a(3) = 1.0D0
    f(1) = t(1)
    a(2) = f(1)
    DEALLOCATE(t)
  END SUBROUTINE work
END MODULE m
"#;

/// A fixed frame array is allocated for the whole call, so no
/// instruction may allocate, free or query it, and frame reset walks
/// `fixed_arrays` in slot order.
#[test]
fn rejects_allocation_status_of_a_fixed_array() {
    let engine = Session::compile(&[FIXED]).expect("compiles");
    let unit = &engine.program().units[0];
    let var = |name: &str| unit.vars.iter().position(|v| v.name == name).expect("declared");
    let opt = build(&engine, false);
    let traced = build(&engine, true);
    let slot = |bu: &BUnit, name: &str| match bu.vslots[var(name)] {
        VSlot::A(s) => s,
        other => panic!("{name} has slot {other:?}"),
    };
    let fixed = |bu: &BUnit| bu.fixed_arrays.iter().map(|f| f.0).collect::<Vec<_>>();
    let mut want = [slot(&opt[0], "t"), slot(&opt[0], "f")];
    want.sort_unstable();
    assert_eq!(fixed(&opt[0]), want);
    assert_eq!(fixed(&traced[0]), [slot(&traced[0], "f")]);
    // The traced build allocates, queries and frees; aim each at `f`.
    let f = VSlot::A(slot(&traced[0], "f"));
    let mut hits = 0;
    for (pc, ins) in traced[0].code.iter().enumerate() {
        let mut bad = traced.clone();
        match &mut bad[0].code[pc] {
            BInstr::Alloc { vs, .. } | BInstr::Dealloc { vs, .. } | BInstr::AllocatedQ { vs } => {
                *vs = f;
            }
            _ => continue,
        }
        let msg = reject_msg(&engine, true, &bad);
        assert!(msg.contains("fixed frame array"), "{ins:?}: got: {msg}");
        hits += 1;
    }
    assert_eq!(hits, 3, "ALLOCATE, ALLOCATED and DEALLOCATE");
    let mut bad = opt.clone();
    bad[0].fixed_arrays.reverse();
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("ascending"), "got: {msg}");
}

#[test]
fn rejects_a_stack_operand_nobody_pushed() {
    let (engine, mut bad) = compiled(GATHER);
    let (u, pc) = slot_addressed_store(&bad);
    let BInstr::StoreElemS { subs, .. } = bad[u].code[pc] else { unreachable!() };
    // The slot read becomes a pop: the access now consumes one value
    // more than the lowering pushed.
    bad[u].subops[subs as usize] = SubOp::Stack;
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("underflow") || msg.contains("inconsistent"), "got: {msg}");
}

#[test]
fn rejects_operand_stack_underflow() {
    let (engine, mut bad) = compiled(BRANCHY);
    // Entry depth is zero; a binary op at pc 0 must underflow.
    bad[0].code[0] = BInstr::AddF;
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("underflow"), "got: {msg}");
}

#[test]
fn rejects_unbalanced_stack_at_unit_end() {
    let (engine, mut bad) = compiled(BRANCHY);
    // A trailing push makes every fall-through path reach the unit end
    // with a non-empty operand stack.
    for b in &mut bad {
        b.code.push(BInstr::Const(0));
    }
    let msg = reject_msg(&engine, false, &bad);
    assert!(
        msg.contains("not empty at unit end") || msg.contains("non-empty stacks"),
        "got: {msg}"
    );
}

#[test]
fn rejects_zeroed_unchecked_do_stride() {
    // A module-global loop variable defeats the fused head: the compiler
    // proves the literal stride non-zero, pushes `Const(1)` and elides
    // the runtime check. Zeroing that constant must not verify.
    let src = r#"
MODULE gm
  INTEGER :: gi
CONTAINS
  SUBROUTINE gfill(a, n)
    REAL(8), DIMENSION(1:16) :: a
    INTEGER :: n
    DO gi = 1, n
      a(gi) = gi * 2.0D0
    END DO
  END SUBROUTINE gfill
END MODULE gm
"#;
    let (engine, mut bad) = compiled(src);
    let mut found = false;
    'outer: for b in &mut bad {
        for pc in 1..b.code.len() {
            if matches!(b.code[pc], BInstr::DoInit { check: false, .. })
                && matches!(b.code[pc - 1], BInstr::Const(_))
            {
                b.code[pc - 1] = BInstr::Const(0);
                found = true;
                break 'outer;
            }
        }
    }
    assert!(found, "expected an unchecked DoInit with a constant stride");
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("non-zero"), "got: {msg}");
}

#[test]
fn rejects_call_arity_mismatch() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE bump(x, by)
    REAL(8) :: x, by
    x = x + by
  END SUBROUTINE bump
  SUBROUTINE driver(out)
    REAL(8), DIMENSION(1:1) :: out
    REAL(8) :: acc
    acc = 1.0D0
    CALL bump(acc, 2.5D0)
    out(1) = acc
  END SUBROUTINE driver
END MODULE m
"#;
    let (engine, mut bad) = compiled(src);
    let mut found = false;
    for b in &mut bad {
        if let Some(cs) = b.calls.iter_mut().find(|c| !c.binds.is_empty()) {
            cs.binds.pop();
            found = true;
            break;
        }
    }
    assert!(found, "driver program has a call with arguments");
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("call"), "got: {msg}");
}

#[test]
fn rejects_omp_descriptor_without_dims() {
    let src = r#"
MODULE m
CONTAINS
  SUBROUTINE fill(a, n)
    REAL(8), DIMENSION(1:32) :: a
    INTEGER :: n
    INTEGER :: i
    !$OMP PARALLEL DO DEFAULT(SHARED)
    DO i = 1, n
      a(i) = i * 1.0D0
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE fill
END MODULE m
"#;
    let (engine, mut bad) = compiled(src);
    let mut found = false;
    for b in &mut bad {
        if let Some(od) = b.omps.first_mut() {
            od.dims.clear();
            found = true;
            break;
        }
    }
    assert!(found, "program has an OMP descriptor");
    let msg = reject_msg(&engine, false, &bad);
    assert!(msg.contains("no loop dimensions"), "got: {msg}");
}

// ---------------------------------------------------------------------
// Verify-everything sweep.
// ---------------------------------------------------------------------

/// Feature-spanning corpus (subset of the differential suite's shapes):
/// every program must verify clean in both bytecode variants.
const SWEEP: &[(&str, &str)] = &[
    ("branchy", BRANCHY),
    (
        "value-result",
        r#"
MODULE m
CONTAINS
  SUBROUTINE bump(x)
    REAL(8) :: x
    x = x + 1.0D0
  END SUBROUTINE bump
  SUBROUTINE run2(out)
    REAL(8), DIMENSION(1:1) :: out
    REAL(8) :: t
    t = 10.0D0
    CALL bump(t)
    CALL bump(t)
    out(1) = t
  END SUBROUTINE run2
END MODULE m
"#,
    ),
    (
        "derived",
        r#"
MODULE fuliou_mod
  TYPE fuout_t
    REAL(8), DIMENSION(1:4) :: fd
    REAL(8) :: total
  END TYPE fuout_t
  TYPE(fuout_t) :: fo
END MODULE fuliou_mod
MODULE kernels
  USE fuliou_mod
CONTAINS
  SUBROUTINE fill()
    INTEGER :: i
    DO i = 1, 4
      fo%fd(i) = i * 10.0D0
    END DO
    fo%total = fo%fd(1) + fo%fd(2) + fo%fd(3) + fo%fd(4)
  END SUBROUTINE fill
END MODULE kernels
"#,
    ),
    (
        "common",
        r#"
MODULE m
CONTAINS
  SUBROUTINE both()
    REAL(8) :: cc
    REAL(8), DIMENSION(1:4) :: dd
    COMMON /rad/ cc, dd
    INTEGER :: i
    cc = 42.0D0
    DO i = 1, 4
      dd(i) = i * 1.0D0
    END DO
  END SUBROUTINE both
END MODULE m
"#,
    ),
    (
        "reduction",
        r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION total(a, n)
    REAL(8), DIMENSION(1:100) :: a
    INTEGER :: n
    REAL(8) :: acc
    INTEGER :: i
    acc = 0.0D0
    !$OMP PARALLEL DO DEFAULT(SHARED) REDUCTION(+:acc)
    DO i = 1, n
      acc = acc + a(i)
    END DO
    !$OMP END PARALLEL DO
    total = acc
  END FUNCTION total
END MODULE m
"#,
    ),
    (
        "critical-atomic",
        r#"
MODULE accum_mod
  REAL(8), DIMENSION(1:4) :: bins
  REAL(8) :: grand
CONTAINS
  SUBROUTINE scatter(n)
    INTEGER :: n
    INTEGER :: i, b
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(b)
    DO i = 1, n
      b = MOD(i, 4) + 1
      !$OMP ATOMIC
      bins(b) = bins(b) + 1.0D0
      !$OMP CRITICAL (tot)
      grand = grand + 1.0D0
      !$OMP END CRITICAL
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE scatter
END MODULE accum_mod
"#,
    ),
    (
        "collapse",
        r#"
MODULE m
CONTAINS
  SUBROUTINE fill(a)
    REAL(8), DIMENSION(1:2, 1:60) :: a
    INTEGER :: i, j
    !$OMP PARALLEL DO DEFAULT(SHARED) COLLAPSE(2)
    DO i = 1, 2
      DO j = 1, 60
        a(i, j) = i * 100.0D0 + j
      END DO
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE fill
END MODULE m
"#,
    ),
    (
        "alloc-print-stop",
        r#"
MODULE m
CONTAINS
  SUBROUTINE scratch(n, out)
    INTEGER :: n
    REAL(8), DIMENSION(1:1) :: out
    REAL(8), DIMENSION(:), ALLOCATABLE :: w
    INTEGER :: i
    IF (n < 1) THEN
      STOP 'bad n'
    END IF
    ALLOCATE(w(1:n))
    DO i = 1, n
      w(i) = i * 0.5D0
    END DO
    out(1) = w(1) + w(n)
    PRINT *, 'scratch done', out(1)
    DEALLOCATE(w)
  END SUBROUTINE scratch
END MODULE m
"#,
    ),
    (
        "recursion",
        r#"
MODULE m
CONTAINS
  INTEGER FUNCTION ping(n)
    INTEGER :: n
    IF (n <= 0) THEN
      ping = 0
    ELSE
      ping = pong(n - 1) + 1
    END IF
  END FUNCTION ping
  INTEGER FUNCTION pong(n)
    INTEGER :: n
    IF (n <= 0) THEN
      pong = 0
    ELSE
      pong = ping(n - 1) + 1
    END IF
  END FUNCTION pong
END MODULE m
"#,
    ),
];

/// A vectorizable loop with prep (`k + 1` into a hidden slot, one
/// `SetI` in either build) and a forwarded temp.
const LEDGER: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE sweep(a, b, n, k)
    REAL(8), DIMENSION(1:32, 1:4) :: a
    REAL(8), DIMENSION(1:32) :: b
    INTEGER :: n, k, i
    REAL(8) :: t
    DO i = 1, n
      t = b(i) * 0.5D0
      a(i, k + 1) = t + SQRT(b(i))
    END DO
  END SUBROUTINE sweep
END MODULE m
"#;

/// The per-iteration cost ledger of a `VecLoop` is recomputed from the
/// scalar loop it shadows and must match — in either build: a Simulated
/// run posts it unseen, nothing at run time could notice a wrong one.
#[test]
fn rejects_iteration_ledger_that_disagrees_with_the_scalar_loop() {
    let engine = Session::compile(&[LEDGER]).unwrap();
    for traced in [false, true] {
        let base = build(&engine, traced);
        verify(&engine, traced, &base).expect("baseline verifies");
        let ledger = base[0].vecs[0].iter_ledger.expect("straight-line body has a ledger");
        assert_eq!((ledger.ops.load, ledger.ops.store, ledger.ops.fspecial), (2, 1, 1));
        let mut miscounted = base.clone();
        miscounted[0].vecs[0].iter_ledger.as_mut().unwrap().ops.flop += 1;
        let mut dropped = base.clone();
        dropped[0].vecs[0].iter_ledger = None;
        // The ledger also goes stale when the body changes under it.
        let mut body_changed = base.clone();
        let mul = body_changed[0]
            .code
            .iter()
            .position(|i| matches!(i, BInstr::MulF))
            .expect("t = b(i) * 0.5");
        body_changed[0].code[mul] = BInstr::DivF;
        for bad in [miscounted, dropped, body_changed] {
            let msg = reject_msg(&engine, traced, &bad);
            assert!(msg.contains("iteration ledger disagrees"), "traced={traced}: {msg}");
        }
    }
}

/// A nest region: the inner loop is unrolled into the descriptor, and
/// `idx(k)` is a guarded invariant load of its entry.
const NEST: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE pick(acc, tab, idx)
    INTEGER :: m, k
    REAL(8), DIMENSION(1:5) :: acc
    REAL(8), DIMENSION(1:5, 1:9) :: tab
    INTEGER, DIMENSION(1:4) :: idx
    DO m = 1, 5
      DO k = 1, 4
        acc(m) = acc(m) + tab(m, idx(k))
      END DO
    END DO
  END SUBROUTINE pick
END MODULE m
"#;

/// A nest region's `iter_cost`, (absent) ledger and exit state are all
/// read off the scalar nest it shadows, inner trips included; the
/// verifier recomputes each.
#[test]
fn rejects_nest_region_that_disagrees_with_the_nested_scalar_code() {
    let engine = Session::compile(&[NEST]).unwrap();
    for traced in [false, true] {
        let base = build(&engine, traced);
        verify(&engine, traced, &base).expect("baseline verifies");
        let (at, head, exit) = base[0]
            .code
            .iter()
            .enumerate()
            .find_map(|(pc, i)| match *i {
                BInstr::VecLoop { exit, .. } => Some((pc, pc as u32 + 1, exit)),
                _ => None,
            })
            .expect("the nest compiles to a region");
        let d = &base[0].vecs[0];
        assert_eq!((base[0].vecs.len(), d.stmts.len(), d.guarded.len()), (1, 4, 4));
        assert!(d.iter_ledger.is_none(), "a nest carries no ledger");
        assert!(d.iter_cost > exit - head, "four inner trips retire more than the code is long");
        assert_eq!(d.exit_state.len(), 3, "k, its counter, its end");

        let reject = |edit: &dyn Fn(&mut BUnit), want: &str| {
            let mut bad = base.clone();
            edit(&mut bad[0]);
            let msg = reject_msg(&engine, traced, &bad);
            assert!(msg.contains(want), "traced={traced}: {msg}");
        };
        // The cost a flat loop over the same code would carry.
        reject(&|b| b.vecs[0].iter_cost = exit - head, "iteration cost");
        reject(&|b| b.vecs[0].iter_ledger = Some(Default::default()), "iteration ledger disagrees");
        reject(&|b| b.vecs[0].exit_state.truncate(2), "exit state disagrees");
        reject(&|b| b.vecs[0].exit_state[0].1 += 1, "exit state disagrees");
        // The descriptor goes stale when the inner trip changes under it,
        // and a trip the walker cannot bound is no region body at all.
        // The inner loop's end is its `DoInitK`'s `hi` in the optimized
        // build and the `Const` before its `DoInitC` in the traced one.
        let init = (at..exit as usize)
            .find(|&pc| matches!(base[0].code[pc], BInstr::DoInitC { .. } | BInstr::DoInitK { .. }))
            .expect("inner loop");
        let set_end = |b: &mut BUnit, end: i32| match &mut b.code[init] {
            BInstr::DoInitK { hi, .. } => *hi = end,
            _ => b.code[init - 1] = BInstr::Const(end as u64),
        };
        reject(&|b| set_end(b, 3), "iteration cost");
        reject(&|b| set_end(b, i32::MAX), "not straight-line");
    }
}

#[test]
fn rejects_guarded_load_out_of_range() {
    let (engine, base) = compiled(NEST);
    let ni = base[0].ni;
    let reject = |edit: &dyn Fn(&mut BUnit), want: &str| {
        let mut bad = base.clone();
        edit(&mut bad[0]);
        let msg = reject_msg(&engine, false, &bad);
        assert!(msg.contains(want), "{msg}");
    };
    reject(&|b| b.vecs[0].guarded[1].slot = ni, "guarded load target i-slot");
    reject(&|b| b.vecs[0].guarded[0].subs[0] = SubOp::Slot(ni + 7), "subscript operand");
    reject(&|b| b.vecs[0].guarded[0].subs[0] = SubOp::Stack, "subscript operand");
    reject(&|b| b.vecs[0].guarded[2].subs.clear(), "guarded load has 0 subscripts");
    reject(
        &|b| b.vecs[0].guarded[2].subs = vec![SubOp::Const(1); MAX_INLINE_RANK + 1],
        "guarded load has 9 subscripts",
    );
    reject(&|b| b.vecs[0].guarded[3].vs = fortrans::bytecode::VSlot::A(900), "out of range");
    reject(&|b| b.vecs[0].guarded[3].vs = fortrans::bytecode::VSlot::I(0), "not an array");
    reject(&|b| b.vecs[0].exit_state[0].0 = ni, "exit-state i-slot");
}

/// A region's prep is one `SetI` in either build — in the traced one,
/// where it posts nothing, too — and the verifier checks its
/// destination, table entry and terms in both.
#[test]
fn rejects_a_prep_that_names_no_slot_in_either_build() {
    let engine = Session::compile(&[LEDGER]).unwrap();
    for traced in [false, true] {
        let base = build(&engine, traced);
        let preps: Vec<(usize, u32)> = base[0]
            .code
            .iter()
            .enumerate()
            .filter_map(|(pc, i)| match *i {
                BInstr::SetI { aff, .. } => Some((pc, aff)),
                _ => None,
            })
            .collect();
        assert_eq!(preps.len(), 1, "`k + 1`'s prep, traced: {traced}");
        let (pc, aff) = preps[0];
        let ni = base[0].ni;
        let mut dst = base.clone();
        dst[0].code[pc] = BInstr::SetI { dst: ni, aff };
        assert!(reject_msg(&engine, traced, &dst).contains("SetI destination"));
        let mut entry = base.clone();
        entry[0].code[pc] = BInstr::SetI { dst: ni - 1, aff: aff + 1 };
        assert!(reject_msg(&engine, traced, &entry).contains("out of range"));
        let mut term = base.clone();
        term[0].affine[aff as usize].terms[0].0 = ni;
        assert!(reject_msg(&engine, traced, &term).contains("affine term"));
    }
}

/// A masked select reduction and a region whose alias pairs the compiler
/// pruned: `t` is the frame's own array, `a` and `b` are dummies.
const SELECT: &str = r#"
MODULE m
CONTAINS
  INTEGER FUNCTION find(n, v, w)
    INTEGER :: n, w, j, k
    INTEGER, DIMENSION(1:16) :: v
    k = 0
    DO j = 1, n
      IF (v(j) == w .OR. j > 2 * n) k = MAX(k, j + 1)
    END DO
    find = k
  END FUNCTION find
  SUBROUTINE halve(n, a, b)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:16) :: a, b, t
    DO i = 1, n
      t(i) = a(i) * 0.5D0
      b(i) = t(i) + a(i)
    END DO
  END SUBROUTINE halve
  SUBROUTINE outer(n, a, b)
    INTEGER :: n
    REAL(8), DIMENSION(1:16) :: a, b
    CALL halve(n, a, b)
  END SUBROUTINE outer
END MODULE m
"#;

/// A select's costs are read off the IF in the scalar loop it shadows,
/// its mask reads INTEGER streams only, and its fold is an INTEGER
/// `MAX`/`MIN` into a frame INTEGER slot; the verifier checks each.
#[test]
fn rejects_masked_select_that_disagrees_with_its_scalar_loop() {
    use fortrans::bytecode::{MaskOp, VecOp};
    use fortrans::intrinsics::Intr;
    use fortrans::ScalarTy;
    let engine = Session::compile(&[SELECT]).unwrap();
    for traced in [false, true] {
        let base = build(&engine, traced);
        verify(&engine, traced, &base).expect("baseline verifies");
        let d = &base[0].vecs[0];
        let sel = d.sel.as_ref().expect("the search loop is a masked select");
        assert!(d.stmts.is_empty() && d.iter_ledger.is_none() && d.taken_cost > 0);
        assert_eq!(d.accesses.iter().map(|a| a.ty).collect::<Vec<_>>(), [ScalarTy::I]);
        assert_eq!(sel.mask.len(), 7, "v(j) w == j 2*n > .OR.");
        let ni = base[0].ni;
        let reject = |edit: &dyn Fn(&mut BUnit), want: &str| {
            let mut bad = base.clone();
            edit(&mut bad[0]);
            let msg = reject_msg(&engine, traced, &bad);
            assert!(msg.contains(want), "traced={traced}: {msg}");
        };
        reject(&|b| b.vecs[0].taken_cost += 1, "taken-IF cost");
        reject(&|b| b.vecs[0].taken_cost = 0, "taken-IF cost");
        reject(&|b| b.vecs[0].sel = None, "taken-IF cost");
        reject(&|b| b.vecs[0].iter_cost += 1, "iteration cost");
        reject(&|b| b.vecs[0].accesses[0].ty = ScalarTy::F, "not an INTEGER read");
        reject(&|b| b.vecs[0].sel.as_mut().unwrap().mask.push(MaskOp::And), "lane vector");
        reject(&|b| b.vecs[0].sel.as_mut().unwrap().mask.insert(0, MaskOp::Not), "lane vector");
        reject(&|b| b.vecs[0].sel.as_mut().unwrap().acc = ni, "accumulator i-slot");
        reject(&|b| b.vecs[0].sel.as_mut().unwrap().f = Intr::Abs, "folds with");
        reject(&|b| b.vecs[0].sel.as_mut().unwrap().term.inv = ni + 3, "term invariant");
        reject(&|b| b.vecs[0].stmts.push(vec![VecOp::Load(0)]), "also has lane statements");
        // An arm that jumps is no select arm the costs could describe.
        let arm = (0..base[0].code.len())
            .find(|&pc| matches!(base[0].code[pc], BInstr::IntrI { .. }))
            .expect("MAX in the arm");
        reject(&|b| b.code[arm + 1] = BInstr::Jump(arm as u32 + 2), "nor a masked select");
    }
}

/// `alias_pairs` is exactly what `write_pairs` keeps: pairs with the
/// frame's own `t` are pruned, the dummy pair `a`/`b` is not. And an
/// array argument may bind nothing but its dummy's slot, which is what
/// makes the pruning sound.
#[test]
fn rejects_alias_pairs_and_array_bindings_the_pruning_does_not_allow() {
    let (engine, base) = compiled(SELECT);
    let d = &base[1].vecs[0];
    assert_eq!(d.accesses.len(), 3, "t, a, b");
    assert_eq!(d.alias_pairs, [(1, 2)], "only the dummies a and b");
    let reject = |edit: &dyn Fn(&mut [BUnit]), want: &str| {
        let mut bad = base.clone();
        edit(&mut bad);
        let msg = reject_msg(&engine, false, &bad);
        assert!(msg.contains(want), "{msg}");
    };
    reject(&|b| b[1].vecs[0].alias_pairs.clear(), "alias pair list");
    reject(&|b| b[1].vecs[0].alias_pairs.push((0, 1)), "alias pair list");
    // `outer` passes `a` to `halve`'s first array dummy; retarget it at
    // `halve`'s local `t`, which the pruning assumes no call can reach.
    let fortrans::bytecode::VSlot::A(t) = base[1].vslots[4] else { panic!("t is a frame array") };
    reject(
        &|b| {
            for bind in &mut b[2].calls[0].binds {
                if let VSlot::A(_) = bind.to {
                    bind.to = VSlot::A(t);
                }
            }
        },
        "not its dummy's",
    );
}

const PROVEN: &str = r#"
MODULE gm
  REAL(8), DIMENSION(1:4, 1:8) :: g
  REAL(8), DIMENSION(:), ALLOCATABLE :: h
END MODULE gm
MODULE m
  USE gm
CONTAINS
  SUBROUTINE prove(n, a)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:8) :: a, t
    DO i = 1, n
      t(i) = g(2, i) + a(i)
      g(3, i) = t(i) * h(i)
    END DO
  END SUBROUTINE prove
  SUBROUTINE grow(n)
    INTEGER :: n
    ALLOCATE(h(1:n))
  END SUBROUTINE grow
END MODULE m
"#;

/// Lowering's stream proofs are recomputed from the slots' static
/// shapes: a proven base, a window or the global-cell list that differs
/// is refused, and so is anything that would let a proven slot hold an
/// array of another shape — a fixed global's ALLOCATE, a fixed frame
/// array a call binds.
#[test]
fn rejects_stream_proofs_the_slot_shapes_do_not_give() {
    use fortrans::bytecode::FULL_WINDOW;
    use fortrans::ScalarTy;
    let engine = Session::compile(&[PROVEN]).unwrap();
    for traced in [false, true] {
        let base = build(&engine, traced);
        verify(&engine, traced, &base).expect("baseline verifies");
        let d = &base[0].vecs[0];
        // t(i), g(2, i), a(i), g(3, i), h(i): the frame's own t and the
        // fixed module array g are proven, the dummy a and the
        // allocatable h are not. Only g(3, i) against a is compared:
        // g against h are two global cells.
        let proven: Vec<_> = d.accesses.iter().map(|a| a.proven).collect();
        assert_eq!(proven, [Some((-1, 1)), Some((-3, 4)), None, Some((-2, 4)), None]);
        assert_eq!((d.window, d.alias_pairs.as_slice()), ((1, 8), [(2, 3)].as_slice()));
        assert_eq!(d.globals.len(), 2);
        let reject = |edit: &dyn Fn(&mut [BUnit]), want: &str| {
            let mut bad = base.clone();
            edit(&mut bad);
            let msg = reject_msg(&engine, traced, &bad);
            assert!(msg.contains(want), "traced={traced}: {msg}");
        };
        reject(&|b| b[0].vecs[0].window.1 += 1, "vector window");
        reject(&|b| b[0].vecs[0].window = FULL_WINDOW, "vector window");
        reject(&|b| b[0].vecs[0].accesses[1].proven = Some((-2, 4)), "carries proof");
        reject(&|b| b[0].vecs[0].accesses[0].proven = None, "carries proof");
        reject(&|b| b[0].vecs[0].accesses[2].proven = Some((-1, 1)), "carries proof");
        reject(&|b| b[0].vecs[0].accesses[4].proven = Some((-1, 1)), "carries proof");
        reject(&|b| b[0].vecs[0].accesses[1].ty = ScalarTy::I, "is declared F");
        reject(&|b| b[0].vecs[0].globals.pop().map_or((), drop), "global-cell list");
        reject(&|b| b[0].vecs[0].alias_pairs.push((3, 4)), "alias pair list");
        // `grow` allocates h; aim its ALLOCATE at g's cell.
        let g = d.accesses[1].vs;
        reject(
            &|b| {
                for ins in &mut b[1].code {
                    if let BInstr::Alloc { vs, .. } = ins {
                        *vs = g;
                    }
                }
            },
            "fixed-shape global cell",
        );
        // The dummy a's slot listed as a fixed array.
        let VSlot::A(a) = d.accesses[2].vs else { panic!("a is a frame array") };
        reject(
            &|b| {
                b[0].fixed_arrays.push((a, ScalarTy::F, vec![(1, 8)]));
                b[0].fixed_arrays.sort_by_key(|f| f.0);
            },
            "is a dummy's",
        );
    }
}

/// Both builds of every program, each lowered from the program it runs,
/// and the optimized lowering of the program as resolved, which the
/// benchmark's frozen stage replay lowers and verifies: lowering applies
/// no program rule, so it takes either program.
#[test]
fn every_corpus_program_verifies_in_both_variants() {
    let corpus = SWEEP.iter().map(|(label, src)| (label.to_string(), vec![src.to_string()]));
    let generated =
        (0..200).map(|seed| (format!("gen seed {seed}"), fortrans::gen::generate(seed)));
    let glaf = sources::glaf_source_sets().into_iter().enumerate();
    let glaf = glaf.map(|(k, set)| (format!("GLAF source set {k}"), set));
    for (label, srcs) in corpus.chain(generated).chain(glaf) {
        let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let engine =
            Session::compile(&srcs).unwrap_or_else(|e| panic!("{label} compiles: {e}"));
        let art = engine.artifact();
        let builds = [
            (&**art.lowered_program(false), false),
            (&**art.lowered_program(true), true),
            (art.program(), false),
        ];
        for (k, (prog, traced)) in builds.into_iter().enumerate() {
            let bunits = compile_program(prog, traced);
            verify_program(prog, &bunits).unwrap_or_else(|e| {
                panic!("{label} (build {k}, traced={traced}) fails verification: {e}")
            });
        }
    }
}

/// `put` inlined into the loop of `fill`, which `driver` calls, with a
/// fixed local array the block's entry resets.
const INLINED: &str = r#"
MODULE m
  REAL(8), DIMENSION(1:4) :: w
CONTAINS
  SUBROUTINE put(k, x)
    INTEGER :: k
    REAL(8) :: x
    REAL(8), DIMENSION(1:3) :: t
    t(2) = x
    w(k) = t(2) + k
  END SUBROUTINE put
  SUBROUTINE fill(a, n)
    REAL(8), DIMENSION(1:4) :: a
    INTEGER :: n, i
    DO i = 1, n
      CALL put(i, a(i))
    END DO
  END SUBROUTINE fill
  SUBROUTINE driver(a, n)
    REAL(8), DIMENSION(1:4) :: a
    INTEGER :: n
    CALL fill(a, n)
  END SUBROUTINE driver
END MODULE m
"#;

/// An inlined block's entry resets slot ranges that must lie in the
/// frame and hold no dummy array, nests in an earlier block, and
/// pairs with its exit on every path out of the unit.
#[test]
fn rejects_inlined_blocks_that_reset_outside_the_frame_or_stay_open() {
    let engine = Session::compile(&[INLINED]).expect("compiles");
    let prog = engine.artifact().lowered_program(false);
    let base = compile_program(prog, false);
    let u = prog.unit_id("fill").expect("fill");
    let at = |want: fn(&BInstr) -> bool| base[u].code.iter().position(want).expect("instruction");
    let exit = at(|i| matches!(i, BInstr::InlineExit { .. }));
    let VSlot::A(dummy) = base[u].vslots[0] else { panic!("a is a frame array") };
    assert!(base[u].inlines[0].a.1 > base[u].inlines[0].a.0, "the block resets t");
    let reject = |bad: &[BUnit]| verify_program(prog, bad).expect_err("accepted").to_string();
    let mut bad = base.clone();
    bad[u].code[exit] = BInstr::Jump(exit as u32 + 1);
    assert!(reject(&bad).contains("block"), "{}", reject(&bad));
    let mut bad = base.clone();
    bad[u].inlines[0].f.1 = bad[u].nf + 1;
    assert!(reject(&bad).contains("inline reset f-slots"), "{}", reject(&bad));
    let mut bad = base.clone();
    bad[u].inlines[0].a = (dummy, dummy + 1);
    assert!(reject(&bad).contains("dummy array slot"), "{}", reject(&bad));
    let mut bad = base.clone();
    bad[u].inlines[0].outer = 0;
    assert!(reject(&bad).contains("nests in descriptor 0, not before it"), "{}", reject(&bad));
    let mut bad = base.clone();
    bad[u].units[0].1 = prog.units.len() as u32;
    assert!(reject(&bad).contains("PC→unit entry"), "{}", reject(&bad));
}

/// The pristine compiler output for the rejection programs also
/// verifies — i.e. the rejections above really come from the injected
/// corruption, not a pre-existing violation.
#[test]
fn rejection_baselines_are_clean() {
    for src in [BRANCHY, GATHER, NEST, SELECT, FIXED, PROVEN] {
        let (engine, bunits) = compiled(src);
        verify(&engine, false, &bunits).expect("baseline verifies");
    }
}

/// A running sum after a map statement, a map whose forwarded temp `t`
/// nothing reads after the loop, and one whose temp `w` is read after
/// it, which keeps that loop scalar.
const RUNNING: &str = r#"
MODULE m
CONTAINS
  SUBROUTINE scan(n, a, b, c)
    INTEGER :: n, i
    REAL(8), DIMENSION(1:32) :: a, b, c
    REAL(8) :: s, t, w
    s = 0.0D0
    DO i = 1, n
      c(i) = a(i) * 0.5D0
      s = s + a(i)
      b(i) = s * 2.0D0
    END DO
    DO i = 1, n
      t = a(i) + 1.0D0
      c(i) = t * 2.0D0
    END DO
    DO i = 1, n
      w = c(i) - 1.0D0
      b(i) = w * 3.0D0
    END DO
    b(1) = w
  END SUBROUTINE scan
END MODULE m
"#;

/// The vector rung fills a running value's lanes when it folds the
/// accumulator statement, so only the statements after it may read
/// them, and only in a descriptor that has one. The verifier checks
/// each.
#[test]
fn rejects_running_value_reads_the_fold_has_not_filled() {
    use fortrans::bytecode::VecOp;
    let engine = Session::compile(&[RUNNING]).unwrap();
    for traced in [false, true] {
        let base = build(&engine, traced);
        verify(&engine, traced, &base).expect("baseline verifies");
        let (sum, map) = (&base[0].vecs[0], &base[0].vecs[1]);
        assert_eq!((sum.stmts.len(), sum.red.map(|r| r.stmt)), (3, Some(1)));
        assert!(matches!(sum.stmts[2].first(), Some(VecOp::Running)), "{:?}", sum.stmts[2]);
        assert!(map.red.is_none());

        // The reading statement moved ahead of the accumulator's.
        let mut moved = base.clone();
        let d = &mut moved[0].vecs[0];
        let read = d.stmts.pop().unwrap();
        d.stmts.insert(0, read);
        d.red.as_mut().unwrap().stmt = 2;
        let msg = reject_msg(&engine, traced, &moved);
        assert!(msg.contains("running-value read in statement 0 does not follow"), "{msg}");

        // A running-value read in a map descriptor.
        let mut orphan = base.clone();
        orphan[0].vecs[1].stmts[0][0] = VecOp::Running;
        let msg = reject_msg(&engine, traced, &orphan);
        assert!(msg.contains("running-value read in a descriptor with no accumulator"), "{msg}");

        // An accumulator statement the descriptor does not have.
        let mut missing = base.clone();
        missing[0].vecs[0].red.as_mut().unwrap().stmt = 3;
        let msg = reject_msg(&engine, traced, &missing);
        assert!(msg.contains("accumulator statement 3 out of range"), "{msg}");
    }
}

/// A region never stores a forwarded temp, so `scan`'s third loop, whose
/// temp `w` is read after it, has no descriptor in either build: the
/// analysis refuses it (`Shape`), and it runs the same on the
/// tree-walker and the scalar, vector and eager-native rungs.
#[test]
fn a_temp_read_after_its_loop_leaves_no_descriptor() {
    use fortrans::bytecode::VecRefusal;
    use fortrans::{ArgVal, ExecMode, ExecTier};
    let engine = Session::compile(&[RUNNING]).unwrap();
    for traced in [false, true] {
        assert_eq!(build(&engine, traced)[0].vecs.len(), 2, "traced = {traced}");
    }
    let refused: Vec<_> = engine.artifact().vector_refusals().into_iter().map(|r| r.why).collect();
    assert_eq!(refused, [VecRefusal::Shape]);
    let a: Vec<f64> = (0..32).map(|k| f64::from(k) * 0.375 - 4.0).collect();
    for mode in [ExecMode::Serial, ExecMode::Simulated { threads: 2 }] {
        let run = |rung: &str| {
            let s = Session::compile(&[RUNNING]).unwrap();
            s.set_vector_enabled(rung != "scalar");
            s.set_native_enabled(rung == "native");
            s.set_native_eager(rung == "native");
            let tier = if rung == "oracle" { ExecTier::TreeWalk } else { ExecTier::Vm };
            let zeros = [0.0; 32];
            let args = [
                ArgVal::I(32),
                ArgVal::array_f(&a, 1),
                ArgVal::array_f(&zeros, 1),
                ArgVal::array_f(&zeros, 1),
            ];
            let out = s.run_tiered("scan", &args, mode, tier).expect("runs");
            let bits = |h: &fortrans::ArrayObj| (0..h.len()).map(|k| h.get_bits(k)).collect();
            let arrays: Vec<Vec<u64>> =
                args.iter().filter_map(|x| x.handle().map(|h| bits(h))).collect();
            (arrays, out.trace)
        };
        let want = run("oracle");
        for rung in ["scalar", "vector", "native"] {
            assert_eq!(run(rung), want, "{rung} rung, {mode:?}");
        }
    }
}
