//! Operand-carrying scalar glue: in the optimized build an INTEGER
//! frame-scalar assignment whose right side is affine in frame INTEGER
//! scalars and literals — a set, a move, a `VecLoop`'s prep — is one
//! `SetI` naming an entry of the unit's affine table, and a fused loop
//! over `i32` literal bounds starts with one `DoInitK`.
//!
//! Wrapping sums (terms near `HUGE(0)`, negative coefficients, a slot
//! both read and written) and literal bounds at the ends of `i32` and
//! past them run on four rungs in Serial, `Parallel{2}` and Simulated
//! (`common/rungs.rs`) and must agree exactly; a region whose prep is
//! one instruction trips a step budget at the same step on every rung;
//! and FUN3D's per-edge fast path and its regions' preps are pinned.

#[path = "common/rungs.rs"]
mod rungs;
#[path = "common/sources.rs"]
mod sources;

use fortrans::bytecode::{Affine, BInstr, BUnit, VSlot};
use fortrans::{ArgVal, ExecMode, ExecTier, RunLimits, Session, Val};
use rungs::agree;

/// The optimized build of `unit`.
fn unit(s: &Session, name: &str) -> BUnit {
    let u = s.program().unit_id(name).expect("unit exists");
    s.artifact().bytecode(false)[u].clone()
}

/// The i-slot of frame INTEGER `var` of `name`.
fn islot(s: &Session, name: &str, var: &str) -> u32 {
    let u = s.program().unit_id(name).expect("unit exists");
    let v = s.program().units[u]
        .vars
        .iter()
        .position(|v| v.name == var)
        .expect("declared");
    let VSlot::I(slot) = unit(s, name).vslots[v] else {
        panic!("{var} is a frame INTEGER")
    };
    slot
}

/// The affine right sides of `bu`'s `SetI`s, by destination slot, in
/// code order.
fn sets(bu: &BUnit) -> Vec<(u32, Affine)> {
    bu.code
        .iter()
        .filter_map(|i| match *i {
            BInstr::SetI { dst, aff } => Some((dst, bu.affine[aff as usize].clone())),
            _ => None,
        })
        .collect()
}

fn affine(add: i64, terms: &[(u32, i64)]) -> Affine {
    Affine {
        add,
        terms: terms.to_vec(),
    }
}

/// Affine INTEGER assignments whose sums wrap: `work(a, n)` with `n = 5`.
/// `big` starts three below `HUGE(0)` (written out: `HUGE` of an
/// INTEGER lowers through REAL, so `HUGE(0) - n` is no affine sum, while
/// `HUGE(0) * 3`, a constant, is one's constant part).
const WRAPPING: &str = r#"
MODULE m
  INTEGER :: r1, r2, r3, r4, r5
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n, k, j, big, i
    big = 9223372036854775807 - n + 2
    k = big + big + 7
    j = -(k - 3 * n) * 5 - big
    k = k * 3 - k
    j = j - (j - n) * 2 + k
    i = -n * (-4) + HUGE(0) * 3
    r1 = big
    r2 = k
    r3 = j
    r4 = i
    r5 = r4 * 2 + n
  END SUBROUTINE work
END MODULE m
"#;

#[test]
fn wrapping_affine_assignments_agree_on_every_rung() {
    let snaps = agree("wrapping", WRAPPING, 5, |_| {});
    // The oracle's values are the ring's: every sum wraps modulo 2^64.
    let n = 5i64;
    let big = i64::MAX - n + 2;
    let k0 = big.wrapping_add(big).wrapping_add(7);
    let j0 = (k0.wrapping_sub(3 * n)).wrapping_mul(-5).wrapping_sub(big);
    let k = k0.wrapping_mul(3).wrapping_sub(k0);
    let j = j0
        .wrapping_sub(j0.wrapping_sub(n).wrapping_mul(2))
        .wrapping_add(k);
    let i = (-n * -4).wrapping_add(i64::MAX.wrapping_mul(3));
    let want = [big, k, j, i, i.wrapping_mul(2).wrapping_add(n)];
    let got: Vec<i64> = ["m::r1", "m::r2", "m::r3", "m::r4", "m::r5"]
        .iter()
        .map(|g| {
            let (_, bits) = snaps[0]
                .globals
                .iter()
                .find(|(name, _)| name == g)
                .expect(g);
            bits.as_ref().expect("a scalar")[0] as i64
        })
        .collect();
    assert_eq!(got, want);

    // Each assignment to a frame scalar is one `SetI`, the terms of a
    // slot collected into one coefficient; the stores to module scalars
    // and `r5`'s right side, which reads one, keep the stack code.
    let s = Session::compile(&[WRAPPING]).expect("compiles");
    let at = |v| islot(&s, "work", v);
    let (sn, sk, sj, sbig, si) = (at("n"), at("k"), at("j"), at("big"), at("i"));
    assert_eq!(
        sets(&unit(&s, "work")),
        [
            (sbig, affine(i64::MAX.wrapping_add(2), &[(sn, -1)])),
            (sk, affine(7, &[(sbig, 2)])),
            (sj, affine(0, &[(sk, -5), (sn, 15), (sbig, -1)])),
            (sk, affine(0, &[(sk, 2)])),
            (sj, affine(0, &[(sj, -1), (sn, 2), (sk, 1)])),
            (si, affine(i64::MAX.wrapping_mul(3), &[(sn, 4)])),
        ]
    );
    // The traced build keeps the stack code, whose operations it counts.
    let traced = s.artifact().bytecode(true)[s.program().unit_id("work").unwrap()].clone();
    assert!(!traced
        .code
        .iter()
        .any(|i| matches!(i, BInstr::SetI { .. } | BInstr::DoInitK { .. })));
    assert!(traced.affine.is_empty());
}

/// Literal `DO` bounds at both ends of `i32` and past them, over scalar
/// loops and a region, and a region whose prep is an affine sum.
const BOUNDS: &str = r#"
MODULE m
  INTEGER :: c
  REAL(8), DIMENSION(1:40) :: w
  REAL(8), DIMENSION(1:5) :: g
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    INTEGER :: n, i, t
    t = 0
    DO i = -2147483648, -2147483646
      t = t + i
    END DO
    DO i = 2147483645, 2147483647
      t = t - i * 2
    END DO
    DO i = 2147483646, 2147483648
      t = t + i
    END DO
    DO i = -2147483649, -2147483647
      t = t + i
    END DO
    c = t + i
    DO i = 2147483643, 2147483647
      g(i - 2147483642) = a(i - 2147483642) * 2.0D0
    END DO
    DO i = 1, 5
      w((n - 1) * 5 + (n - 3) * 2 + i) = a(i) + g(i)
    END DO
  END SUBROUTINE work
END MODULE m
"#;

#[test]
fn literal_bounds_at_and_past_i32_agree_on_every_rung() {
    agree("bounds", BOUNDS, 5, |_| {});
    let s = Session::compile(&[BOUNDS]).expect("compiles");
    let bu = unit(&s, "work");
    let inits: Vec<String> = bu
        .code
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| match *i {
            BInstr::DoInitK { lo, hi, .. } => Some(format!("K {lo}..{hi}")),
            BInstr::DoInitC { .. } => match (bu.code[pc - 2], bu.code[pc - 1]) {
                (BInstr::Const(lo), BInstr::Const(hi)) => {
                    Some(format!("C {}..{}", lo as i64, hi as i64))
                }
                other => panic!("bounds {other:?}"),
            },
            _ => None,
        })
        .collect();
    assert_eq!(
        inits,
        [
            "K -2147483648..-2147483646",
            "K 2147483645..2147483647",
            "C 2147483646..2147483648",
            "C -2147483649..-2147483647",
            "K 2147483643..2147483647",
            "K 1..5",
        ]
    );
    // Both regions ran, and the second one's prep is one `SetI`.
    let run = Session::compile(&[BOUNDS]).expect("compiles");
    run.set_native_enabled(false);
    let a = [ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(5)];
    run.run("work", &a, ExecMode::Serial).expect("runs");
    assert_eq!(run.vector_entry_count(), 2);
    assert_eq!(preps(&bu), [0, 1]);
}

/// Per `VecLoop`, how many instructions sit between its loop's init
/// (`DoInitK` or `DoInitC`) and it, each one a `SetI`.
fn preps(bu: &BUnit) -> Vec<usize> {
    let mut out = Vec::new();
    for (pc, i) in bu.code.iter().enumerate() {
        if !matches!(i, BInstr::VecLoop { .. }) {
            continue;
        }
        let first = (0..pc)
            .rev()
            .find(|&p| !matches!(bu.code[p], BInstr::SetI { .. }))
            .unwrap();
        assert!(
            matches!(
                bu.code[first],
                BInstr::DoInitK { .. } | BInstr::DoInitC { .. }
            ),
            "the region at {pc} has prep other than `SetI`s after {:?}",
            bu.code[first]
        );
        out.push(pc - first - 1);
    }
    out
}

/// A VM session of one rung: scalar, vector, or eager native.
fn rung_session(src: &str, vector: bool, native: bool) -> Session {
    let s = Session::compile(&[src]).expect("program compiles");
    s.set_vector_enabled(vector);
    s.set_native_enabled(native);
    s.set_native_eager(native);
    s
}

/// `work`'s outcome under a step budget of `max_steps`.
fn budgeted(s: &mut Session, max_steps: u64) -> Result<Option<Val>, String> {
    s.set_limits(RunLimits {
        max_steps: Some(max_steps),
        ..RunLimits::default()
    });
    let a = [ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(5)];
    s.run_tiered("work", &a, ExecMode::Serial, ExecTier::Vm)
        .map(|o| o.result)
        .map_err(|e| e.to_string())
}

/// A region whose prep is one `SetI` reserves what its scalar loop
/// retires: the smallest budget `work` finishes under is the scalar
/// rung's on every rung, every smaller one trips alike, and the regions
/// still run at the smallest.
#[test]
fn a_one_instruction_prep_trips_at_the_same_step_on_every_rung() {
    let mut rungs = [
        rung_session(BOUNDS, false, false),
        rung_session(BOUNDS, true, false),
        rung_session(BOUNDS, true, true),
    ];
    let smallest = (1..4096u64)
        .find(|&b| budgeted(&mut rungs[0], b).is_ok())
        .expect("the program fits 4096 steps");
    for b in 1..=smallest {
        let scalar = budgeted(&mut rungs[0], b);
        for (k, s) in rungs.iter_mut().enumerate().skip(1) {
            assert_eq!(budgeted(s, b), scalar, "rung {k} under a budget of {b}");
        }
    }
    let before = (rungs[1].vector_entry_count(), rungs[2].native_entry_count());
    budgeted(&mut rungs[1], smallest).expect("fits");
    budgeted(&mut rungs[2], smallest).expect("fits");
    let after = (rungs[1].vector_entry_count(), rungs[2].native_entry_count());
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (2, 2),
        "both regions ran at {smallest}"
    );
}

/// The fused FUN3D configuration's optimized build: from the edge loop's
/// head through the edge span's commit and back, a cell's per-edge fast
/// path dispatches 21 instructions (39 with the glue on the operand
/// stack), and every region's prep is one `SetI` per hidden slot.
#[test]
fn fun3d_per_edge_fast_path_and_preps() {
    use fun3d::variants::{build_artifact, Fun3dConfig, Fun3dVariant};
    let art = build_artifact(Fun3dVariant::Glaf(Fun3dConfig {
        fuse: true,
        ..Default::default()
    }));
    let s = Session::solo(art);
    let bu = &unit(&s, "cell_loop");
    // The edge span is the one whose original loops are DO lines 79, 94.
    let enter = bu
        .code
        .iter()
        .position(|i| {
            matches!(*i, BInstr::SpanEnter { span }
                if bu.line_for_pc(bu.spans[span as usize].loops[0].0) == Some(79))
        })
        .expect("the edge span");
    let head = (0..enter)
        .rev()
        .find(|&p| matches!(bu.code[p], BInstr::DoHead { exit, .. } if exit as usize > enter))
        .expect("the edge loop around the span");
    let mut path = Vec::new();
    let mut pc = head;
    loop {
        path.push(bu.code[pc]);
        pc = match bu.code[pc] {
            BInstr::VecLoop { exit, .. } => exit as usize,
            BInstr::DoIncr1 { head: h, .. } if h as usize == head => break,
            BInstr::Jump(_) | BInstr::JumpIfFalse(_) | BInstr::DoIncr1 { .. } => {
                panic!("the fast path branches at {pc}: {:?}", bu.code[pc])
            }
            BInstr::DoHead { .. } if pc != head => panic!("a scalar loop at {pc}"),
            _ => pc + 1,
        };
    }
    println!("per-edge fast path: {} instructions", path.len());
    assert!(path.len() <= 21, "{} instructions: {path:#?}", path.len());
    for u in s.artifact().bytecode(false).iter() {
        for n in preps(u) {
            assert!(n <= 1, "a FUN3D region's prep is {n} instructions");
        }
    }
}

/// No fused loop of the optimized build pushes `i32` literal bounds for
/// a `DoInitC`: over FUN3D's fused configuration, SARB's GLAF-serial
/// build, the GLAF source sets and the generated F77 corpus.
#[test]
fn no_literal_bounds_are_left_on_the_operand_stack() {
    use fortrans::CompiledProgram;
    let fits = |b: u64| i32::try_from(b as i64).is_ok();
    let check = |label: &str, art: &CompiledProgram| {
        for bu in art.bytecode(false).iter() {
            for w in bu.code.windows(3) {
                if let [BInstr::Const(lo), BInstr::Const(hi), BInstr::DoInitC { .. }] = *w {
                    assert!(
                        !(fits(lo) && fits(hi)),
                        "{label}: `Const Const DoInitC` of {lo}, {hi}"
                    );
                }
            }
        }
    };
    use fun3d::variants::{Fun3dConfig, Fun3dVariant};
    let fused = Fun3dVariant::Glaf(Fun3dConfig {
        fuse: true,
        ..Default::default()
    });
    check("FUN3D fused", &fun3d::variants::build_artifact(fused));
    check(
        "SARB GLAF serial",
        &sarb::variants::build_artifact(sarb::variants::SarbVariant::GlafSerial),
    );
    for sources in sources::glaf_source_sets() {
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        check(
            "GLAF source set",
            &CompiledProgram::compile(&refs).expect("compiles"),
        );
    }
    for seed in 0..32 {
        let sources = fortrans::gen::generate(seed);
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        check(
            "generated F77",
            &CompiledProgram::compile(&refs).expect("compiles"),
        );
    }
}
