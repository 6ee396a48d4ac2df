//! DO loops whose bounds sit at the ends of `i64`, where the loop
//! variable's last increment overflows. F77 fixes a loop's iteration
//! count when the loop starts, `MAX(INT((m2 - m1 + m3) / m3), 0)` (ANSI
//! X3.9-1978 §11.10.3), and the engine says so once
//! ([`fortrans::intrinsics`]' `do_trips`): the tree-walker, the OMP
//! driver, the VM's loop head and the fast-rung entry all run that many
//! iterations. An earlier engine compared the variable against the end
//! bound instead, so `DO i = HUGE - 1, HUGE` never ended, the same
//! bounds under `!$OMP PARALLEL DO` ran twice, and the vector and native
//! rungs read a sum the scalar loop faulted on.
//!
//! Every program runs on the tree-walk oracle, the scalar VM, the vector
//! rung and eager native in Serial, `Parallel{2}` and Simulated
//! (`common/rungs.rs`); each mode's oracle gives the written-out values
//! and every rung agrees with it exactly, with no trap into the oracle.
//! The debug build runs them too, where an unchecked `i + step` panics.

#[path = "common/rungs.rs"]
mod rungs;

use fortrans::{ExecMode, RunLimits, Session};
use rungs::{Rung, MODES, RUNGS};

const MIN: i64 = i64::MIN;
const MAX: i64 = i64::MAX;

/// `work(a, n)` storing `body`'s results in the module array `r` and
/// REAL `t`; with `n = 1`, `m` is `MIN`, which lowering cannot fold.
fn program(body: &str) -> String {
    format!(
        r#"
MODULE m
  INTEGER, DIMENSION(1:8) :: r
  REAL(8) :: t
CONTAINS
  SUBROUTINE work(a, n)
    REAL(8), DIMENSION(1:5) :: a
    REAL(8), DIMENSION(1:2) :: b
    INTEGER :: n, m, i, c
    REAL(8) :: s
    m = -9223372036854775807 - n
{body}
  END SUBROUTINE work
END MODULE m
"#
    )
}

/// The bits of module global `name` in one run's snapshot.
fn global(snap: &rungs::Snap, name: &str) -> Vec<u64> {
    let g = snap.globals.iter().find(|(g, _)| g.ends_with(name)).expect("the global");
    g.1.clone().expect("the global holds a value")
}

type Sessions = Vec<(ExecMode, Rung, Session)>;

/// A step budget far past what the programs retire, so a loop that does
/// not stop fails the test rather than hanging it.
fn budget() -> RunLimits {
    RunLimits { max_steps: Some(100_000), ..RunLimits::default() }
}

/// Runs `body` on every rung in every mode: each mode's oracle must
/// leave `want` in `r` (as far as `want` goes) and every rung agree with
/// it. Returns the sessions of each rung in each mode and the Serial
/// oracle's first snapshot, for inspection.
fn check(label: &str, body: &str, want: &[i64]) -> (Sessions, rungs::Snap) {
    let src = program(body);
    let mut sessions = Vec::new();
    let mut serial = None;
    for mode in MODES {
        let (oracle, s) = rungs::runs_within(&src, 1, mode, Rung::TreeWalk, budget());
        for snap in &oracle {
            assert!(snap.result.is_ok(), "{label} under {mode:?}: {:?}", snap.result);
            let r: Vec<i64> = global(snap, "r").iter().map(|&b| b as i64).collect();
            assert_eq!(r[..want.len()], *want, "{label}: the oracle under {mode:?}");
        }
        sessions.push((mode, Rung::TreeWalk, s));
        for rung in &RUNGS[1..] {
            let (got, s) = rungs::runs_within(&src, 1, mode, *rung, budget());
            assert_eq!(got, oracle, "{label}: {rung:?} under {mode:?} diverges from the oracle");
            sessions.push((mode, *rung, s));
        }
        serial.get_or_insert(oracle.into_iter().next().expect("two runs"));
    }
    (sessions, serial.expect("ran Serial"))
}

/// Counts the trips of `DO i = lo, hi[, step]` into `r(k)` and leaves
/// the variable in `r(k + 1)`.
fn counted(k: usize, bounds: &str) -> String {
    let v = k + 1;
    format!(
        "    c = 0\n    DO i = {bounds}\n      c = c + 1\n    END DO\n    r({k}) = c\n    \
         r({v}) = i\n"
    )
}

/// Each loop runs F77's count, and its variable keeps the last
/// iteration's value: `HUGE` (not one past it), `MIN`, `HUGE - 1` and
/// `MIN + 3 * 2**62`.
const SERIAL_WANT: [i64; 8] = [2, MAX, 2, MIN, 3, MAX - 1, 4, 1 << 62];

#[test]
fn serial_loops_at_the_ends_of_i64_run_f77s_count() {
    let run_time = [
        counted(1, "9223372036854775807 - n, 9223372036854775807"),
        counted(3, "m + n, m, -n"),
        counted(5, "9223372036854775807 - 7 * n, 9223372036854775807, 3 * n"),
        counted(7, "m, 9223372036854775807, 4611686018427387904 * n"),
    ];
    check("run-time bounds", &run_time.concat(), &SERIAL_WANT);
    // The same bounds as literals, which lowering folds.
    let literal = [
        counted(1, "9223372036854775806, 9223372036854775807"),
        counted(3, "-9223372036854775807, -9223372036854775807 - 1, -1"),
        counted(5, "9223372036854775800, 9223372036854775807, 3"),
        counted(7, "-9223372036854775807 - 1, 9223372036854775807, 4611686018427387904"),
    ];
    check("literal bounds", &literal.concat(), &SERIAL_WANT);
}

/// `!$OMP PARALLEL DO` splits the same count across the team.
#[test]
fn parallel_loops_at_the_ends_of_i64_run_f77s_count() {
    let parallel = |k: usize, bounds: &str| {
        format!(
            "    c = 0\n    !$OMP PARALLEL DO REDUCTION(+:c)\n    DO i = {bounds}\n      \
             c = c + 1\n    END DO\n    !$OMP END PARALLEL DO\n    r({k}) = c\n"
        )
    };
    let body = [
        parallel(1, "9223372036854775807 - n, 9223372036854775807"),
        parallel(2, "m, 9223372036854775807, 4611686018427387904 * n"),
        parallel(3, "m + n, m, -n"),
        parallel(4, "9223372036854775807 - 7 * n, 9223372036854775807, 3 * n"),
    ];
    check("parallel", &body.concat(), &[2, 4, 2, 3]);
}

/// A region at the top of `i64`: `b(i - 9223372036854775805)` reads
/// `b(1)` and `b(2)`, and a third iteration would read `b(3)`, out of
/// bounds. The vector and native rungs enter the region and read what
/// the scalar loop reads.
#[test]
fn a_region_at_the_end_of_i64_sums_what_the_scalar_loop_sums() {
    let body = "    b(1) = 1.0D0\n    b(2) = 2.0D0\n    s = 0.0D0\n    \
                DO i = 9223372036854775806, 9223372036854775807\n      \
                s = s + b(i - 9223372036854775805)\n    END DO\n    t = s\n    r(1) = i\n";
    let (sessions, serial) = check("region", body, &[MAX]);
    assert_eq!(f64::from_bits(global(&serial, "t")[0]), 3.0);
    for (mode, rung, s) in sessions {
        let native = rung == Rung::Native && !matches!(mode, ExecMode::Simulated { .. });
        let entered = if native { s.native_entry_count() } else { s.vector_entry_count() };
        if matches!(rung, Rung::Vector | Rung::Native) {
            assert!(entered > 0, "{rung:?} under {mode:?} left the region to the scalar loop");
        }
    }
}

/// `DO i = MIN, HUGE` runs 2**64 times, which no budget covers: every
/// rung trips the step budget with the stock error instead of stopping
/// early or wrapping around.
#[test]
fn a_loop_over_all_of_i64_exhausts_the_step_budget() {
    let src = program(&counted(1, "m, 9223372036854775807"));
    for mode in MODES {
        for rung in RUNGS {
            for snap in rungs::runs_within(&src, 1, mode, rung, budget()).0 {
                let err = snap.result.expect_err("the budget trips");
                assert!(err.contains("step budget of 100000 exhausted"), "{rung:?} {mode:?}: {err}");
            }
        }
    }
}
