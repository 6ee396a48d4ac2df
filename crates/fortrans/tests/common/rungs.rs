//! Four-rung agreement for small `work(a, n)` programs, shared by the
//! suites of the optimized build's frame-array rules
//! (`scoped_temporaries.rs`, `array_contraction.rs`). Pulled in with
//! `#[path = "common/rungs.rs"]`.
//!
//! Every program runs on four rungs — the tree-walk oracle, the scalar
//! VM, the vector rung and eager native — in Serial, `Parallel{2}` and
//! Simulated, twice per session, and all four must agree exactly:
//! result, globals, argument arrays, error kind and line (the error's
//! `Display`), and in Simulated the whole `CostTrace`. No program
//! reduces REAL values across threads, so Parallel is exact too.

#![allow(dead_code)] // each test binary uses its own slice of this module

use fortrans::{ArgVal, CostTrace, ExecMode, ExecTier, RunLimits, Session, Val};

pub const MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 2 },
    ExecMode::Simulated { threads: 2 },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rung {
    TreeWalk,
    Scalar,
    Vector,
    Native,
}

pub const RUNGS: [Rung; 4] = [Rung::TreeWalk, Rung::Scalar, Rung::Vector, Rung::Native];

/// Everything observable from one run.
#[derive(Debug, PartialEq)]
pub struct Snap {
    pub result: Result<Option<Val>, String>,
    pub globals: Vec<(String, Option<Vec<u64>>)>,
    pub args: Vec<Vec<u64>>,
    /// Simulated runs only.
    pub trace: Option<CostTrace>,
}

fn bits(h: &fortrans::ArrayObj) -> Vec<u64> {
    (0..h.len()).map(|k| h.get_bits(k)).collect()
}

/// `work(a, n)` with `a = [1, 2, 3, 4, 5]`.
fn args(n: i64) -> Vec<ArgVal> {
    vec![ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0], 1), ArgVal::I(n)]
}

/// Two runs of `work` on one session of `rung`, and that session.
pub fn runs(src: &str, n: i64, mode: ExecMode, rung: Rung) -> (Vec<Snap>, Session) {
    runs_within(src, n, mode, rung, RunLimits::default())
}

/// [`runs`] on a session with `limits`.
pub fn runs_within(
    src: &str,
    n: i64,
    mode: ExecMode,
    rung: Rung,
    limits: RunLimits,
) -> (Vec<Snap>, Session) {
    let mut s = Session::compile(&[src]).expect("program compiles");
    s.set_limits(limits);
    s.set_vector_enabled(rung != Rung::Scalar);
    s.set_native_enabled(rung == Rung::Native);
    s.set_native_eager(true);
    let tier = if rung == Rung::TreeWalk { ExecTier::TreeWalk } else { ExecTier::Vm };
    let snaps = (0..2)
        .map(|_| {
            let a = args(n);
            let out = s.run_tiered("work", &a, mode, tier).map_err(|e| e.to_string());
            let mut names = s.global_names();
            names.sort();
            let globals = names
                .into_iter()
                .map(|g| {
                    let v = match s.global_scalar(&g) {
                        Some(Val::F(x)) => Some(vec![x.to_bits()]),
                        Some(Val::I(x)) => Some(vec![x as u64]),
                        Some(Val::B(x)) => Some(vec![u64::from(x)]),
                        None => s.global_array(&g).map(|h| bits(&h)),
                    };
                    (g, v)
                })
                .collect();
            let args = a.iter().filter_map(|x| x.handle().map(|h| bits(h))).collect();
            let trace = match (&out, mode) {
                (Ok(o), ExecMode::Simulated { .. }) => Some(o.trace.clone()),
                _ => None,
            };
            Snap { result: out.map(|o| o.result), globals, args, trace }
        })
        .collect();
    assert_eq!(s.fallback_count(), 0, "{rung:?} under {mode:?} trapped into the oracle");
    (snaps, s)
}

/// Runs `src` everywhere and checks the rungs agree; `inspect` sees the
/// oracle's session of each mode. Returns the oracle's Serial snapshots.
pub fn agree(label: &str, src: &str, n: i64, inspect: impl Fn(&Session)) -> Vec<Snap> {
    let mut serial = None;
    for mode in MODES {
        let (oracle, s) = runs(src, n, mode, Rung::TreeWalk);
        inspect(&s);
        for rung in &RUNGS[1..] {
            let (got, _) = runs(src, n, mode, *rung);
            assert_eq!(got, oracle, "{label}: {rung:?} under {mode:?} diverges from the oracle");
        }
        serial.get_or_insert(oracle);
    }
    serial.expect("ran Serial")
}

/// 1-based line of the first source line containing `marker`.
pub fn line_of(src: &str, marker: &str) -> usize {
    src.lines().position(|l| l.contains(marker)).expect("marker in source") + 1
}
