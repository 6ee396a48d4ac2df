//! Generative differential testing for the fixed-form F77 front end.
//!
//! [`fortrans::gen::generate`] derives a deterministic two-file F77
//! program per seed (COMMON-coupled units, labeled DO loops, computed
//! and backward GOTO, arithmetic IF, EQUIVALENCE, DATA, OMP reduction
//! loops). Every program compiles into ONE shared artifact and then runs
//! under both execution tiers ([`ExecTier::Vm`] vs the tree-walking
//! oracle [`ExecTier::TreeWalk`]) in all three modes on fresh sessions;
//! the complete observable state — result, PRINT output, every COMMON
//! scalar and array (bit dumps), the Simulated cost trace — must agree.
//!
//! Comparison policy (same as `vm_differential`):
//! * **Serial** and **Simulated** are deterministic: bit-identical.
//! * **Parallel** tolerates float reduction-order rounding and compares
//!   printed output as a line multiset; traces are not compared.

use fortrans::service::CompiledProgram;
use fortrans::{CostTrace, ExecMode, ExecTier, ScalarTy, Session, Val};

/// Seeds per fixed corpus; every seed is a distinct two-file program.
const SEEDS: u64 = 200;

const MODES: [ExecMode; 3] = [
    ExecMode::Serial,
    ExecMode::Parallel { threads: 4 },
    ExecMode::Simulated { threads: 4 },
];

#[derive(Debug, Clone, PartialEq)]
enum GSnap {
    Scalar(Option<Val>),
    Array(ScalarTy, Vec<u64>),
    Unallocated,
}

#[derive(Debug, Clone, PartialEq)]
struct Snap {
    result: Result<Option<Val>, String>,
    printed: String,
    trace: CostTrace,
    globals: Vec<(String, GSnap)>,
}

fn snapshot(engine: &Session, mode: ExecMode, tier: ExecTier) -> Snap {
    let run = engine.run_tiered("main", &[], mode, tier);
    let (result, printed, trace) = match run {
        Ok(out) => (Ok(out.result), out.printed, out.trace),
        Err(e) => (Err(e.to_string()), String::new(), CostTrace::default()),
    };
    let mut globals = Vec::new();
    let mut names = engine.global_names();
    names.sort();
    for name in names {
        let snap = if let Some(v) = engine.global_scalar(&name) {
            GSnap::Scalar(Some(v))
        } else if let Some(h) = engine.global_array(&name) {
            GSnap::Array(h.ty, (0..h.len()).map(|k| h.get_bits(k)).collect())
        } else {
            GSnap::Unallocated
        };
        globals.push((name, snap));
    }
    Snap { result, printed, trace, globals }
}

fn f64_close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn bits_close(ty: ScalarTy, a: u64, b: u64) -> bool {
    match ty {
        ScalarTy::F => f64_close(f64::from_bits(a), f64::from_bits(b)),
        _ => a == b,
    }
}

fn sorted_lines(s: &str) -> Vec<&str> {
    let mut v: Vec<&str> = s.lines().collect();
    v.sort();
    v
}

fn assert_equivalent(label: &str, mode: ExecMode, vm: &Snap, tw: &Snap) {
    if !matches!(mode, ExecMode::Parallel { .. }) {
        assert_eq!(vm, tw, "{label} under {mode:?}: VM and tree-walker diverge");
        return;
    }
    match (&vm.result, &tw.result) {
        (Ok(Some(Val::F(a))), Ok(Some(Val::F(b)))) => {
            assert!(f64_close(*a, *b), "{label} Parallel result: {a} vs {b}");
        }
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label} Parallel result"),
        (Err(_), Err(_)) => {}
        (a, b) => panic!("{label} Parallel: one tier errored: vm={a:?} tw={b:?}"),
    }
    assert_eq!(
        sorted_lines(&vm.printed),
        sorted_lines(&tw.printed),
        "{label} Parallel printed lines"
    );
    assert_eq!(vm.globals.len(), tw.globals.len(), "{label} global count");
    for ((vn, vg), (tn, tg)) in vm.globals.iter().zip(&tw.globals) {
        assert_eq!(vn, tn, "{label} global name order");
        match (vg, tg) {
            (GSnap::Scalar(Some(Val::F(a))), GSnap::Scalar(Some(Val::F(b)))) => {
                assert!(f64_close(*a, *b), "{label} global {vn}: {a} vs {b}");
            }
            (GSnap::Array(ta, va), GSnap::Array(tb, vb)) => {
                assert_eq!((ta, va.len()), (tb, vb.len()), "{label} global {vn} shape");
                for (k, (&x, &y)) in va.iter().zip(vb).enumerate() {
                    assert!(bits_close(*ta, x, y), "{label} global {vn}[{k}]");
                }
            }
            (a, b) => assert_eq!(a, b, "{label} global {vn}"),
        }
    }
}

/// The core sweep: ≥200 generated programs, each run VM-vs-oracle in all
/// three modes on fresh sessions over one shared compiled artifact.
#[test]
fn generated_corpus_vm_matches_oracle() {
    for seed in 0..SEEDS {
        let srcs = fortrans::gen::generate(seed);
        let refs: Vec<&str> = srcs.iter().map(|s| s.as_str()).collect();
        let artifact = CompiledProgram::compile(&refs)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program failed to compile: {e}"));
        for mode in MODES {
            let evm = Session::solo(artifact.clone());
            let etw = Session::solo(artifact.clone());
            let vm = snapshot(&evm, mode, ExecTier::Vm);
            let tw = snapshot(&etw, mode, ExecTier::TreeWalk);
            assert!(
                vm.result.is_ok(),
                "seed {seed} under {mode:?}: generated program errored: {:?}",
                vm.result
            );
            assert_equivalent(&format!("seed {seed}"), mode, &vm, &tw);
        }
    }
}

/// Native-tier arm of the sweep: every generated program must run
/// bit-identically on the VM with eager JIT promotion
/// ([`Session::set_native_eager`]) vs the tree-walking oracle in Serial
/// mode. Where the JIT backend is unavailable the tier falls through to
/// the VM paths and the identity still must hold.
#[test]
fn generated_corpus_native_matches_oracle_serially() {
    let mut entries = 0u64;
    for seed in 0..SEEDS {
        let srcs = fortrans::gen::generate(seed);
        let refs: Vec<&str> = srcs.iter().map(|s| s.as_str()).collect();
        let artifact = CompiledProgram::compile(&refs)
            .unwrap_or_else(|e| panic!("seed {seed}: generated program failed to compile: {e}"));
        let en = Session::solo(artifact.clone());
        en.set_native_eager(true);
        let etw = Session::solo(artifact);
        let nv = snapshot(&en, ExecMode::Serial, ExecTier::Vm);
        let tw = snapshot(&etw, ExecMode::Serial, ExecTier::TreeWalk);
        assert!(
            nv.result.is_ok(),
            "seed {seed}: native-tier run errored: {:?}",
            nv.result
        );
        assert_equivalent(&format!("seed {seed} (native)"), ExecMode::Serial, &nv, &tw);
        entries += en.native_entry_count();
    }
    if fortrans::jit::available() {
        assert!(entries > 0, "native arm never promoted a loop across {SEEDS} seeds");
    }
}

/// Serial determinism across repeated fresh sessions: the same artifact
/// must produce bit-identical state every time.
#[test]
fn generated_corpus_is_deterministic() {
    for seed in (0..SEEDS).step_by(20) {
        let srcs = fortrans::gen::generate(seed);
        let refs: Vec<&str> = srcs.iter().map(|s| s.as_str()).collect();
        let artifact = CompiledProgram::compile(&refs)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let a = snapshot(&Session::solo(artifact.clone()), ExecMode::Serial, ExecTier::Vm);
        let b = snapshot(&Session::solo(artifact), ExecMode::Serial, ExecTier::Vm);
        assert_eq!(a, b, "seed {seed}: serial rerun diverged");
    }
}

/// Corruption sweep: randomly damaged fixed-form sources must never
/// panic the front end — every outcome is either a clean compile or an
/// accumulated-diagnostics error.
#[test]
fn corrupted_sources_never_panic() {
    use fortrans::gen::Rng;
    for seed in 0..60u64 {
        let mut srcs = fortrans::gen::generate(seed);
        let mut r = Rng::new(seed ^ 0xDEAD_BEEF);
        let fi = (r.below(2)) as usize;
        let mut lines: Vec<String> = srcs[fi].lines().map(String::from).collect();
        if lines.is_empty() {
            continue;
        }
        let li = (r.below(lines.len() as u64)) as usize;
        match r.below(5) {
            0 => {
                lines.remove(li);
            }
            1 => {
                let cut = (r.below(1 + lines[li].len() as u64)) as usize;
                lines[li].truncate(cut);
            }
            2 => lines[li] = format!("     &{}", lines[li]),
            3 => lines[li] = lines[li].replacen(['0', '1', '2'], "X", 1),
            _ => {
                let junk = "$ %^ 123 ((";
                lines.insert(li, junk.to_string());
            }
        }
        srcs[fi] = lines.join("\n");
        let refs: Vec<&str> = srcs.iter().map(|s| s.as_str()).collect();
        // Must return, never panic; errors must render (multi-error safe).
        if let Err(e) = CompiledProgram::compile(&refs) {
            let _ = e.to_string();
        }
    }
}
