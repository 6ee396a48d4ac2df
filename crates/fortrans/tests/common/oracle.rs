//! The rewrite oracle's side of the optimized build's program rules
//! (`rir::rewrite`), shared by their suites: a tree-walk run's whole
//! outcome, the tolerance two team runs agree within, the check that a
//! rule runs as the program it rewrites, and a thin entry that makes an
//! entry's calls the calls of a called unit. Pulled in with
//! `#[path = "common/oracle.rs"]`.

#![allow(dead_code)] // each test binary uses its own slice of this module

use std::borrow::Cow;
use std::sync::Arc;

use fortrans::rir::{RArg, RExpr, RProgram, RStmt, RUnit, SpStmt};
use fortrans::{ArgVal, CompiledProgram, ExecMode, ExecTier, ScalarTy, Session, Val};

/// Result, printed output and every global's type and bits after one
/// tree-walk run of a sequence of calls.
pub type Outcome = (
    Result<Option<Val>, String>,
    String,
    Vec<(String, Option<(ScalarTy, Vec<u64>)>)>,
);

pub fn tree_walk(s: &Session, calls: &[(&str, Vec<ArgVal>)], mode: ExecMode) -> Outcome {
    let mut printed = String::new();
    let mut result = Ok(None);
    for (unit, args) in calls {
        match s.run_tiered(unit, args, mode, ExecTier::TreeWalk) {
            Ok(out) => {
                printed += &out.printed;
                result = Ok(out.result);
            }
            Err(e) => {
                result = Err(e.to_string());
                break;
            }
        }
    }
    let mut names = s.global_names();
    names.sort();
    let globals = names
        .into_iter()
        .map(|g| {
            let bits = match s.global_scalar(&g) {
                Some(Val::F(x)) => Some((ScalarTy::F, vec![x.to_bits()])),
                Some(Val::I(x)) => Some((ScalarTy::I, vec![x as u64])),
                Some(Val::B(x)) => Some((ScalarTy::B, vec![u64::from(x)])),
                None => s
                    .global_array(&g)
                    .map(|h| (h.ty, (0..h.len()).map(|k| h.get_bits(k)).collect())),
            };
            (g, bits)
        })
        .collect();
    (result, printed, globals)
}

/// Whether two `Parallel` outcomes agree up to the order a team's REAL
/// updates of shared cells land in (`ATOMIC` adds, reduction combines),
/// which two runs of one program need not share: everything else
/// exactly, REAL values to 1e-9 relative, printed lines as a multiset.
pub fn team_agrees(a: &Outcome, b: &Outcome) -> bool {
    let close = |x: u64, y: u64| {
        let (x, y) = (f64::from_bits(x), f64::from_bits(y));
        x.to_bits() == y.to_bits() || (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
    };
    let lines = |s: &str| {
        let mut v: Vec<String> = s.lines().map(str::to_string).collect();
        v.sort();
        v
    };
    let results = match (&a.0, &b.0) {
        (Ok(Some(Val::F(x))), Ok(Some(Val::F(y)))) => close(x.to_bits(), y.to_bits()),
        (x, y) => x == y,
    };
    let globals = a.2.len() == b.2.len()
        && a.2.iter().zip(&b.2).all(|((an, ag), (bn, bg))| {
            an == bn
                && match (ag, bg) {
                    (Some((ScalarTy::F, x)), Some((ScalarTy::F, y))) => {
                        x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| close(p, q))
                    }
                    (x, y) => x == y,
                }
        });
    results && lines(&a.1) == lines(&b.1) && globals
}

/// A program-to-program rule of the optimized build.
pub type Rule = for<'a> fn(&'a RProgram) -> Cow<'a, RProgram>;

/// Runs `calls` on the tree-walker over `prog` as it is and as `rule`
/// rewrites it, under Serial and `Parallel{2}`, and checks they agree:
/// bit for bit, fault message and line included, and under `Parallel`
/// up to [`team_agrees`]. Returns whether the rule changed anything.
pub fn rewrite_agrees(
    rule: Rule,
    label: &str,
    prog: &RProgram,
    calls: &dyn Fn() -> Vec<(&'static str, Vec<ArgVal>)>,
) -> bool {
    let Cow::Owned(rewritten) = rule(prog) else {
        return false;
    };
    let art =
        CompiledProgram::from_resolved(prog.clone()).unwrap_or_else(|e| panic!("{label}: {e}"));
    let after = CompiledProgram::from_resolved(rewritten).expect("rewritten program compiles");
    for mode in [ExecMode::Serial, ExecMode::Parallel { threads: 2 }] {
        let before = tree_walk(&Session::solo(art.clone()), &calls(), mode);
        let after = tree_walk(&Session::solo(after.clone()), &calls(), mode);
        if mode == ExecMode::Serial {
            assert_eq!(after, before, "{label}: the rewrite changed the Serial run");
        } else {
            assert!(
                team_agrees(&after, &before),
                "{label}: the rewrite changed the Parallel run"
            );
        }
    }
    true
}

/// `prog` with entry `name`'s body moved into a new unit `name%body`,
/// which `name` calls with its own dummies: the entry's calls become
/// the calls of a called unit, so the rewrite reaches each leaf call of
/// it, not only those in loop bodies. The rewrite's oracle compares this
/// program with its rewrite, so what the extra level changes (one more
/// call deep, the unit a fault names) is on both sides.
pub fn thin_entry(prog: &RProgram, name: &str) -> RProgram {
    let u = prog.unit_id(name).expect("entry exists");
    let entry = &prog.units[u];
    let mut out = prog.clone();
    let inner = out.units.len();
    out.units.push(Arc::new(RUnit {
        name: format!("{}%body", entry.name),
        ..RUnit::clone(entry)
    }));
    let args = entry
        .params
        .iter()
        .map(|&p| match entry.vars[p].rank {
            0 => RArg::ByRefScalar(p),
            _ => RArg::Array(p),
        })
        .collect();
    let s = match entry.result {
        Some((v, ret)) => RStmt::AssignScalar {
            v,
            e: RExpr::CallFn {
                unit: inner,
                args,
                ret,
            },
        },
        None => RStmt::CallSub { unit: inner, args },
    };
    let line = entry.body.first().map_or(1, |sp| sp.line);
    out.units[u] = Arc::new(RUnit {
        body: vec![SpStmt { line, s }],
        ..RUnit::clone(entry)
    });
    out
}

/// The resolved program of `sources`.
pub fn resolved(label: &str, sources: &[&str]) -> RProgram {
    let art = CompiledProgram::compile(sources).unwrap_or_else(|e| panic!("{label}: {e}"));
    art.program().clone()
}
