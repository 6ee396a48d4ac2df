//! The one constant-expression evaluator: `PARAMETER` values, array
//! bounds, initializers and `DATA` values all fold here.
//!
//! It works on the AST and knows no symbol table: the caller says what a
//! name stands for. [`crate::f77spec`] answers from the `PARAMETER`s a
//! unit has folded so far (`EQUIVALENCE` and `DATA` need extents before
//! sema runs), [`crate::sema`] by walking its scope chain.
//!
//! What an operator computes is the operator table's
//! ([`crate::intrinsics::bin`]), the one the run-time tiers and
//! lowering's folder call; this file only types the operands as sema
//! does. So a `PARAMETER` holds what the same expression computes at run
//! time, and an operation that fails there (integer division by zero)
//! does not fold.

use crate::ast::{Bin, DimDecl, Expr};
use crate::interp::Val;
use crate::intrinsics;
use crate::rir::ScalarTy;

/// Folds `e` to a literal; `named(n)` is the literal the constant `n`
/// folded to. `Err` is the subexpression that is not constant.
pub(crate) fn cfold<'a>(
    e: &'a Expr,
    named: &dyn Fn(&str) -> Option<Expr>,
) -> Result<Expr, &'a Expr> {
    let folded = match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) => Some(e.clone()),
        Expr::Name(d) => match &d.parts[..] {
            [p] if p.subs.is_empty() => named(&p.name),
            _ => None,
        },
        Expr::Neg(a) => val(&cfold(a, named)?).and_then(|v| intrinsics::neg(v).ok()).map(lit),
        Expr::Not(a) => match val(&cfold(a, named)?) {
            Some(v @ Val::B(_)) => Some(lit(intrinsics::not(v))),
            _ => None,
        },
        Expr::Bin(op, a, b) => {
            let (a, b) = (cfold(a, named)?, cfold(b, named)?);
            binary(*op, val(&a), val(&b))
        }
    };
    folded.ok_or(e)
}

/// `op` on two folded literals, typed as sema types it: `.AND.`/`.OR.`
/// on LOGICALs, everything else on numbers, REAL if either side is,
/// with `F ** I` keeping its INTEGER exponent.
fn binary(op: Bin, a: Option<Val>, b: Option<Val>) -> Option<Expr> {
    let (a, b) = (a?, b?);
    let ty = match (op, a, b) {
        (Bin::And | Bin::Or, Val::B(_), Val::B(_)) => ScalarTy::B,
        (Bin::And | Bin::Or, ..) | (_, Val::B(_), _) | (_, _, Val::B(_)) => return None,
        (_, Val::F(_), _) | (_, _, Val::F(_)) => ScalarTy::F,
        _ => ScalarTy::I,
    };
    intrinsics::bin(op, ty, a, b).ok().map(lit)
}

fn val(e: &Expr) -> Option<Val> {
    match *e {
        Expr::Int(i) => Some(Val::I(i)),
        Expr::Real(r) => Some(Val::F(r)),
        Expr::Logical(b) => Some(Val::B(b)),
        _ => None,
    }
}

fn lit(v: Val) -> Expr {
    match v {
        Val::I(i) => Expr::Int(i),
        Val::F(r) => Expr::Real(r),
        Val::B(b) => Expr::Logical(b),
    }
}

/// The folded `(lo, hi)` of each dimension, `lo` defaulting to 1; `None`
/// if one is deferred or does not fold to an integer.
pub(crate) fn extents(
    dims: &[DimDecl],
    named: &dyn Fn(&str) -> Option<Expr>,
) -> Option<Vec<(i64, i64)>> {
    let int = |e: &Expr| match cfold(e, named) {
        Ok(Expr::Int(i)) => Some(i),
        _ => None,
    };
    dims.iter()
        .map(|d| Some((d.lo.as_ref().map_or(Some(1), int)?, int(d.hi.as_ref()?)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Desig;
    use crate::error::Span;

    fn bin(op: Bin, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }

    fn name(n: &str) -> Expr {
        Expr::Name(Desig::scalar(n.to_string(), Span { line: 1 }))
    }

    fn named(n: &str) -> Option<Expr> {
        (n == "n").then_some(Expr::Int(4))
    }

    #[test]
    fn integers_wrap_or_refuse_and_reals_take_over() {
        let big = bin(Bin::Add, Expr::Int(i64::MAX), Expr::Int(1));
        assert_eq!(cfold(&big, &named), Ok(Expr::Int(i64::MIN)));
        assert_eq!(cfold(&bin(Bin::Pow, name("n"), Expr::Int(3)), &named), Ok(Expr::Int(64)));
        let half = bin(Bin::Div, Expr::Int(1), Expr::Real(2.0));
        assert_eq!(cfold(&half, &named), Ok(Expr::Real(0.5)));
        let by_zero = bin(Bin::Div, Expr::Int(1), Expr::Int(0));
        assert_eq!(cfold(&by_zero, &named), Err(&by_zero));
        let cmp = bin(Bin::And, bin(Bin::Lt, name("n"), Expr::Int(5)), Expr::Logical(true));
        assert_eq!(cfold(&cmp, &named), Ok(Expr::Logical(true)));
    }

    #[test]
    fn real_to_an_integer_power_follows_the_engines_powi_rule() {
        let pow = |e: i64| match cfold(&bin(Bin::Pow, Expr::Real(1.0274), Expr::Int(e)), &named) {
            Ok(Expr::Real(x)) => x.to_bits(),
            other => panic!("not a REAL: {other:?}"),
        };
        for e in [-64, -3, 3, 64] {
            let want = std::hint::black_box(1.0274f64).powi(std::hint::black_box(e as i32));
            assert_eq!(pow(e), want.to_bits(), "1.0274 ** {e}");
        }
        assert_eq!(pow(3), 0x3ff1_5a00_343b_0604, "not powf's 0x..0603");
        assert_eq!(pow(65), 1.0274f64.powf(65.0).to_bits(), "past 64: powf");
    }

    #[test]
    fn the_error_is_the_part_that_is_not_constant() {
        let e = bin(Bin::Mul, Expr::Int(2), bin(Bin::Add, name("n"), name("m")));
        assert_eq!(cfold(&e, &named), Err(&name("m")));
    }

    #[test]
    fn extents_default_the_lower_bound_and_refuse_deferred() {
        let dim = |lo: Option<Expr>, hi: Option<Expr>| DimDecl { deferred: hi.is_none(), lo, hi };
        let dims = [dim(None, Some(name("n"))), dim(Some(Expr::Int(0)), Some(Expr::Int(2)))];
        assert_eq!(extents(&dims, &named), Some(vec![(1, 4), (0, 2)]));
        assert_eq!(extents(&[dim(None, None)], &named), None);
        assert_eq!(extents(&[dim(None, Some(Expr::Real(2.0)))], &named), None);
    }
}
