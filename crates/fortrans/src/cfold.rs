//! The one constant-expression evaluator: `PARAMETER` values, array
//! bounds, initializers and `DATA` values all fold here.
//!
//! It works on the AST and knows no symbol table: the caller says what a
//! name stands for. [`crate::f77spec`] answers from the `PARAMETER`s a
//! unit has folded so far (`EQUIVALENCE` and `DATA` need extents before
//! sema runs), [`crate::sema`] by walking its scope chain.

use crate::ast::{Bin, DimDecl, Expr};

/// Folds `e` to a literal; `named(n)` is the literal the constant `n`
/// folded to. `Err` is the subexpression that is not constant.
///
/// Integer `+ - *` and negation wrap, `/` and `**` are checked; an
/// operation with a REAL side is done in `f64`.
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
        Expr::Neg(a) => match cfold(a, named)? {
            Expr::Int(i) => Some(Expr::Int(i.wrapping_neg())),
            Expr::Real(r) => Some(Expr::Real(-r)),
            _ => None,
        },
        Expr::Not(a) => match cfold(a, named)? {
            Expr::Logical(b) => Some(Expr::Logical(!b)),
            _ => None,
        },
        Expr::Bin(op, a, b) => binary(*op, &cfold(a, named)?, &cfold(b, named)?),
    };
    folded.ok_or(e)
}

fn binary(op: Bin, a: &Expr, b: &Expr) -> Option<Expr> {
    fn num(e: &Expr) -> Option<f64> {
        match e {
            Expr::Int(i) => Some(*i as f64),
            Expr::Real(r) => Some(*r),
            _ => None,
        }
    }
    Some(match (op, a, b) {
        (Bin::Add, Expr::Int(x), Expr::Int(y)) => Expr::Int(x.wrapping_add(*y)),
        (Bin::Sub, Expr::Int(x), Expr::Int(y)) => Expr::Int(x.wrapping_sub(*y)),
        (Bin::Mul, Expr::Int(x), Expr::Int(y)) => Expr::Int(x.wrapping_mul(*y)),
        (Bin::Div, Expr::Int(x), Expr::Int(y)) => Expr::Int(x.checked_div(*y)?),
        (Bin::Pow, Expr::Int(x), Expr::Int(y)) if (0..=62).contains(y) => {
            Expr::Int(x.checked_pow(*y as u32)?)
        }
        (Bin::Add, _, _) => Expr::Real(num(a)? + num(b)?),
        (Bin::Sub, _, _) => Expr::Real(num(a)? - num(b)?),
        (Bin::Mul, _, _) => Expr::Real(num(a)? * num(b)?),
        (Bin::Div, _, _) => Expr::Real(num(a)? / num(b)?),
        // The engine's `F ** I` rule: `powi` for |e| <= 64.
        (Bin::Pow, Expr::Real(x), Expr::Int(e)) if e.unsigned_abs() <= 64 => {
            Expr::Real(x.powi(*e as i32))
        }
        (Bin::Pow, _, _) => Expr::Real(num(a)?.powf(num(b)?)),
        (Bin::Eq, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(x == y),
        (Bin::Ne, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(x != y),
        (Bin::Eq, _, _) => Expr::Logical(num(a)? == num(b)?),
        (Bin::Ne, _, _) => Expr::Logical(num(a)? != num(b)?),
        (Bin::Lt, _, _) => Expr::Logical(num(a)? < num(b)?),
        (Bin::Le, _, _) => Expr::Logical(num(a)? <= num(b)?),
        (Bin::Gt, _, _) => Expr::Logical(num(a)? > num(b)?),
        (Bin::Ge, _, _) => Expr::Logical(num(a)? >= num(b)?),
        (Bin::And, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(*x && *y),
        (Bin::Or, Expr::Logical(x), Expr::Logical(y)) => Expr::Logical(*x || *y),
        _ => return None,
    })
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
