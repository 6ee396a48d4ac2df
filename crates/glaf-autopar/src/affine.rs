//! Affine canonicalization of subscript expressions.
//!
//! A subscript is *affine* over the loop indices when it can be written
//! `c0 + Σ ci·index_i` with integer coefficients. The constant part may be
//! symbolic (a loop-invariant scalar such as `n` or `ioff`): two symbolic
//! constants are comparable only when they are syntactically identical,
//! which is exactly the precision classical dependence testers get from
//! symbolic subscript analysis.

use std::collections::BTreeMap;

use glaf_ir::display::expr_to_string;
use glaf_ir::{BinOp, Expr, UnOp};

/// An affine form `konst + sym + Σ coeffs[v]·v`, where `sym` is an optional
/// loop-invariant symbolic term (kept as a canonical string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine {
    pub konst: i64,
    /// Canonical text of the loop-invariant symbolic part, if any.
    /// `None` means the symbolic part is zero.
    pub sym: Option<String>,
    /// Integer coefficients per loop-index variable (only indices from the
    /// analyzed nest appear here). Zero coefficients are not stored.
    pub coeffs: BTreeMap<String, i64>,
}

impl Affine {
    /// The zero form.
    pub fn zero() -> Self {
        Affine { konst: 0, sym: None, coeffs: BTreeMap::new() }
    }

    /// A pure constant.
    pub fn constant(c: i64) -> Self {
        Affine { konst: c, sym: None, coeffs: BTreeMap::new() }
    }

    /// A single index with coefficient 1.
    pub fn index(v: &str) -> Self {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v.to_string(), 1);
        Affine { konst: 0, sym: None, coeffs }
    }

    /// Coefficient of index `v` (0 when absent).
    pub fn coeff(&self, v: &str) -> i64 {
        self.coeffs.get(v).copied().unwrap_or(0)
    }

    /// True when no loop index appears (a ZIV subscript).
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    fn add_assign(&mut self, other: &Affine, sign: i64) {
        self.konst += sign * other.konst;
        for (k, &c) in &other.coeffs {
            let e = self.coeffs.entry(k.clone()).or_insert(0);
            *e += sign * c;
            if *e == 0 {
                self.coeffs.remove(k);
            }
        }
        self.sym = match (self.sym.take(), &other.sym) {
            (None, None) => None,
            (Some(s), None) => Some(s),
            (None, Some(o)) => {
                Some(if sign >= 0 { o.clone() } else { format!("-({o})") })
            }
            (Some(s), Some(o)) => Some(if sign >= 0 {
                format!("{s}+{o}")
            } else {
                format!("{s}-({o})")
            }),
        };
    }

    fn scale(&mut self, k: i64) {
        self.konst *= k;
        self.coeffs.retain(|_, c| {
            *c *= k;
            *c != 0
        });
        if let Some(s) = self.sym.take() {
            self.sym = if k == 0 { None } else { Some(format!("{k}*({s})")) };
        }
    }
}

/// The result of canonicalizing one subscript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptForm {
    Affine(Affine),
    /// Couldn't be expressed affinely — e.g. `idx(i)` indirection (the
    /// FUN3D `ioff_search` pattern) or nonlinear terms. Dependence testing
    /// falls back to "assume dependent".
    NonAffine,
}

impl SubscriptForm {
    pub fn as_affine(&self) -> Option<&Affine> {
        match self {
            SubscriptForm::Affine(a) => Some(a),
            SubscriptForm::NonAffine => None,
        }
    }
}

/// Canonicalizes `expr` as an affine form over the given loop `indices`.
/// Loop-invariant grid reads become symbolic constants; anything touching a
/// loop index non-linearly (or indexing a grid *by* a loop index) is
/// [`SubscriptForm::NonAffine`].
pub fn to_affine(expr: &Expr, indices: &[String]) -> SubscriptForm {
    match try_affine(expr, indices) {
        Some(a) => SubscriptForm::Affine(a),
        None => SubscriptForm::NonAffine,
    }
}

fn try_affine(expr: &Expr, indices: &[String]) -> Option<Affine> {
    match expr {
        Expr::IntLit(v) => Some(Affine::constant(*v)),
        Expr::Index(v) => {
            if indices.iter().any(|i| i == v) {
                Some(Affine::index(v))
            } else {
                // An index of an *enclosing* (already-fixed) loop behaves as
                // a loop-invariant symbol here.
                Some(symbolic(expr))
            }
        }
        Expr::GridRef { .. } => {
            // A grid read is loop-invariant only if none of its own
            // subscripts mention the analyzed indices.
            if indices.iter().any(|i| expr.uses_index(i)) {
                None
            } else {
                Some(symbolic(expr))
            }
        }
        Expr::Unary { op: UnOp::Neg, operand } => {
            let mut a = try_affine(operand, indices)?;
            a.scale(-1);
            Some(a)
        }
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Add => {
                let mut a = try_affine(lhs, indices)?;
                let b = try_affine(rhs, indices)?;
                a.add_assign(&b, 1);
                Some(a)
            }
            BinOp::Sub => {
                let mut a = try_affine(lhs, indices)?;
                let b = try_affine(rhs, indices)?;
                a.add_assign(&b, -1);
                Some(a)
            }
            BinOp::Mul => {
                let a = try_affine(lhs, indices)?;
                let b = try_affine(rhs, indices)?;
                // One side must be a literal constant for linearity.
                if a.is_constant() && a.sym.is_none() {
                    let mut r = b;
                    r.scale(a.konst);
                    Some(r)
                } else if b.is_constant() && b.sym.is_none() {
                    let mut r = a;
                    r.scale(b.konst);
                    Some(r)
                } else if a.coeffs.is_empty() && b.coeffs.is_empty() {
                    // symbolic * symbolic — loop-invariant, keep symbolic.
                    Some(symbolic(expr))
                } else {
                    None
                }
            }
            _ => {
                // Division, comparisons etc.: loop-invariant whole
                // expressions stay symbolic, otherwise non-affine.
                if indices.iter().any(|i| expr.uses_index(i)) {
                    None
                } else {
                    Some(symbolic(expr))
                }
            }
        },
        _ => {
            if indices.iter().any(|i| expr.uses_index(i)) {
                None
            } else {
                Some(symbolic(expr))
            }
        }
    }
}

fn symbolic(expr: &Expr) -> Affine {
    Affine { konst: 0, sym: Some(expr_to_string(expr)), coeffs: BTreeMap::new() }
}

/// True when two affine forms have identical symbolic parts (both empty or
/// both the same canonical text), so their difference is a known integer.
pub fn comparable(a: &Affine, b: &Affine) -> bool {
    a.sym == b.sym
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaf_ir::Expr;

    fn ix() -> Vec<String> {
        vec!["i".to_string(), "j".to_string()]
    }

    #[test]
    fn literal_and_index() {
        assert_eq!(to_affine(&Expr::int(7), &ix()), SubscriptForm::Affine(Affine::constant(7)));
        let a = to_affine(&Expr::idx("i"), &ix());
        let a = a.as_affine().unwrap();
        assert_eq!(a.coeff("i"), 1);
        assert_eq!(a.konst, 0);
    }

    #[test]
    fn linear_combination() {
        // 2*i + j - 3
        let e = Expr::int(2) * Expr::idx("i") + Expr::idx("j") - Expr::int(3);
        let a = to_affine(&e, &ix());
        let a = a.as_affine().unwrap();
        assert_eq!(a.coeff("i"), 2);
        assert_eq!(a.coeff("j"), 1);
        assert_eq!(a.konst, -3);
        assert!(a.sym.is_none());
    }

    #[test]
    fn negation_flips_coeffs() {
        let e = -(Expr::idx("i") - Expr::int(4));
        let a = to_affine(&e, &ix());
        let a = a.as_affine().unwrap();
        assert_eq!(a.coeff("i"), -1);
        assert_eq!(a.konst, 4);
    }

    #[test]
    fn invariant_scalar_is_symbolic() {
        let e = Expr::scalar("n") + Expr::idx("i");
        let a = to_affine(&e, &ix());
        let a = a.as_affine().unwrap();
        assert_eq!(a.coeff("i"), 1);
        assert_eq!(a.sym.as_deref(), Some("n"));
    }

    #[test]
    fn indirection_is_non_affine() {
        // a(idx(i)) — the subscript of `a` is idx(i), a grid read using i.
        let sub = Expr::at("idxmap", vec![Expr::idx("i")]);
        assert_eq!(to_affine(&sub, &ix()), SubscriptForm::NonAffine);
    }

    #[test]
    fn nonlinear_is_non_affine() {
        let e = Expr::idx("i") * Expr::idx("j");
        assert_eq!(to_affine(&e, &ix()), SubscriptForm::NonAffine);
    }

    #[test]
    fn outer_index_is_symbolic_constant() {
        // Analyzing only over j; i is an enclosing fixed index.
        let indices = vec!["j".to_string()];
        let e = Expr::idx("i") + Expr::idx("j");
        let a = to_affine(&e, &indices);
        let a = a.as_affine().unwrap();
        assert_eq!(a.coeff("j"), 1);
        assert_eq!(a.sym.as_deref(), Some("i"));
    }

    #[test]
    fn comparability() {
        let e1 = Expr::scalar("n") + Expr::idx("i");
        let e2 = Expr::scalar("n") + Expr::idx("i") + Expr::int(1);
        let e3 = Expr::scalar("m") + Expr::idx("i");
        let a1 = to_affine(&e1, &ix());
        let a2 = to_affine(&e2, &ix());
        let a3 = to_affine(&e3, &ix());
        assert!(comparable(a1.as_affine().unwrap(), a2.as_affine().unwrap()));
        assert!(!comparable(a1.as_affine().unwrap(), a3.as_affine().unwrap()));
    }

    #[test]
    fn scaling_cancels_terms() {
        // i - i == 0
        let e = Expr::idx("i") - Expr::idx("i");
        let a = to_affine(&e, &ix());
        let a = a.as_affine().unwrap();
        assert!(a.is_constant());
        assert_eq!(a.konst, 0);
    }
}
