//! Human-readable rendering of IR expressions in infix syntax. The
//! dependence analysis names non-affine subscript terms with it.

use std::fmt::Write;

use crate::expr::{BinOp, Callee, Expr, UnOp};

/// Renders an expression in conventional infix syntax.
pub fn expr_to_string(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e, 0);
    s
}

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div => 5,
        BinOp::Pow => 6,
    }
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Pow => "**",
        BinOp::Eq => "==",
        BinOp::Ne => "/=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => ".and.",
        BinOp::Or => ".or.",
    }
}

fn write_expr(out: &mut String, e: &Expr, parent_prec: u8) {
    match e {
        Expr::IntLit(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::RealLit(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Expr::BoolLit(b) => {
            let _ = write!(out, "{}", if *b { ".true." } else { ".false." });
        }
        Expr::Index(v) => out.push_str(v),
        Expr::GridRef { grid, indices, field } => {
            out.push_str(grid);
            if let Some(f) = field {
                let _ = write!(out, ".{f}");
            }
            if !indices.is_empty() {
                out.push('(');
                for (i, ix) in indices.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(out, ix, 0);
                }
                out.push(')');
            }
        }
        Expr::WholeGrid(g) => {
            let _ = write!(out, "{g}(:)");
        }
        Expr::Unary { op, operand } => {
            out.push_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => ".not. ",
            });
            write_expr(out, operand, 7);
        }
        Expr::Binary { op, lhs, rhs } => {
            let p = prec(*op);
            let need = p < parent_prec;
            if need {
                out.push('(');
            }
            write_expr(out, lhs, p);
            let _ = write!(out, " {} ", op_str(*op));
            write_expr(out, rhs, p + 1);
            if need {
                out.push(')');
            }
        }
        Expr::Call { callee, args } => {
            match callee {
                Callee::Lib(f) => out.push_str(f.fortran_name()),
                Callee::User(n) => out.push_str(n),
            }
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, 0);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LibFunc;

    #[test]
    fn precedence_parenthesization() {
        let e = (Expr::idx("a") + Expr::idx("b")) * Expr::idx("c");
        assert_eq!(expr_to_string(&e), "(a + b) * c");
        let e2 = Expr::idx("a") + Expr::idx("b") * Expr::idx("c");
        assert_eq!(expr_to_string(&e2), "a + b * c");
    }

    #[test]
    fn subtraction_right_operand_parenthesized() {
        // a - (b - c) must keep its parens.
        let e = Expr::Binary {
            op: BinOp::Sub,
            lhs: Box::new(Expr::idx("a")),
            rhs: Box::new(Expr::Binary {
                op: BinOp::Sub,
                lhs: Box::new(Expr::idx("b")),
                rhs: Box::new(Expr::idx("c")),
            }),
        };
        assert_eq!(expr_to_string(&e), "a - (b - c)");
    }

    #[test]
    fn calls_and_refs() {
        let e = Expr::lib(LibFunc::Abs, vec![Expr::at("a", vec![Expr::idx("i")])]);
        assert_eq!(expr_to_string(&e), "ABS(a(i))");
        let w = Expr::lib(LibFunc::Sum, vec![Expr::WholeGrid("v".into())]);
        assert_eq!(expr_to_string(&w), "SUM(v(:))");
    }

    #[test]
    fn field_access_renders() {
        let e = Expr::at_field("atoms", vec![Expr::idx("i")], "charge");
        assert_eq!(expr_to_string(&e), "atoms.charge(i)");
    }
}
