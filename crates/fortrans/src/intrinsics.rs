//! Intrinsic functions — the FORTRAN library surface GLAF's extended
//! library back-end targets (§3.6: ABS, ALOG, SUM "and other functions")
//! — and the operator table: what every value operation computes, and
//! how many times a DO loop runs ([`do_trips`]).
//!
//! The table is one set of pure functions. The tree-walker, the VM's
//! handlers, lowering's constant folder and `cfold` all call it, so a
//! `PARAMETER`, a folded constant and both run-time tiers cannot disagree
//! on a value, nor the loop heads, the region driver and the fast-rung
//! entry on a trip count. The lane kernels and the JIT keep their own
//! one-instruction forms; `tests` pins the table with literal
//! expectations.

use crate::ast::Bin;
use crate::cost::OpKind;
use crate::error::RunError;
use crate::interp::Val;
use crate::rir::{ArrRed, ScalarTy};
use crate::storage::ArrayObj;

/// Scalar intrinsics (the resolver makes whole-array SUM/MAXVAL/MINVAL/
/// SIZE an `ArrRed`, which [`reduce`] computes, and ALLOCATED its own
/// expression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intr {
    Abs,
    /// `ALOG` — FORTRAN 77 single-precision natural log name; evaluates
    /// identically to LOG in our f64 model.
    Alog,
    Log,
    Log10,
    Exp,
    Sqrt,
    Sin,
    Cos,
    Tan,
    Atan,
    Max,
    Min,
    Mod,
    Int,
    Nint,
    Real,
    Dble,
    Sign,
    Huge,
    Tiny,
}

impl Intr {
    /// Resolves a lowercase name.
    pub fn from_name(name: &str) -> Option<Intr> {
        Some(match name {
            "abs" | "dabs" => Intr::Abs,
            "alog" => Intr::Alog,
            "log" | "dlog" => Intr::Log,
            "log10" | "alog10" => Intr::Log10,
            "exp" | "dexp" => Intr::Exp,
            "sqrt" | "dsqrt" => Intr::Sqrt,
            "sin" => Intr::Sin,
            "cos" => Intr::Cos,
            "tan" => Intr::Tan,
            "atan" => Intr::Atan,
            "max" | "amax1" | "dmax1" | "max0" => Intr::Max,
            "min" | "amin1" | "dmin1" | "min0" => Intr::Min,
            "mod" => Intr::Mod,
            "int" | "ifix" => Intr::Int,
            "nint" => Intr::Nint,
            "real" | "float" => Intr::Real,
            "dble" => Intr::Dble,
            "sign" => Intr::Sign,
            "huge" => Intr::Huge,
            "tiny" => Intr::Tiny,
            _ => return None,
        })
    }

    /// Accepted argument count range.
    pub fn arity(self) -> (usize, usize) {
        match self {
            Intr::Max | Intr::Min => (2, 8),
            Intr::Mod | Intr::Sign => (2, 2),
            _ => (1, 1),
        }
    }

    /// Result type given the (promoted) argument type.
    pub fn result_ty(self, arg: ScalarTy) -> ScalarTy {
        match self {
            Intr::Int | Intr::Nint => ScalarTy::I,
            Intr::Real | Intr::Dble => ScalarTy::F,
            Intr::Abs | Intr::Max | Intr::Min | Intr::Mod | Intr::Sign | Intr::Huge | Intr::Tiny => arg,
            _ => ScalarTy::F,
        }
    }

    /// True for transcendental-cost operations (the cost model charges
    /// these as `fspecial`).
    pub fn is_special(self) -> bool {
        matches!(
            self,
            Intr::Alog
                | Intr::Log
                | Intr::Log10
                | Intr::Exp
                | Intr::Sqrt
                | Intr::Sin
                | Intr::Cos
                | Intr::Tan
                | Intr::Atan
        )
    }

    /// Evaluates with f64 arguments.
    pub fn eval_f(self, args: &[f64]) -> f64 {
        self.with_kernel(Args(args))
    }

    /// The typed kernel native code calls for this intrinsic.
    pub(crate) fn lane_kernel(self) -> LaneKernel {
        self.with_kernel(Pick)
    }

    /// Hands this intrinsic's kernel to `sink`: the one table from
    /// intrinsic to kernel. Inlined, each arm passes a constant function,
    /// so the sink's loop over lanes calls it directly.
    #[inline(always)]
    pub(crate) fn with_kernel<S: KernelSink>(self, sink: S) -> S::Out {
        match self {
            Intr::Abs => sink.unary(lane::abs),
            Intr::Alog | Intr::Log => sink.unary(lane::ln),
            Intr::Log10 => sink.unary(lane::log10),
            Intr::Exp => sink.unary(lane::exp),
            Intr::Sqrt => sink.unary(lane::sqrt),
            Intr::Sin => sink.unary(lane::sin),
            Intr::Cos => sink.unary(lane::cos),
            Intr::Tan => sink.unary(lane::tan),
            Intr::Atan => sink.unary(lane::atan),
            Intr::Max => sink.fold(f64::NEG_INFINITY, lane::max),
            Intr::Min => sink.fold(f64::INFINITY, lane::min),
            Intr::Mod => sink.binary(lane::fmod),
            Intr::Int => sink.unary(lane::trunc),
            Intr::Nint => sink.unary(lane::round),
            Intr::Real | Intr::Dble => sink.unary(lane::id),
            Intr::Sign => sink.binary(lane::sign),
            Intr::Huge => sink.constant(f64::MAX),
            Intr::Tiny => sink.constant(f64::MIN_POSITIVE),
        }
    }

    /// Evaluates with i64 arguments (for integer-typed results). `ABS`,
    /// `SIGN` and `MOD` wrap like the operators: `ABS(MIN)` and
    /// `SIGN(MIN, -1)` are `MIN`, `MOD(MIN, -1)` is 0; `MOD(a, 0)` is 0.
    pub fn eval_i(self, args: &[i64]) -> i64 {
        match self {
            Intr::Abs => args[0].wrapping_abs(),
            Intr::Max => args.iter().copied().max().unwrap_or(i64::MIN),
            Intr::Min => args.iter().copied().min().unwrap_or(i64::MAX),
            Intr::Mod => args[0].checked_rem(args[1]).unwrap_or(0),
            Intr::Sign if args[1] >= 0 => args[0].wrapping_abs(),
            Intr::Sign => args[0].wrapping_abs().wrapping_neg(),
            Intr::Huge => i64::MAX,
            Intr::Tiny => 1,
            _ => unreachable!("{self:?} has no integer evaluation"),
        }
    }

    /// Whether a call computes on INTEGERs ([`Intr::eval_i`]) given that
    /// its arguments are `all_int`; otherwise on REALs.
    pub(crate) fn int_flavor(self, all_int: bool) -> bool {
        all_int && matches!(self, Intr::Abs | Intr::Max | Intr::Min | Intr::Mod | Intr::Sign)
    }

    /// A call on evaluated arguments.
    pub(crate) fn call(self, args: &[Val]) -> Val {
        if self.int_flavor(args.iter().all(|v| matches!(v, Val::I(_)))) {
            Val::I(self.eval_i(&args.iter().map(|v| v.as_i()).collect::<Vec<_>>()))
        } else {
            self.call_f(&args.iter().map(|v| v.as_f()).collect::<Vec<_>>())
        }
    }

    /// A REAL-flavoured call; `INT` and `NINT` give an INTEGER.
    pub(crate) fn call_f(self, args: &[f64]) -> Val {
        let r = self.eval_f(args);
        match self {
            Intr::Int | Intr::Nint => Val::I(r as i64),
            _ => Val::F(r),
        }
    }

    /// What a call posts to the cost trace.
    pub(crate) fn cost(self) -> OpKind {
        if self.is_special() {
            OpKind::FSpecial
        } else {
            OpKind::Flop
        }
    }
}

/// Comparison selector (`CmpI`/`CmpF`, mask lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    /// The selector of a comparison operator; `None` for any other.
    pub(crate) fn of(op: Bin) -> Option<Cmp> {
        Some(match op {
            Bin::Eq => Cmp::Eq,
            Bin::Ne => Cmp::Ne,
            Bin::Lt => Cmp::Lt,
            Bin::Le => Cmp::Le,
            Bin::Gt => Cmp::Gt,
            Bin::Ge => Cmp::Ge,
            _ => return None,
        })
    }

    /// `a <op> b`: IEEE on REALs (every comparison with a NaN but `/=`
    /// is false), two's complement on INTEGERs.
    #[inline(always)]
    pub(crate) fn holds<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// `a op b` with both sides already converted to the operation's type
/// `ty` (sema's promotion), except that `F ** I` keeps its INTEGER
/// exponent. Comparisons of `ty` give a LOGICAL; `.AND.`/`.OR.` take
/// LOGICALs. INTEGER `+ - * /` wrap, so `MIN / -1` is `MIN`.
pub(crate) fn bin(op: Bin, ty: ScalarTy, a: Val, b: Val) -> Result<Val, RunError> {
    if let Some(c) = Cmp::of(op) {
        return Ok(Val::B(match ty {
            ScalarTy::F => c.holds(a.as_f(), b.as_f()),
            _ => c.holds(a.as_i(), b.as_i()),
        }));
    }
    Ok(match (op, ty) {
        (Bin::And, _) => Val::B(a.as_b() && b.as_b()),
        (Bin::Or, _) => Val::B(a.as_b() || b.as_b()),
        (_, ScalarTy::B) => return Err(logical_arith()),
        (Bin::Pow, ScalarTy::F) => Val::F(match b {
            Val::I(e) => pow_fi(a.as_f(), e),
            _ => pow_f(a.as_f(), b.as_f()),
        }),
        (_, ScalarTy::F) => {
            let (x, y) = (a.as_f(), b.as_f());
            Val::F(match op {
                Bin::Add => x + y,
                Bin::Sub => x - y,
                Bin::Mul => x * y,
                _ => x / y,
            })
        }
        _ => {
            let (x, y) = (a.as_i(), b.as_i());
            Val::I(match op {
                Bin::Add => x.wrapping_add(y),
                Bin::Sub => x.wrapping_sub(y),
                Bin::Mul => x.wrapping_mul(y),
                Bin::Div => div_i(x, y)?,
                _ => pow_i(x, y),
            })
        }
    })
}

/// What [`bin`] posts to the cost trace; `None` for arithmetic on
/// LOGICALs, which fails uncounted.
pub(crate) fn bin_cost(op: Bin, ty: ScalarTy) -> Option<OpKind> {
    Some(match (op, ty) {
        (Bin::Div, ScalarTy::F) => OpKind::FDiv,
        (Bin::Pow, ScalarTy::F) => OpKind::FSpecial,
        (_, ScalarTy::F) => OpKind::Flop,
        (Bin::Add | Bin::Sub | Bin::Mul | Bin::Div | Bin::Pow, ScalarTy::B) => return None,
        _ => OpKind::IOp,
    })
}

/// INTEGER `a / b`, truncating; `MIN / -1` wraps to `MIN`.
#[inline(always)]
pub(crate) fn div_i(a: i64, b: i64) -> Result<i64, RunError> {
    if b == 0 {
        return Err(RunError::Arith { msg: "integer division by zero".into() });
    }
    Ok(a.wrapping_div(b))
}

/// INTEGER `x ** n`. F77 gives `1 / x**|n|` for `n < 0`, in integer
/// arithmetic: 1 for x = 1, ±1 for x = −1, 0 for |x| > 1; `0 ** n` with
/// `n < 0` is 0 here rather than a fault. A result past `i64` wraps,
/// like `*`: `MIN ** 2` and `(-2) ** 65` are 0.
#[inline(always)]
pub(crate) fn pow_i(x: i64, n: i64) -> i64 {
    match x {
        1 => 1,
        -1 if n % 2 == 0 => 1,
        -1 => -1,
        _ if n < 0 => 0,
        _ => {
            // Square and multiply over the exponent's bits.
            let (mut base, mut e, mut acc) = (x, n as u64, 1i64);
            while e > 0 {
                if e & 1 == 1 {
                    acc = acc.wrapping_mul(base);
                }
                base = base.wrapping_mul(base);
                e >>= 1;
            }
            acc
        }
    }
}

/// REAL `x ** e` with an INTEGER exponent: `powi` for `|e| <= 64`,
/// `powf` past that ([`powi_lane`] is the lane rungs' form).
#[inline(always)]
pub(crate) fn pow_fi(x: f64, e: i64) -> f64 {
    match powi_exponent(e) {
        Some(e) => x.powi(e),
        None => x.powf(e as f64),
    }
}

/// The exponent `F ** I` hands `powi`, when that rule applies.
#[inline(always)]
pub(crate) fn powi_exponent(e: i64) -> Option<i32> {
    (e.unsigned_abs() <= 64).then_some(e as i32)
}

/// REAL `x ** y`.
#[inline(always)]
pub(crate) fn pow_f(x: f64, y: f64) -> f64 {
    x.powf(y)
}

/// INTEGER negation; `-MIN` wraps to `MIN`.
#[inline(always)]
pub(crate) fn neg_i(x: i64) -> i64 {
    x.wrapping_neg()
}

/// Unary minus.
pub(crate) fn neg(v: Val) -> Result<Val, RunError> {
    match v {
        Val::I(x) => Ok(Val::I(neg_i(x))),
        Val::F(x) => Ok(Val::F(-x)),
        Val::B(_) => Err(logical_neg()),
    }
}

/// `.NOT.`, and the conversions sema inserts ([`Val::as_b`] and kin).
pub(crate) fn not(v: Val) -> Val {
    Val::B(!v.as_b())
}
pub(crate) fn to_f(v: Val) -> Val {
    Val::F(v.as_f())
}
pub(crate) fn to_i(v: Val) -> Val {
    Val::I(v.as_i())
}

/// The errors of `+ - * / **` on LOGICALs and of negating one.
pub(crate) fn logical_arith() -> RunError {
    RunError::Type { msg: "arithmetic on LOGICAL".into() }
}
pub(crate) fn logical_neg() -> RunError {
    RunError::Type { msg: "negate LOGICAL".into() }
}

/// `SIZE`, `SUM`, `MAXVAL` or `MINVAL` of a whole array. An INTEGER sum
/// wraps; an empty array's `MAXVAL`/`MINVAL` is the fold's seed.
pub(crate) fn reduce(f: ArrRed, arr: &ArrayObj) -> Val {
    let n = arr.len();
    let (ints, reals) = ((0..n).map(|i| arr.get_i(i)), (0..n).map(|i| arr.get_f(i)));
    match (f, arr.ty) {
        (ArrRed::Size, _) => Val::I(n as i64),
        (ArrRed::Sum, ScalarTy::I) => Val::I(ints.fold(0, i64::wrapping_add)),
        (ArrRed::Sum, _) => Val::F(reals.sum()),
        (ArrRed::Maxval, ScalarTy::I) => Val::I(ints.max().unwrap_or(i64::MIN)),
        (ArrRed::Maxval, _) => Val::F(reals.fold(f64::NEG_INFINITY, f64::max)),
        (ArrRed::Minval, ScalarTy::I) => Val::I(ints.min().unwrap_or(i64::MAX)),
        (ArrRed::Minval, _) => Val::F(reals.fold(f64::INFINITY, f64::min)),
    }
}

/// Appends a PRINT item's text: an INTEGER in decimal, a REAL with six
/// decimals, a LOGICAL as `T` or `F`.
pub(crate) fn print_item(line: &mut String, v: Val) {
    match v {
        Val::I(x) => line.push_str(&x.to_string()),
        Val::F(x) => line.push_str(&format!("{x:.6}")),
        Val::B(b) => line.push(if b { 'T' } else { 'F' }),
    }
}

/// How many times `DO v = lo, hi, step` runs: F77's count,
/// `MAX(INT((hi - lo + step) / step), 0)` (ANSI X3.9-1978 §11.10.3),
/// fixed when the loop starts and computed without overflow. A count
/// past `u64` saturates at `u64::MAX`, which no run finishes; so does a
/// zero step, which every tier rejects before a loop starts.
#[inline(always)]
pub(crate) fn do_trips(lo: i64, hi: i64, step: i64) -> u64 {
    let span = match step {
        1.. if hi >= lo => hi.wrapping_sub(lo) as u64,
        ..=-1 if lo >= hi => lo.wrapping_sub(hi) as u64,
        0 => return u64::MAX,
        _ => return 0,
    };
    (span / step.unsigned_abs()).saturating_add(1)
}

/// The loop variable on iteration `k` (from 0) of a DO loop from `lo` by
/// `step`: it advances by wrapping addition. Iteration `trips` is where
/// the counter stands once the loop is done, and the variable keeps
/// iteration `trips - 1` (a loop that never ran leaves it as it was).
#[inline(always)]
pub(crate) fn do_index(lo: i64, step: i64, k: u64) -> i64 {
    lo.wrapping_add((k as i64).wrapping_mul(step))
}

/// A lane kernel: a function of one or two f64 arguments.
///
/// On x86-64 Linux, the native rung's only target, `extern "C"` is the
/// SysV ABI: arguments in `xmm0`/`xmm1`, the result in `xmm0`, so
/// emitted code calls a kernel at its address.
pub(crate) type Kernel1 = extern "C" fn(f64) -> f64;
pub(crate) type Kernel2 = extern "C" fn(f64, f64) -> f64;

/// What a caller does with an intrinsic's kernel ([`Intr::with_kernel`]).
pub(crate) trait KernelSink {
    type Out;
    /// `HUGE`/`TINY`: the argument only names the kind.
    fn constant(self, c: f64) -> Self::Out;
    /// A function of the first argument.
    fn unary(self, k: Kernel1) -> Self::Out;
    /// A function of the first two arguments.
    fn binary(self, k: Kernel2) -> Self::Out;
    /// `MAX`/`MIN`: `k` folded over every argument from `seed`.
    fn fold(self, seed: f64, k: Kernel2) -> Self::Out;
}

/// An intrinsic's kernel as data ([`Intr::lane_kernel`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum LaneKernel {
    Const(f64),
    Unary(Kernel1),
    Binary(Kernel2),
    Fold(f64, Kernel2),
}

struct Pick;

impl KernelSink for Pick {
    type Out = LaneKernel;
    fn constant(self, c: f64) -> LaneKernel {
        LaneKernel::Const(c)
    }
    fn unary(self, k: Kernel1) -> LaneKernel {
        LaneKernel::Unary(k)
    }
    fn binary(self, k: Kernel2) -> LaneKernel {
        LaneKernel::Binary(k)
    }
    fn fold(self, seed: f64, k: Kernel2) -> LaneKernel {
        LaneKernel::Fold(seed, k)
    }
}

/// One call's arguments ([`Intr::eval_f`]).
struct Args<'a>(&'a [f64]);

impl KernelSink for Args<'_> {
    type Out = f64;
    #[inline(always)]
    fn constant(self, c: f64) -> f64 {
        c
    }
    #[inline(always)]
    fn unary(self, k: Kernel1) -> f64 {
        k(self.0[0])
    }
    #[inline(always)]
    fn binary(self, k: Kernel2) -> f64 {
        k(self.0[0], self.0[1])
    }
    #[inline(always)]
    fn fold(self, seed: f64, k: Kernel2) -> f64 {
        self.0.iter().fold(seed, |a, &x| k(a, x))
    }
}

/// `x ** e` under the engine's `F ** I` rule (`|e| <= 64`). The lane
/// rungs multiply 2, 3 and 4 out in the order compiler-rt's `__powidf2`
/// (what `f64::powi` calls for an exponent not known at compile time)
/// multiplies them: `x*x`, `x*(x*x)` and `(x*x)*(x*x)`.
#[inline(always)]
pub(crate) fn powi_lane(x: f64, e: i32) -> f64 {
    match e {
        2 => x * x,
        3 => x * (x * x),
        4 => {
            let s = x * x;
            s * s
        }
        _ => x.powi(e),
    }
}

/// The lane kernels. `MAX`/`MIN` spell out what `f64::max`/`f64::min`
/// leave open — equal operands (`+0`, `-0`) give the first, two NaNs the
/// second — so no inlining can change which bits a rung returns.
mod lane {
    pub extern "C" fn abs(x: f64) -> f64 {
        x.abs()
    }
    pub extern "C" fn ln(x: f64) -> f64 {
        x.ln()
    }
    pub extern "C" fn log10(x: f64) -> f64 {
        x.log10()
    }
    pub extern "C" fn exp(x: f64) -> f64 {
        x.exp()
    }
    pub extern "C" fn sqrt(x: f64) -> f64 {
        x.sqrt()
    }
    pub extern "C" fn sin(x: f64) -> f64 {
        x.sin()
    }
    pub extern "C" fn cos(x: f64) -> f64 {
        x.cos()
    }
    pub extern "C" fn tan(x: f64) -> f64 {
        x.tan()
    }
    pub extern "C" fn atan(x: f64) -> f64 {
        x.atan()
    }
    pub extern "C" fn trunc(x: f64) -> f64 {
        x.trunc()
    }
    pub extern "C" fn round(x: f64) -> f64 {
        x.round()
    }
    pub extern "C" fn id(x: f64) -> f64 {
        x
    }
    pub extern "C" fn max(a: f64, b: f64) -> f64 {
        if b > a || a.is_nan() {
            b
        } else {
            a
        }
    }
    pub extern "C" fn min(a: f64, b: f64) -> f64 {
        if b < a || a.is_nan() {
            b
        } else {
            a
        }
    }
    /// FORTRAN MOD(a, p) = a - INT(a/p)*p (truncated).
    pub extern "C" fn fmod(a: f64, p: f64) -> f64 {
        a - (a / p).trunc() * p
    }
    pub extern "C" fn sign(a: f64, b: f64) -> f64 {
        if b >= 0.0 {
            a.abs()
        } else {
            -a.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_resolution_incl_f77_aliases() {
        assert_eq!(Intr::from_name("alog"), Some(Intr::Alog));
        assert_eq!(Intr::from_name("dsqrt"), Some(Intr::Sqrt));
        assert_eq!(Intr::from_name("amax1"), Some(Intr::Max));
        assert_eq!(Intr::from_name("nosuch"), None);
    }

    #[test]
    fn float_semantics() {
        assert_eq!(Intr::Abs.eval_f(&[-2.0]), 2.0);
        assert!((Intr::Alog.eval_f(&[std::f64::consts::E]) - 1.0).abs() < 1e-12);
        assert_eq!(Intr::Max.eval_f(&[1.0, 3.0, 2.0]), 3.0);
        assert_eq!(Intr::Sign.eval_f(&[-5.0, 2.0]), 5.0);
        assert_eq!(Intr::Sign.eval_f(&[5.0, -2.0]), -5.0);
    }

    #[test]
    fn fortran_mod_truncates_toward_zero() {
        assert_eq!(Intr::Mod.eval_f(&[7.5, 2.0]), 1.5);
        assert_eq!(Intr::Mod.eval_f(&[-7.5, 2.0]), -1.5);
        assert_eq!(Intr::Mod.eval_i(&[-7, 2]), -1);
        assert_eq!(Intr::Mod.eval_i(&[5, 0]), 0, "div-by-zero guarded");
    }

    #[test]
    fn integer_semantics() {
        assert_eq!(Intr::Abs.eval_i(&[-9]), 9);
        assert_eq!(Intr::Max.eval_i(&[1, 7, 3]), 7);
        assert_eq!(Intr::Min.eval_i(&[1, 7, 3]), 1);
    }

    #[test]
    fn do_trips_follow_f77() {
        const MIN: i64 = i64::MIN;
        const MAX: i64 = i64::MAX;
        assert_eq!(do_trips(1, 10, 1), 10);
        assert_eq!(do_trips(1, 10, 3), 4);
        assert_eq!(do_trips(10, 1, -1), 10);
        assert_eq!(do_trips(5, 4, 1), 0);
        assert_eq!(do_trips(4, 5, -1), 0);
        // At the edges of i64, where `hi - lo` and `i + step` overflow.
        assert_eq!(do_trips(MAX - 1, MAX, 1), 2);
        assert_eq!(do_trips(MIN + 1, MIN, -1), 2);
        assert_eq!(do_trips(MAX - 7, MAX, 3), 3);
        assert_eq!(do_trips(MIN, MAX, 1 << 62), 4);
        assert_eq!(do_trips(MAX, MIN, MIN), 2);
        assert_eq!(do_trips(MIN, MAX, MAX), 3);
        assert_eq!(do_trips(MIN, MAX, 1), u64::MAX, "2**64 saturates");
        assert_eq!(do_trips(MAX, MIN, -1), u64::MAX);
        assert_eq!(do_trips(0, 0, 0), u64::MAX);
        // The variable wraps from the last iteration to the counter's end.
        assert_eq!(do_index(MAX - 1, 1, 1), MAX);
        assert_eq!(do_index(MAX - 1, 1, 2), MIN);
        assert_eq!(do_index(MIN, 1 << 62, 3), 1 << 62);
        assert_eq!(do_index(MIN, 1 << 62, 4), MIN);
    }

    #[test]
    fn result_types() {
        assert_eq!(Intr::Int.result_ty(ScalarTy::F), ScalarTy::I);
        assert_eq!(Intr::Abs.result_ty(ScalarTy::I), ScalarTy::I);
        assert_eq!(Intr::Exp.result_ty(ScalarTy::I), ScalarTy::F);
    }

    #[test]
    fn special_classification() {
        assert!(Intr::Exp.is_special());
        assert!(!Intr::Abs.is_special());
    }

    const ALL: [Intr; 20] = [
        Intr::Abs,
        Intr::Alog,
        Intr::Log,
        Intr::Log10,
        Intr::Exp,
        Intr::Sqrt,
        Intr::Sin,
        Intr::Cos,
        Intr::Tan,
        Intr::Atan,
        Intr::Max,
        Intr::Min,
        Intr::Mod,
        Intr::Int,
        Intr::Nint,
        Intr::Real,
        Intr::Dble,
        Intr::Sign,
        Intr::Huge,
        Intr::Tiny,
    ];

    /// Signed zeros and infinities, NaNs with different payloads (one
    /// signaling), subnormals, negative arguments to LOG and SQRT.
    fn edge_inputs() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_0002),
            f64::from_bits(0x7ff0_0000_0000_0003),
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.5,
            -2.0,
            0.5,
            1.0274,
            2.5,
            3.0,
            -7.25,
            1e300,
            -1e-300,
            1.0,
            -1.0,
            100.0,
        ]
    }

    /// Applies a kernel the way the lane rungs do.
    fn apply(k: LaneKernel, args: &[f64]) -> f64 {
        match k {
            LaneKernel::Const(c) => c,
            LaneKernel::Unary(k) => k(args[0]),
            LaneKernel::Binary(k) => k(args[0], args[1]),
            LaneKernel::Fold(seed, k) => args.iter().fold(seed, |a, &x| k(a, x)),
        }
    }

    /// The intrinsics spelled out on their own, as the engine defined
    /// them before they had kernels. A fold from the seed never holds a
    /// NaN, so `MAX`/`MIN` need no NaN rule of their own here.
    fn reference(f: Intr, args: &[f64]) -> f64 {
        match f {
            Intr::Abs => args[0].abs(),
            Intr::Alog | Intr::Log => args[0].ln(),
            Intr::Log10 => args[0].log10(),
            Intr::Exp => args[0].exp(),
            Intr::Sqrt => args[0].sqrt(),
            Intr::Sin => args[0].sin(),
            Intr::Cos => args[0].cos(),
            Intr::Tan => args[0].tan(),
            Intr::Atan => args[0].atan(),
            Intr::Max => args.iter().fold(f64::NEG_INFINITY, |a, &x| if x > a { x } else { a }),
            Intr::Min => args.iter().fold(f64::INFINITY, |a, &x| if x < a { x } else { a }),
            Intr::Mod => args[0] - (args[0] / args[1]).trunc() * args[1],
            Intr::Int => args[0].trunc(),
            Intr::Nint => args[0].round(),
            Intr::Real | Intr::Dble => args[0],
            Intr::Sign if args[1] >= 0.0 => args[0].abs(),
            Intr::Sign => -args[0].abs(),
            Intr::Huge => f64::MAX,
            Intr::Tiny => f64::MIN_POSITIVE,
        }
    }

    #[test]
    fn lane_kernels_match_eval_f_bit_for_bit() {
        let xs = edge_inputs();
        let same = |f: Intr, args: &[f64]| {
            let want = reference(f, args);
            for got in [f.eval_f(args), apply(f.lane_kernel(), args)] {
                assert_eq!(want.to_bits(), got.to_bits(), "{f:?}{args:?}: {want} vs {got}");
            }
        };
        for f in ALL {
            match f.arity() {
                (1, 1) => xs.iter().for_each(|&x| same(f, &[x])),
                _ => {
                    for &a in &xs {
                        for &b in &xs {
                            same(f, &[a, b]);
                            if f.arity().1 > 2 {
                                for &c in &xs {
                                    same(f, &[a, b, c]);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Wide folds, NaNs anywhere in the argument list.
        for f in [Intr::Max, Intr::Min] {
            for start in 0..xs.len() {
                let args: Vec<f64> = xs.iter().cycle().skip(start).take(8).copied().collect();
                for n in 4..=8 {
                    same(f, &args[..n]);
                }
            }
        }
    }

    #[test]
    fn max_and_min_pick_fixed_operands_for_ties_and_nans() {
        let (n1, n2) = (f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0xfff8_0000_0000_0002));
        let bits = |f: Intr, args: &[f64]| f.eval_f(args).to_bits();
        for f in [Intr::Max, Intr::Min] {
            assert_eq!(bits(f, &[0.0, -0.0]), 0.0f64.to_bits(), "{f:?}: first of equal zeros");
            assert_eq!(bits(f, &[-0.0, 0.0]), (-0.0f64).to_bits(), "{f:?}: first of equal zeros");
            assert_eq!(bits(f, &[n1, 1.0]), 1.0f64.to_bits(), "{f:?}: NaN first");
            assert_eq!(bits(f, &[1.0, n1]), 1.0f64.to_bits(), "{f:?}: NaN second");
            let LaneKernel::Fold(_, step) = f.lane_kernel() else { unreachable!() };
            assert_eq!(step(n1, n2).to_bits(), n2.to_bits(), "{f:?}: second of two NaNs");
        }
        // Folded from -inf: all-NaN arguments leave the seed.
        assert_eq!(bits(Intr::Max, &[n1, n2]), f64::NEG_INFINITY.to_bits());
        assert_eq!(bits(Intr::Min, &[n1, n2, n1]), f64::INFINITY.to_bits());
        assert_eq!(bits(Intr::Max, &[n1, 2.0, n2]), 2.0f64.to_bits());
    }

    #[test]
    fn unrolled_powi_matches_powi_for_every_small_exponent() {
        use std::hint::black_box;
        for e in -64..=64 {
            for &x in &edge_inputs() {
                let want = black_box(x).powi(black_box(e));
                let got = powi_lane(x, e);
                assert_eq!(want.to_bits(), got.to_bits(), "{x:e} ** {e}: {want} vs {got}");
            }
        }
    }

    #[test]
    fn rounding() {
        assert_eq!(Intr::Int.eval_f(&[2.9]), 2.0);
        assert_eq!(Intr::Int.eval_f(&[-2.9]), -2.0);
        assert_eq!(Intr::Nint.eval_f(&[2.5]), 3.0);
    }

    // ---------- the operator table, by literal expectation ----------

    use crate::ast::Expr;
    use crate::bytecode::{BInstr, Posts};
    use crate::engine::{ArgVal, ExecTier};
    use crate::interp::ExecMode;
    use crate::service::Session;

    const MIN: i64 = i64::MIN;
    const MAX: i64 = i64::MAX;
    const INTS: [i64; 5] = [MIN, -1, 0, 1, MAX];
    const EXPS: [i64; 9] = [-65, -64, -1, 0, 1, 62, 63, 64, 65];
    const N: f64 = f64::NAN;
    const INF: f64 = f64::INFINITY;
    const REALS: [f64; 5] = [0.0, -0.0, N, INF, -INF];
    const DIV0: &str = "integer division by zero";

    /// One operator on a grid of operands and what each pair gives; `op`
    /// `None` is unary minus (the second operand is unused).
    struct Group {
        op: Option<Bin>,
        ty: ScalarTy,
        cases: Vec<(Val, Val, Result<Val, &'static str>)>,
    }

    fn ints(xs: &[i64]) -> Vec<Val> {
        xs.iter().map(|&x| Val::I(x)).collect()
    }
    fn reals(xs: &[f64]) -> Vec<Val> {
        xs.iter().map(|&x| Val::F(x)).collect()
    }
    /// A row of LOGICALs written `T`/`F`.
    fn logicals(row: &str) -> Vec<Val> {
        row.chars().map(|c| Val::B(c == 'T')).collect()
    }

    /// `op` on every `(rows[r], cols[c])`, giving `want[r][c]`.
    fn grid(op: Bin, ty: ScalarTy, rows: &[Val], cols: &[Val], want: Vec<Vec<Val>>) -> Group {
        assert_eq!(want.len(), rows.len());
        let mut cases = Vec::new();
        for (&a, w) in rows.iter().zip(&want) {
            assert_eq!(w.len(), cols.len());
            cases.extend(cols.iter().zip(w).map(|(&b, &w)| (a, b, Ok(w))));
        }
        Group { op: Some(op), ty, cases }
    }

    fn int_grid(op: Bin, cols: &[i64], want: &[&[i64]]) -> Group {
        let rows = &INTS[..want.len()];
        grid(op, ScalarTy::I, &ints(rows), &ints(cols), want.iter().map(|w| ints(w)).collect())
    }
    fn real_grid(op: Bin, want: [[f64; 5]; 5]) -> Group {
        grid(op, ScalarTy::F, &reals(&REALS), &reals(&REALS), want.iter().map(|w| reals(w)).collect())
    }
    fn cmp_grid(op: Bin, ty: ScalarTy, want: [&str; 5]) -> Group {
        let xs = if ty == ScalarTy::F { reals(&REALS) } else { ints(&INTS) };
        grid(op, ty, &xs, &xs, want.iter().map(|w| logicals(w)).collect())
    }

    /// Every `Bin` on I, F and B, and `Neg`, each result written out.
    fn groups() -> Vec<Group> {
        use Bin::*;
        use ScalarTy::{B, F, I};
        let mut g = vec![
            int_grid(Add, &INTS, &[
                &[0, MAX, MIN, MIN + 1, -1],
                &[MAX, -2, -1, 0, MAX - 1],
                &[MIN, -1, 0, 1, MAX],
                &[MIN + 1, 0, 1, 2, MIN],
                &[-1, MAX - 1, MAX, MIN, -2],
            ]),
            int_grid(Sub, &INTS, &[
                &[0, MIN + 1, MIN, MAX, 1],
                &[MAX, 0, -1, -2, MIN],
                &[MIN, 1, 0, -1, MIN + 1],
                &[MIN + 1, 2, 1, 0, MIN + 2],
                &[-1, MIN, MAX, MAX - 1, 0],
            ]),
            int_grid(Mul, &INTS, &[
                &[0, MIN, 0, MIN, MIN],
                &[MIN, 1, 0, -1, MIN + 1],
                &[0, 0, 0, 0, 0],
                &[MIN, -1, 0, 1, MAX],
                &[MIN, MIN + 1, 0, MAX, 1],
            ]),
            // Every divisor but 0; those fail, below.
            int_grid(Div, &[MIN, -1, 1, MAX], &[
                &[1, MIN, MIN, -1],
                &[0, 1, -1, 0],
                &[0, 0, 0, 0],
                &[0, -1, 1, 0],
                &[0, MIN + 1, MAX, 1],
            ]),
            // Bases MIN, -1, 0, 1, MAX, 2, -2 over EXPS; past i64 wraps
            // (`MAX * MAX` is 1).
            grid(Pow, I, &ints(&[MIN, -1, 0, 1, MAX, 2, -2]), &ints(&EXPS), vec![
                ints(&[0, 0, 0, 1, MIN, 0, 0, 0, 0]),
                ints(&[-1, 1, -1, 1, -1, 1, -1, 1, -1]),
                ints(&[0, 0, 0, 1, 0, 0, 0, 0, 0]),
                ints(&[1, 1, 1, 1, 1, 1, 1, 1, 1]),
                ints(&[0, 0, 0, 1, MAX, 1, MAX, 1, MAX]),
                ints(&[0, 0, 0, 1, 2, 1 << 62, MIN, 0, 0]),
                ints(&[0, 0, 0, 1, -2, 1 << 62, MIN, 0, 0]),
            ]),
            real_grid(Add, [
                [0.0, 0.0, N, INF, -INF],
                [0.0, -0.0, N, INF, -INF],
                [N, N, N, N, N],
                [INF, INF, N, INF, N],
                [-INF, -INF, N, N, -INF],
            ]),
            real_grid(Sub, [
                [0.0, 0.0, N, -INF, INF],
                [-0.0, 0.0, N, -INF, INF],
                [N, N, N, N, N],
                [INF, INF, N, N, INF],
                [-INF, -INF, N, -INF, N],
            ]),
            real_grid(Mul, [
                [0.0, -0.0, N, N, N],
                [-0.0, 0.0, N, N, N],
                [N, N, N, N, N],
                [N, N, N, INF, -INF],
                [N, N, N, -INF, INF],
            ]),
            real_grid(Div, [
                [N, N, N, 0.0, -0.0],
                [N, N, N, -0.0, 0.0],
                [N, N, N, N, N],
                [INF, -INF, N, N, N],
                [-INF, INF, N, N, N],
            ]),
            real_grid(Pow, [
                [1.0, 1.0, N, 0.0, INF],
                [1.0, 1.0, N, 0.0, INF],
                [1.0, 1.0, N, N, N],
                [1.0, 1.0, N, INF, 0.0],
                [1.0, 1.0, N, INF, 0.0],
            ]),
            // `F ** I`: powi for |e| <= 64, powf past it.
            grid(Pow, F, &reals(&REALS), &ints(&EXPS), vec![
                reals(&[INF, INF, INF, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                reals(&[-INF, INF, -INF, 1.0, -0.0, 0.0, -0.0, 0.0, -0.0]),
                reals(&[N, N, N, 1.0, N, N, N, N, N]),
                reals(&[0.0, 0.0, 0.0, 1.0, INF, INF, INF, INF, INF]),
                reals(&[-0.0, 0.0, -0.0, 1.0, -INF, INF, -INF, INF, -INF]),
            ]),
            cmp_grid(Eq, I, ["TFFFF", "FTFFF", "FFTFF", "FFFTF", "FFFFT"]),
            cmp_grid(Ne, I, ["FTTTT", "TFTTT", "TTFTT", "TTTFT", "TTTTF"]),
            cmp_grid(Lt, I, ["FTTTT", "FFTTT", "FFFTT", "FFFFT", "FFFFF"]),
            cmp_grid(Le, I, ["TTTTT", "FTTTT", "FFTTT", "FFFTT", "FFFFT"]),
            cmp_grid(Gt, I, ["FFFFF", "TFFFF", "TTFFF", "TTTFF", "TTTTF"]),
            cmp_grid(Ge, I, ["TFFFF", "TTFFF", "TTTFF", "TTTTF", "TTTTT"]),
            cmp_grid(Eq, F, ["TTFFF", "TTFFF", "FFFFF", "FFFTF", "FFFFT"]),
            cmp_grid(Ne, F, ["FFTTT", "FFTTT", "TTTTT", "TTTFT", "TTTTF"]),
            cmp_grid(Lt, F, ["FFFTF", "FFFTF", "FFFFF", "FFFFF", "TTFTF"]),
            cmp_grid(Le, F, ["TTFTF", "TTFTF", "FFFFF", "FFFTF", "TTFTT"]),
            cmp_grid(Gt, F, ["FFFFT", "FFFFT", "FFFFF", "TTFFT", "FFFFF"]),
            cmp_grid(Ge, F, ["TTFFT", "TTFFT", "FFFFF", "TTFTT", "FFFFT"]),
            grid(And, B, &logicals("FT"), &logicals("FT"), vec![logicals("FF"), logicals("FT")]),
            grid(Or, B, &logicals("FT"), &logicals("FT"), vec![logicals("FT"), logicals("TT")]),
        ];
        let fail = INTS.iter().map(|&a| (Val::I(a), Val::I(0), Err(DIV0))).collect();
        g.push(Group { op: Some(Div), ty: I, cases: fail });
        let negs = |xs: Vec<Val>, want: Vec<Val>| xs.into_iter().zip(want).map(|(a, w)| (a, a, Ok(w)));
        let cases = negs(ints(&INTS), ints(&[MIN, 1, 0, -1, MIN + 1]));
        g.push(Group { op: None, ty: I, cases: cases.collect() });
        let cases = negs(reals(&REALS), reals(&[-0.0, 0.0, N, -INF, INF]));
        g.push(Group { op: None, ty: F, cases: cases.collect() });
        g
    }

    /// The same value: REALs by bits, any NaN for a NaN.
    fn same(want: Val, got: Val) -> bool {
        match (want, got) {
            (Val::F(w), Val::F(g)) if w.is_nan() => g.is_nan(),
            (Val::F(w), Val::F(g)) => w.to_bits() == g.to_bits(),
            _ => want == got,
        }
    }

    fn check(what: &str, want: Result<Val, &str>, got: Result<Val, String>) {
        let ok = match (&want, &got) {
            (Ok(w), Ok(g)) => same(*w, *g),
            (Err(w), Err(g)) => g.contains(w),
            _ => false,
        };
        assert!(ok, "{what}: want {want:?}, got {got:?}");
    }

    fn apply_op(g: &Group, a: Val, b: Val) -> Result<Val, RunError> {
        match g.op {
            Some(op) => bin(op, g.ty, a, b),
            None => neg(a),
        }
    }

    #[test]
    fn the_table_gives_the_written_values() {
        for g in groups() {
            for &(a, b, want) in &g.cases {
                let got = apply_op(&g, a, b).map_err(|e| e.to_string());
                check(&format!("{:?} {a:?} {b:?}", g.op), want, got);
            }
        }
        let logical = |e: RunError| e.to_string();
        assert!(logical(bin(Bin::Add, ScalarTy::B, Val::B(true), Val::B(true)).unwrap_err())
            .contains("arithmetic on LOGICAL"));
        assert!(logical(neg(Val::B(true)).unwrap_err()).contains("negate LOGICAL"));
        assert!(bin_cost(Bin::Mul, ScalarTy::B).is_none());
    }

    /// `cfold` folds every case the table computes and refuses every one
    /// that fails.
    #[test]
    fn cfold_folds_to_the_written_values() {
        let lit = |v: Val| match v {
            Val::I(i) => Expr::Int(i),
            Val::F(r) => Expr::Real(r),
            Val::B(b) => Expr::Logical(b),
        };
        for g in groups() {
            for &(a, b, want) in &g.cases {
                let e = match g.op {
                    Some(op) => Expr::Bin(op, Box::new(lit(a)), Box::new(lit(b))),
                    None => Expr::Neg(Box::new(lit(a))),
                };
                let got = match crate::cfold::cfold(&e, &|_| None) {
                    Ok(Expr::Int(i)) => Ok(Val::I(i)),
                    Ok(Expr::Real(r)) => Ok(Val::F(r)),
                    Ok(Expr::Logical(b)) => Ok(Val::B(b)),
                    other => Err(format!("{DIV0}? {other:?}")),
                };
                check(&format!("cfold {e:?}"), want, got);
            }
        }
        let sum = Expr::Bin(Bin::Add, Box::new(Expr::Logical(true)), Box::new(Expr::Int(1)));
        assert!(crate::cfold::cfold(&sum, &|_| None).is_err(), "LOGICAL arithmetic");
    }

    /// Source text whose value is `v`: NaN and the infinities are
    /// divisions, so a literal NaN is the host's default NaN.
    fn text(v: Val) -> String {
        match v {
            Val::I(MIN) => "(-9223372036854775807 - 1)".into(),
            Val::I(i) if i < 0 => format!("({i})"),
            Val::I(i) => i.to_string(),
            Val::F(x) if x.is_nan() => "(0.0D0 / 0.0D0)".into(),
            Val::F(x) if x.is_infinite() => format!("({}1.0D0 / 0.0D0)", if x < 0.0 { "-" } else { "" }),
            Val::F(x) => format!("({}{:?}D0)", if x.is_sign_negative() { "-" } else { "" }, x.abs()),
            Val::B(b) => if b { ".TRUE." } else { ".FALSE." }.into(),
        }
    }

    fn decl(v: Val) -> &'static str {
        match v {
            Val::I(_) => "INTEGER",
            Val::F(_) => "REAL(8)",
            Val::B(_) => "LOGICAL",
        }
    }

    fn arg(v: Val) -> ArgVal {
        match v {
            Val::I(x) => ArgVal::I(x),
            Val::F(x) => ArgVal::F(x),
            Val::B(x) => ArgVal::B(x),
        }
    }

    /// `run(x, y)` computes the group's operation on its arguments, and
    /// `c<k>()` on case `k`'s operands written as literals.
    fn program(g: &Group) -> String {
        let form = |a: &str, b: &str| match g.op {
            Some(op) => {
                let sym = match op {
                    Bin::Add => "+",
                    Bin::Sub => "-",
                    Bin::Mul => "*",
                    Bin::Div => "/",
                    Bin::Pow => "**",
                    Bin::Eq => ".EQ.",
                    Bin::Ne => ".NE.",
                    Bin::Lt => ".LT.",
                    Bin::Le => ".LE.",
                    Bin::Gt => ".GT.",
                    Bin::Ge => ".GE.",
                    Bin::And => ".AND.",
                    Bin::Or => ".OR.",
                };
                format!("{a} {sym} {b}")
            }
            None => format!("-{a}"),
        };
        let (a, b, _) = g.cases[0];
        let res = match g.op {
            Some(op) if Cmp::of(op).is_some() => "LOGICAL",
            _ => decl(a),
        };
        let mut src = format!(
            "MODULE optab\nCONTAINS\n  {res} FUNCTION run(x, y)\n    {} :: x\n    {} :: y\n    run = {}\n  END FUNCTION run\n",
            decl(a),
            decl(b),
            form("x", "y")
        );
        for (k, &(a, b, _)) in g.cases.iter().enumerate() {
            let body = form(&text(a), &text(b));
            src += &format!("  {res} FUNCTION c{k}()\n    c{k} = {body}\n  END FUNCTION c{k}\n");
        }
        src + "END MODULE optab\n"
    }

    /// Lowering folds each literal case to a `Const` of its value and
    /// leaves each failing one to run; the tree-walker and the VM (scalar
    /// and vector rung) give the written value or error for both forms
    /// in Serial, `Parallel{2}` and Simulated, with no trap.
    #[test]
    fn folder_and_every_rung_give_the_written_values() {
        const MODES: [ExecMode; 3] = [
            ExecMode::Serial,
            ExecMode::Parallel { threads: 2 },
            ExecMode::Simulated { threads: 2 },
        ];
        for g in groups() {
            let src = program(&g);
            let s = Session::compile(&[&src]).unwrap_or_else(|e| panic!("{e}\n{src}"));
            let art = s.artifact();
            let (lowered, code) = (art.lowered_program(false), art.bytecode(false));
            let res_ty = match (g.op, g.cases[0].0) {
                (Some(op), _) if Cmp::of(op).is_some() => ScalarTy::B,
                (_, Val::I(_)) => ScalarTy::I,
                (_, Val::F(_)) => ScalarTy::F,
                _ => ScalarTy::B,
            };
            for (k, &(_, _, want)) in g.cases.iter().enumerate() {
                let u = lowered.units.iter().position(|u| u.name == format!("c{k}")).unwrap();
                let bu = &code[u];
                let computes = bu.code.iter().any(|i| {
                    matches!(i.posts(), Posts::Op(k) if !matches!(k, OpKind::Load | OpKind::Store))
                });
                // A constant INTEGER assignment is one `SetI` with no terms.
                let folded = bu.code.iter().any(|i| {
                    let bits = match *i {
                        BInstr::Const(b) => b,
                        BInstr::SetI { aff, .. } if bu.affine[aff as usize].terms.is_empty() => {
                            bu.affine[aff as usize].add as u64
                        }
                        _ => return false,
                    };
                    want.is_ok_and(|w| same(w, Val::from_bits(bits, res_ty)))
                });
                assert_eq!((folded, computes), (want.is_ok(), want.is_err()), "c{k}:\n{src}");
            }
            for (rung, tier, vector) in [
                ("tree-walk", ExecTier::TreeWalk, false),
                ("scalar VM", ExecTier::Vm, false),
                ("vector VM", ExecTier::Vm, true),
            ] {
                s.set_vector_enabled(vector);
                for mode in MODES {
                    for (k, &(a, b, want)) in g.cases.iter().enumerate() {
                        let out = |name: &str, args: &[ArgVal]| {
                            let r = s.run_tiered(name, args, mode, tier).map_err(|e| e.to_string());
                            r.map(|o| o.result.expect("a function result"))
                        };
                        let what = format!("{rung} {mode:?} {:?} {a:?} {b:?}", g.op);
                        check(&what, want, out("run", &[arg(a), arg(b)]));
                        check(&format!("{what} (literal)"), want, out(&format!("c{k}"), &[]));
                    }
                }
            }
            assert_eq!(s.fallback_count(), 0, "a rung trapped into the oracle:\n{src}");
        }
    }
}
