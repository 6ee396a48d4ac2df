//! Intrinsic functions — the FORTRAN library surface GLAF's extended
//! library back-end targets (§3.6: ABS, ALOG, SUM "and other functions").

use crate::rir::ScalarTy;

/// Scalar intrinsics (whole-array SUM/MAXVAL/MINVAL/SIZE/ALLOCATED are
/// handled separately in the resolver).
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

    /// Evaluates with i64 arguments (for integer-typed results).
    pub fn eval_i(self, args: &[i64]) -> i64 {
        match self {
            Intr::Abs => args[0].wrapping_abs(),
            Intr::Max => args.iter().copied().max().unwrap_or(i64::MIN),
            Intr::Min => args.iter().copied().min().unwrap_or(i64::MAX),
            Intr::Mod => {
                if args[1] == 0 {
                    0
                } else {
                    args[0] % args[1]
                }
            }
            Intr::Sign => {
                if args[1] >= 0 {
                    args[0].wrapping_abs()
                } else {
                    -args[0].wrapping_abs()
                }
            }
            Intr::Huge => i64::MAX,
            Intr::Tiny => 1,
            _ => unreachable!("{self:?} has no integer evaluation"),
        }
    }
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
}
