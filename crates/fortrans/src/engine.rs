//! The value types of the run API: arguments, outcomes, the tier
//! selector and the static vectorization report. The machinery that
//! consumes them is [`crate::service`] (`CompiledProgram` + `Session`).
//!
//! This file is part of the user-reachable API surface, so internal
//! panics are a bug here: keep it free of `unwrap`/`expect` (checked by
//! the scoped lints below).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use crate::error::RunError;
use crate::rir::ScalarTy;
#[cfg(doc)]
use crate::service::Session;
use crate::storage::ArrayObj;

/// An argument for [`Session::run`].
#[derive(Debug, Clone)]
pub enum ArgVal {
    I(i64),
    F(f64),
    B(bool),
    /// Shared array handle: the callee sees and mutates the same cells, so
    /// results can be read back from the handle after the run.
    Arr(Arc<ArrayObj>),
}

impl ArgVal {
    /// Builds a 1-D f64 array argument from a slice.
    pub fn array_f(data: &[f64], lo: i64) -> ArgVal {
        let obj = ArrayObj::new(ScalarTy::F, vec![(lo, lo + data.len() as i64 - 1)]);
        for (i, v) in data.iter().enumerate() {
            obj.set_f(i, *v);
        }
        ArgVal::Arr(Arc::new(obj))
    }

    /// Builds an n-D f64 array argument. Fails (instead of panicking) if
    /// the dims are malformed or their extent does not match `data`.
    pub fn array_f_dims(data: &[f64], dims: Vec<(i64, i64)>) -> Result<ArgVal, RunError> {
        let obj = ArrayObj::try_new(ScalarTy::F, dims)?;
        if obj.len() != data.len() {
            return Err(RunError::BadCall {
                name: "array_f_dims".into(),
                msg: format!("dims hold {} elements, data has {}", obj.len(), data.len()),
            });
        }
        for (i, v) in data.iter().enumerate() {
            obj.set_f(i, *v);
        }
        Ok(ArgVal::Arr(Arc::new(obj)))
    }

    /// Builds a 1-D i64 array argument.
    pub fn array_i(data: &[i64], lo: i64) -> ArgVal {
        let obj = ArrayObj::new(ScalarTy::I, vec![(lo, lo + data.len() as i64 - 1)]);
        for (i, v) in data.iter().enumerate() {
            obj.set_i(i, *v);
        }
        ArgVal::Arr(Arc::new(obj))
    }

    /// The underlying handle, if this is an array argument.
    pub fn handle(&self) -> Option<&Arc<ArrayObj>> {
        match self {
            ArgVal::Arr(h) => Some(h),
            _ => None,
        }
    }
}

/// Diagnostic recorded when the VM tier trapped and the call was
/// transparently re-executed on the tree-walk oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierFallback {
    /// Entry unit of the trapped call.
    pub unit: String,
    /// The trap's panic payload (internal fault description).
    pub what: String,
}

/// Outcome of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Function result (None for subroutines).
    pub result: Option<crate::interp::Val>,
    /// Cost trace (Simulated mode only; empty otherwise).
    pub trace: crate::cost::CostTrace,
    /// Everything PRINTed.
    pub printed: String,
    /// Set when the VM tier trapped and the result came from the
    /// tree-walk oracle instead (see [`Session::run_tiered`]).
    pub fallback: Option<TierFallback>,
}

/// One statically vectorized loop, as reported by
/// [`Session::vector_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorLoopInfo {
    /// Unit (subroutine/function) containing the loop.
    pub unit: String,
    /// Source line of the DO statement.
    pub line: u32,
    /// Vectorized statements in the loop body (a masked select's `IF`
    /// counts as one).
    pub stmts: usize,
    /// True when the loop is a scalar reduction (a masked select too).
    pub reduction: bool,
    /// Access streams whose bounds lowering proved: the entry checks
    /// them with one window test (`VecAccess::proven`).
    pub proven: usize,
    /// Access streams the entry still resolves with checked arithmetic.
    pub checked: usize,
    /// Stream pairs the entry compares for runtime aliasing.
    pub alias_pairs: usize,
    /// Arrays of the loop the optimized build's program contracted into
    /// frame scalars ([`crate::rir::rewrite::contract_temporaries`]),
    /// which the region forward-substitutes instead of streaming
    /// (DESIGN §6, "Contracted temporaries").
    pub contracted: usize,
}

/// One serial DO loop the vector analysis left on the scalar tier, as
/// reported by [`crate::CompiledProgram::vector_refusals`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorRefusalInfo {
    /// Unit (subroutine/function) containing the loop.
    pub unit: String,
    /// Source line of the DO statement.
    pub line: u32,
    pub why: crate::bytecode::VecRefusal,
}

/// Which execution tier [`Session::run_tiered`] uses.
///
/// [`ExecTier::Vm`] (the default for [`Session::run`]) compiles units to
/// flat bytecode and executes them on the register/stack VM in
/// [`crate::vm`]; hot `VecLoop` regions are promoted to native code by
/// [`crate::jit`] when the session's native tier is enabled (see
/// [`Session::set_native_enabled`] / [`Session::set_native_eager`]).
/// [`ExecTier::TreeWalk`] runs the original tree-walking interpreter; it
/// is kept as the reference oracle for differential testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    Vm,
    TreeWalk,
}
