//! # fortrans — a FORTRAN-subset compiler and interpreter with OpenMP
//!
//! The execution substrate of the GLAF reproduction. The paper compiles
//! GLAF-generated FORTRAN with gfortran/ifort and runs it on real
//! hardware; this crate provides the equivalent stack from scratch:
//!
//! * [`lex`] / [`fixedform`] / [`parse`] — one front end for both source
//!   forms. `lex` assembles free-form lines and `fixedform` punched
//!   cards (column rules, continuation, blank stripping) onto the same
//!   token buffer; `parse` is the one statement parser behind both: a
//!   FORTRAN 90 subset — modules with `CONTAINS`, `USE`, derived `TYPE`s
//!   and `%` access, `SUBROUTINE`/`FUNCTION`, allocatables, `SAVE`,
//!   `DO`/`DO WHILE`/`IF`, the F77/F90 intrinsics GLAF's library
//!   back-end emits, the OpenMP directives GLAF generates (`!$OMP
//!   PARALLEL DO` with PRIVATE/FIRSTPRIVATE/REDUCTION/COLLAPSE/
//!   NUM_THREADS/SCHEDULE, `ATOMIC`, `CRITICAL`, `THREADPRIVATE`) —
//!   united with the legacy F77 surface: statement labels, `GO TO` in
//!   its three forms and arithmetic `IF` (legalized into structured
//!   control flow), `IMPLICIT` typing, `COMMON`/`EQUIVALENCE`/`DATA`/
//!   `PARAMETER`. It recovers at statement boundaries and reports every
//!   problem of a source set in one [`Diagnostics`] (DESIGN.md §8).
//! * [`sema`] — name/slot resolution through a chain of scopes (the
//!   unit, what its own `USE`s reach, what its module's reach; nothing
//!   is copied at a `USE`), storage association for COMMON, flattening
//!   of derived-type variables, type checking with FORTRAN promotion
//!   rules; its output is the resolved program ([`rir`]). Constant
//!   expressions — `PARAMETER` values, bounds, initializers — fold in
//!   `cfold`, the one evaluator it shares with the F77 specification
//!   pass.
//! * [`interp`] — the tree-walk executor: the reference ("oracle") tier
//!   every other rung must match bit for bit, and home of what the tiers
//!   share ([`ExecMode`], [`RunLimits`], [`Val`], ATOMIC updates and
//!   reduction combines). Every tier runs in three modes: `Serial`,
//!   `Parallel` (real fork-join threads on the [`omprt`] runtime) and
//!   `Simulated` (serial-order execution emitting a [`cost::CostTrace`]
//!   for the `simcpu` machine model — the substitute for the paper's
//!   testbeds on a single-core host, see DESIGN.md).
//! * [`bytecode`] / [`verify`] / [`vm`] — the default tier. Each unit is
//!   lowered to flat bytecode (an optimized build at compile time, and a
//!   traced one that posts the cost events `Simulated` needs on the first
//!   Simulated run), statically verified before it may run, and executed
//!   by the VM; affine `DO` loops become
//!   `VecLoop` regions run a vector of iterations at a time. A VM trap
//!   falls back to the tree-walk tier (DESIGN.md §6).
//! * [`jit`] — x86-64 machine code for hot `VecLoop` regions, guarded and
//!   deoptimizing back to the VM (DESIGN.md §9).
//! * `region` — the one `!$OMP PARALLEL DO` driver both executors fork
//!   through: scheduling, privatization, reduction join.
//! * [`service`] — what callers hold: [`CompiledProgram`] (the immutable,
//!   shareable artifact), [`Session`] (everything a run mutates) and
//!   [`EngineService`] with its artifact cache, batch [`JobQueue`] and
//!   failure policy (DESIGN.md §7).
//! * [`trace`] — opt-in span profiles ([`Session::run_profiled`]): where
//!   the time went per unit, loop and parallel region.
//! * [`gen`] — seeded generator of legacy-style F77 programs (the
//!   differential corpora and the benchmark's cold-compile workload).
//! * [`storage`], [`cost`], [`intrinsics`], [`engine`], [`error`] — array
//!   objects, cost accounting, intrinsic functions, argument/outcome
//!   types, diagnostics.
//!
//! ## Quick example
//!
//! ```
//! use fortrans::{ArgVal, ExecMode, Session};
//!
//! let src = r#"
//! MODULE demo
//! CONTAINS
//!   SUBROUTINE scale(a, n, f)
//!     REAL(8), DIMENSION(1:8) :: a
//!     INTEGER :: n
//!     REAL(8) :: f
//!     INTEGER :: i
//!     !$OMP PARALLEL DO DEFAULT(SHARED)
//!     DO i = 1, n
//!       a(i) = a(i) * f
//!     END DO
//!     !$OMP END PARALLEL DO
//!   END SUBROUTINE scale
//! END MODULE demo
//! "#;
//! let session = Session::compile(&[src]).unwrap();
//! let a = ArgVal::array_f(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 1);
//! session
//!     .run("scale", &[a.clone(), ArgVal::I(8), ArgVal::F(2.0)], ExecMode::Parallel { threads: 2 })
//!     .unwrap();
//! assert_eq!(a.handle().unwrap().get_f(0), 2.0);
//! assert_eq!(a.handle().unwrap().get_f(7), 16.0);
//! ```

pub mod ast;
pub mod bytecode;
mod cfold;
pub mod cost;
pub mod engine;
pub mod error;
mod f77spec;
pub mod fixedform;
pub mod gen;
pub mod interp;
pub mod intrinsics;
pub mod jit;
mod legalize;
pub mod lex;
pub mod parse;
mod region;
pub mod rir;
pub mod sema;
pub mod service;
pub mod storage;
pub mod trace;
pub mod verify;
pub mod vm;

pub use cost::{CostCounters, CostTrace, OpCounts, RegionEvent, TraceEvent};
pub use engine::{
    ArgVal, ExecTier, RunOutcome, TierFallback, VectorLoopInfo, VectorRefusalInfo,
};
pub use error::{CompileError, Diagnostic, Diagnostics, Severity};
pub use error::RunError;
pub use fixedform::is_fixed_form;
pub use parse::ProgramSet;
pub use interp::{CancelToken, ExecMode, RunLimits, ScheduleOverrides, Val};
pub use omprt::{PoolSet, Schedule};
pub use service::{
    source_hash, ArtifactCache, Attempt, BatchReport, CompiledProgram, EngineService, FaultPlan,
    Job, JobPolicy, JobQueue, JobResult, PolicyAction, QuarantineMode, QuarantinePolicy, Session,
};
pub use rir::ScalarTy;
pub use storage::ArrayObj;
pub use trace::{Collector, FallbackInfo, Profile, RegionReport, SpanKind, SpanNode};
