//! # glaf-autopar — GLAF's auto-parallelization back-end
//!
//! "Auto-parallelization includes algorithms that parse the internal
//! representation of the algorithm, identify dependencies, and guide code
//! generation of parallel code" (paper §2.1). This crate is that back-end:
//!
//! 1. [`affine`] — canonicalizes subscript expressions into affine forms
//!    over the loop indices (`c0 + Σ ci·index_i`), the representation every
//!    classical dependence test needs.
//! 2. [`access`] — walks a loop nest collecting every grid read and write
//!    together with its affine subscripts.
//! 3. [`depend`] — pairwise dependence testing: ZIV, strong SIV and the GCD
//!    test, with a conservative fallback. Produces per-loop-index verdicts
//!    (loop-carried or not).
//! 4. [`reduction`] — recognizes scalar and array reduction patterns
//!    (`s = s + e`, `a(k) = a(k) + e`) so they can be parallelized with
//!    OpenMP `REDUCTION` clauses or `ATOMIC` updates.
//! 5. [`privatize`] — finds scalars that are written before read in every
//!    iteration and can therefore carry the OpenMP `PRIVATE` clause (the
//!    paper reports 219 such variables in the FUN3D kernel).
//! 6. [`classify`] — the loop taxonomy behind the paper's Table 2
//!    (initialization-to-zero, single-value-load initialization, simple
//!    single loops, simple double loops, complex) plus a vectorizability
//!    verdict used by the machine model.
//! 7. [`plan`] — ties it together into a [`plan::LoopPlan`] per loop step
//!    and a [`plan::ProgramPlan`] for the whole program.
//! 8. [`costmodel`] — the "performance prediction/modeling back-end" the
//!    paper proposes as future work (§4.1.2): predicts whether threading a
//!    loop beats leaving it to compiler SIMD, and guides directive
//!    placement automatically.
//! 9. [`transform`] — the optimization back-end's loop-interchange and
//!    loop-fusion options (§2.1) with dependence-based legality checks
//!    and a cost-driven fusion driver.

pub mod access;
pub mod affine;
pub mod classify;
pub mod costmodel;
pub mod decision;
pub mod depend;
pub mod plan;
pub mod privatize;
pub mod reduction;
pub mod transform;

pub use access::{collect_accesses, Access, AccessKind};
pub use affine::{Affine, SubscriptForm};
pub use classify::{classify_loop, LoopClass};
pub use costmodel::{CostAdvisor, CostParams, Decision, SchedKind, ScheduleChoice};
pub use decision::{
    analyze_function_with_log, analyze_program_with_log, DecisionLog, DepRecord, LoopDecision,
};
pub use depend::{test_dependence, test_dependence_explained, DepEvidence, DepResult, DepTest};
pub use plan::{analyze_function, analyze_program, FunctionPlan, LoopPlan, ProgramPlan, RedOp};
pub use privatize::find_private_scalars;
pub use reduction::{find_reductions, Reduction};
pub use transform::{
    fuse, fuse_legal, fuse_program, interchange, interchange_legal, FusionError, FusionReport,
    InterchangeError,
};
