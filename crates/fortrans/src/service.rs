//! The service layer: immutable compiled artifacts, per-run sessions,
//! an LRU artifact cache, and batched job execution.
//!
//! The paper's pipeline is one-shot — compile one kernel, run it once.
//! A service compiling and running many kernels for many users
//! concurrently needs a different shape:
//!
//! * [`CompiledProgram`] — everything `compile` produces and nothing a
//!   run mutates: the resolved program, the statically verified
//!   optimized bytecode (the traced variant is verified and added by the
//!   first Simulated run), and the source-content hash that keys it.
//!   `Arc`-shared across any number of sessions.
//! * [`Session`] — everything a run mutates: global storage, schedule
//!   overrides, [`RunLimits`], the vector-path gate, fallback and
//!   vector-entry counters. Cheap to create; one per tenant/run-stream.
//! * [`ArtifactCache`] — LRU map from source hash to artifact, so
//!   repeated compiles of identical sources return the same `Arc`.
//! * [`JobQueue`] — batches many parameter sets across one shared
//!   [`omprt::PoolSet`] without oversubscription, with per-job limits
//!   and trap isolation.
//!
//! Like `engine.rs` this is user-reachable API surface: internal panics
//! are a bug here (scoped lints below). The one `catch_unwind` is the
//! deliberate trap boundary of the tiered-execution contract.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use omprt::{CriticalRegistry, PoolSet};
use parking_lot::Mutex;

use crate::bytecode::{compile_program, BInstr, BUnit, SubOp, VSlot, VecRefusal};
use crate::engine::{
    ArgVal, ExecTier, RunOutcome, TierFallback, VectorLoopInfo, VectorRefusalInfo,
};
use crate::error::{CompileError, RunError};
use crate::interp::{
    CancelToken, EffLimits, Exec, ExecMode, RungCounts, RunLimits, ScheduleOverrides, Task, Val,
};
use crate::jit::NativeCache;
use crate::parse::ProgramSet;
use crate::rir::{each_child, walk_stmt, RProgram, RStmt, RUnit, ScalarTy, Seen, SpStmt};
use crate::sema::resolve;
use crate::storage::{ArrayObj, GlobalCell, Globals};

/// FNV-1a over every source with a separator byte between files, so the
/// key is a pure function of source *content*: any byte difference —
/// including whitespace — yields a distinct artifact, and reordering
/// files does too (storage layout follows file order).
pub fn source_hash(sources: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for s in sources {
        for b in s.bytes() {
            eat(b);
        }
        eat(0x1f); // unit separator: "ab"+"c" hashes apart from "a"+"bc"
    }
    h
}

/// The product of compilation, shared by reference across
/// sessions: the resolved program (with its pc→line tables and OMP
/// descriptors), the optimized bytecode build — statically verified
/// before [`CompiledProgram::compile`] returns — and the content hash
/// that keys the artifact in an [`ArtifactCache`]. The traced build
/// Simulated runs on is made on first request, once, and only published
/// after it verifies.
pub struct CompiledProgram {
    prog: Arc<RProgram>,
    /// The program the optimized build is lowered from,
    /// [`crate::rir::rewrite::optimized`] of `prog`: its scoped
    /// temporaries fixed, its leaf calls inlined, its same-range loops
    /// fused and its per-iteration temporaries contracted, or `prog`
    /// itself when those change nothing.
    lowered: Arc<RProgram>,
    /// Serves Serial and Parallel runs.
    optimized: Arc<Vec<BUnit>>,
    /// `prog` as it is, lowered without operator folding, plus
    /// cost-only instructions: it preserves every
    /// cost-bearing operation for Simulated mode. Lowered and verified
    /// by the first caller that needs it (racers wait for that one
    /// build); holds the build, or the verifier's message.
    traced: OnceLock<Result<TracedBuild, String>>,
    source_hash: u64,
    /// Size estimate of the resolved program plus the optimized build;
    /// the traced build's share is added once it exists.
    est_bytes: usize,
    /// The native tier's promotion table for `optimized` (heat counters
    /// and compiled regions), shared by every session over this
    /// artifact: a loop JIT'd once is native for all sessions, like the
    /// bytecode itself.
    native_cache: Arc<NativeCache>,
    /// Test hook: damages the traced build between lowering and
    /// verification.
    #[cfg(test)]
    damage_traced: Option<fn(Vec<BUnit>) -> Vec<BUnit>>,
}

/// A traced build that verified, with its share of
/// [`CompiledProgram::estimated_bytes`].
struct TracedBuild {
    bunits: Arc<Vec<BUnit>>,
    bytes: usize,
}

impl CompiledProgram {
    /// Parses, resolves, compiles and statically verifies one or more
    /// source files into a shareable artifact. Only the optimized build
    /// is lowered here, so a compiler bug in it surfaces as
    /// [`CompileError::Verify`] instead of undefined VM behavior later;
    /// the traced build waits for the first Simulated run.
    pub fn compile(sources: &[&str]) -> Result<Arc<CompiledProgram>, CompileError> {
        let hash = source_hash(sources);
        let ast = ProgramSet::from_sources(sources)?.ast;
        Self::build_from(resolve(&ast)?, hash)
    }

    /// [`Self::compile`] from a resolved program, with content hash 0:
    /// lets a test run the tree-walker on a rewritten program.
    #[doc(hidden)]
    pub fn from_resolved(prog: RProgram) -> Result<Arc<CompiledProgram>, CompileError> {
        Self::build_from(prog, 0)
    }

    fn build_from(prog: RProgram, hash: u64) -> Result<Arc<CompiledProgram>, CompileError> {
        let rewritten = match crate::rir::rewrite::optimized(&prog) {
            std::borrow::Cow::Owned(p) => Some(p),
            std::borrow::Cow::Borrowed(_) => None,
        };
        let prog = Arc::new(prog);
        let rewritten_bytes = rewritten.as_ref().map_or(0, program_bytes);
        let lowered = rewritten.map_or_else(|| Arc::clone(&prog), Arc::new);
        let optimized = compile_program(&lowered, false);
        crate::verify::verify_program(&lowered, &optimized)?;
        let est_bytes = program_bytes(&prog) + rewritten_bytes + build_bytes(&optimized);
        let native_cache = Arc::new(NativeCache::new(&optimized));
        Ok(Arc::new(CompiledProgram {
            prog,
            lowered,
            optimized: Arc::new(optimized),
            traced: OnceLock::new(),
            source_hash: hash,
            est_bytes,
            native_cache,
            #[cfg(test)]
            damage_traced: None,
        }))
    }

    /// Estimated retained size in bytes: the resolved program and the
    /// optimized build, plus the traced build once a Simulated run (or
    /// [`Self::bytecode`]) has made it. An estimate — container headers
    /// and small side tables are priced with flat constants — but
    /// monotone in program size, which is all the cache's byte budget
    /// needs.
    pub fn estimated_bytes(&self) -> usize {
        let traced = self.traced.get().and_then(|b| b.as_ref().ok()).map_or(0, |b| b.bytes);
        self.est_bytes + traced
    }

    /// The build a run in `traced` mode executes, or the verifier's
    /// message if the traced lowering does not verify. The first caller
    /// asking for the traced build lowers and verifies it; every later
    /// caller, on any thread, gets that one result.
    fn build(&self, traced: bool) -> Result<&Arc<Vec<BUnit>>, &str> {
        if !traced {
            return Ok(&self.optimized);
        }
        let built = self.traced.get_or_init(|| {
            let bunits = compile_program(&self.prog, true);
            #[cfg(test)]
            let bunits = match self.damage_traced {
                Some(damage) => damage(bunits),
                None => bunits,
            };
            crate::verify::verify_program(&self.prog, &bunits).map_err(|e| e.to_string())?;
            let bytes = build_bytes(&bunits);
            Ok(TracedBuild { bunits: Arc::new(bunits), bytes })
        });
        built.as_ref().map(|b| &b.bunits).map_err(String::as_str)
    }

    /// The resolved program (introspection for tests and tooling).
    pub fn program(&self) -> &RProgram {
        &self.prog
    }

    /// The program the `traced` or optimized build was lowered from: the
    /// resolved program, or [`crate::rir::rewrite::optimized`] of it.
    pub fn lowered_program(&self, traced: bool) -> &Arc<RProgram> {
        if traced {
            &self.prog
        } else {
            &self.lowered
        }
    }

    /// Content hash of the sources this artifact was compiled from.
    pub fn source_hash(&self) -> u64 {
        self.source_hash
    }

    /// Bytecode for the whole program; `traced` selects the Simulated
    /// build, lowering and verifying it if no run has yet.
    ///
    /// # Panics
    ///
    /// If the traced build fails verification (a lowering bug): no
    /// unverified build is ever handed out. A Simulated run of such an
    /// artifact gets the verifier's message as a VM trap instead.
    pub fn bytecode(&self, traced: bool) -> Arc<Vec<BUnit>> {
        match self.build(traced) {
            Ok(b) => Arc::clone(b),
            Err(what) => panic!("{what}"),
        }
    }

    /// The shared native-tier promotion table (heat + compiled regions)
    /// of this artifact's optimized build. Number of compiled regions
    /// is visible via [`NativeCache::compiled_count`].
    pub fn native_cache(&self) -> &Arc<NativeCache> {
        &self.native_cache
    }

    /// Static vectorization report: one line per loop the bytecode
    /// compiler proved legal to vectorize, with unit name, source line,
    /// statement count and reduction flag. Reflects the optimized
    /// (Serial/Parallel) build.
    pub fn vector_report(&self) -> Vec<VectorLoopInfo> {
        vector_report_of(&self.lowered, &self.optimized)
    }

    /// The other half of [`Self::vector_report`]: every serial DO loop
    /// of the optimized build that got no region, and why. Loops inside
    /// a region (the unrolled inner loops of a nest) are in neither.
    pub fn vector_refusals(&self) -> Vec<VectorRefusalInfo> {
        let per_unit = self.optimized.iter().flat_map(|bu| {
            let unit = &self.lowered.units[bu.unit as usize].name;
            bu.vec_refusals
                .iter()
                .map(move |&(line, why)| VectorRefusalInfo { unit: unit.clone(), line, why })
        });
        per_unit.collect()
    }
}

fn vector_report_of(prog: &RProgram, bunits: &[BUnit]) -> Vec<VectorLoopInfo> {
    let per_unit = bunits.iter().flat_map(|bu| {
        let unit = &prog.units[bu.unit as usize];
        bu.vecs.iter().enumerate().map(move |(k, d)| VectorLoopInfo {
            unit: unit.name.clone(),
            line: d.line,
            stmts: d.stmts.len() + usize::from(d.sel.is_some()),
            reduction: d.red.is_some() || d.sel.is_some(),
            proven: d.accesses.iter().filter(|a| a.proven.is_some()).count(),
            checked: d.accesses.iter().filter(|a| a.proven.is_none()).count(),
            alias_pairs: d.alias_pairs.len(),
            // A fused span's region and its first original loop share
            // the DO line: the regions before this one at its line say
            // which of the loops there it is.
            contracted: contracted_in(
                unit,
                d.line,
                bu.vecs[..k].iter().filter(|e| e.line == d.line).count(),
            ),
        })
    });
    per_unit.collect()
}

/// How many contracted temporaries
/// ([`crate::rir::rewrite::contract_temporaries`]) the `nth` `DO`
/// statement at source line `line` of `unit` mentions, counting in
/// pre-order (a fused span's loop comes before its first original
/// loop). [`VectorLoopInfo::contracted`].
fn contracted_in(unit: &RUnit, line: u32, nth: usize) -> usize {
    fn loops_at<'a>(body: &'a [SpStmt], line: u32, out: &mut Vec<&'a RStmt>) {
        for sp in body {
            if matches!(sp.s, RStmt::Do { .. }) && sp.line == line {
                out.push(&sp.s);
            }
            each_child(&sp.s, &mut |b| loops_at(b, line, out));
        }
    }
    let mut loops = Vec::new();
    loops_at(&unit.body, line, &mut loops);
    let mut seen = Vec::new();
    if let Some(s) = loops.get(nth) {
        walk_stmt(s, &mut |x| {
            if let Seen::Ref(v) | Seen::Store(v) = x {
                let info = &unit.vars[v];
                if info.rank == 0 && !info.dims.is_empty() && !seen.contains(&v) {
                    seen.push(v);
                }
            }
        });
    }
    seen.len()
}

/// Rough retained-size model for one bytecode build: exact element sizes
/// for the big flat vectors (instruction streams, slot tables, debug
/// tables), flat constants for the small heterogeneous side tables
/// (OMP/call/vec descriptors own nested vectors we don't walk).
fn build_bytes(build: &[BUnit]) -> usize {
    let mut total = 0usize;
    for bu in build {
        total += bu.code.len() * std::mem::size_of::<BInstr>();
        total += bu.vslots.len() * std::mem::size_of::<VSlot>();
        total += (bu.lines.len() + bu.units.len()) * std::mem::size_of::<(u32, u32)>();
        total += bu.inlines.len() * std::mem::size_of::<crate::bytecode::InlineDesc>();
        total += bu.subops.len() * std::mem::size_of::<SubOp>();
        for a in &bu.affine {
            total += std::mem::size_of_val(a) + std::mem::size_of_val(&a.terms[..]);
        }
        total += bu.msgs.iter().map(String::len).sum::<usize>();
        total += (bu.fixed_arrays.len()
            + bu.calls.len()
            + bu.prints.len()
            + bu.sdims.len()
            + bu.loops.len())
            * 64;
        total += bu.vec_refusals.len() * std::mem::size_of::<(u32, VecRefusal)>();
        total += (bu.omps.len() + bu.vecs.len()) * 256;
    }
    total
}

/// The resolved program's share of [`CompiledProgram::estimated_bytes`].
fn program_bytes(prog: &RProgram) -> usize {
    let mut total = 0usize;
    for unit in &prog.units {
        total += unit.name.len() + unit.vars.len() * 96 + unit.body.len() * 96 + 128;
    }
    total + prog.globals.len() * 96
}

/// Test hook: the faults a harness arms on one [`Session`] (directly
/// with [`Session::debug_faults`], or on a batch job's private session
/// with [`Job::debug_faults`]). Every field is one-shot.
#[doc(hidden)]
#[derive(Clone, Default)]
pub struct FaultPlan {
    /// The next VM-tier run traps before any user code runs, exercising
    /// the trap-and-fallback path deterministically.
    pub vm_trap: bool,
    /// The next `n` oracle-tier runs panic inside the trap boundary,
    /// surfacing as [`RunError::Trap`]. With `vm_trap` a *whole attempt*
    /// (VM + fallback) fails, which is what retry policies see.
    /// Decrements per oracle run; clears itself at zero.
    pub oracle_traps: u32,
    /// This worker tid panics on the next run's OMP region entry,
    /// exercising `RegionPanic` containment and the pool's self-healing.
    pub worker_panic: Option<usize>,
    /// Replaces the session's view of one bytecode build (`true` selects
    /// the traced one) so corrupted streams execute; the shared
    /// [`CompiledProgram`] is not touched.
    pub bytecode: Option<(bool, Vec<BUnit>)>,
}

/// Per-run mutable state over a shared [`CompiledProgram`]: live global
/// storage (module variables, COMMON blocks, SAVE arrays — persisting
/// across `run` calls exactly like a linked FORTRAN process image),
/// schedule overrides, [`RunLimits`], the vector-path gate, and the
/// fallback/vector counters. Every mutation stays inside the session:
/// two sessions over the same artifact cannot observe each other.
pub struct Session {
    artifact: Arc<CompiledProgram>,
    globals: Arc<Globals>,
    pools: Arc<PoolSet>,
    critical: Arc<CriticalRegistry>,
    /// Execution limits applied to every run (both tiers).
    limits: RunLimits,
    /// Number of VM traps that fell back to the oracle tier.
    fallback_count: AtomicU64,
    /// Test hook: force the next VM-tier run to trap.
    force_vm_trap: AtomicBool,
    /// Loop-schedule overrides snapshotted into every run's `Exec`.
    sched_overrides: Mutex<Arc<ScheduleOverrides>>,
    /// Gate for the VM's vector superinstruction path; on by default.
    vector_enabled: AtomicBool,
    /// Gate for the native tier (on by default, and always off where
    /// the target has none), and whether it compiles a region on its
    /// first entry.
    native_enabled: AtomicBool,
    native_eager: AtomicBool,
    /// Rung entries and native deopts, across all runs.
    counts: Arc<RungCounts>,
    /// Session-local bytecode replacement (`[optimized, traced]`),
    /// normally empty. `FaultPlan::bytecode` lands here so the
    /// fault-injection harness corrupts *this session's* view only —
    /// the shared artifact stays pristine for every other session.
    bytecode_override: Mutex<[Option<Build>; 2]>,
    /// Cooperative cancellation token snapshotted into every run's
    /// safepoint checks; any holder of the `Arc` firing it, or its
    /// expiry passing, makes in-flight and future runs return
    /// [`RunError::Cancelled`].
    cancel: Mutex<Option<Arc<CancelToken>>>,
    /// Chaos hook: the next N oracle-tier runs panic inside the trap
    /// boundary (so retry policies see a fully failed attempt).
    force_oracle_traps: AtomicU32,
    /// Chaos hook: logical worker tid to panic on the next run's OMP
    /// region entry; -1 = off. One-shot.
    panic_worker: AtomicI64,
}

/// A bytecode build a VM runs, with the promotion table made beside it
/// (the optimized build's only: Simulated runs never go native).
type Build = (Arc<Vec<BUnit>>, Option<Arc<NativeCache>>);

impl Session {
    /// Opens a session over `artifact`, forking parallel regions on the
    /// shared `pools` (sessions handed the same [`PoolSet`] share OS
    /// threads instead of oversubscribing the host).
    pub fn new(artifact: Arc<CompiledProgram>, pools: Arc<PoolSet>) -> Session {
        let globals = Arc::new(build_globals(&artifact.prog));
        Session {
            artifact,
            globals,
            pools,
            critical: Arc::new(CriticalRegistry::new()),
            limits: RunLimits::default(),
            fallback_count: AtomicU64::new(0),
            force_vm_trap: AtomicBool::new(false),
            sched_overrides: Mutex::new(Arc::new(ScheduleOverrides::default())),
            vector_enabled: AtomicBool::new(true),
            native_enabled: AtomicBool::new(crate::jit::available()),
            native_eager: AtomicBool::new(false),
            counts: Arc::default(),
            bytecode_override: Mutex::new([None, None]),
            cancel: Mutex::new(None),
            force_oracle_traps: AtomicU32::new(0),
            panic_worker: AtomicI64::new(-1),
        }
    }

    /// Opens a session with a private pool set — the one-shot shape.
    pub fn solo(artifact: Arc<CompiledProgram>) -> Session {
        Session::new(artifact, Arc::new(PoolSet::new()))
    }

    /// [`CompiledProgram::compile`] plus [`Session::solo`]: compile one
    /// program, run it.
    pub fn compile(sources: &[&str]) -> Result<Session, CompileError> {
        Ok(Session::solo(CompiledProgram::compile(sources)?))
    }

    /// The shared artifact this session executes.
    pub fn artifact(&self) -> &Arc<CompiledProgram> {
        &self.artifact
    }

    /// Sets execution limits applied to every subsequent run.
    pub fn set_limits(&mut self, limits: RunLimits) {
        self.limits = limits;
    }

    /// The currently configured execution limits.
    pub fn limits(&self) -> RunLimits {
        self.limits
    }

    /// How many VM traps have fallen back to the oracle tier so far
    /// (this session only).
    pub fn fallback_count(&self) -> u64 {
        self.fallback_count.load(Ordering::Relaxed)
    }

    /// Installs (or with `None` clears) the cancellation token polled by
    /// every subsequent run at its safepoints. Fire the token from any
    /// thread via [`CancelToken::cancel`]; affected runs return
    /// [`RunError::Cancelled`]. [`JobQueue`] installs one per job with a
    /// [`JobPolicy::deadline`], expiring then, so the deadline stops
    /// exactly that job.
    pub fn set_cancel_token(&self, token: Option<Arc<CancelToken>>) {
        *self.cancel.lock() = token;
    }

    /// Test hook: arms every fault `plan` sets on this session; fields
    /// left at their default leave what is already armed alone.
    #[doc(hidden)]
    pub fn debug_faults(&self, plan: FaultPlan) {
        if plan.vm_trap {
            self.force_vm_trap.store(true, Ordering::Relaxed);
        }
        if plan.oracle_traps > 0 {
            self.force_oracle_traps.store(plan.oracle_traps, Ordering::Relaxed);
        }
        if let Some(tid) = plan.worker_panic {
            self.panic_worker.store(tid as i64, Ordering::Relaxed);
        }
        if let Some((traced, bunits)) = plan.bytecode {
            // An injected optimized build gets a promotion table of its
            // own, which re-verifies (and usually refuses) the injected
            // descriptors at promotion time.
            let table = (!traced).then(|| Arc::new(NativeCache::new(&bunits)));
            self.bytecode_override.lock()[usize::from(traced)] = Some((Arc::new(bunits), table));
        }
    }

    /// The resolved program (introspection for tests and tooling).
    pub fn program(&self) -> &RProgram {
        &self.artifact.prog
    }

    /// Installs per-line loop-schedule overrides, replacing any previous
    /// per-line set. Each `(line, schedule)` pair reschedules the
    /// parallel DO at that source line on every subsequent run, in both
    /// execution tiers — this is the apply side of the feedback loop: a
    /// measured [`crate::trace::Profile`]'s per-region imbalance (keyed
    /// by `omp@line`) decides the overrides for the next run.
    pub fn set_schedule_overrides<I>(&self, overrides: I)
    where
        I: IntoIterator<Item = (u32, omprt::Schedule)>,
    {
        let by_line = overrides.into_iter().collect();
        let mut cur = self.sched_overrides.lock();
        *cur = Arc::new(ScheduleOverrides { by_line, all: cur.all });
    }

    /// Installs (or with `None` clears) a blanket schedule override
    /// applied to every parallel DO without a per-line override: one
    /// program run under each schedule kind (the OMP-semantics,
    /// differential and session-reuse tests do this).
    pub fn set_schedule_override_all(&self, sched: Option<omprt::Schedule>) {
        let mut cur = self.sched_overrides.lock();
        *cur = Arc::new(ScheduleOverrides { all: sched, by_line: cur.by_line.clone() });
    }

    /// Enables or disables the VM's vector superinstruction path (on by
    /// default). Disabling forces every vectorized loop back to its
    /// scalar head — used for A/B benchmarking and differential tests;
    /// results are bit-identical either way.
    pub fn set_vector_enabled(&self, on: bool) {
        self.vector_enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the vector superinstruction path is enabled.
    pub fn vector_enabled(&self) -> bool {
        self.vector_enabled.load(Ordering::Relaxed)
    }

    /// How many loop entries actually executed on the vector path so
    /// far (this session's runs, all threads). Zero after runs with the
    /// path enabled means every candidate fell back at a runtime guard.
    pub fn vector_entry_count(&self) -> u64 {
        self.counts.vector_entries.load(Ordering::Relaxed)
    }

    /// Enables or disables the native (tier 3) execution path — hot
    /// `VecLoop` regions promoted to in-process machine code (on by
    /// default where the target supports it; a no-op elsewhere).
    /// Disabling forces every loop back to the vector/scalar tiers;
    /// results are bit-identical either way.
    pub fn set_native_enabled(&self, on: bool) {
        self.native_enabled.store(on && crate::jit::available(), Ordering::Relaxed);
    }

    /// Compile loop regions to native code on first entry instead of
    /// waiting for [`crate::jit::DEFAULT_HOT_THRESHOLD`] entries.
    /// Benchmarks and differential sweeps use this to guarantee the
    /// native path is exercised.
    pub fn set_native_eager(&self, eager: bool) {
        self.native_eager.store(eager, Ordering::Relaxed);
    }

    /// Loop entries that executed natively so far (this session's runs,
    /// all threads).
    pub fn native_entry_count(&self) -> u64 {
        self.counts.native_entries.load(Ordering::Relaxed)
    }

    /// Entry-guard failures on promoted regions that deopted back to
    /// the vector/scalar tiers (this session's runs, all threads).
    pub fn native_deopt_count(&self) -> u64 {
        self.counts.native_deopts.load(Ordering::Relaxed)
    }

    /// Static vectorization report for this session's optimized
    /// bytecode (the artifact's, unless a test injected a replacement).
    pub fn vector_report(&self) -> Vec<VectorLoopInfo> {
        let injected = self.bytecode_override.lock()[0].as_ref().map(|b| Arc::clone(&b.0));
        let optimized = injected.unwrap_or_else(|| Arc::clone(&self.artifact.optimized));
        vector_report_of(&self.artifact.lowered, &optimized)
    }

    /// Reinitializes all global storage.
    pub fn reset_globals(&mut self) {
        self.globals = Arc::new(build_globals(&self.artifact.prog));
    }

    /// Bytecode for the whole program, with its promotion table;
    /// `traced` selects the Simulated build. The session-local injection
    /// slot wins over the artifact (and so never makes the artifact
    /// build its traced variant); a traced build that failed
    /// verification is a VM trap.
    fn bytecode_for(&self, traced: bool) -> Result<Build, RunError> {
        if let Some(b) = &self.bytecode_override.lock()[usize::from(traced)] {
            return Ok(b.clone());
        }
        let table = (!traced).then(|| Arc::clone(&self.artifact.native_cache));
        match self.artifact.build(traced) {
            Ok(b) => Ok((Arc::clone(b), table)),
            Err(what) => Err(RunError::Trap { what: what.to_string() }),
        }
    }

    /// Runs subprogram `name` with `args` under `mode` on the default
    /// tier (the bytecode VM).
    pub fn run(&self, name: &str, args: &[ArgVal], mode: ExecMode) -> Result<RunOutcome, RunError> {
        self.run_tiered(name, args, mode, ExecTier::Vm)
    }

    /// Runs subprogram `name` on an explicit execution tier.
    ///
    /// Internal panics never cross this boundary. A panic in the VM tier
    /// (an engine bug, not a program-level [`RunError`]) is trapped, a
    /// [`TierFallback`] diagnostic is recorded, and the call is
    /// transparently re-executed on the tree-walk oracle so the caller
    /// still gets an answer. A panic in the oracle itself surfaces as
    /// [`RunError::Trap`].
    pub fn run_tiered(
        &self,
        name: &str,
        args: &[ArgVal],
        mode: ExecMode,
        tier: ExecTier,
    ) -> Result<RunOutcome, RunError> {
        Ok(self.run_ladder(name, args, mode, tier, false)?.0)
    }

    /// Runs subprogram `name` with a profiling collector attached,
    /// returning the outcome together with the rendered
    /// [`crate::trace::Profile`]: per-unit and per-DO-loop wall time and
    /// entry counts, executed VM instructions (or interpreter steps)
    /// against the configured [`RunLimits`] budget, parallel-region
    /// worker utilization, and any tier-fallback diagnostics.
    ///
    /// Profiling follows the same trap-and-fallback contract as
    /// [`Session::run_tiered`]: if the VM tier traps, a *fresh* collector
    /// is attached to the oracle re-run, so the returned profile always
    /// describes the execution that produced the result. The fallback
    /// diagnostic and the session-lifetime fallback total are surfaced on
    /// the profile itself. The first Simulated run over an artifact also
    /// makes its traced build, so that run's `wall_ns` includes lowering
    /// and verifying it.
    pub fn run_profiled(
        &self,
        name: &str,
        args: &[ArgVal],
        mode: ExecMode,
        tier: ExecTier,
    ) -> Result<(RunOutcome, crate::trace::Profile), RunError> {
        let (out, profile) = self.run_ladder(name, args, mode, tier, true)?;
        let profile = profile.ok_or_else(|| RunError::Trap {
            what: "profiled run returned no profile".into(),
        })?;
        Ok((out, profile))
    }

    /// The one trap→oracle ladder behind [`Session::run_tiered`] and
    /// [`Session::run_profiled`]: one attempt on the VM (unless `tier`
    /// asks for the oracle outright), and on a trap one on the oracle
    /// with the [`TierFallback`] attached. With `profiled` every attempt
    /// runs under its own fresh [`crate::trace::Collector`] and the
    /// answering attempt's profile comes back beside the outcome.
    fn run_ladder(
        &self,
        name: &str,
        args: &[ArgVal],
        mode: ExecMode,
        tier: ExecTier,
        profiled: bool,
    ) -> Result<(RunOutcome, Option<crate::trace::Profile>), RunError> {
        let unit_id = self
            .artifact
            .prog
            .unit_id(name)
            .ok_or_else(|| RunError::BadCall { name: name.into(), msg: "unknown unit".into() })?;
        // Worker busy-time accounting is cheap but not free: the pool
        // collects it only while a profiled Parallel run is in flight.
        let pool = match mode {
            ExecMode::Parallel { threads } if profiled => Some(self.pools.pool_for(threads)),
            _ => None,
        };
        if let Some(p) = &pool {
            p.set_metrics(true);
            p.take_metrics(); // discard leftovers from earlier runs
        }
        // Closes the ladder on the attempt that answered.
        let finish = |run: Result<RunOutcome, RunError>,
                      rung: &str,
                      prof: Option<crate::trace::Collector>,
                      t0: Instant,
                      fallback: Option<TierFallback>| {
            let wall_ns = t0.elapsed().as_nanos() as u64;
            if let Some(p) = &pool {
                p.set_metrics(false);
            }
            let mut out = run?;
            let profile = prof.map(|prof| {
                let (spans, steps) = prof.finish();
                let regions = pool
                    .as_ref()
                    .map(|p| {
                        p.take_metrics()
                            .into_iter()
                            .map(|m| crate::trace::RegionReport {
                                threads: m.threads as u64,
                                wall_ns: m.wall_ns,
                                busy_ns: m.busy_ns,
                                start_ns: m.start_ns,
                                line: m.line as u64,
                                sched: m.sched.render(),
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                crate::trace::Profile {
                    entry: name.to_string(),
                    tier: rung.to_string(),
                    mode: match mode {
                        ExecMode::Serial => "serial".to_string(),
                        ExecMode::Parallel { threads } => format!("parallel({threads})"),
                        ExecMode::Simulated { threads } => format!("simulated({threads})"),
                    },
                    wall_ns,
                    steps,
                    max_steps: self.limits.max_steps,
                    spans,
                    regions,
                    fallback: fallback.clone().map(|fb| crate::trace::FallbackInfo {
                        unit: fb.unit,
                        what: fb.what,
                    }),
                    fallback_count: self.fallback_count(),
                    native_entries: self.native_entry_count(),
                    native_deopts: self.native_deopt_count(),
                }
            });
            out.fallback = fallback;
            Ok((out, profile))
        };
        let mut fallback = None;
        if tier == ExecTier::Vm {
            let forced = self.force_vm_trap.swap(false, Ordering::Relaxed);
            // Under a collector the VM takes the scalar path (profiles
            // want per-iteration loop spans); the profile still surfaces
            // the session-lifetime native entry/deopt counters.
            let prof = profiled.then(crate::trace::Collector::new);
            let t0 = Instant::now();
            let vm_run = catch_unwind(AssertUnwindSafe(|| {
                if forced {
                    panic!("forced VM trap (test hook)");
                }
                self.run_on_vm(unit_id, args, mode, prof.as_ref())
            }));
            let trap = match vm_run {
                Err(payload) => payload_str(&*payload),
                // A contained worker panic surfaces as `Trap`: an
                // internal fault, so it also falls back.
                Ok(Err(ref e)) if matches!(e.root(), RunError::Trap { .. }) => e.to_string(),
                Ok(run) => return finish(run, "vm", prof, t0, None),
            };
            // The VM trapped: record the diagnostic and answer from the
            // oracle, so a profile matches the tier the result came from.
            self.fallback_count.fetch_add(1, Ordering::Relaxed);
            if let Some(p) = &pool {
                p.take_metrics(); // drop partials from the trapped attempt
            }
            fallback = Some(TierFallback { unit: name.into(), what: trap });
        }
        let prof = profiled.then(crate::trace::Collector::new);
        let t0 = Instant::now();
        let run = self.run_on_oracle(unit_id, args, mode, prof.as_ref());
        finish(run, "tree-walk", prof, t0, fallback)
    }

    /// The run's shared services; `native` is the promotion table of the
    /// build it executes, if that build has one.
    pub(crate) fn make_exec(&self, mode: ExecMode, native: Option<Arc<NativeCache>>) -> Exec {
        let pool = match mode {
            ExecMode::Parallel { threads } => Some(self.pools.pool_for(threads)),
            _ => None,
        };
        let panic_worker = self.panic_worker.swap(-1, Ordering::Relaxed);
        Exec {
            prog: Arc::clone(&self.artifact.prog),
            globals: Arc::clone(&self.globals),
            mode,
            pool,
            critical: Arc::clone(&self.critical),
            printed: Mutex::new(String::new()),
            sched_overrides: Arc::clone(&self.sched_overrides.lock()),
            limits: EffLimits::start(&self.limits, self.cancel.lock().clone()),
            vector_enabled: self.vector_enabled.load(Ordering::Relaxed),
            counts: Arc::clone(&self.counts),
            debug_panic_worker: usize::try_from(panic_worker).ok(),
            native: native.filter(|_| self.native_enabled.load(Ordering::Relaxed)),
            native_eager: self.native_eager.load(Ordering::Relaxed),
        }
    }

    fn run_on_vm(
        &self,
        unit_id: usize,
        args: &[ArgVal],
        mode: ExecMode,
        prof: Option<&crate::trace::Collector>,
    ) -> Result<RunOutcome, RunError> {
        let traced = matches!(mode, ExecMode::Simulated { .. });
        let (bunits, native) = self.bytecode_for(traced)?;
        let exec = self.make_exec(mode, native);
        let prog = self.artifact.lowered_program(traced);
        let (result, trace, printed) =
            crate::vm::run_vm(&exec, prog, &bunits, unit_id, args, prof)?;
        Ok(RunOutcome { result, trace, printed, fallback: None })
    }

    /// Runs on the tree-walk oracle, containing any internal panic as
    /// [`RunError::Trap`] (the oracle is the last tier — there is nothing
    /// left to fall back to).
    fn run_on_oracle(
        &self,
        unit_id: usize,
        args: &[ArgVal],
        mode: ExecMode,
        prof: Option<&crate::trace::Collector>,
    ) -> Result<RunOutcome, RunError> {
        let traced = matches!(mode, ExecMode::Simulated { .. });
        catch_unwind(AssertUnwindSafe(|| {
            if self
                .force_oracle_traps
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
            {
                panic!("forced oracle trap (test hook)");
            }
            let exec = self.make_exec(mode, None);
            let mut task = Task::new(&exec, 0, traced);
            task.prof = prof;
            let frame = task.entry_frame(unit_id, args)?;
            let (result, trace, printed) = task.run_entry(unit_id, frame)?;
            Ok(RunOutcome { result, trace, printed, fallback: None })
        }))
        .unwrap_or_else(|payload| Err(RunError::Trap { what: payload_str(&*payload) }))
    }

    /// Reads a global scalar by diagnostic name (`module::var`,
    /// `module::var%field`, `common block::var`, `unit::savevar`).
    pub fn global_scalar(&self, name: &str) -> Option<Val> {
        let prog = &self.artifact.prog;
        let id = prog.global_id(name)?;
        let decl = &prog.globals[id];
        if decl.rank != 0 {
            return None;
        }
        let bits = self.globals.cells[id].load_bits(0);
        Some(match decl.ty {
            ScalarTy::I => Val::I(bits as i64),
            ScalarTy::F => Val::F(f64::from_bits(bits)),
            ScalarTy::B => Val::B(bits != 0),
        })
    }

    /// Writes a global scalar.
    pub fn set_global_scalar(&self, name: &str, v: Val) -> bool {
        let prog = &self.artifact.prog;
        let Some(id) = prog.global_id(name) else { return false };
        let decl = &prog.globals[id];
        if decl.rank != 0 {
            return false;
        }
        let bits = match decl.ty {
            ScalarTy::I => v.as_i() as u64,
            ScalarTy::F => v.as_f().to_bits(),
            ScalarTy::B => u64::from(v.as_b()),
        };
        self.globals.cells[id].store_bits(0, bits);
        true
    }

    /// Array handle of a global (thread 0 instance for per-thread
    /// cells); `None` for a scalar one, as [`Self::global_scalar`] gives
    /// `None` for an array.
    pub fn global_array(&self, name: &str) -> Option<Arc<ArrayObj>> {
        let prog = &self.artifact.prog;
        let id = prog.global_id(name)?;
        if prog.globals[id].rank == 0 {
            return None;
        }
        self.globals.cells[id].array_handle(0)
    }

    /// Lists global diagnostic names (tooling).
    pub fn global_names(&self) -> Vec<String> {
        self.artifact.prog.globals.iter().map(|g| g.name.clone()).collect()
    }
}

/// The quarantine circuit breaker's response once an artifact's fault
/// count crosses the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineMode {
    /// Refuse new jobs on the artifact with
    /// [`RunError::Quarantined`] until explicitly cleared.
    Refuse,
    /// Keep serving the artifact, but pinned to the oracle tree-walk
    /// tier (no VM, no fallback churn) until explicitly cleared.
    PinOracle,
}

/// Circuit-breaker policy: after `threshold` recorded faults (traps +
/// cancellations, summed per artifact) the artifact is quarantined and
/// handled per `mode`. Off by default — see
/// [`ArtifactCache::set_quarantine_policy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinePolicy {
    /// Faults (traps + cancels) at which the breaker opens; clamped to
    /// a minimum of 1.
    pub threshold: u64,
    pub mode: QuarantineMode,
}

/// Per-artifact fault ledger entry (keyed by source hash, independent of
/// LRU residency so eviction cannot launder a bad artifact's history).
#[derive(Debug, Clone, Copy, Default)]
struct FaultStats {
    traps: u64,
    cancels: u64,
    quarantined: bool,
}

/// An LRU cache of [`CompiledProgram`]s keyed by [`source_hash`], with
/// monotone hit/miss/eviction counters. Repeated compiles of identical
/// sources return the *same* `Arc`; compilation runs outside the lock so
/// a slow compile never blocks concurrent lookups of other entries.
///
/// Two optional hardening features ride on top:
/// * a **byte budget** ([`ArtifactCache::with_byte_budget`]) evicting by
///   estimated retained size as well as entry count, and
/// * a **quarantine circuit breaker**
///   ([`ArtifactCache::set_quarantine_policy`]): [`JobQueue`] records
///   each trap/cancellation against the artifact that caused it, and
///   once an artifact crosses the threshold its jobs are refused or
///   pinned to the oracle tier until [`ArtifactCache::clear_quarantine`].
pub struct ArtifactCache {
    cap: usize,
    /// Optional budget over the entries' `estimated_bytes` sum, checked
    /// on insert; the most recently inserted entry is always retained
    /// even if it alone exceeds the budget.
    byte_budget: Option<usize>,
    /// Recency-ordered: front is least recently used, back is most.
    inner: Mutex<Vec<(u64, Arc<CompiledProgram>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    quarantine: Mutex<QuarantineTable>,
}

#[derive(Default)]
struct QuarantineTable {
    policy: Option<QuarantinePolicy>,
    stats: BTreeMap<u64, FaultStats>,
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` artifacts
    /// (`capacity == 0` is clamped to 1), with no byte budget.
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            cap: capacity.max(1),
            byte_budget: None,
            inner: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantine: Mutex::new(QuarantineTable::default()),
        }
    }

    /// Creates a cache bounded by entry count *and* an estimated-size
    /// budget in bytes: after each insert, least-recently-used entries
    /// are evicted until the [`CompiledProgram::estimated_bytes`] sum
    /// fits (the newest entry is always kept, so an oversized artifact
    /// still caches — it just evicts everything else). The budget is
    /// checked on insert only. A cached artifact grows once, when its
    /// first Simulated run makes the traced build, so [`Self::bytes`]
    /// can exceed the budget until the next insert evicts.
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> ArtifactCache {
        ArtifactCache { byte_budget: Some(byte_budget), ..ArtifactCache::new(capacity) }
    }

    /// Maximum number of artifacts retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The configured byte budget, if any.
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    /// Estimated retained bytes of the currently cached artifacts.
    pub fn bytes(&self) -> usize {
        self.inner.lock().iter().map(|(_, a)| a.estimated_bytes()).sum()
    }

    /// Returns the cached artifact for `sources`, compiling (outside the
    /// cache lock) on first sight. Exactly one of the hit/miss counters
    /// advances per call. If two threads race to compile the same new
    /// sources, both compile but all callers get one winning `Arc`, so
    /// "same source ⇒ same artifact" holds even under the race.
    pub fn get_or_compile(&self, sources: &[&str]) -> Result<Arc<CompiledProgram>, CompileError> {
        let hash = source_hash(sources);
        if let Some(found) = self.touch(hash) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = CompiledProgram::compile(sources)?;
        let mut inner = self.inner.lock();
        // Re-check: a racer may have inserted while we compiled. Keeping
        // the incumbent preserves the same-Arc guarantee.
        if let Some(pos) = inner.iter().position(|(h, _)| *h == hash) {
            let entry = inner.remove(pos);
            let found = Arc::clone(&entry.1);
            inner.push(entry);
            return Ok(found);
        }
        inner.push((hash, Arc::clone(&fresh)));
        let over_budget = |entries: &Vec<(u64, Arc<CompiledProgram>)>| match self.byte_budget {
            Some(b) => entries.iter().map(|(_, a)| a.estimated_bytes()).sum::<usize>() > b,
            None => false,
        };
        while inner.len() > self.cap || (inner.len() > 1 && over_budget(&inner)) {
            inner.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(fresh)
    }

    /// Looks up `hash` and, on a hit, marks it most recently used.
    fn touch(&self, hash: u64) -> Option<Arc<CompiledProgram>> {
        let mut inner = self.inner.lock();
        let pos = inner.iter().position(|(h, _)| *h == hash)?;
        let entry = inner.remove(pos);
        let found = Arc::clone(&entry.1);
        inner.push(entry);
        Some(found)
    }

    /// Number of artifacts currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Cache hits so far (monotone).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (monotone).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions so far (monotone).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over lookups, 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Source hashes in recency order, least recently used first
    /// (test/tooling introspection of the eviction order).
    pub fn lru_hashes(&self) -> Vec<u64> {
        self.inner.lock().iter().map(|(h, _)| *h).collect()
    }

    /// Installs (or with `None` disables) the quarantine circuit
    /// breaker. Disabling stops *new* quarantines; already-open breakers
    /// stay open until [`ArtifactCache::clear_quarantine`]. Off by
    /// default: fault counting is free, but nothing trips.
    pub fn set_quarantine_policy(&self, policy: Option<QuarantinePolicy>) {
        self.quarantine.lock().policy = policy;
    }

    /// The installed quarantine policy, if any.
    pub fn quarantine_policy(&self) -> Option<QuarantinePolicy> {
        self.quarantine.lock().policy
    }

    /// Records one fault against the artifact with source hash `hash`
    /// (`cancel` distinguishes a cancellation from a trap). Trips the
    /// breaker when a policy is installed and the combined count
    /// reaches its threshold. The ledger is keyed by hash, not by cache
    /// residency: eviction does not forget faults.
    pub fn record_fault(&self, hash: u64, cancel: bool) {
        let mut q = self.quarantine.lock();
        let stats = q.stats.entry(hash).or_default();
        if cancel {
            stats.cancels += 1;
        } else {
            stats.traps += 1;
        }
        let total = stats.traps + stats.cancels;
        if let Some(p) = q.policy {
            if total >= p.threshold.max(1) {
                q.stats.entry(hash).or_default().quarantined = true;
            }
        }
    }

    /// `(traps, cancels)` recorded against `hash`.
    pub fn fault_counts(&self, hash: u64) -> (u64, u64) {
        let q = self.quarantine.lock();
        q.stats.get(&hash).map_or((0, 0), |s| (s.traps, s.cancels))
    }

    /// Whether `hash`'s circuit breaker is open.
    pub fn is_quarantined(&self, hash: u64) -> bool {
        self.quarantine.lock().stats.get(&hash).is_some_and(|s| s.quarantined)
    }

    /// Source hashes with an open breaker.
    pub fn quarantined_hashes(&self) -> Vec<u64> {
        let q = self.quarantine.lock();
        q.stats.iter().filter(|(_, s)| s.quarantined).map(|(h, _)| *h).collect()
    }

    /// Closes `hash`'s breaker and zeroes its fault counters. Returns
    /// whether the breaker had been open. This is the only way a
    /// quarantined artifact resumes normal service — the operator (or a
    /// recompile under different sources) must act explicitly.
    pub fn clear_quarantine(&self, hash: u64) -> bool {
        let mut q = self.quarantine.lock();
        match q.stats.remove(&hash) {
            Some(s) => s.quarantined,
            None => false,
        }
    }
}

/// Per-job failure policy. The default is a no-op (no deadline, no
/// retries, no degradation) — exactly the pre-policy behavior — so
/// existing callers see nothing new until they opt in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPolicy {
    /// Wall-clock budget from the job's start: the job's [`CancelToken`]
    /// expires then, so the job returns [`RunError::Cancelled`] at its
    /// next safepoint, and a backoff never sleeps past it. Unlike
    /// [`RunLimits::deadline`] (which each attempt restarts), this
    /// covers the job end to end — retries and backoff included.
    pub deadline: Option<Duration>,
    /// How many times a transiently-failed attempt (trap or exhausted
    /// step budget) is re-run. Cancellation never retries.
    pub retries: u32,
    /// Base wait before the first retry; doubles each further retry
    /// (deterministic exponential backoff).
    pub backoff: Duration,
    /// Degrade the execution tier across retries instead of repeating
    /// the same configuration: `Parallel → Serial → oracle tree-walk`
    /// (`Serial`/`Simulated` skip straight to the oracle rung).
    pub degrade: bool,
}

impl Default for JobPolicy {
    fn default() -> Self {
        JobPolicy { deadline: None, retries: 0, backoff: Duration::ZERO, degrade: false }
    }
}

/// The resilience-policy verdict a [`JobResult`] reports: which action
/// the policy machinery ended up taking for the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyAction {
    /// First attempt succeeded; no policy machinery engaged.
    Completed,
    /// Succeeded after at least one retry on the same rung.
    Retried,
    /// Succeeded after degrading mode/tier.
    Degraded,
    /// The job's cancel token fired (its deadline passed).
    Cancelled,
    /// The artifact's circuit breaker was open: refused or pinned to the
    /// oracle tier per [`QuarantineMode`].
    Quarantined,
    /// Every allowed attempt failed (or the fault was not transient).
    Failed,
}

impl std::fmt::Display for PolicyAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PolicyAction::Completed => "completed",
            PolicyAction::Retried => "retried",
            PolicyAction::Degraded => "degraded",
            PolicyAction::Cancelled => "cancelled",
            PolicyAction::Quarantined => "quarantined",
            PolicyAction::Failed => "failed",
        })
    }
}

/// One logged execution attempt of a job (every attempt is recorded,
/// including the successful one).
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Mode actually used (may differ from the job's under degradation).
    pub mode: ExecMode,
    /// Tier actually used.
    pub tier: ExecTier,
    /// Rendered error if the attempt failed; `None` on success.
    pub error: Option<String>,
    /// Backoff slept *before* this attempt (zero for the first).
    pub backoff: Duration,
}

/// One batched invocation: entry point, arguments, execution mode,
/// optional per-job [`RunLimits`], and optional [`JobPolicy`] (falling
/// back to the queue's default). Defaults to Serial with the session's
/// default limits.
pub struct Job {
    entry: String,
    args: Vec<ArgVal>,
    mode: ExecMode,
    limits: Option<RunLimits>,
    policy: Option<JobPolicy>,
    faults: FaultPlan,
}

impl Job {
    /// A Serial-mode job with default limits.
    pub fn new(entry: impl Into<String>, args: Vec<ArgVal>) -> Job {
        Job {
            entry: entry.into(),
            args,
            mode: ExecMode::Serial,
            limits: None,
            policy: None,
            faults: FaultPlan::default(),
        }
    }

    /// Sets the execution mode. `Serial` and `Simulated` jobs run
    /// concurrently across the batch pool; `Parallel` jobs fork the
    /// shared pool themselves, so the queue runs them one at a time on
    /// the submitting thread (never oversubscribing).
    pub fn mode(mut self, mode: ExecMode) -> Job {
        self.mode = mode;
        self
    }

    /// Attaches per-job execution limits (step budget, deadline, call
    /// depth); a tripped limit fails *this* job only.
    pub fn limits(mut self, limits: RunLimits) -> Job {
        self.limits = Some(limits);
        self
    }

    /// Attaches a per-job failure policy, overriding the queue default.
    pub fn policy(mut self, policy: JobPolicy) -> Job {
        self.policy = Some(policy);
        self
    }

    /// Test hook: arms `plan` on the job's private session before it
    /// runs (mid-batch fallback isolation, retry ladders, the chaos
    /// harness's corrupted streams).
    #[doc(hidden)]
    pub fn debug_faults(mut self, plan: FaultPlan) -> Job {
        self.faults = plan;
        self
    }
}

/// What a [`Job`] produced: the outcome (or per-job error), the policy
/// verdict, the logged attempts, and the private [`Session`] it ran in,
/// for reading back globals.
pub struct JobResult {
    /// The session the job ran in (its globals hold the outputs).
    /// `None` only when the job was rejected before a session existed
    /// (deferred compile failed, or session setup panicked) — `result`
    /// then holds [`RunError::Rejected`].
    pub session: Option<Session>,
    /// The job's outcome or its own failure; sibling jobs are unaffected.
    pub result: Result<RunOutcome, RunError>,
    /// Every execution attempt, in order (empty for refused jobs).
    pub attempts: Vec<Attempt>,
    /// The policy verdict for this job.
    pub action: PolicyAction,
    /// Wall time from job start to final verdict (backoffs included);
    /// zero for jobs refused before running.
    pub wall: Duration,
}

impl JobResult {
    /// This job produced no run: refused at setup, or lost to a panic
    /// outside its policy loop. Like every result built inside a batch,
    /// it gets its session (if one was opened) when the batch hands it
    /// back.
    fn no_run(err: RunError) -> JobResult {
        JobResult {
            session: None,
            result: Err(err),
            attempts: Vec::new(),
            action: PolicyAction::Failed,
            wall: Duration::ZERO,
        }
    }
}

/// What a whole batch did: per-job results in submission order plus
/// the batch's wall time.
pub struct BatchReport {
    pub results: Vec<JobResult>,
    /// Wall time of the whole `run_batch_report` call.
    pub wall: Duration,
}

impl BatchReport {
    /// Number of jobs whose verdict was `action`.
    pub fn action_count(&self, action: PolicyAction) -> usize {
        self.results.iter().filter(|r| r.action == action).count()
    }
}

/// Where a pending job's artifact comes from: already compiled, or
/// sources compiled through the queue's cache at batch time, so one
/// job's compile failure is *its* structured failure, not the batch's.
enum JobSource {
    Artifact(Arc<CompiledProgram>),
    Sources(Vec<String>),
}

/// Classifies a fault for the retry policy. Traps (VM panics, contained
/// worker panics, oracle panics) and exhausted step budgets are
/// transient — a retry, possibly on a degraded rung, can legitimately
/// succeed (the oracle counts statements, not instructions, so the same
/// budget goes further there). Cancellations, wall-clock deadline trips
/// and program-level faults (bounds, arithmetic, STOP, bad calls) are
/// final: re-running cannot change them.
fn transient(root: &RunError) -> bool {
    match root {
        RunError::Trap { .. } => true,
        RunError::Limit { msg } => msg.starts_with(EffLimits::STEP_BUDGET),
        _ => false,
    }
}

/// The rungs a job runs on, in order: the requested configuration, then
/// under `degrade` `Parallel → Serial → oracle` (`Serial`/`Simulated`
/// skip straight to the oracle rung).
fn ladder(mode: ExecMode, degrade: bool) -> Vec<(ExecMode, ExecTier)> {
    let mut rungs = vec![(mode, ExecTier::Vm)];
    if degrade {
        if matches!(mode, ExecMode::Parallel { .. }) {
            rungs.push((ExecMode::Serial, ExecTier::Vm));
            rungs.push((ExecMode::Serial, ExecTier::TreeWalk));
        } else {
            rungs.push((mode, ExecTier::TreeWalk));
        }
    }
    rungs
}

/// The per-job policy loop over `rungs`: run on the current rung, retry
/// with deterministic exponential backoff on transient faults (one rung
/// further down each time, while there is one), stop immediately on
/// cancellation. Returns the final outcome, the full attempt log, and
/// the policy verdict; the caller times the job and the batch attaches
/// its session. `token` is the job's deadline, if it has one.
fn run_with_policy(
    session: &Session,
    job: &Job,
    policy: &JobPolicy,
    token: Option<&CancelToken>,
    rungs: &[(ExecMode, ExecTier)],
) -> JobResult {
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut rung = 0usize;
    loop {
        let retry = attempts.len();
        // backoff, 2·backoff, 4·backoff, … (shift capped well past any
        // plausible retry count), cut short at the job's deadline.
        let backoff = match retry {
            0 => Duration::ZERO,
            n => CancelToken::sleep(token, policy.backoff.saturating_mul(1 << (n - 1).min(16))),
        };
        let (mode, tier) = rungs[rung];
        let run = match token {
            // Fired between attempts (e.g. during backoff): don't burn
            // another attempt on a job whose caller already gave up.
            Some(t) if t.is_cancelled() => {
                Err(RunError::Cancelled { at_line: None, reason: t.reason() })
            }
            _ => session.run_tiered(&job.entry, &job.args, mode, tier),
        };
        let error = run.as_ref().err().map(ToString::to_string);
        attempts.push(Attempt { mode, tier, error, backoff });
        let action = match &run {
            Ok(_) if rung > 0 => PolicyAction::Degraded,
            Ok(_) if retry > 0 => PolicyAction::Retried,
            Ok(_) => PolicyAction::Completed,
            Err(e) if matches!(e.root(), RunError::Cancelled { .. }) => PolicyAction::Cancelled,
            Err(e) if transient(e.root()) && retry < policy.retries as usize => {
                rung = (rung + 1).min(rungs.len() - 1);
                continue;
            }
            Err(_) => PolicyAction::Failed,
        };
        return JobResult { session: None, result: run, attempts, action, wall: Duration::ZERO };
    }
}

/// Batches many jobs — possibly over different artifacts — across one
/// shared [`PoolSet`]. Each job gets a private [`Session`], so a job
/// that traps, trips its limits, or corrupts its own globals cannot
/// touch a sibling; the pool contains any panic and self-heals. A
/// [`JobPolicy`] (per job or queue default) bounds each job's failure
/// mode: the job's cancel token expires at its deadline, transient
/// faults retry with backoff and optional tier degradation, and the
/// service cache's quarantine breaker refuses or pins repeat offenders.
/// Minted by [`EngineService::queue`].
pub struct JobQueue {
    pools: Arc<PoolSet>,
    threads: usize,
    pending: Vec<(JobSource, Job)>,
    /// The service's cache: serves deferred compiles and carries the
    /// quarantine ledger.
    cache: Arc<ArtifactCache>,
    default_policy: JobPolicy,
}

impl JobQueue {
    /// Sets the policy applied to jobs without their own
    /// [`Job::policy`]. Defaults to the no-op [`JobPolicy::default`].
    pub fn set_default_policy(&mut self, policy: JobPolicy) {
        self.default_policy = policy;
    }

    /// Enqueues `job` against `artifact`. Nothing runs until
    /// [`JobQueue::run_batch_report`].
    pub fn submit(&mut self, artifact: &Arc<CompiledProgram>, job: Job) {
        self.pending.push((JobSource::Artifact(Arc::clone(artifact)), job));
    }

    /// Enqueues `job` against sources compiled at batch time through the
    /// service's cache. A compile failure becomes *this job's*
    /// [`RunError::Rejected`] result; the batch drains on.
    pub fn submit_sources(&mut self, sources: &[&str], job: Job) {
        let owned = sources.iter().map(|s| (*s).to_string()).collect();
        self.pending.push((JobSource::Sources(owned), job));
    }

    /// Runs every pending job and returns per-job results (submission
    /// order) plus the batch's wall time.
    ///
    /// Serial/Simulated jobs are dispatched across the batch pool via a
    /// dynamic dispenser (a stalled job does not idle the other
    /// workers); Parallel jobs run afterwards on the calling thread,
    /// forking the same shared pool set one at a time. Either way the
    /// host never runs more than the pool-set threads at once.
    ///
    /// Drain guarantee: a compile failure or setup panic for one job
    /// yields a structured [`RunError::Rejected`] entry for that job and
    /// the rest of the batch runs normally.
    pub fn run_batch_report(&mut self) -> BatchReport {
        let t_batch = Instant::now();
        let jobs = std::mem::take(&mut self.pending);
        // Setup phase, drain-safe: a job whose session cannot be opened
        // starts with its refusal already in its slot.
        let (sessions, slots): (Vec<Option<Session>>, Vec<Mutex<Option<JobResult>>>) = jobs
            .iter()
            .map(|(src, job)| match self.open(src, job) {
                Ok(session) => (Some(session), Mutex::new(None)),
                Err(e) => (None, Mutex::new(Some(JobResult::no_run(e)))),
            })
            .unzip();
        let run_one = |i: usize| {
            if let Some(session) = &sessions[i] {
                *slots[i].lock() = Some(self.run_job(session, &jobs[i].1));
            }
        };

        // Pool-dispatched fraction: everything that does not fork a team
        // of its own.
        let pooled: Vec<usize> = jobs
            .iter()
            .enumerate()
            .filter(|(_, (_, job))| !matches!(job.mode, ExecMode::Parallel { .. }))
            .map(|(i, _)| i)
            .collect();
        if !pooled.is_empty() {
            let pool = self.pools.pool_for(self.threads);
            let disp =
                omprt::Dispenser::new(omprt::Schedule::Dynamic(1), pooled.len(), pool.threads());
            let region = pool.run(|_tid| {
                while let Some((lo, hi)) = disp.claim() {
                    for &i in &pooled[lo..hi] {
                        run_one(i);
                    }
                }
            });
            if let Err(p) = region {
                // Should be unreachable — `run_job` already contains
                // panics — but if one does escape, pin it on the jobs
                // that never produced a result rather than losing it.
                for &i in &pooled {
                    let trap = || JobResult::no_run(RunError::Trap { what: p.what.clone() });
                    slots[i].lock().get_or_insert_with(trap);
                }
            }
        }
        // Team-forking jobs: one at a time, on the caller, over the same
        // shared pools.
        for (i, (_, job)) in jobs.iter().enumerate() {
            if matches!(job.mode, ExecMode::Parallel { .. }) {
                run_one(i);
            }
        }

        let results = sessions
            .into_iter()
            .zip(slots)
            .map(|(session, slot)| {
                let jr = slot.into_inner().unwrap_or_else(|| {
                    JobResult::no_run(RunError::Trap { what: "job produced no result".into() })
                });
                JobResult { session, ..jr }
            })
            .collect();
        BatchReport { results, wall: t_batch.elapsed() }
    }

    /// Opens one job's private session over its artifact, compiled
    /// through the cache if need be. A compile failure or setup panic is
    /// this job's refusal, never a batch abort.
    fn open(&self, src: &JobSource, job: &Job) -> Result<Session, RunError> {
        let artifact = match src {
            JobSource::Artifact(a) => Arc::clone(a),
            JobSource::Sources(v) => {
                let refs: Vec<&str> = v.iter().map(String::as_str).collect();
                let compiled = self.cache.get_or_compile(&refs);
                compiled.map_err(|e| RunError::Rejected { msg: format!("compile failed: {e}") })?
            }
        };
        let setup = catch_unwind(AssertUnwindSafe(|| {
            let mut s = Session::new(artifact, Arc::clone(&self.pools));
            if let Some(l) = job.limits {
                s.set_limits(l);
            }
            s.debug_faults(job.faults.clone());
            s
        }));
        setup.map_err(|p| RunError::Rejected {
            msg: format!("session setup panicked: {}", payload_str(&*p)),
        })
    }

    /// One job from its start to its verdict: the quarantine gate, a
    /// cancel token expiring at the job's deadline (none without one, so
    /// its runs never poll), the policy loop, and the fault ledger.
    fn run_job(&self, session: &Session, job: &Job) -> JobResult {
        let t0 = Instant::now();
        let hash = session.artifact().source_hash();
        let policy = job.policy.unwrap_or(self.default_policy);
        // Quarantine gate, checked at job start so a breaker opened
        // earlier in this very batch already protects later jobs.
        let pinned = self.cache.is_quarantined(hash);
        let breaker = || self.cache.quarantine_policy().map(|p| p.mode);
        if pinned && breaker() != Some(QuarantineMode::PinOracle) {
            // Refuse — also the conservative answer if the policy was
            // dropped after the breaker opened.
            let (traps, cancels) = self.cache.fault_counts(hash);
            let err = RunError::Quarantined { source_hash: hash, faults: traps + cancels };
            let action = PolicyAction::Quarantined;
            return JobResult { action, wall: t0.elapsed(), ..JobResult::no_run(err) };
        }
        let token = policy
            .deadline
            .map(|d| CancelToken::expiring(t0 + d, format!("job deadline of {d:?} exceeded")));
        session.set_cancel_token(token.clone());
        // A pinned job has one rung, the oracle tier at the requested
        // mode, and every verdict but a cancellation is the breaker's.
        let rungs = if pinned {
            vec![(job.mode, ExecTier::TreeWalk)]
        } else {
            ladder(job.mode, policy.degrade)
        };
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_with_policy(session, job, &policy, token.as_deref(), &rungs)
        }));
        // Detach the job's token so callers reusing the session don't
        // inherit a fired one.
        session.set_cancel_token(None);
        let mut jr = match run {
            Ok(jr) if pinned && jr.action != PolicyAction::Cancelled => {
                JobResult { action: PolicyAction::Quarantined, ..jr }
            }
            Ok(jr) => jr,
            Err(p) => JobResult::no_run(RunError::Trap { what: payload_str(&*p) }),
        };
        // Fault ledger: a fallback or trap-rooted failure counts as a
        // trap, a cancellation as a cancel.
        match &jr.result {
            Ok(out) if out.fallback.is_some() => self.cache.record_fault(hash, false),
            Err(e) if matches!(e.root(), RunError::Trap { .. }) => {
                self.cache.record_fault(hash, false);
            }
            Err(e) if matches!(e.root(), RunError::Cancelled { .. }) => {
                self.cache.record_fault(hash, true);
            }
            _ => {}
        }
        jr.wall = t0.elapsed();
        jr
    }
}

/// The top of the service layer: an [`ArtifactCache`] plus a shared
/// [`PoolSet`], from which sessions and job queues are minted. The
/// quarantine policy lives on the cache ([`EngineService::cache`]).
pub struct EngineService {
    cache: Arc<ArtifactCache>,
    pools: Arc<PoolSet>,
}

impl EngineService {
    /// A service caching up to `cache_capacity` compiled artifacts.
    pub fn new(cache_capacity: usize) -> EngineService {
        EngineService {
            cache: Arc::new(ArtifactCache::new(cache_capacity)),
            pools: Arc::new(PoolSet::new()),
        }
    }

    /// Compiles `sources` through the cache: identical sources return
    /// the same shared artifact.
    pub fn compile(&self, sources: &[&str]) -> Result<Arc<CompiledProgram>, CompileError> {
        self.cache.get_or_compile(sources)
    }

    /// Compiles (through the cache) and opens a session on the shared
    /// pool set.
    pub fn session(&self, sources: &[&str]) -> Result<Session, CompileError> {
        Ok(Session::new(self.compile(sources)?, Arc::clone(&self.pools)))
    }

    /// Opens a session over an already-compiled artifact.
    pub fn session_for(&self, artifact: &Arc<CompiledProgram>) -> Session {
        Session::new(Arc::clone(artifact), Arc::clone(&self.pools))
    }

    /// The only way to build a [`JobQueue`]: `threads`-wide batch
    /// concurrency (`0` is clamped to 1) over the shared pool set, wired
    /// to the service's cache (deferred compiles + quarantine ledger),
    /// with the no-op default [`JobPolicy`].
    pub fn queue(&self, threads: usize) -> JobQueue {
        JobQueue {
            pools: Arc::clone(&self.pools),
            threads: threads.max(1),
            pending: Vec::new(),
            cache: Arc::clone(&self.cache),
            default_policy: JobPolicy::default(),
        }
    }

    /// The artifact cache (hit/miss/eviction/quarantine introspection,
    /// and the quarantine policy).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The shared pool set.
    pub fn pools(&self) -> &Arc<PoolSet> {
        &self.pools
    }
}

/// Renders a `catch_unwind` payload for diagnostics.
pub(crate) fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Stores fixed-form `DATA` element initializers into a freshly-built
/// global array (resolution guarantees the lengths match).
fn apply_init_elems(arr: &ArrayObj, elems: Option<&[u64]>) {
    if let Some(elems) = elems {
        for (off, &bits) in elems.iter().enumerate().take(arr.len()) {
            arr.set_bits(off, bits);
        }
    }
}

pub(crate) fn build_globals(prog: &RProgram) -> Globals {
    let cells = prog
        .globals
        .iter()
        .map(|decl| {
            if decl.rank == 0 && !decl.allocatable && decl.dims.is_empty() {
                let cell = if decl.per_thread {
                    GlobalCell::new_per_thread_scalar()
                } else if decl.reduction {
                    GlobalCell::new_reduction_scalar()
                } else {
                    GlobalCell::new_scalar()
                };
                if let Some(bits) = decl.init_bits {
                    // Every thread's instance of a per-thread scalar;
                    // tid 0 is the one cell of a shared scalar.
                    let tids = if decl.per_thread { crate::storage::MAX_THREADS } else { 1 };
                    for t in 0..tids {
                        cell.store_bits(t, bits);
                    }
                }
                cell
            } else if decl.per_thread {
                let cell = GlobalCell::new_per_thread_array();
                if !decl.allocatable && !decl.dims.is_empty() {
                    for t in 0..crate::storage::MAX_THREADS {
                        let arr = Arc::new(ArrayObj::new(decl.ty, decl.dims.clone()));
                        apply_init_elems(&arr, decl.init_elems.as_deref());
                        cell.set_array(t, Some(arr));
                    }
                }
                cell
            } else {
                let cell = GlobalCell::new_array();
                if !decl.allocatable && !decl.dims.is_empty() {
                    let arr = Arc::new(ArrayObj::new(decl.ty, decl.dims.clone()));
                    apply_init_elems(&arr, decl.init_elems.as_deref());
                    cell.set_array(0, Some(arr));
                }
                cell
            }
        })
        .collect();
    Globals { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
MODULE m
CONTAINS
  REAL(8) FUNCTION f(n)
    INTEGER :: n
    INTEGER :: i
    REAL(8) :: s
    s = 0.0D0
    !$OMP PARALLEL DO REDUCTION(+:s)
    DO i = 1, n
      s = s + 0.5D0 * i
    END DO
    !$OMP END PARALLEL DO
    f = s
  END FUNCTION f
END MODULE m
"#;

    /// Points the first scalar `REAL` load or store of the traced build
    /// at a slot no unit has.
    fn wild_f_slot(mut bunits: Vec<BUnit>) -> Vec<BUnit> {
        let instr = bunits
            .iter_mut()
            .flat_map(|bu| bu.code.iter_mut())
            .find(|i| matches!(i, BInstr::LoadF(_) | BInstr::StoreF(_)));
        if let Some(BInstr::LoadF(s) | BInstr::StoreF(s)) = instr {
            *s = u32::MAX;
        }
        bunits
    }

    #[test]
    fn a_traced_build_that_fails_verification_traps_on_every_simulated_run() {
        let mut art = CompiledProgram::compile(&[SRC]).unwrap_or_else(|e| panic!("{e}"));
        let Some(a) = Arc::get_mut(&mut art) else { panic!("fresh artifact is shared") };
        a.damage_traced = Some(wild_f_slot);
        let bytes = art.estimated_bytes();
        let args = [ArgVal::I(40)];
        let mode = ExecMode::Simulated { threads: 2 };
        let oracle =
            Session::solo(Arc::clone(&art)).run_tiered("f", &args, mode, ExecTier::TreeWalk);
        let Ok(oracle) = oracle else { panic!("oracle run failed") };
        // Two runs in one session, one in another: the cell keeps the
        // verifier's message, so the first run is not special.
        let first = Session::solo(Arc::clone(&art));
        let second = Session::solo(Arc::clone(&art));
        for session in [&first, &first, &second] {
            let Ok(out) = session.run("f", &args, mode) else { panic!("Simulated run failed") };
            let Some(fb) = &out.fallback else { panic!("unverified traced build ran") };
            assert!(
                fb.what.contains("bytecode verification failed in `f` at pc "),
                "fallback names the verifier's unit and pc: {}",
                fb.what
            );
            assert_eq!(out.trace, oracle.trace, "the oracle answers with its own trace");
            assert_eq!(
                out.result.map(|v| v.as_f().to_bits()),
                oracle.result.map(|v| v.as_f().to_bits())
            );
        }
        assert_eq!(first.fallback_count(), 2);
        assert_eq!(art.estimated_bytes(), bytes, "a refused build is not counted");
        // Serial runs never touch the traced build.
        let serial = first.run("f", &args, ExecMode::Serial);
        assert!(matches!(serial, Ok(ref out) if out.fallback.is_none()));
        // And the accessor refuses to hand the build out.
        let handed = catch_unwind(AssertUnwindSafe(|| art.bytecode(true)));
        let Err(payload) = handed else { panic!("bytecode(true) returned an unverified build") };
        assert!(payload_str(&*payload).contains("bytecode verification failed in `f`"));
    }

    #[test]
    fn a_job_without_a_deadline_runs_without_a_token() {
        let service = EngineService::new(4);
        let art = service.compile(&[SRC]).unwrap_or_else(|e| panic!("{e}"));
        let args = vec![ArgVal::I(40)];
        let direct = Session::solo(Arc::clone(&art)).run("f", &args, ExecMode::Serial);
        let Ok(direct) = direct else { panic!("direct run failed") };
        let queue = service.queue(1);
        for policy in
            [JobPolicy::default(), JobPolicy { deadline: None, retries: 2, ..JobPolicy::default() }]
        {
            let session = service.session_for(&art);
            let job = Job::new("f", args.clone()).policy(policy);
            let jr = queue.run_job(&session, &job);
            assert_eq!(jr.action, PolicyAction::Completed);
            let Ok(out) = jr.result else { panic!("job failed") };
            assert_eq!(
                out.result.map(|v| v.as_f().to_bits()),
                direct.result.map(|v| v.as_f().to_bits()),
                "bit-identical to a run outside the queue"
            );
            assert!(session.cancel.lock().is_none(), "the job left a token on its session");
            assert!(!session.make_exec(ExecMode::Serial, None).limits.poll);
        }
        // Without a token a backoff sleeps plainly, for its full length.
        let session = service.session_for(&art);
        let failed_attempt = FaultPlan { vm_trap: true, oracle_traps: 1, ..FaultPlan::default() };
        session.debug_faults(failed_attempt);
        let backoff = Duration::from_millis(5);
        let policy = JobPolicy { retries: 1, backoff, ..JobPolicy::default() };
        let jr = queue.run_job(&session, &Job::new("f", args.clone()).policy(policy));
        assert_eq!(jr.action, PolicyAction::Retried);
        assert_eq!(
            jr.attempts.iter().map(|a| a.backoff).collect::<Vec<_>>(),
            [Duration::ZERO, backoff]
        );
        // A deadline still gets its token for the job, and only for it.
        let session = service.session_for(&art);
        let policy = JobPolicy { deadline: Some(Duration::from_secs(60)), ..JobPolicy::default() };
        let jr = queue.run_job(&session, &Job::new("f", args).policy(policy));
        assert_eq!(jr.action, PolicyAction::Completed);
        assert!(session.cancel.lock().is_none());
    }
}
