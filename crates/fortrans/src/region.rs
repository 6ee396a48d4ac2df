//! The `!$OMP PARALLEL DO` region protocol, said once for both
//! execution tiers.
//!
//! Everything that decides the paper's two acceptance tests lives here:
//! team sizing, schedule override and per-thread legalization, the mode
//! dispatch (Serial / nested team-of-one / Simulated with an owner map /
//! real fork), decomposition of the collapsed iteration space, work
//! distribution (`Dispenser` for runtime-dispatched schedules,
//! `chunks_for` otherwise), reduction identities, keyed partials and
//! their key-ordered fold, print merging, the hand-over of the step
//! budget to the team and back, the worker-panic chaos hook and the
//! region-entry safepoint.
//!
//! A tier plugs in through [`Tier`]: how to make a worker, set a loop
//! index, run the body, read and write a reduction variable, attach
//! fault context, reach its step count and retire a worker. Expression
//! and statement evaluation, frames and storage stay with the tiers, so
//! the tree-walker remains an independent oracle for lowering and the VM
//! — what is shared is bookkeeping, not evaluation. Calls are
//! monomorphized per tier; nothing here is `dyn`.

use omprt::{chunks_for, Dispenser, Schedule};
use parking_lot::Mutex;

use crate::ast::RedOp;
use crate::cost::CostAcc;
use crate::error::RunError;
use crate::interp::{combine_vals, identity_val, Exec, ExecMode, Flow, Val};
use crate::intrinsics::{do_index, do_trips};
use crate::rir::ScalarTy;
use crate::storage::MAX_THREADS;

/// The part of an executor the protocol reads and writes; both tiers'
/// executors embed one.
#[derive(Default)]
pub(crate) struct RegionState {
    /// Simulated-mode cost accumulator (dormant otherwise).
    pub cost: CostAcc,
    /// Team member of a real fork (so only ever set in Parallel mode):
    /// regions met here run with a team of one, CRITICAL sections take
    /// their lock.
    pub in_real_region: bool,
    /// PRINT output; a worker's is merged into the forker's at the join.
    pub out: String,
}

/// One `REDUCTION(op:var)` entry of a region.
#[derive(Clone, Copy)]
pub(crate) struct Reduction {
    pub op: RedOp,
    pub ty: ScalarTy,
    /// The variable's global cell, when it is module/COMMON scope.
    pub cell: Option<usize>,
}

/// A region entry: the clauses as compiled plus the bounds evaluated at
/// this entry.
pub(crate) struct RegionSpec<'a> {
    /// Source line of the parallel DO: schedule overrides, pool metrics
    /// and the `RegionEvent` key on it.
    pub line: u32,
    pub sched: Schedule,
    pub per_thread_access: bool,
    /// Evaluated `NUM_THREADS` clause.
    pub num_threads: Option<i64>,
    /// Inclusive bounds per collapsed dimension, outer first.
    pub bounds: &'a [(i64, i64)],
    /// Step of the outer dimension (collapsed inner loops step by 1).
    pub outer_step: i64,
    pub reductions: &'a [Reduction],
}

/// What differs between the tiers at a region: the executor and frame
/// types, and the operations on them the protocol needs. One value
/// describes one region site (unit, body, clause variables).
pub(crate) trait Tier: Sync {
    type Exe;
    type Frame: Sync;

    /// A fresh executor for team member `tid` of a real fork, and its
    /// copy of the forking frame (PRIVATE arrays detached).
    fn worker(&self, tid: usize, base: &Self::Frame) -> (Self::Exe, Self::Frame);
    /// Writes the loop variable of collapsed dimension `dim`.
    fn set_index(&self, exe: &mut Self::Exe, frame: &mut Self::Frame, dim: usize, v: i64);
    fn run_body(&self, exe: &mut Self::Exe, frame: &mut Self::Frame) -> Result<Flow, RunError>;
    fn red_read(&self, exe: &Self::Exe, frame: &Self::Frame, ri: usize) -> Val;
    fn red_write(&self, exe: &mut Self::Exe, frame: &mut Self::Frame, ri: usize, v: Val);
    /// Wraps a worker's fault with its location registers.
    fn fault_ctx(&self, exe: &Self::Exe, e: RunError) -> RunError;
    /// A team member has run its share: fold what it counted privately
    /// into the run's shared counters.
    fn retire(&self, _exe: &mut Self::Exe) {}
    /// The forking executor resumes after a real join (workers may have
    /// changed shared storage behind its back).
    fn joined(&self, _exe: &mut Self::Exe) {}
    fn state(exe: &mut Self::Exe) -> &mut RegionState;
    /// The executor's count of steps retired, the one `RunLimits::max_steps`
    /// is checked against. One budget covers the whole run: a team member
    /// starts from the forker's count and what it retires is added to the
    /// forker's at the join. (Not in [`RegionState`]: the tiers tick it on
    /// every step and keep it where their dispatch loops want it.)
    fn steps(exe: &mut Self::Exe) -> &mut u64;
}

/// Iterations of the whole collapsed space, saturating like
/// [`do_trips`].
fn total(trips: &[u64]) -> usize {
    trips.iter().fold(1u64, |n, &t| n.saturating_mul(t)) as usize
}

/// Decomposes flat iteration `k` of the collapsed space (row-major,
/// outer dimension slowest) and writes every loop variable.
fn set_indices<T: Tier>(
    tier: &T,
    exe: &mut T::Exe,
    frame: &mut T::Frame,
    spec: &RegionSpec<'_>,
    trips: &[u64],
    k: usize,
) {
    let mut rem = k as u64;
    for (d, &(lo, _)) in spec.bounds.iter().enumerate().rev() {
        let t = trips[d].max(1);
        let step = if d == 0 { spec.outer_step } else { 1 };
        tier.set_index(exe, frame, d, do_index(lo, step, rem % t));
        rem /= t;
    }
}

/// Runs the region `spec` describes under the run's [`ExecMode`].
/// Yields `Normal`, or `Return` when a serially executed body returned.
pub(crate) fn run<T: Tier>(
    ex: &Exec,
    tier: &T,
    exe: &mut T::Exe,
    frame: &mut T::Frame,
    spec: &RegionSpec<'_>,
) -> Result<Flow, RunError> {
    // Region entry is a safepoint: never fork a team for a run whose
    // token already fired (or whose deadline already passed).
    if ex.limits.poll {
        ex.limits.check_interrupt(Some(spec.line))?;
    }
    // Trip count per collapsed dimension.
    let step = |d| if d == 0 { spec.outer_step } else { 1 };
    let trips: Vec<u64> =
        spec.bounds.iter().enumerate().map(|(d, &(lo, hi))| do_trips(lo, hi, step(d))).collect();
    let team = spec.num_threads.map_or(ex.mode.threads(), |n| n.max(1) as usize).min(MAX_THREADS);
    let st = T::state(exe);
    match ex.mode {
        ExecMode::Simulated { .. } if !st.in_real_region && !st.cost.in_region() => {
            let owner = build_owner_map(schedule(ex, spec), total(&trips), team);
            st.cost.open_region(owner, team, spec.reductions.len());
            let r = serial_nest(tier, exe, frame, spec, &trips, true);
            T::state(exe).cost.close_region(spec.line);
            r
        }
        ExecMode::Simulated { .. } => {
            // Nested region: team of one, but the fork is still paid.
            st.cost.add_misc(|c| c.nested_forks += 1);
            serial_nest(tier, exe, frame, spec, &trips, false)
        }
        ExecMode::Parallel { .. } if !st.in_real_region => {
            fork(ex, tier, exe, frame, spec, &trips, team)?;
            tier.joined(exe);
            Ok(Flow::Normal)
        }
        // Serial ("compiled without -fopenmp": directives ignored) and
        // nested real regions (team of one).
        _ => serial_nest(tier, exe, frame, spec, &trips, false),
    }
}

/// The schedule in force: session override over the compiled clause,
/// legalized to static when the body stages data in per-thread cells.
fn schedule(ex: &Exec, spec: &RegionSpec<'_>) -> Schedule {
    let sched = ex.sched_overrides.resolve(spec.line, spec.sched);
    if spec.per_thread_access {
        sched.legalize_for_per_thread()
    } else {
        sched
    }
}

/// Executes the nest in serial iteration order on `exe` itself. `owned`:
/// this nest is the open simulated region's own loop, so each iteration
/// is charged to its owning thread.
fn serial_nest<T: Tier>(
    tier: &T,
    exe: &mut T::Exe,
    frame: &mut T::Frame,
    spec: &RegionSpec<'_>,
    trips: &[u64],
    owned: bool,
) -> Result<Flow, RunError> {
    let mut result = Flow::Normal;
    for k in 0..total(trips) {
        if owned {
            T::state(exe).cost.begin_iteration(k);
        }
        set_indices(tier, exe, frame, spec, trips, k);
        match tier.run_body(exe, frame)? {
            Flow::Normal | Flow::Cycle => {}
            Flow::Exit => break,
            Flow::Return => {
                result = Flow::Return;
                break;
            }
        }
    }
    // Also at the end of a nested team-of-one nest: the rest of the
    // enclosing iteration is charged to the master thread.
    T::state(exe).cost.end_iterations();
    Ok(result)
}

/// Reduction partials of one fork, keyed for a deterministic combine
/// order whatever the completion (or chunk-claim) order: one partial per
/// thread keyed by tid under static schedules, one per chunk keyed by
/// its first flat iteration under dynamic/guided. A region without
/// reductions has nothing to combine and keeps only its errors.
type KeyedPartials = Vec<(usize, Result<Vec<Val>, RunError>)>;

/// What the members of one fork hand to the forker. A member collects
/// its share privately and appends it under the lock once, when it has
/// run out of work: nothing is shared per chunk.
#[derive(Default)]
struct Joined {
    partials: KeyedPartials,
    prints: String,
    /// Steps the members retired, beyond the forker's count at the fork.
    steps: u64,
}

/// Folds `keyed` onto `acc` in key order; the lowest-keyed error wins.
fn join(
    mut keyed: KeyedPartials,
    reds: &[Reduction],
    mut acc: Vec<Val>,
) -> Result<Vec<Val>, RunError> {
    keyed.sort_by_key(|&(k, _)| k);
    for (_, partial) in keyed {
        for ((a, r), p) in acc.iter_mut().zip(reds).zip(partial?) {
            *a = combine_vals(r.ty, r.op, *a, p);
        }
    }
    Ok(acc)
}

/// Real fork-join execution on the run's pool.
fn fork<T: Tier>(
    ex: &Exec,
    tier: &T,
    exe: &mut T::Exe,
    frame: &mut T::Frame,
    spec: &RegionSpec<'_>,
    trips: &[u64],
    team: usize,
) -> Result<(), RunError> {
    let pool = ex.pool.as_ref().expect("Parallel mode has a pool").clone();
    let team = team.min(pool.threads());
    let sched = schedule(ex, spec);
    let total = total(trips);
    let reds = spec.reductions;
    let init: Vec<Val> = (0..reds.len()).map(|ri| tier.red_read(exe, frame, ri)).collect();
    // A module-scope reduction variable is one cell every worker's body
    // addresses: split it into per-thread partials for the fork.
    let split = |on: bool| {
        for c in reds.iter().filter_map(|r| r.cell) {
            ex.globals.cells[c].split_for_reduction(on);
        }
    };
    split(true);

    let joined: Mutex<Joined> = Mutex::default();
    let dispenser = sched.is_runtime_dispatched().then(|| Dispenser::new(sched, total, team));
    let base_frame = &*frame;
    let forked_steps = *T::steps(exe);

    let ran = pool.run_tagged(spec.line, sched, |tid| {
        if tid >= team {
            return;
        }
        if ex.debug_panic_worker == Some(tid) {
            panic!("chaos: injected worker panic on tid {tid}");
        }
        let (mut w, mut wf) = tier.worker(tid, base_frame);
        *T::steps(&mut w) = forked_steps;
        let seed = |w: &mut T::Exe, wf: &mut T::Frame| {
            for (ri, r) in reds.iter().enumerate() {
                tier.red_write(w, wf, ri, identity_val(r.op, r.ty));
            }
        };
        let run_range = |w: &mut T::Exe, wf: &mut T::Frame, lo: usize, hi: usize| {
            for k in lo..hi {
                set_indices(tier, w, wf, spec, trips, k);
                if let Flow::Exit | Flow::Return = tier.run_body(w, wf)? {
                    return Err(RunError::Type { msg: "EXIT/RETURN out of a parallel loop".into() });
                }
            }
            Ok(())
        };
        let mut mine: KeyedPartials = Vec::new();
        // Keeps the outcome of the work keyed `key`: the reduction
        // partial `w` holds, or the fault. `false` after a fault.
        let mut keep = |key: usize, r: Result<(), RunError>, w: &T::Exe, wf: &T::Frame| match r {
            Ok(()) if reds.is_empty() => true,
            Ok(()) => {
                mine.push((key, Ok((0..reds.len()).map(|ri| tier.red_read(w, wf, ri)).collect())));
                true
            }
            Err(e) => {
                mine.push((key, Err(tier.fault_ctx(w, e))));
                false
            }
        };
        match &dispenser {
            // Dynamic/guided: claim chunks first-come-first-served, one
            // partial per chunk. After a fault stop claiming; let the
            // team drain and join.
            Some(disp) => {
                while let Some((lo, hi)) = disp.claim() {
                    seed(&mut w, &mut wf);
                    let r = run_range(&mut w, &mut wf, lo, hi);
                    if !keep(lo, r, &w, &wf) {
                        break;
                    }
                }
            }
            // Static: the thread owns its chunks up front and accumulates
            // one partial across all of them.
            None => {
                seed(&mut w, &mut wf);
                let r = chunks_for(sched, total, tid, team)
                    .into_iter()
                    .try_for_each(|(lo, hi)| run_range(&mut w, &mut wf, lo, hi));
                keep(tid, r, &w, &wf);
            }
        }
        tier.retire(&mut w);
        let steps = *T::steps(&mut w) - forked_steps;
        let mut joined = joined.lock();
        joined.steps += steps;
        joined.partials.append(&mut mine);
        joined.prints.push_str(&T::state(&mut w).out);
    });
    split(false);
    let Joined { partials, prints, steps } = joined.into_inner();
    // Whatever the outcome, like a serial run's count at its fault.
    let mine = T::steps(exe);
    *mine = mine.saturating_add(steps);
    ran.map_err(|p| RunError::Trap { what: p.to_string() })?;

    T::state(exe).out.push_str(&prints);
    let folded = join(partials, reds, init)?;
    for (ri, v) in folded.into_iter().enumerate() {
        tier.red_write(exe, frame, ri, v);
    }
    Ok(())
}

/// Iteration → owning-thread map of a simulated region.
fn build_owner_map(sched: Schedule, n: usize, threads: usize) -> Vec<u16> {
    let mut owner = vec![0u16; n];
    for t in 0..threads {
        for (lo, hi) in chunks_for(sched, n, t, threads) {
            owner[lo..hi].fill(t as u16);
        }
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_map_covers() {
        let m = build_owner_map(Schedule::StaticBlock, 10, 4);
        assert_eq!(m.len(), 10);
        assert_eq!(m[0], 0);
        assert_eq!(m[9], 3);
    }

    fn f_sum() -> [Reduction; 1] {
        [Reduction { op: RedOp::Add, ty: ScalarTy::F, cell: None }]
    }

    #[test]
    fn partials_fold_in_key_order_whatever_the_push_order() {
        // (1e16 + 1) + -1e16 == 0 but (1e16 + -1e16) + 1 == 1: the fold
        // order is observable, and it is the key order.
        let terms = [(0, 1e16), (1, 1.0), (2, -1e16)];
        for order in [[2, 0, 1], [1, 2, 0], [0, 1, 2]] {
            let kp: KeyedPartials =
                order.iter().map(|&i| (terms[i].0, Ok(vec![Val::F(terms[i].1)]))).collect();
            assert_eq!(join(kp, &f_sum(), vec![Val::F(0.0)]).unwrap(), vec![Val::F(0.0)]);
        }
        // Same terms, other keys: the other grouping, the other answer.
        let swapped: KeyedPartials = vec![
            (1, Ok(vec![Val::F(1e16)])),
            (0, Ok(vec![Val::F(-1e16)])),
            (2, Ok(vec![Val::F(1.0)])),
        ];
        assert_eq!(join(swapped, &f_sum(), vec![Val::F(0.0)]).unwrap(), vec![Val::F(1.0)]);
    }

    #[test]
    fn lowest_keyed_error_wins_the_join() {
        let kp: KeyedPartials = vec![
            (7, Err(RunError::Stop { msg: "late".into() })),
            (9, Ok(vec![Val::F(1.0)])),
            (3, Err(RunError::Stop { msg: "early".into() })),
            (0, Ok(vec![Val::F(2.0)])),
        ];
        assert_eq!(
            join(kp, &f_sum(), vec![Val::F(0.0)]),
            Err(RunError::Stop { msg: "early".into() })
        );
    }
}
