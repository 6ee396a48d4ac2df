//! The rung ladder of one kernel: tree-walk interpreter, scalar VM, vector
//! VM, native tier — each timed against the rung below it — plus the
//! hand-written Rust floor and the counters that say how much of the
//! kernel each rung actually took.

use fortrans::{ExecTier, Session};

use super::{median_ms, Metric};
use crate::spans::Recorder;

const REPS: usize = 7;
const INTERP_REPS: usize = 3;

pub struct Kernel<'a> {
    /// Metric suffix: `sarb`, `fun3d` or `dotp`.
    pub suffix: &'static str,
    /// A fresh session over a fresh artifact (so each rung starts with an
    /// empty native cache), inputs in place.
    pub fresh: &'a dyn Fn() -> Session,
    /// One run of the kernel on the given tier.
    pub run: &'a dyn Fn(&Session, ExecTier),
    /// VM instructions one run retires (`run_profiled`, exact).
    pub retired_steps: &'a dyn Fn(&Session) -> u64,
    /// One run of the hand-written Rust version of the kernel.
    pub rust_floor: Option<&'a dyn Fn()>,
}

pub fn measure(k: &Kernel, rec: &Recorder) -> Vec<Metric> {
    let interp = rec.span("probe.interp", || {
        let s = (k.fresh)();
        median_ms(INTERP_REPS, || (k.run)(&s, ExecTier::TreeWalk))
    });

    let scalar = rec.span("probe.vm.scalar", || {
        let s = (k.fresh)();
        s.set_native_enabled(false);
        s.set_vector_enabled(false);
        (k.run)(&s, ExecTier::Vm);
        median_ms(REPS, || (k.run)(&s, ExecTier::Vm))
    });

    let (vector, vector_entries) = rec.span("probe.vm.vector", || {
        let s = (k.fresh)();
        s.set_native_enabled(false);
        (k.run)(&s, ExecTier::Vm);
        let before = s.vector_entry_count();
        (k.run)(&s, ExecTier::Vm);
        let entries = s.vector_entry_count() - before;
        (median_ms(REPS, || (k.run)(&s, ExecTier::Vm)), entries)
    });

    // Eager promotion: the first run compiles every region it enters, so
    // first − steady is what promotion costs a cold caller.
    let (native, first_ms, entries, deopts, compiled, regions) =
        rec.span("probe.jit.native", || {
            let s = (k.fresh)();
            s.set_native_eager(true);
            let first_ms = median_ms(1, || (k.run)(&s, ExecTier::Vm));
            let (e0, d0) = (s.native_entry_count(), s.native_deopt_count());
            (k.run)(&s, ExecTier::Vm);
            let entries = s.native_entry_count() - e0;
            let deopts = s.native_deopt_count() - d0;
            let steady = median_ms(REPS, || (k.run)(&s, ExecTier::Vm));
            let compiled = s.artifact().native_cache().compiled_count();
            (
                steady,
                first_ms,
                entries,
                deopts,
                compiled,
                s.vector_report().len(),
            )
        });

    let steps = rec.span("probe.vm.retired_steps", || (k.retired_steps)(&(k.fresh)()));

    let sfx = k.suffix;
    let m = |name: &str, v: f64| (format!("{name}.{sfx}"), v);
    let mut out = vec![
        m("interp.run_ms", interp),
        m("vm.scalar_run_ms", scalar),
        m("vm.vector_run_ms", vector),
        m("jit.native_run_ms", native),
        m("vm.scalar_over_interp", interp / scalar),
        m("vm.vector_over_scalar", scalar / vector),
        m("jit.native_over_vector", vector / native),
        m("vm.vector_entries", vector_entries as f64),
        m("jit.entries", entries as f64),
        m("jit.deopts", deopts as f64),
        m(
            "jit.regions_compiled",
            compiled as f64 / regions.max(1) as f64,
        ),
        m("jit.promote_us", (first_ms - native) * 1e3),
        m("vm.retired_steps", steps as f64),
    ];
    if let Some(floor) = k.rust_floor {
        let rust = rec.span("probe.rust.native", || median_ms(REPS, floor));
        out.push(m("rust.native_run_ms", rust));
        out.push(m("vm.best_over_rust", vector.min(native) / rust));
    }
    out
}
