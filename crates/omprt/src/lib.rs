//! # omprt — an OpenMP-runtime substrate
//!
//! The paper's generated FORTRAN relies on an OpenMP runtime (libgomp /
//! Intel's). The `fortrans` execution engine needs the same services, so
//! this crate provides them from scratch:
//!
//! * a **persistent worker pool** ([`pool::ThreadPool`]) with fork-join
//!   semantics — between regions workers spin briefly, then park, instead
//!   of being respawned, like a real OpenMP runtime;
//! * **loop scheduling** ([`schedule`]) — contiguous and round-robin
//!   chunked variants of `SCHEDULE(STATIC[,chunk])`, plus a lock-free
//!   iteration dispenser for `SCHEDULE(DYNAMIC)` / `SCHEDULE(GUIDED)`;
//! * **synchronization** ([`sync`]) — lock-free f64/i64 atomic update cells
//!   (CAS over `AtomicU64`) for `!$OMP ATOMIC`, and named critical-section
//!   registries for `!$OMP CRITICAL`;
//! * a **sense-reversing barrier** ([`barrier`]);
//! * **reduction combine** helpers ([`reduce`]);
//! * a **deadline watchdog** ([`watchdog`]) — a background thread firing
//!   callbacks (typically cancel tokens) when armed deadlines pass.
//!
//! Everything is exercised for correctness by tests (reductions, atomics,
//! barriers); wall-clock scaling is a property of the host — the paper's
//! performance *figures* are reproduced on the `simcpu` machine model.

pub mod barrier;
pub mod metrics;
pub mod pool;
pub mod reduce;
pub mod schedule;
pub mod sync;
pub mod watchdog;

pub use barrier::Barrier;
pub use metrics::RegionMetrics;
pub use pool::{PoolSet, RegionPanic, ThreadPool};
pub use reduce::{combine, fold_depth, RedIdentity};
pub use schedule::{chunks_for, guided_chunks, Dispenser, Schedule};
pub use sync::{AtomicF64Cell, AtomicI64Cell, CriticalRegistry};
pub use watchdog::Watchdog;
