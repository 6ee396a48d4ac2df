//! # omprt — an OpenMP-runtime substrate
//!
//! The paper's generated FORTRAN relies on an OpenMP runtime (libgomp /
//! Intel's). The `fortrans` execution engine needs the same services, so
//! this crate provides them from scratch:
//!
//! * a **persistent worker pool** ([`pool::ThreadPool`], shared between
//!   sessions through a [`PoolSet`]) with fork-join semantics — between
//!   regions workers spin briefly, then park, instead of being respawned,
//!   like a real OpenMP runtime; a worker panic surfaces as a
//!   [`RegionPanic`] and the pool heals;
//! * **loop scheduling** ([`schedule`]) — contiguous and round-robin
//!   chunked variants of `SCHEDULE(STATIC[,chunk])`, plus a lock-free
//!   iteration dispenser for `SCHEDULE(DYNAMIC)` / `SCHEDULE(GUIDED)`;
//! * **named critical sections** ([`sync`]) for `!$OMP CRITICAL`;
//! * a **sense-reversing barrier** ([`barrier`]);
//! * **per-region metrics** ([`metrics`]) — worker busy/idle time,
//!   utilization and imbalance of the last fork.
//!
//! `!$OMP ATOMIC` updates and reduction combines are the engine's own
//! (`fortrans::interp`, over its array cells and value type); this crate
//! holds what is independent of the language being run.
//!
//! Everything is exercised for correctness by tests (scheduling, critical
//! sections, barriers, the hot team); wall-clock scaling is a property of
//! the host — the paper's performance *figures* are reproduced on the
//! `simcpu` machine model.

pub mod barrier;
pub mod metrics;
pub mod pool;
pub mod schedule;
pub mod sync;

pub use barrier::Barrier;
pub use metrics::RegionMetrics;
pub use pool::{PoolSet, RegionPanic, ThreadPool};
pub use schedule::{chunks_for, guided_chunks, Dispenser, Schedule};
pub use sync::CriticalRegistry;
