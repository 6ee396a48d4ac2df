//! # sarb — the Synoptic SARB case study (paper §2.2, §4.1)
//!
//! NASA's CERES Synoptic SARB computes vertical longwave/shortwave flux
//! profiles with the Fu-Liou radiative transfer model. The paper
//! implements six of its subroutines (Table 1) through GLAF and verifies
//! and times them against the original serial code. This crate provides:
//!
//! * [`legacy`] — the shared "existing module" (`fuliou_mod`: TYPEs,
//!   instances, synthetic profile generator) and the column driver, used
//!   *as is* by every implementation (§4.1.1);
//! * [`original`] — the monolithic original serial kernels;
//! * [`glaf_model`] — the same kernels as a GLAF program (builder API,
//!   §3 integration features, interior-loop functions);
//! * [`variants`] — the Table 2 ladder (original / GLAF serial / v0–v3 /
//!   cost-model), engine construction, simulated and real-thread runs;
//! * [`native`] — a Rust oracle (bit-identical to the engine) plus an
//!   `omprt` fork-join column sweep.
//!
//! The real CERES inputs and sources are restricted; the synthetic
//! substitution is documented in DESIGN.md §2.

pub mod glaf_model;
pub mod legacy;
pub mod native;
pub mod original;
pub mod variants;
