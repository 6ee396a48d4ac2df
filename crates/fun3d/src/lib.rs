//! # fun3d — the FUN3D Jacobian-reconstruction case study (§2.3, §4.2)
//!
//! FUN3D's Jacobian matrix reconstruction "consists of about 10
//! subroutines that build pieces of the matrix for linear solving" over
//! all cells of the local MPI domain, with interior loops over nodes,
//! faces and edges. The paper decomposes it into five GLAF functions and
//! sweeps "all combinations of parallelization and no-reallocation
//! options" at 16 threads (Fig. 7). This crate provides:
//!
//! * [`mesh`] — the synthetic unstructured-mesh substrate (the NASA
//!   dataset is unavailable; generator mirrored bit-for-bit in Rust);
//! * [`original`] — the monolithic serial kernel and the hand-parallelized
//!   comparison version;
//! * [`glaf_model`] — the five-function GLAF decomposition
//!   (EdgeJP / cell_loop / edge_loop / angle_check / ioff_search);
//! * [`variants`] — the Fig. 7 option matrix and run harness;
//! * [`native`] — Rust oracles (serial bit-identical; `omprt` fork-join fold).

pub mod glaf_model;
pub mod mesh;
pub mod native;
pub mod original;
pub mod variants;
