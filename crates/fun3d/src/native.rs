//! The native Rust oracle for the Jacobian reconstruction, plus a
//! fork-join variant on the workspace's own `omprt` runtime (per-thread
//! partial Jacobians over a static partition of the cells, summed at the
//! join — no atomics needed).

// The index-based loops below intentionally mirror the FORTRAN sources
// statement-for-statement so bit-level comparison stays reviewable.
#![allow(clippy::needless_range_loop)]

use std::sync::Mutex;

use omprt::{chunks_for, Schedule};

use crate::mesh::{Mesh, EDGES, JROW, NST};

/// Per-cell contribution: the (slot, flux) pairs a cell adds to `jac`.
fn cell_contributions(m: &Mesh, c: usize) -> Vec<(usize, f64)> {
    let adot: f64 = (0..3).map(|d| m.fnorm[c][0][d] * m.fnorm[c][1][d]).sum();
    if adot < -0.2 {
        return Vec::new();
    }
    let mut qavg = [0.0f64; NST];
    for st in 0..NST {
        for k in 0..4 {
            qavg[st] += m.qn[m.c2n[c][k]][st];
        }
    }
    for q in qavg.iter_mut() {
        *q /= 4.0;
    }
    let mut grad = [[0.0f64; NST]; 3];
    for st in 0..NST {
        for d in 0..3 {
            for f in 0..4 {
                grad[d][st] += m.fnorm[c][f][d] * m.farea[c][f] * qavg[st];
            }
        }
    }
    let mut out = Vec::with_capacity(6 * NST);
    for &(ea, eb) in EDGES.iter() {
        let n1 = m.c2n[c][ea];
        let n2 = m.c2n[c][eb];
        let k = m.ioff(n1, n2);
        for st in 0..NST {
            let ta = m.qn[n1][st] - m.qn[n2][st];
            let tb = m.qn[n1][st] + m.qn[n2][st];
            let tc = grad[0][st] * 0.3 + grad[1][st] * 0.5 + grad[2][st] * 0.2;
            let td = ta * tb;
            let te = (-ta.abs()).exp();
            let tf = tc * te;
            let tg = td + tf;
            let th = tg * 0.25;
            let ti = th + qavg[st] * 0.1;
            let flux = ti / (1.0 + tb.abs());
            out.push((n1 * JROW + k * NST + st, flux));
        }
    }
    out
}

/// The serial oracle: mirrors `jacobian_recon` exactly (bitwise).
pub fn native_jacobian(m: &Mesh) -> Vec<f64> {
    let mut jac = vec![0.0f64; m.njac];
    for c in 0..m.ncell {
        for (slot, flux) in cell_contributions(m, c) {
            jac[slot] += flux;
        }
    }
    jac
}

/// Fork-join version: each thread of an [`omprt::ThreadPool`] folds its
/// static block of cells into a partial Jacobian; the partials are
/// summed in thread order at the join — deterministic for a given core
/// count, and equal to the serial oracle up to summation order.
pub fn native_jacobian_parallel(m: &Mesh) -> Vec<f64> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let partials: Vec<Mutex<Vec<f64>>> =
        (0..threads).map(|_| Mutex::new(vec![0.0f64; m.njac])).collect();
    omprt::ThreadPool::new(threads)
        .run(|tid| {
            let mut jac = partials[tid].lock().expect("only thread `tid` locks slot `tid`");
            for (lo, hi) in chunks_for(Schedule::StaticBlock, m.ncell, tid, threads) {
                for c in lo..hi {
                    for (slot, flux) in cell_contributions(m, c) {
                        jac[slot] += flux;
                    }
                }
            }
        })
        .expect("the fold does not panic");
    let mut partials = partials
        .into_iter()
        .map(|p| p.into_inner().expect("no fold panicked holding its slot"));
    let mut jac = partials.next().expect("a pool has at least one thread");
    for p in partials {
        for (x, y) in jac.iter_mut().zip(&p) {
            *x += y;
        }
    }
    jac
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{run_real, Fun3dVariant};
    use glaf::{compare_slices, rms};

    #[test]
    fn oracle_matches_engine_bitwise() {
        let jac = run_real(Fun3dVariant::OriginalSerial, 250, 1);
        let native = native_jacobian(&Mesh::build(250));
        assert_eq!(jac, native);
    }

    #[test]
    fn parallel_matches_serial_at_rms_tolerance() {
        let m = Mesh::build(400);
        let a = native_jacobian(&m);
        let b = native_jacobian_parallel(&m);
        let r = compare_slices(&a, &b);
        assert!(r.passes_rms(1e-12), "{r:?}");
    }

    #[test]
    fn reference_rms_is_stable() {
        // The §4.2.1 "reference root mean square of the output arrays":
        // recomputing it must reproduce the same value exactly.
        let m = Mesh::build(300);
        let r1 = rms(&native_jacobian(&m));
        let r2 = rms(&native_jacobian(&m));
        assert_eq!(r1, r2);
        assert!(r1 > 0.0);
    }
}
