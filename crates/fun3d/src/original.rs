//! The **original serial** Jacobian matrix reconstruction — "currently,
//! the original matrix reconstruction is implemented as a single function
//! with several levels of loop nesting" (§2.3) — plus the paper's
//! **manually parallelized** version: "the original serial version was
//! manually parallelized at the same level as the best-performing GLAF
//! implementation" (§4.2.2), i.e. OpenMP on the outermost cell loop with
//! the full private-variable list and atomic protection of the shared
//! Jacobian rows.

// The index-based loops below intentionally mirror the FORTRAN sources
// statement-for-statement so bit-level comparison stays reviewable.
#![allow(clippy::needless_range_loop)]

/// The monolithic original. Loop levels: cells → {nodes, faces, edges};
/// within each edge a chain of temporaries feeds a flux that accumulates
/// into the global Jacobian at the offset the neighbour search finds.
pub const ORIGINAL_JACOBIAN_SRC: &str = r#"
MODULE jac_kernels
  USE mesh_mod
  IMPLICIT NONE
CONTAINS

  SUBROUTINE jacobian_recon()
    REAL(8), DIMENSION(1:5) :: qavg
    REAL(8), DIMENSION(1:3, 1:5) :: grad
    REAL(8), DIMENSION(1:5) :: ta, tb, tc, td, te, tf, tg, th, ti, flux
    REAL(8) :: adot
    INTEGER :: c, k, m, f, d, e, n1, n2, j, kslot
    DO c = 1, ncell
      ! cell-face angle check: skip badly-shaped cells
      adot = fnorm(1, 1, c) * fnorm(1, 2, c) + fnorm(2, 1, c) * fnorm(2, 2, c) + fnorm(3, 1, c) * fnorm(3, 2, c)
      IF (adot < -0.2D0) CYCLE
      ! loop over nodes: average primitives
      DO m = 1, 5
        qavg(m) = 0.0D0
      END DO
      DO m = 1, 5
        DO k = 1, 4
          qavg(m) = qavg(m) + qn(m, c2n(k, c))
        END DO
      END DO
      DO m = 1, 5
        qavg(m) = qavg(m) / 4.0D0
      END DO
      ! loop over faces: Green-Gauss gradient
      DO m = 1, 5
        DO d = 1, 3
          grad(d, m) = 0.0D0
        END DO
      END DO
      DO m = 1, 5
        DO d = 1, 3
          DO f = 1, 4
            grad(d, m) = grad(d, m) + fnorm(d, f, c) * farea(f, c) * qavg(m)
          END DO
        END DO
      END DO
      ! loop over edges: flux Jacobian contributions
      DO e = 1, 6
        n1 = c2n(ed1(e), c)
        n2 = c2n(ed2(e), c)
        DO m = 1, 5
          ta(m) = qn(m, n1) - qn(m, n2)
        END DO
        DO m = 1, 5
          tb(m) = qn(m, n1) + qn(m, n2)
        END DO
        DO m = 1, 5
          tc(m) = grad(1, m) * 0.3D0 + grad(2, m) * 0.5D0 + grad(3, m) * 0.2D0
        END DO
        DO m = 1, 5
          td(m) = ta(m) * tb(m)
        END DO
        DO m = 1, 5
          te(m) = EXP(-ABS(ta(m)))
        END DO
        DO m = 1, 5
          tf(m) = tc(m) * te(m)
        END DO
        DO m = 1, 5
          tg(m) = td(m) + tf(m)
        END DO
        DO m = 1, 5
          th(m) = tg(m) * 0.25D0
        END DO
        DO m = 1, 5
          ti(m) = th(m) + qavg(m) * 0.1D0
        END DO
        DO m = 1, 5
          flux(m) = ti(m) / (1.0D0 + ABS(tb(m)))
        END DO
        ! offset search in the node's neighbour row
        kslot = 1
        DO j = 1, nnbr(n1)
          IF (nbr(j, n1) == n2) THEN
            kslot = j
            EXIT
          END IF
        END DO
        DO m = 1, 5
          jac((n1 - 1) * 40 + (kslot - 1) * 5 + m) = jac((n1 - 1) * 40 + (kslot - 1) * 5 + m) + flux(m)
        END DO
      END DO
    END DO
  END SUBROUTINE jacobian_recon
END MODULE jac_kernels
"#;

/// The manual parallelization of §4.2.2: the outermost cell loop carries
/// the directive with every cell-local variable private and atomic
/// protection on the shared Jacobian updates (no function-call overhead,
/// no heap temporaries, no critical section — the 2.3x edge over the
/// best GLAF configuration).
pub const MANUAL_JACOBIAN_SRC: &str = r#"
MODULE jac_kernels
  USE mesh_mod
  IMPLICIT NONE
CONTAINS

  SUBROUTINE jacobian_recon()
    REAL(8), DIMENSION(1:5) :: qavg
    REAL(8), DIMENSION(1:3, 1:5) :: grad
    REAL(8), DIMENSION(1:5) :: ta, tb, tc, td, te, tf, tg, th, ti, flux
    REAL(8) :: adot
    INTEGER :: c, k, m, f, d, e, n1, n2, j, kslot
    !$OMP PARALLEL DO DEFAULT(SHARED) PRIVATE(qavg, grad, ta, tb, tc, td, te, tf, tg, th, ti, flux, adot, k, m, f, d, e, n1, n2, j, kslot)
    DO c = 1, ncell
      adot = fnorm(1, 1, c) * fnorm(1, 2, c) + fnorm(2, 1, c) * fnorm(2, 2, c) + fnorm(3, 1, c) * fnorm(3, 2, c)
      IF (adot >= -0.2D0) THEN
        DO m = 1, 5
          qavg(m) = 0.0D0
        END DO
        DO m = 1, 5
          DO k = 1, 4
            qavg(m) = qavg(m) + qn(m, c2n(k, c))
          END DO
        END DO
        DO m = 1, 5
          qavg(m) = qavg(m) / 4.0D0
        END DO
        DO m = 1, 5
          DO d = 1, 3
            grad(d, m) = 0.0D0
          END DO
        END DO
        DO m = 1, 5
          DO d = 1, 3
            DO f = 1, 4
              grad(d, m) = grad(d, m) + fnorm(d, f, c) * farea(f, c) * qavg(m)
            END DO
          END DO
        END DO
        DO e = 1, 6
          n1 = c2n(ed1(e), c)
          n2 = c2n(ed2(e), c)
          DO m = 1, 5
            ta(m) = qn(m, n1) - qn(m, n2)
          END DO
          DO m = 1, 5
            tb(m) = qn(m, n1) + qn(m, n2)
          END DO
          DO m = 1, 5
            tc(m) = grad(1, m) * 0.3D0 + grad(2, m) * 0.5D0 + grad(3, m) * 0.2D0
          END DO
          DO m = 1, 5
            td(m) = ta(m) * tb(m)
          END DO
          DO m = 1, 5
            te(m) = EXP(-ABS(ta(m)))
          END DO
          DO m = 1, 5
            tf(m) = tc(m) * te(m)
          END DO
          DO m = 1, 5
            tg(m) = td(m) + tf(m)
          END DO
          DO m = 1, 5
            th(m) = tg(m) * 0.25D0
          END DO
          DO m = 1, 5
            ti(m) = th(m) + qavg(m) * 0.1D0
          END DO
          DO m = 1, 5
            flux(m) = ti(m) / (1.0D0 + ABS(tb(m)))
          END DO
          kslot = 1
          DO j = 1, nnbr(n1)
            IF (nbr(j, n1) == n2) THEN
              kslot = j
              EXIT
            END IF
          END DO
          DO m = 1, 5
            !$OMP ATOMIC
            jac((n1 - 1) * 40 + (kslot - 1) * 5 + m) = jac((n1 - 1) * 40 + (kslot - 1) * 5 + m) + flux(m)
          END DO
        END DO
      END IF
    END DO
    !$OMP END PARALLEL DO
  END SUBROUTINE jacobian_recon
END MODULE jac_kernels
"#;

#[cfg(test)]
mod tests {
    use crate::mesh::{Mesh, EDGES, JROW, MESH_MOD_SRC, NST};
    use fortrans::{ArgVal, ExecMode, Session};

    /// (Superseded by `crate::native::native_jacobian`; kept here as an
    /// independently-written second oracle — two implementations agreeing
    /// bitwise is stronger evidence than one.)
    pub fn native_jacobian(m: &Mesh) -> Vec<f64> {
        let mut jac = vec![0.0f64; m.njac];
        for c in 0..m.ncell {
            let adot: f64 = (0..3).map(|d| m.fnorm[c][0][d] * m.fnorm[c][1][d]).sum();
            if adot < -0.2 {
                continue;
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
            for &(ea, eb) in EDGES.iter() {
                let n1 = m.c2n[c][ea];
                let n2 = m.c2n[c][eb];
                let mut flux = [0.0f64; NST];
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
                    flux[st] = ti / (1.0 + tb.abs());
                }
                let k = m.ioff(n1, n2);
                for st in 0..NST {
                    jac[n1 * JROW + k * NST + st] += flux[st];
                }
            }
        }
        jac
    }

    fn run(src: &str, ncell: i64, mode: ExecMode) -> Vec<f64> {
        let e = Session::compile(&[MESH_MOD_SRC, src]).unwrap();
        e.run("build_mesh", &[ArgVal::I(ncell)], ExecMode::Serial).unwrap();
        e.run("jacobian_recon", &[], mode).unwrap();
        e.global_array("mesh_mod::jac").unwrap().to_f64_vec()
    }

    #[test]
    fn original_matches_native_oracle_bitwise() {
        let jac = run(super::ORIGINAL_JACOBIAN_SRC, 300, ExecMode::Serial);
        let oracle = native_jacobian(&Mesh::build(300));
        assert_eq!(jac.len(), oracle.len());
        for (i, (a, b)) in jac.iter().zip(oracle.iter()).enumerate() {
            assert_eq!(a, b, "jac[{i}]");
        }
        assert!(jac.iter().any(|&v| v != 0.0), "nonzero contributions exist");
    }

    #[test]
    fn manual_serial_matches_original() {
        let a = run(super::ORIGINAL_JACOBIAN_SRC, 200, ExecMode::Serial);
        let b = run(super::MANUAL_JACOBIAN_SRC, 200, ExecMode::Serial);
        assert_eq!(a, b);
    }

    #[test]
    fn manual_parallel_matches_at_rms_tolerance() {
        // The §4.2.1 acceptance test: RMS of output arrays at 1e-7.
        let a = run(super::ORIGINAL_JACOBIAN_SRC, 200, ExecMode::Serial);
        let b = run(super::MANUAL_JACOBIAN_SRC, 200, ExecMode::Parallel { threads: 4 });
        let r = glaf::compare_slices(&a, &b);
        assert!(r.passes_rms(1e-7), "{r:?}");
    }

    #[test]
    fn angle_check_actually_skips_cells() {
        // With the synthetic normals, some cells must fail the angle test;
        // otherwise the early-exit path is dead code.
        let m = Mesh::build(500);
        let skipped = (0..m.ncell)
            .filter(|&c| (0..3).map(|d| m.fnorm[c][0][d] * m.fnorm[c][1][d]).sum::<f64>() < -0.2)
            .count();
        assert!(skipped > 0, "no cells skipped");
        assert!(skipped < m.ncell, "all cells skipped");
    }
}
