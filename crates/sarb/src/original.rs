//! The **original serial** Synoptic SARB kernels — the baseline every
//! implementation in Fig. 5/6 is measured against.
//!
//! Six subroutines (paper Table 1) in one monolithic module, written the
//! way legacy Fu-Liou code is written: nested loops inline, locals on the
//! stack, data reached through the `fuliou_mod` TYPE instances and the
//! `radparams` COMMON block. No OpenMP anywhere.
//!
//! The physics is a synthetic stand-in with the same computational
//! structure as the restricted CERES code (DESIGN.md §2): spectral band
//! loops over a 60-level column, Planck-style emission with
//! transcendentals, entropy integrands `(1+u)·ln(1+u) − u·ln(u)` over two
//! streams × 60 levels (the paper's `2 × 60 = 120`-iteration COLLAPSE(2)
//! loops), cumulative-optical-depth recurrences in the shortwave, and
//! flux adjustment passes.

/// The original kernels, exactly as a scientist would have written them.
pub const ORIGINAL_KERNELS_SRC: &str = r#"
MODULE sarb_kernels
  USE fuliou_mod
  IMPLICIT NONE
CONTAINS

  SUBROUTINE lw_spectral_integration()
    REAL(8) :: u0, ee, tsfc
    COMMON /radparams/ u0, ee, tsfc
    REAL(8), DIMENSION(1:60) :: bf
    REAL(8), DIMENSION(1:60) :: trn
    INTEGER :: i, ib
    DO i = 1, nvp
      fo%fdl(i) = 0.0D0
    END DO
    DO i = 1, nvp
      fo%ful(i) = 0.0D0
    END DO
    DO ib = 1, nblw
      DO i = 1, nv
        bf(i) = (1.0D0 / (1.0D0 + 0.1D0 * ib)) * sigma_sb * fi%pt(i)**4 * EXP(-1.4388D0 * (100.0D0 + 50.0D0 * ib) / fi%pt(i))
      END DO
      DO i = 1, nv
        trn(i) = EXP(-fi%tau_lw(ib, i))
      END DO
      DO i = 1, nv
        fo%fdl(i + 1) = fo%fdl(i + 1) + bf(i) * (1.0D0 - trn(i))
      END DO
      DO i = 1, nv
        fo%ful(i) = fo%ful(i) + ee * bf(i) * trn(i) + (1.0D0 - ee) * 0.3D0 * bf(i)
      END DO
    END DO
    fo%ful(nvp) = fo%ful(nvp) + ee * sigma_sb * tsfc**4
    DO i = 1, nvp
      fo%fdl(i) = fo%fdl(i) / 12.0D0
    END DO
    DO i = 1, nvp
      fo%ful(i) = fo%ful(i) / 12.0D0
    END DO
  END SUBROUTINE lw_spectral_integration

  SUBROUTINE longwave_entropy_model()
    REAL(8), DIMENSION(1:2, 1:60) :: lwork
    REAL(8) :: fql, tl, accb, wb, ub, vsm, tot
    INTEGER :: is, i, ib
    DO is = 1, 2
      DO i = 1, nv
        fo%entl(is, i) = 0.0D0
      END DO
    END DO
    ! Spectral entropy integration: two streams x 60 levels, 12 bands
    ! each, with the Planck entropy integrand. This is the first of the
    ! two loops whose OpenMP directives survive to GLAF-parallel v3.
    DO is = 1, 2
      DO i = 1, nv
        fql = fo%fdl(i + 1) * (2 - is) + fo%ful(i) * (is - 1)
        tl = fi%pt(i)
        accb = 0.0D0
        DO ib = 1, nblw
          wb = 100.0D0 + 50.0D0 * ib
          ub = MAX(fql * (1.0D0 / (1.0D0 + 0.1D0 * ib)) / (sigma_sb * tl**4), 1.0D-12)
          accb = accb + wb * ((1.0D0 + ub) * ALOG(1.0D0 + ub) - ub * ALOG(ub))
        END DO
        fo%entl(is, i) = accb * (4.0D0 / 3.0D0) / tl
      END DO
    END DO
    DO is = 1, 2
      DO i = 1, nv
        lwork(is, i) = fo%entl(is, i)
      END DO
    END DO
    ! Vertical smoothing with a humidity correction — the second
    ! directive-keeping loop.
    DO is = 1, 2
      DO i = 1, nv
        vsm = 0.5D0 * lwork(is, i) + 0.25D0 * lwork(is, MAX(i - 1, 1)) + 0.25D0 * lwork(is, MIN(i + 1, 60))
        IF (fi%ph(i) > 0.55D0) THEN
          vsm = vsm * (1.0D0 + 0.05D0 * fi%ph(i))
        END IF
        fo%entl(is, i) = vsm
      END DO
    END DO
    tot = 0.0D0
    DO i = 1, nv
      tot = tot + (fo%entl(1, i) + fo%entl(2, i))
    END DO
    fo%sent = fo%sent + tot / 120.0D0
  END SUBROUTINE longwave_entropy_model

  SUBROUTINE sw_spectral_integration()
    REAL(8) :: u0, ee, tsfc
    COMMON /radparams/ u0, ee, tsfc
    REAL(8) :: s0w, taucum
    INTEGER :: i, k
    DO i = 1, nvp
      fo%fds(i) = 0.0D0
    END DO
    DO i = 1, nvp
      fo%fus(i) = 0.0D0
    END DO
    DO k = 1, nbsw
      s0w = 1360.0D0 / (2.0D0**k) * 0.7D0
      taucum = 0.0D0
      DO i = 1, nv
        taucum = taucum + fi%tau_sw(k, i)
        fo%fds(i + 1) = fo%fds(i + 1) + s0w * u0 * EXP(-taucum / MAX(u0, 0.01D0))
      END DO
    END DO
    DO i = 1, nvp
      fo%fus(i) = 0.15D0 * fo%fds(i)
    END DO
    fo%fus(nvp) = fo%fus(nvp) + 0.05D0 * fo%fds(nvp)
  END SUBROUTINE sw_spectral_integration

  SUBROUTINE shortwave_entropy_model()
    INTEGER :: i
    DO i = 1, nv
      fo%ents(i) = (4.0D0 / 3.0D0) * (fo%fds(i + 1) - fo%fus(i + 1)) / MAX(fi%pt(i), 150.0D0)
    END DO
  END SUBROUTINE shortwave_entropy_model

  SUBROUTINE entropy_interface()
    REAL(8) :: tot2
    INTEGER :: i
    fo%sent = 0.0D0
    DO i = 1, nv
      fo%ents(i) = 0.0D0
    END DO
    CALL longwave_entropy_model()
    CALL shortwave_entropy_model()
    tot2 = 0.0D0
    DO i = 1, nv
      tot2 = tot2 + fo%ents(i)
    END DO
    fo%sent = fo%sent + tot2 / 60.0D0
    fo%sent = fo%sent * 1000.0D0
  END SUBROUTINE entropy_interface

  SUBROUTINE adjust2()
    REAL(8) :: fac
    INTEGER :: i
    fo%toa_net = fo%fds(1) - fo%fus(1) + fo%fdl(1) - fo%ful(1)
    fac = 1.0D0 + 0.05D0 * fo%toa_net / (ABS(fo%toa_net) + 100.0D0)
    DO i = 1, nvp
      fo%fdl(i) = MAX(fo%fdl(i) * fac, 0.0D0)
    END DO
    DO i = 1, nvp
      fo%ful(i) = MAX(fo%ful(i) * fac, 0.0D0)
    END DO
    DO i = 1, nvp
      fo%fds(i) = MAX(fo%fds(i) * fac, 0.0D0)
    END DO
    DO i = 1, nvp
      fo%fus(i) = MAX(fo%fus(i) * fac, 0.0D0)
    END DO
  END SUBROUTINE adjust2
END MODULE sarb_kernels
"#;

#[cfg(test)]
mod tests {
    use crate::legacy::{DRIVER_SRC, FULIOU_MOD_SRC};
    use fortrans::{ArgVal, ExecMode, Session, Val};

    fn original_engine() -> Session {
        Session::compile(&[FULIOU_MOD_SRC, super::ORIGINAL_KERNELS_SRC, DRIVER_SRC])
            .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn original_pipeline_runs_and_produces_physical_fluxes() {
        let e = original_engine();
        e.run("run_columns", &[ArgVal::I(2)], ExecMode::Serial).unwrap();
        let fdl = e.global_array("fuliou_mod::fo%fdl").unwrap().to_f64_vec();
        let ful = e.global_array("fuliou_mod::fo%ful").unwrap().to_f64_vec();
        // Downward LW flux grows toward the surface; all fluxes finite and
        // non-negative after adjust2.
        assert!(fdl.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(ful.iter().all(|v| v.is_finite() && *v >= 0.0));
        assert!(fdl[60] > fdl[5], "downwelling accumulates: {} vs {}", fdl[60], fdl[5]);
        // Surface upward flux includes the emission term: significant.
        assert!(ful[60] > 10.0, "surface ful = {}", ful[60]);
    }

    #[test]
    fn entropy_outputs_populated() {
        let e = original_engine();
        e.run("run_columns", &[ArgVal::I(1)], ExecMode::Serial).unwrap();
        let entl = e.global_array("fuliou_mod::fo%entl").unwrap().to_f64_vec();
        assert_eq!(entl.len(), 120);
        assert!(entl.iter().any(|v| *v > 0.0));
        let Some(Val::F(sent)) = e.global_scalar("fuliou_mod::fo%sent") else { panic!() };
        assert!(sent.is_finite() && sent != 0.0);
        let Some(Val::F(total)) = e.global_scalar("sarb_driver::total_sent") else { panic!() };
        assert_eq!(total, sent, "one column: total equals last sent");
    }

    #[test]
    fn deterministic_across_runs() {
        let e1 = original_engine();
        e1.run("run_columns", &[ArgVal::I(3)], ExecMode::Serial).unwrap();
        let a = e1.global_array("fuliou_mod::fo%fdl").unwrap().to_f64_vec();
        let e2 = original_engine();
        e2.run("run_columns", &[ArgVal::I(3)], ExecMode::Serial).unwrap();
        let b = e2.global_array("fuliou_mod::fo%fdl").unwrap().to_f64_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn per_column_variation() {
        let e = original_engine();
        e.run("run_columns", &[ArgVal::I(1)], ExecMode::Serial).unwrap();
        let s1 = e.global_scalar("fuliou_mod::fo%sent");
        let e2 = original_engine();
        e2.run("run_columns", &[ArgVal::I(2)], ExecMode::Serial).unwrap();
        let s2 = e2.global_scalar("fuliou_mod::fo%sent");
        assert_ne!(s1, s2, "columns differ, so final column state differs");
    }
}
