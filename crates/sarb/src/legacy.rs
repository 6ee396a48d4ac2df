//! The *legacy* FORTRAN that both the original and the GLAF-generated
//! kernels integrate with — used "as is", exactly as §4.1.1 prescribes:
//! "The imported FORTRAN modules, from which the auto-generated code uses
//! existing variables and custom data types, are used as is."
//!
//! `fuliou_mod` stands in for the restricted CERES fuliou library's module
//! layer: the Fu-Liou input/output derived TYPEs (`fuinput_t`,
//! `fuoutput_t`), their instances `fi` / `fo`, the model dimensions, and
//! the synthetic atmospheric-profile generator `set_column` (the real
//! inputs come from restricted MATCH/CERES data; see DESIGN.md §2).
//! The `radparams` COMMON block carries the solar geometry and surface
//! parameters, exercising the paper's §3.2 pathway.

/// Dimensions shared by every implementation.
pub const NV: usize = 60;
pub const NVP: usize = 61;
pub const NBLW: usize = 12;
pub const NBSW: usize = 6;
/// Stefan-Boltzmann (W m^-2 K^-4).
pub const SIGMA: f64 = 5.67e-8;

/// The shared legacy module source.
pub const FULIOU_MOD_SRC: &str = r#"
MODULE fuliou_mod
  IMPLICIT NONE
  INTEGER, PARAMETER :: nv = 60
  INTEGER, PARAMETER :: nvp = 61
  INTEGER, PARAMETER :: nblw = 12
  INTEGER, PARAMETER :: nbsw = 6
  REAL(8), PARAMETER :: sigma_sb = 5.67D-8

  TYPE fuinput_t
    REAL(8), DIMENSION(1:60) :: pt
    REAL(8), DIMENSION(1:60) :: ph
    REAL(8), DIMENSION(1:60) :: po
    REAL(8), DIMENSION(1:61) :: pp
    REAL(8), DIMENSION(1:12, 1:60) :: tau_lw
    REAL(8), DIMENSION(1:6, 1:60) :: tau_sw
  END TYPE fuinput_t

  TYPE fuoutput_t
    REAL(8), DIMENSION(1:61) :: fdl
    REAL(8), DIMENSION(1:61) :: ful
    REAL(8), DIMENSION(1:61) :: fds
    REAL(8), DIMENSION(1:61) :: fus
    REAL(8), DIMENSION(1:2, 1:60) :: entl
    REAL(8), DIMENSION(1:60) :: ents
    REAL(8) :: sent
    REAL(8) :: toa_net
  END TYPE fuoutput_t

  TYPE(fuinput_t) :: fi
  TYPE(fuoutput_t) :: fo
CONTAINS

  ! Surface / solar parameters for column c (COMMON block /radparams/).
  SUBROUTINE set_params(c)
    INTEGER :: c
    REAL(8) :: u0, ee, tsfc
    COMMON /radparams/ u0, ee, tsfc
    u0 = 0.3D0 + 0.2D0 * (1.0D0 + SIN(0.5D0 * c))
    ee = 0.98D0
    tsfc = 288.0D0 + 3.0D0 * SIN(0.8D0 * c)
  END SUBROUTINE set_params

  ! Synthetic atmospheric profile for column c (deterministic stand-in
  ! for the restricted CERES/MATCH inputs).
  SUBROUTINE set_column(c)
    INTEGER :: c
    INTEGER :: i, ib
    DO i = 1, nv
      fi%pt(i) = 215.0D0 + 75.0D0 * i / 60.0D0 + 4.0D0 * SIN(0.61D0 * i + 0.37D0 * c)
      fi%ph(i) = 0.30D0 + 0.25D0 * SIN(0.23D0 * i + 0.11D0 * c) + 0.25D0
      fi%po(i) = 0.05D0 + 0.01D0 * COS(0.40D0 * i + 0.20D0 * c)
    END DO
    DO i = 1, nvp
      fi%pp(i) = 1013.0D0 * EXP(-(61.0D0 - i) / 18.0D0)
    END DO
    DO ib = 1, nblw
      DO i = 1, nv
        fi%tau_lw(ib, i) = (0.02D0 + 0.015D0 * ib) * (1.0D0 + fi%ph(i)) * (fi%pp(i + 1) - fi%pp(i)) / 40.0D0
      END DO
    END DO
    DO ib = 1, nbsw
      DO i = 1, nv
        fi%tau_sw(ib, i) = (0.01D0 + 0.02D0 * ib) * (1.0D0 + 0.5D0 * fi%po(i)) * (fi%pp(i + 1) - fi%pp(i)) / 50.0D0
      END DO
    END DO
  END SUBROUTINE set_column
END MODULE fuliou_mod
"#;

/// The Synoptic SARB driver: iterates columns of a zone, invoking the six
/// kernels per column — the §4.1.1 "wrapper function that calls the GLAF
/// auto-generated subroutines and provides sample values for the required
/// inputs". The same text is compiled against either kernel module.
pub const DRIVER_SRC: &str = r#"
MODULE sarb_driver
  USE fuliou_mod
  IMPLICIT NONE
  REAL(8) :: total_sent
CONTAINS
  SUBROUTINE run_columns(ncol)
    INTEGER :: ncol
    INTEGER :: c
    total_sent = 0.0D0
    DO c = 1, ncol
      CALL set_params(c)
      CALL set_column(c)
      CALL lw_spectral_integration()
      CALL sw_spectral_integration()
      CALL entropy_interface()
      CALL adjust2()
      total_sent = total_sent + fo%sent
    END DO
  END SUBROUTINE run_columns
END MODULE sarb_driver
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use fortrans::{ArgVal, ExecMode, Session};

    #[test]
    fn legacy_module_compiles_and_fills_profiles() {
        let probe = r#"
MODULE probe
  USE fuliou_mod
CONTAINS
  SUBROUTINE fill(c)
    INTEGER :: c
    CALL set_params(c)
    CALL set_column(c)
  END SUBROUTINE fill
END MODULE probe
"#;
        let e = Session::compile(&[FULIOU_MOD_SRC, probe]).unwrap();
        e.run("fill", &[ArgVal::I(3)], ExecMode::Serial).unwrap();
        let pt = e.global_array("fuliou_mod::fi%pt").unwrap();
        // Temperature profile in a physical range.
        for i in 0..NV {
            let t = pt.get_f(i);
            assert!((180.0..320.0).contains(&t), "pt({i}) = {t}");
        }
        let pp = e.global_array("fuliou_mod::fi%pp").unwrap();
        // Pressure increases toward the surface (index 61).
        assert!(pp.get_f(60) > pp.get_f(0));
        let tau = e.global_array("fuliou_mod::fi%tau_lw").unwrap();
        assert!(tau.to_f64_vec().iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn params_in_common_block() {
        let probe = r#"
MODULE probe
  USE fuliou_mod
CONTAINS
  REAL(8) FUNCTION read_u0(c)
    INTEGER :: c
    REAL(8) :: u0, ee, tsfc
    COMMON /radparams/ u0, ee, tsfc
    CALL set_params(c)
    read_u0 = u0
  END FUNCTION read_u0
END MODULE probe
"#;
        let e = Session::compile(&[FULIOU_MOD_SRC, probe]).unwrap();
        let out = e.run("read_u0", &[ArgVal::I(1)], ExecMode::Serial).unwrap();
        let fortrans::Val::F(u0) = out.result.unwrap() else { panic!() };
        assert!((0.1..=0.8).contains(&u0), "u0 = {u0}");
    }
}
