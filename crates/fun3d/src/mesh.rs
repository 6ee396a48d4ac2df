//! The synthetic unstructured mesh substrate.
//!
//! FUN3D itself is export-controlled; the paper's dataset ("approximately
//! one million cells and ten million edges ... provided by NASA") is not
//! available. Per the substitution rule (DESIGN.md §2) we generate a
//! synthetic unstructured tetrahedral mesh with the same *access
//! structure*: cells of 4 nodes / 4 faces / 6 edges, random (indirect!)
//! cell→node connectivity, per-node primitive states, per-face normals and
//! areas, and a bounded per-node neighbour table that gives `ioff_search`
//! something to search.
//!
//! The mesh is built *inside the engine* by `build_mesh` using a plain
//! LCG, so the original, the GLAF-generated, and the manual versions all
//! see bit-identical inputs, and the Rust oracle can mirror the generator
//! exactly.

// The index-based loops below intentionally mirror the FORTRAN sources
// statement-for-statement so bit-level comparison stays reviewable.
#![allow(clippy::needless_range_loop)]

/// States per node (density, 3 momenta, energy).
pub const NST: usize = 5;
/// Neighbour-table width (CSR row cap) — `ioff_search`'s search space.
pub const MAXNBR: usize = 8;
/// Jacobian row stride: MAXNBR * NST.
pub const JROW: usize = MAXNBR * NST;

/// The mesh module: dimensions, connectivity, fields, and the Jacobian
/// output array. Every kernel implementation reaches this data through
/// `USE mesh_mod` — the §3.1 "existing module" pathway.
pub const MESH_MOD_SRC: &str = r#"
MODULE mesh_mod
  IMPLICIT NONE
  INTEGER :: ncell
  INTEGER :: nnode
  INTEGER :: njac
  INTEGER :: lcg_state
  INTEGER, DIMENSION(1:6) :: ed1
  INTEGER, DIMENSION(1:6) :: ed2
  INTEGER, DIMENSION(:, :), ALLOCATABLE :: c2n
  REAL(8), DIMENSION(:, :), ALLOCATABLE :: qn
  REAL(8), DIMENSION(:, :, :), ALLOCATABLE :: fnorm
  REAL(8), DIMENSION(:, :), ALLOCATABLE :: farea
  INTEGER, DIMENSION(:, :), ALLOCATABLE :: nbr
  INTEGER, DIMENSION(:), ALLOCATABLE :: nnbr
  REAL(8), DIMENSION(:), ALLOCATABLE :: jac
CONTAINS

  REAL(8) FUNCTION lcg()
    lcg_state = MOD(lcg_state * 48271, 2147483647)
    lcg = lcg_state / 2147483647.0D0
  END FUNCTION lcg

  SUBROUTINE nbr_insert(na, nb)
    INTEGER :: na, nb
    INTEGER :: j
    DO j = 1, nnbr(na)
      IF (nbr(j, na) == nb) THEN
        RETURN
      END IF
    END DO
    IF (nnbr(na) < 8) THEN
      nnbr(na) = nnbr(na) + 1
      nbr(nnbr(na), na) = nb
    END IF
  END SUBROUTINE nbr_insert

  SUBROUTINE build_mesh(nc)
    INTEGER :: nc
    INTEGER :: c, n, m, f, d, e, n1, n2
    ncell = nc
    nnode = nc / 4 + 8
    njac = nnode * 40
    lcg_state = 20180813
    ed1(1) = 1
    ed2(1) = 2
    ed1(2) = 1
    ed2(2) = 3
    ed1(3) = 1
    ed2(3) = 4
    ed1(4) = 2
    ed2(4) = 3
    ed1(5) = 2
    ed2(5) = 4
    ed1(6) = 3
    ed2(6) = 4
    IF (.NOT. ALLOCATED(c2n)) ALLOCATE(c2n(1:4, 1:ncell))
    IF (.NOT. ALLOCATED(qn)) ALLOCATE(qn(1:5, 1:nnode))
    IF (.NOT. ALLOCATED(fnorm)) ALLOCATE(fnorm(1:3, 1:4, 1:ncell))
    IF (.NOT. ALLOCATED(farea)) ALLOCATE(farea(1:4, 1:ncell))
    IF (.NOT. ALLOCATED(nbr)) ALLOCATE(nbr(1:8, 1:nnode))
    IF (.NOT. ALLOCATED(nnbr)) ALLOCATE(nnbr(1:nnode))
    IF (.NOT. ALLOCATED(jac)) ALLOCATE(jac(1:njac))
    DO n = 1, nnode
      DO m = 1, 5
        qn(m, n) = 0.5D0 + lcg()
      END DO
    END DO
    DO c = 1, ncell
      DO n = 1, 4
        c2n(n, c) = INT(lcg() * nnode) + 1
      END DO
      DO f = 1, 4
        farea(f, c) = 0.5D0 + lcg()
        DO d = 1, 3
          fnorm(d, f, c) = lcg() - 0.5D0
        END DO
      END DO
    END DO
    DO n = 1, nnode
      nnbr(n) = 1
      nbr(1, n) = n
    END DO
    DO c = 1, ncell
      DO e = 1, 6
        n1 = c2n(ed1(e), c)
        n2 = c2n(ed2(e), c)
        CALL nbr_insert(n1, n2)
        CALL nbr_insert(n2, n1)
      END DO
    END DO
    DO n = 1, njac
      jac(n) = 0.0D0
    END DO
  END SUBROUTINE build_mesh

  SUBROUTINE zero_jac()
    INTEGER :: n
    DO n = 1, njac
      jac(n) = 0.0D0
    END DO
  END SUBROUTINE zero_jac
END MODULE mesh_mod
"#;

/// A Rust-side mirror of `build_mesh` for the native oracle and tests.
#[derive(Debug, Clone)]
pub struct Mesh {
    pub ncell: usize,
    pub nnode: usize,
    pub njac: usize,
    /// `c2n[c][k]`, 0-based node ids.
    pub c2n: Vec<[usize; 4]>,
    /// `qn[n][m]`.
    pub qn: Vec<[f64; NST]>,
    /// `fnorm[c][f][d]`.
    pub fnorm: Vec<[[f64; 3]; 4]>,
    /// `farea[c][f]`.
    pub farea: Vec<[f64; 4]>,
    /// `nbr[n]` (0-based ids), first entry is `n` itself.
    pub nbr: Vec<Vec<usize>>,
}

/// Local edge endpoints (0-based, matching `ed1`/`ed2`).
pub const EDGES: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

struct Lcg(i64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = (self.0 * 48271) % 2147483647;
        self.0 as f64 / 2147483647.0
    }
}

impl Mesh {
    /// Mirrors `build_mesh(nc)` exactly.
    pub fn build(nc: usize) -> Mesh {
        let ncell = nc;
        let nnode = nc / 4 + 8;
        let njac = nnode * JROW;
        let mut rng = Lcg(20180813);
        let mut qn = vec![[0.0; NST]; nnode];
        for q in qn.iter_mut() {
            for v in q.iter_mut() {
                *v = 0.5 + rng.next();
            }
        }
        let mut c2n = vec![[0usize; 4]; ncell];
        let mut fnorm = vec![[[0.0; 3]; 4]; ncell];
        let mut farea = vec![[0.0; 4]; ncell];
        for c in 0..ncell {
            for k in 0..4 {
                c2n[c][k] = (rng.next() * nnode as f64) as usize; // 0-based
            }
            for f in 0..4 {
                farea[c][f] = 0.5 + rng.next();
                for d in 0..3 {
                    fnorm[c][f][d] = rng.next() - 0.5;
                }
            }
        }
        let mut nbr: Vec<Vec<usize>> = (0..nnode).map(|n| vec![n]).collect();
        let insert = |nbr: &mut Vec<Vec<usize>>, a: usize, b: usize| {
            if nbr[a].contains(&b) {
                return;
            }
            if nbr[a].len() < MAXNBR {
                nbr[a].push(b);
            }
        };
        for c in 0..ncell {
            for &(ea, eb) in EDGES.iter() {
                let n1 = c2n[c][ea];
                let n2 = c2n[c][eb];
                insert(&mut nbr, n1, n2);
                insert(&mut nbr, n2, n1);
            }
        }
        Mesh { ncell, nnode, njac, c2n, qn, fnorm, farea, nbr }
    }

    /// `ioff_search` mirror: index (0-based) of `target` in `nbr[n]`, or 0.
    pub fn ioff(&self, n: usize, target: usize) -> usize {
        self.nbr[n].iter().position(|&x| x == target).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrans::{ArgVal, ExecMode, Session, Val};

    #[test]
    fn engine_and_rust_generators_agree() {
        let e = Session::compile(&[MESH_MOD_SRC]).unwrap();
        e.run("build_mesh", &[ArgVal::I(200)], ExecMode::Serial).unwrap();
        let m = Mesh::build(200);

        assert_eq!(e.global_scalar("mesh_mod::ncell"), Some(Val::I(200)));
        assert_eq!(e.global_scalar("mesh_mod::nnode"), Some(Val::I(m.nnode as i64)));
        assert_eq!(e.global_scalar("mesh_mod::njac"), Some(Val::I(m.njac as i64)));

        // qn matches elementwise (column-major: qn(m, n)).
        let qn = e.global_array("mesh_mod::qn").unwrap();
        for n in 0..m.nnode {
            for st in 0..NST {
                let got = qn.get_f(n * NST + st);
                assert_eq!(got, m.qn[n][st], "qn({},{})", st + 1, n + 1);
            }
        }

        // Connectivity matches (Fortran 1-based).
        let c2n = e.global_array("mesh_mod::c2n").unwrap();
        for c in 0..m.ncell {
            for k in 0..4 {
                assert_eq!(c2n.get_i(c * 4 + k), m.c2n[c][k] as i64 + 1);
            }
        }

        // Neighbour tables match.
        let nbr = e.global_array("mesh_mod::nbr").unwrap();
        let nnbr = e.global_array("mesh_mod::nnbr").unwrap();
        for n in 0..m.nnode {
            assert_eq!(nnbr.get_i(n) as usize, m.nbr[n].len(), "node {n}");
            for (j, &b) in m.nbr[n].iter().enumerate() {
                assert_eq!(nbr.get_i(n * MAXNBR + j), b as i64 + 1);
            }
        }
    }

    #[test]
    fn mesh_invariants() {
        let m = Mesh::build(500);
        assert_eq!(m.nnode, 500 / 4 + 8);
        for c in 0..m.ncell {
            for k in 0..4 {
                assert!(m.c2n[c][k] < m.nnode);
            }
            for f in 0..4 {
                assert!(m.farea[c][f] >= 0.5 && m.farea[c][f] < 1.5);
            }
        }
        for (n, list) in m.nbr.iter().enumerate() {
            assert!(!list.is_empty() && list.len() <= MAXNBR);
            assert_eq!(list[0], n, "own id first");
            let mut sorted = list.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "no duplicates in nbr[{n}]");
        }
    }

    #[test]
    fn rebuild_is_idempotent_on_shapes() {
        let e = Session::compile(&[MESH_MOD_SRC]).unwrap();
        e.run("build_mesh", &[ArgVal::I(100)], ExecMode::Serial).unwrap();
        // Second build with the same size reuses the allocation guards.
        e.run("build_mesh", &[ArgVal::I(100)], ExecMode::Serial).unwrap();
        assert_eq!(e.global_scalar("mesh_mod::ncell"), Some(Val::I(100)));
    }
}
