//! Output checks. Every expected value is computed in set-up from the
//! *original* source on the tree-walking interpreter (or, for generated
//! F77, the interpreter's run of the same program) — never from the rung
//! under test.

use fortrans::{ArgVal, ExecMode, ExecTier, Session, Val};
use sarb::variants::{SarbOutputs, SarbVariant};

/// `Err` naming the first element whose bit pattern differs.
pub fn bits_equal(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} elements, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(i) => Err(format!(
            "{what}[{i}]: got {:e}, expected {:e}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

/// The paper's §4.2.1 criterion for runs that reorder reductions: RMS of
/// the difference at most `1e-7` (absolute).
pub fn rms_within(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} elements, expected {}",
            got.len(),
            want.len()
        ));
    }
    let r = glaf::compare_slices(got, want);
    if r.passes_rms(1e-7) {
        Ok(())
    } else {
        Err(format!(
            "{what}: rms diff {:e} > 1e-7, worst at [{}]: got {:e}, expected {:e}",
            r.rms_diff, r.worst_index, got[r.worst_index], want[r.worst_index]
        ))
    }
}

/// SARB outputs of the original serial source on the tree-walk oracle.
pub fn sarb_reference(ncol: i64) -> SarbOutputs {
    let oracle = Session::solo(sarb::variants::build_artifact(SarbVariant::OriginalSerial));
    oracle
        .run_tiered(
            "run_columns",
            &[ArgVal::I(ncol)],
            ExecMode::Serial,
            ExecTier::TreeWalk,
        )
        .expect("original SARB source runs on the oracle");
    SarbOutputs::read(&oracle)
}

/// `mesh_mod::jac` of the original serial FUN3D source on the oracle.
pub fn fun3d_reference(ncell: i64) -> Vec<f64> {
    let artifact = fun3d::variants::build_artifact(fun3d::variants::Fun3dVariant::OriginalSerial);
    let oracle = Session::solo(artifact);
    for (unit, args) in [
        ("build_mesh", vec![ArgVal::I(ncell)]),
        ("jacobian_recon", vec![]),
    ] {
        oracle
            .run_tiered(unit, &args, ExecMode::Serial, ExecTier::TreeWalk)
            .expect("original FUN3D source runs on the oracle");
    }
    read_jac(&oracle)
}

pub fn read_jac(session: &Session) -> Vec<f64> {
    session
        .global_array("mesh_mod::jac")
        .map(|a| a.to_f64_vec())
        .unwrap_or_default()
}

/// Everything observable about one run of a generated F77 program:
/// result, PRINT text, and the bit pattern of every COMMON global.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    result: Result<Option<(char, u64)>, String>,
    printed: String,
    globals: Vec<(String, Vec<u64>)>,
}

fn val_bits(v: Val) -> (char, u64) {
    match v {
        Val::F(f) => ('f', f.to_bits()),
        Val::I(i) => ('i', i as u64),
        Val::B(b) => ('b', u64::from(b)),
    }
}

impl Snapshot {
    /// Runs `main` on `tier` and captures the observable state.
    pub fn run_main(session: &Session, tier: ExecTier) -> Snapshot {
        let run = session.run_tiered("main", &[], ExecMode::Serial, tier);
        Snapshot::capture(
            session,
            run.map(|out| (out.result, out.printed))
                .map_err(|e| e.to_string()),
        )
    }

    pub fn capture(session: &Session, run: Result<(Option<Val>, String), String>) -> Snapshot {
        let (result, printed) = match run {
            Ok((result, printed)) => (Ok(result.map(val_bits)), printed),
            Err(e) => (Err(e), String::new()),
        };
        let mut names = session.global_names();
        names.sort();
        let globals = names
            .into_iter()
            .map(|name| {
                let bits = if let Some(v) = session.global_scalar(&name) {
                    vec![val_bits(v).1]
                } else if let Some(h) = session.global_array(&name) {
                    (0..h.len()).map(|k| h.get_bits(k)).collect()
                } else {
                    Vec::new()
                };
                (name, bits)
            })
            .collect();
        Snapshot {
            result,
            printed,
            globals,
        }
    }

    /// `Err` naming the first observable that differs from `want`.
    pub fn matches(&self, want: &Snapshot) -> Result<(), String> {
        if self.result != want.result {
            return Err(format!(
                "result: got {:?}, expected {:?}",
                self.result, want.result
            ));
        }
        if self.printed != want.printed {
            return Err(format!(
                "PRINT text: got {:?}, expected {:?}",
                self.printed, want.printed
            ));
        }
        for ((name, got), (_, exp)) in self.globals.iter().zip(&want.globals) {
            if let Some(i) = got.iter().zip(exp).position(|(g, w)| g != w) {
                return Err(format!(
                    "{name}[{i}]: got bits {:#x}, expected {:#x}",
                    got[i], exp[i]
                ));
            }
        }
        if self.globals != want.globals {
            return Err("COMMON globals differ in name or shape".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_compare_names_the_first_difference() {
        assert!(bits_equal("x", &[1.0, 2.0], &[1.0, 2.0]).is_ok());
        let err = bits_equal("x", &[1.0, 2.0, 3.0], &[1.0, 2.5, 3.5]).unwrap_err();
        assert!(err.starts_with("x[1]:"), "{err}");
        // 0.0 and -0.0 compare equal as floats but are different outputs.
        assert!(bits_equal("z", &[0.0], &[-0.0]).is_err());
        assert!(bits_equal("n", &[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn rms_check_tolerates_reordering_noise_only() {
        assert!(rms_within("j", &[1.0, 2.0 + 1e-12], &[1.0, 2.0]).is_ok());
        let err = rms_within("j", &[1.0, 2.1], &[1.0, 2.0]).unwrap_err();
        assert!(err.contains("worst at [1]"), "{err}");
    }
}
