//! A native Rust oracle for the SARB kernels: an implementation of the
//! same mathematics written directly against the spec in `original.rs`,
//! providing a trusted result *independent of the FORTRAN engine*. A
//! fork-join column sweep on `omprt` (in the tests) shows the direct way
//! to parallelize the workload: columns are independent given their index.

// The index-based loops below intentionally mirror the FORTRAN sources
// statement-for-statement so bit-level comparison stays reviewable.
#![allow(clippy::needless_range_loop)]

use crate::legacy::{NBLW, NBSW, NV, NVP, SIGMA};

/// Per-column inputs (mirrors `set_params` + `set_column`).
#[derive(Debug, Clone)]
pub struct ColumnInput {
    pub u0: f64,
    pub ee: f64,
    pub tsfc: f64,
    pub pt: [f64; NV],
    pub ph: [f64; NV],
    pub po: [f64; NV],
    pub pp: [f64; NVP],
    /// `tau_lw[ib][i]`.
    pub tau_lw: Vec<[f64; NV]>,
    pub tau_sw: Vec<[f64; NV]>,
}

impl ColumnInput {
    /// Mirrors the legacy generators for column `c` (1-based, as in the
    /// FORTRAN driver).
    pub fn column(c: i64) -> ColumnInput {
        let cf = c as f64;
        let mut pt = [0.0; NV];
        let mut ph = [0.0; NV];
        let mut po = [0.0; NV];
        for i in 1..=NV {
            let fi = i as f64;
            pt[i - 1] = 215.0 + 75.0 * fi / 60.0 + 4.0 * (0.61 * fi + 0.37 * cf).sin();
            ph[i - 1] = 0.30 + 0.25 * (0.23 * fi + 0.11 * cf).sin() + 0.25;
            po[i - 1] = 0.05 + 0.01 * (0.40 * fi + 0.20 * cf).cos();
        }
        let mut pp = [0.0; NVP];
        for i in 1..=NVP {
            pp[i - 1] = 1013.0 * (-(61.0 - i as f64) / 18.0).exp();
        }
        let mut tau_lw = vec![[0.0; NV]; NBLW];
        for (ib, row) in tau_lw.iter_mut().enumerate() {
            let b = (ib + 1) as f64;
            for i in 1..=NV {
                row[i - 1] =
                    (0.02 + 0.015 * b) * (1.0 + ph[i - 1]) * (pp[i] - pp[i - 1]) / 40.0;
            }
        }
        let mut tau_sw = vec![[0.0; NV]; NBSW];
        for (k, row) in tau_sw.iter_mut().enumerate() {
            let b = (k + 1) as f64;
            for i in 1..=NV {
                row[i - 1] =
                    (0.01 + 0.02 * b) * (1.0 + 0.5 * po[i - 1]) * (pp[i] - pp[i - 1]) / 50.0;
            }
        }
        ColumnInput {
            u0: 0.3 + 0.2 * (1.0 + (0.5 * cf).sin()),
            ee: 0.98,
            tsfc: 288.0 + 3.0 * (0.8 * cf).sin(),
            pt,
            ph,
            po,
            pp,
            tau_lw,
            tau_sw,
        }
    }
}

/// Per-column outputs (mirrors the `fuoutput_t` fields).
#[derive(Debug, Clone, Default)]
pub struct ColumnOutput {
    pub fdl: Vec<f64>,
    pub ful: Vec<f64>,
    pub fds: Vec<f64>,
    pub fus: Vec<f64>,
    /// Column-major `(is, i)` flattening, matching the engine snapshot.
    pub entl: Vec<f64>,
    pub ents: Vec<f64>,
    pub sent: f64,
    pub toa_net: f64,
}

/// Runs the full six-kernel pipeline on one column.
pub fn run_column(input: &ColumnInput) -> ColumnOutput {
    let mut o = ColumnOutput {
        fdl: vec![0.0; NVP],
        ful: vec![0.0; NVP],
        fds: vec![0.0; NVP],
        fus: vec![0.0; NVP],
        entl: vec![0.0; 2 * NV],
        ents: vec![0.0; NV],
        sent: 0.0,
        toa_net: 0.0,
    };
    lw_spectral_integration(input, &mut o);
    sw_spectral_integration(input, &mut o);
    entropy_interface(input, &mut o);
    adjust2(&mut o);
    o
}

fn lw_spectral_integration(inp: &ColumnInput, o: &mut ColumnOutput) {
    o.fdl.iter_mut().for_each(|v| *v = 0.0);
    o.ful.iter_mut().for_each(|v| *v = 0.0);
    let mut bf = [0.0f64; NV];
    let mut trn = [0.0f64; NV];
    for ib in 1..=NBLW {
        let b = ib as f64;
        for i in 0..NV {
            bf[i] = (1.0 / (1.0 + 0.1 * b))
                * SIGMA
                * inp.pt[i].powi(4)
                * (-1.4388 * (100.0 + 50.0 * b) / inp.pt[i]).exp();
        }
        for i in 0..NV {
            trn[i] = (-inp.tau_lw[ib - 1][i]).exp();
        }
        for i in 0..NV {
            o.fdl[i + 1] += bf[i] * (1.0 - trn[i]);
        }
        for i in 0..NV {
            // Left-associated like the FORTRAN `a + b + c` for bit parity.
            o.ful[i] = (o.ful[i] + inp.ee * bf[i] * trn[i]) + (1.0 - inp.ee) * 0.3 * bf[i];
        }
    }
    o.ful[NVP - 1] += inp.ee * SIGMA * inp.tsfc.powi(4);
    for v in o.fdl.iter_mut() {
        *v /= 12.0;
    }
    for v in o.ful.iter_mut() {
        *v /= 12.0;
    }
}

fn longwave_entropy_model(inp: &ColumnInput, o: &mut ColumnOutput) {
    // entl is flattened column-major over (is, i): index = (is-1) + 2*(i-1).
    let at = |is: usize, i: usize| (is - 1) + 2 * (i - 1);
    o.entl.iter_mut().for_each(|v| *v = 0.0);
    for is in 1..=2usize {
        for i in 1..=NV {
            let fql =
                o.fdl[i] * (2 - is as i64) as f64 + o.ful[i - 1] * (is as i64 - 1) as f64;
            let tl = inp.pt[i - 1];
            let mut accb = 0.0;
            for ib in 1..=NBLW {
                let b = ib as f64;
                let wb = 100.0 + 50.0 * b;
                let ub = (fql * (1.0 / (1.0 + 0.1 * b)) / (SIGMA * tl.powi(4))).max(1.0e-12);
                accb += wb * ((1.0 + ub) * (1.0 + ub).ln() - ub * ub.ln());
            }
            o.entl[at(is, i)] = accb * (4.0 / 3.0) / tl;
        }
    }
    let lwork = o.entl.clone();
    for is in 1..=2usize {
        for i in 1..=NV {
            let lo = i.saturating_sub(1).max(1);
            let hi = (i + 1).min(NV);
            let mut vsm = 0.5 * lwork[at(is, i)]
                + 0.25 * lwork[at(is, lo)]
                + 0.25 * lwork[at(is, hi)];
            if inp.ph[i - 1] > 0.55 {
                vsm *= 1.0 + 0.05 * inp.ph[i - 1];
            }
            o.entl[at(is, i)] = vsm;
        }
    }
    let mut tot = 0.0;
    for i in 1..=NV {
        tot += o.entl[at(1, i)] + o.entl[at(2, i)];
    }
    o.sent += tot / 120.0;
}

fn sw_spectral_integration(inp: &ColumnInput, o: &mut ColumnOutput) {
    o.fds.iter_mut().for_each(|v| *v = 0.0);
    o.fus.iter_mut().for_each(|v| *v = 0.0);
    for k in 1..=NBSW {
        let s0w = 1360.0 / 2.0f64.powi(k as i32) * 0.7;
        let mut taucum = 0.0;
        for i in 0..NV {
            taucum += inp.tau_sw[k - 1][i];
            o.fds[i + 1] += s0w * inp.u0 * (-taucum / inp.u0.max(0.01)).exp();
        }
    }
    for i in 0..NVP {
        o.fus[i] = 0.15 * o.fds[i];
    }
    o.fus[NVP - 1] += 0.05 * o.fds[NVP - 1];
}

fn shortwave_entropy_model(inp: &ColumnInput, o: &mut ColumnOutput) {
    for i in 0..NV {
        o.ents[i] = (4.0 / 3.0) * (o.fds[i + 1] - o.fus[i + 1]) / inp.pt[i].max(150.0);
    }
}

fn entropy_interface(inp: &ColumnInput, o: &mut ColumnOutput) {
    o.sent = 0.0;
    o.ents.iter_mut().for_each(|v| *v = 0.0);
    longwave_entropy_model(inp, o);
    shortwave_entropy_model(inp, o);
    let mut tot2 = 0.0;
    for i in 0..NV {
        tot2 += o.ents[i];
    }
    o.sent += tot2 / 60.0;
    o.sent *= 1000.0;
}

fn adjust2(o: &mut ColumnOutput) {
    o.toa_net = o.fds[0] - o.fus[0] + o.fdl[0] - o.ful[0];
    let fac = 1.0 + 0.05 * o.toa_net / (o.toa_net.abs() + 100.0);
    for v in o.fdl.iter_mut() {
        *v = (*v * fac).max(0.0);
    }
    for v in o.ful.iter_mut() {
        *v = (*v * fac).max(0.0);
    }
    for v in o.fds.iter_mut() {
        *v = (*v * fac).max(0.0);
    }
    for v in o.fus.iter_mut() {
        *v = (*v * fac).max(0.0);
    }
}

/// Serial driver: last column's outputs plus the accumulated entropy,
/// matching `run_columns`.
pub fn run_columns_native(ncol: i64) -> (ColumnOutput, f64) {
    let mut total = 0.0;
    let mut last = ColumnOutput::default();
    for c in 1..=ncol {
        let inp = ColumnInput::column(c);
        last = run_column(&inp);
        total += last.sent;
    }
    (last, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::{run_real, SarbVariant};

    #[test]
    fn oracle_matches_engine_original_bitwise() {
        let (native, total) = run_columns_native(3);
        let engine = run_real(SarbVariant::OriginalSerial, 3, 1);
        assert_eq!(native.fdl, engine.fdl, "fdl");
        assert_eq!(native.ful, engine.ful, "ful");
        assert_eq!(native.fds, engine.fds, "fds");
        assert_eq!(native.fus, engine.fus, "fus");
        assert_eq!(native.entl, engine.entl, "entl");
        assert_eq!(native.ents, engine.ents, "ents");
        assert_eq!(native.sent, engine.sent, "sent");
        assert_eq!(total, engine.total_sent, "total_sent");
    }

    #[test]
    fn parallel_column_sweep_matches_serial_totals() {
        use omprt::{chunks_for, Schedule, ThreadPool};
        let ncol = 16usize;
        let (_, serial_total) = run_columns_native(ncol as i64);
        let threads = 4;
        let partials: Vec<std::sync::Mutex<f64>> =
            (0..threads).map(|_| std::sync::Mutex::new(0.0)).collect();
        ThreadPool::new(threads)
            .run(|tid| {
                for (lo, hi) in chunks_for(Schedule::StaticBlock, ncol, tid, threads) {
                    let sent: f64 =
                        (lo..hi).map(|c| run_column(&ColumnInput::column(c as i64 + 1)).sent).sum();
                    *partials[tid].lock().unwrap() += sent;
                }
            })
            .unwrap();
        let parallel_total: f64 = partials.iter().map(|p| *p.lock().unwrap()).sum();
        assert!(
            (serial_total - parallel_total).abs() < 1e-9,
            "{serial_total} vs {parallel_total}"
        );
    }

    #[test]
    fn physical_sanity() {
        let o = run_column(&ColumnInput::column(1));
        assert!(o.fdl.iter().all(|v| *v >= 0.0 && v.is_finite()));
        assert!(o.sent.is_finite());
        // Downwelling longwave accumulates toward the surface.
        assert!(o.fdl[NV] > o.fdl[5]);
    }
}
