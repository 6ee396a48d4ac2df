//! # glaf-bench — the reproduction harness
//!
//! One `repro_*` binary per table/figure of the paper's evaluation
//! (§4), printing the same rows/series the paper reports, next to the
//! paper's own numbers:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `repro_table1` | Table 1 — SLOC of the six SARB subroutines |
//! | `repro_table2` | Table 2 — the implementation-variant ladder |
//! | `repro_fig5` | Fig. 5 — SARB speed-ups vs. original serial @ 4 threads |
//! | `repro_fig6` | Fig. 6 — v3 thread-scaling vs. GLAF serial |
//! | `repro_fig7` | Fig. 7 — FUN3D 16-thread option-matrix speed-ups |
//! | `repro_all` | everything above, plus a machine-readable JSON dump |
//!
//! `profile_sarb` is the observability smoke run ([`observe`]). The
//! *real* wall-clock cost of the reproduction stack (compile pipeline,
//! engine rungs, runtime, service) is measured by the repository
//! benchmark, `benchmark/`; the machine-model sweeps (fork cost, SIMD
//! width, cost-model policy vs. the manual ladder) are assertions in
//! the root `tests/figures_shape.rs`.

pub mod figures;
pub mod observe;

/// One labeled measurement (speed-up bar).
#[derive(Debug, Clone)]
pub struct Bar {
    pub label: String,
    pub paper: Option<f64>,
    pub measured: f64,
}

/// Renders a bar table with an ASCII gauge, paper-vs-measured.
pub fn print_bars(title: &str, bars: &[Bar]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
    let max = bars.iter().map(|b| b.measured).fold(0.0f64, f64::max).max(1e-9);
    for b in bars {
        let width = ((b.measured / max) * 40.0).round() as usize;
        let paper = match b.paper {
            Some(p) => format!("{p:>6.2}"),
            None => "     -".to_string(),
        };
        println!(
            "{:34} paper {}  measured {:>7.3}  |{}",
            b.label,
            paper,
            b.measured,
            "#".repeat(width.max(if b.measured > 0.0 { 1 } else { 0 }))
        );
    }
}

/// Serializable experiment record for EXPERIMENTS.md regeneration.
#[derive(Debug, Clone)]
pub struct Experiment {
    pub id: String,
    pub description: String,
    pub bars: Vec<Bar>,
}

/// Ordering agreement between paper and measured bars: fraction of
/// pairwise orderings that match (1.0 = identical ranking) over bars that
/// carry paper values.
pub fn ordering_agreement(bars: &[Bar]) -> f64 {
    let with_paper: Vec<&Bar> = bars.iter().filter(|b| b.paper.is_some()).collect();
    let n = with_paper.len();
    if n < 2 {
        return 1.0;
    }
    let mut agree = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            let p = with_paper[i].paper.unwrap() - with_paper[j].paper.unwrap();
            let m = with_paper[i].measured - with_paper[j].measured;
            total += 1;
            if p.signum() == m.signum() || p.abs() < 1e-9 {
                agree += 1;
            }
        }
    }
    agree as f64 / total as f64
}

/// JSON serialization for the experiment records (hand-rolled: the build
/// environment is offline, so serde_json is unavailable). Numbers use
/// `{:?}`, which round-trips f64 exactly.
pub fn experiments_to_json(experiments: &[Experiment]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    fn num(v: f64) -> String {
        if v.is_finite() { format!("{v:?}") } else { "null".to_string() }
    }
    let mut out = String::from("[\n");
    for (i, e) in experiments.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"id\": \"{}\",\n", esc(&e.id)));
        out.push_str(&format!("    \"description\": \"{}\",\n", esc(&e.description)));
        out.push_str("    \"bars\": [\n");
        for (j, b) in e.bars.iter().enumerate() {
            let paper = match b.paper {
                Some(p) => num(p),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "      {{ \"label\": \"{}\", \"paper\": {}, \"measured\": {} }}{}\n",
                esc(&b.label),
                paper,
                num(b.measured),
                if j + 1 < e.bars.len() { "," } else { "" }
            ));
        }
        out.push_str("    ]\n");
        out.push_str(&format!("  }}{}\n", if i + 1 < experiments.len() { "," } else { "" }));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar(l: &str, p: f64, m: f64) -> Bar {
        Bar { label: l.into(), paper: Some(p), measured: m }
    }

    #[test]
    fn ordering_agreement_full_and_partial() {
        let good = vec![bar("a", 1.0, 1.1), bar("b", 2.0, 2.3), bar("c", 0.5, 0.4)];
        assert_eq!(ordering_agreement(&good), 1.0);
        let flipped = vec![bar("a", 1.0, 2.0), bar("b", 2.0, 1.0)];
        assert_eq!(ordering_agreement(&flipped), 0.0);
        let single = vec![bar("a", 1.0, 9.0)];
        assert_eq!(ordering_agreement(&single), 1.0);
    }

    #[test]
    fn bars_without_paper_ignored() {
        let bars = vec![
            bar("a", 1.0, 1.0),
            Bar { label: "x".into(), paper: None, measured: 99.0 },
            bar("b", 2.0, 3.0),
        ];
        assert_eq!(ordering_agreement(&bars), 1.0);
    }
}
