//! Seeded generative fixed-form F77 corpus (differential-test fodder).
//!
//! [`generate`] derives a small, deterministic, terminating two-file F77
//! program from a seed: file one holds subroutines/functions over a
//! COMMON block, file two the main program. The statement pool is chosen
//! to exercise the legacy surface of the front end — labeled DO
//! loops with CONTINUE terminals, computed and backward GOTO, arithmetic
//! IF, EQUIVALENCE, DATA/SAVE, IMPLICIT typing, OMP PARALLEL DO
//! reductions, plus one deliberately vectorizable affine sweep per
//! program so the vector and native execution tiers see the corpus
//! too — while staying semantically tame: every loop is bounded,
//! every subscript is forced in range with MOD, no division by anything
//! that can reach zero, and every variable is written before it is read.
//! Statements are wrapped onto continuation cards at a hard column
//! boundary (blank-insensitive lexing makes mid-token splits legal), so
//! the corpus also exercises card assembly organically.

/// xorshift64* — tiny, seedable, good enough for corpus derivation.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with roughly `pct` percent probability.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

const REALS: &[&str] = &["0.5", "1.5", "2.0", "0.25", "3.0", "1.25", "0.75", "4.0"];

/// One program unit under construction: fixed-form cards plus a label
/// allocator.
struct U {
    lines: Vec<String>,
    label: u32,
}

impl U {
    fn new() -> U {
        U { lines: Vec::new(), label: 0 }
    }

    fn next_label(&mut self) -> u32 {
        self.label += 10;
        self.label
    }

    /// Emits one statement, wrapping onto continuation cards at a hard
    /// column boundary (legal anywhere: blanks are insignificant and the
    /// generator emits no character literals).
    fn stmt(&mut self, label: Option<u32>, text: &str) {
        let chars: Vec<char> = text.chars().collect();
        let mut at = 0;
        let mut first = true;
        while at < chars.len() || first {
            let take = (chars.len() - at).min(60);
            let chunk: String = chars[at..at + take].iter().collect();
            let prefix = if first {
                match label {
                    Some(l) => format!("{l:>5} "),
                    None => "      ".to_string(),
                }
            } else {
                "     &".to_string()
            };
            self.lines.push(format!("{prefix}{chunk}"));
            at += take;
            first = false;
        }
    }

    fn raw(&mut self, line: &str) {
        self.lines.push(line.to_string());
    }

    fn finish(mut self) -> String {
        self.stmt(None, "END");
        let mut s = self.lines.join("\n");
        s.push('\n');
        s
    }
}

/// Statement-pool context shared by the unit builders.
struct Gen<'a> {
    r: &'a mut Rng,
    n: u64,
}

impl Gen<'_> {
    fn rc(&mut self) -> &'static str {
        REALS[self.r.below(REALS.len() as u64) as usize]
    }

    fn ic(&mut self) -> u64 {
        1 + self.r.below(9)
    }

    /// An always-in-bounds subscript expression over loop variable `v`.
    fn idx(&mut self, v: &str) -> String {
        format!("MOD({v}*{} + {}, N) + 1", self.ic(), self.ic())
    }

    /// A bounded real-valued expression over the COMMON arrays.
    fn rexpr(&mut self, v: &str) -> String {
        let a = self.idx(v);
        match self.r.below(4) {
            0 => format!("A({a}) * {}", self.rc()),
            1 => format!("B({a}) + {}", self.rc()),
            2 => {
                let b = self.idx(v);
                format!("A({a}) - B({b}) * {}", self.rc())
            }
            _ => {
                let b = self.idx(v);
                format!("B({a}) / (ABS(A({b})) + {})", self.rc())
            }
        }
    }

    /// A vectorizable RHS for the SWEEP map loop: affine subscripts
    /// only (no MOD), reading `B`; `inv` names a loop-invariant REAL
    /// scalar in scope. The returned flag is true when `B` was read
    /// through a non-identity subscript, in which case the caller must
    /// not also write `B` in the same loop (the vectorizer's dependence
    /// rule would reject the loop and defeat the point).
    fn vec_rhs(&mut self, v: &str, inv: &str) -> (String, bool) {
        match self.r.below(4) {
            0 => (format!("B({v}) * {} + {inv}", self.rc()), false),
            1 => (format!("SQRT(ABS(B({v}))) + {}", self.rc()), false),
            2 => (format!("B(N + 1 - {v}) - {}", self.rc()), true),
            _ => (format!("REAL({v}) * {} + B({v})", self.rc()), false),
        }
    }

    /// One random statement block appended to `u`, using loop variable
    /// `v`; `s` names the scalar being accumulated.
    fn block(&mut self, u: &mut U, v: &str, s: &str) {
        match self.r.below(7) {
            0 => {
                let e = self.rexpr(v);
                u.stmt(None, &format!("{s} = {s} + {e}"));
            }
            1 => {
                let t = self.idx(v);
                let e = self.rexpr(v);
                u.stmt(None, &format!("A({t}) = {e}"));
            }
            2 => {
                let e = self.rexpr(v);
                let e2 = self.rexpr(v);
                u.stmt(None, &format!("IF ({e} .GT. {}) THEN", self.rc()));
                u.stmt(None, &format!("{s} = {s} + {e2}"));
                u.stmt(None, "ELSE");
                u.stmt(None, &format!("{s} = {s} - {}", self.rc()));
                u.stmt(None, "END IF");
            }
            3 => {
                u.stmt(
                    None,
                    &format!("KACC = KACC + MOD({v}*{} + {}, 5)", self.ic(), self.ic()),
                );
            }
            4 => {
                // Computed GOTO diamond.
                let (l1, l2, l3, l4) =
                    (u.next_label(), u.next_label(), u.next_label(), u.next_label());
                u.stmt(None, &format!("KSEL = MOD({v} + {}, 3) + 1", self.ic()));
                u.stmt(None, &format!("GOTO ({l1}, {l2}, {l3}), KSEL"));
                u.stmt(Some(l1), &format!("{s} = {s} + {}", self.rc()));
                u.stmt(None, &format!("GOTO {l4}"));
                u.stmt(Some(l2), &format!("{s} = {s} - {}", self.rc()));
                u.stmt(None, &format!("GOTO {l4}"));
                u.stmt(Some(l3), "KACC = KACC + 1");
                u.stmt(Some(l4), "CONTINUE");
            }
            5 => {
                // Arithmetic IF diamond.
                let (l1, l2, l3, l4) =
                    (u.next_label(), u.next_label(), u.next_label(), u.next_label());
                let a = self.idx(v);
                let b = self.idx(v);
                u.stmt(None, &format!("IF (A({a}) - B({b})) {l1}, {l2}, {l3}"));
                u.stmt(Some(l1), &format!("{s} = {s} - {}", self.rc()));
                u.stmt(None, &format!("GOTO {l4}"));
                u.stmt(Some(l2), "KACC = KACC + 2");
                u.stmt(None, &format!("GOTO {l4}"));
                u.stmt(Some(l3), &format!("{s} = {s} + {}", self.rc()));
                u.stmt(Some(l4), "CONTINUE");
            }
            _ => {
                // Inner labeled DO with a GOTO-to-terminal (a CYCLE in
                // disguise).
                let lt = u.next_label();
                u.stmt(None, &format!("DO {lt} JJ = 1, {}", 1 + self.r.below(4)));
                let a = self.idx("JJ");
                u.stmt(None, &format!("IF (A({a}) .LT. {}) GOTO {lt}", self.rc()));
                let e = self.rexpr("JJ");
                u.stmt(None, &format!("{s} = {s} + {e}"));
                u.stmt(Some(lt), "CONTINUE");
            }
        }
    }
}

fn common_header(u: &mut U, n: u64) {
    u.stmt(None, &format!("PARAMETER (N = {n})"));
    u.stmt(None, "COMMON /DAT/ A(N), B(N), S1, S2, KACC");
}

fn unit_fillup(g: &mut Gen) -> String {
    let mut u = U::new();
    u.stmt(None, "SUBROUTINE FILLUP");
    common_header(&mut u, g.n);
    let lt = u.next_label();
    u.stmt(None, &format!("DO {lt} I = 1, N"));
    u.stmt(None, &format!("A(I) = REAL(I) * {} + {}", g.rc(), g.rc()));
    u.stmt(
        None,
        &format!("B(I) = REAL(MOD(I*{} + {}, 7)) - {}", g.ic(), g.ic(), g.rc()),
    );
    u.stmt(Some(lt), "CONTINUE");
    u.finish()
}

/// A deliberately vectorizable unit: one canonical unit-stride DO whose
/// statements are elementwise affine REAL assignments (no MOD
/// subscripts, no control flow), so every generated program exercises
/// the bytecode compiler's vector superinstruction — and, promoted from
/// it, the native (JIT) tier — not just the scalar paths.
fn unit_sweep(g: &mut Gen) -> String {
    let mut u = U::new();
    u.stmt(None, "SUBROUTINE SWEEP(C0)");
    common_header(&mut u, g.n);
    u.stmt(None, "REAL C0");
    let lt = u.next_label();
    u.stmt(None, &format!("DO {lt} I = 1, N"));
    let (rhs, reversed) = g.vec_rhs("I", "C0");
    u.stmt(None, &format!("A(I) = {rhs}"));
    if !reversed && g.r.chance(60) {
        u.stmt(None, &format!("B(I) = B(I) * {} + {}", g.rc(), g.rc()));
    }
    u.stmt(Some(lt), "CONTINUE");
    if g.r.chance(50) {
        // Reduction-shaped serial loop (parenthesized term → `acc +
        // term`), covering the tiers' sequential fold path as well.
        let lr = u.next_label();
        u.stmt(None, &format!("DO {lr} I = 1, N"));
        u.stmt(None, &format!("S2 = S2 + (A(I) * {} + C0)", g.rc()));
        u.stmt(Some(lr), "CONTINUE");
    }
    u.finish()
}

fn unit_stir(g: &mut Gen) -> String {
    let mut u = U::new();
    u.stmt(None, "SUBROUTINE STIR(M)");
    common_header(&mut u, g.n);
    u.stmt(None, "INTEGER M");
    let lt = u.next_label();
    u.stmt(None, &format!("DO {lt} I = 1, N"));
    let blocks = 2 + g.r.below(3);
    for _ in 0..blocks {
        g.block(&mut u, "I", "S2");
    }
    u.stmt(Some(lt), "CONTINUE");
    u.stmt(None, "S2 = S2 + REAL(M) * 0.125");
    u.finish()
}

fn unit_blend(g: &mut Gen) -> String {
    let mut u = U::new();
    // Half the time the FUNCTION head is untyped: the result type comes
    // from IMPLICIT (B -> REAL).
    if g.r.chance(50) {
        u.stmt(None, "REAL FUNCTION BLEND(K)");
    } else {
        u.stmt(None, "FUNCTION BLEND(K)");
    }
    common_header(&mut u, g.n);
    u.stmt(None, "INTEGER K");
    if g.r.chance(50) {
        // Backward-GOTO counter loop.
        let l1 = u.next_label();
        let m = 2 + g.r.below(4);
        u.stmt(None, "BLEND = 0.0");
        u.stmt(None, "JC = 0");
        u.stmt(Some(l1), "JC = JC + 1");
        let e = g.rexpr("JC");
        u.stmt(None, &format!("BLEND = BLEND + {e}"));
        u.stmt(None, &format!("IF (JC .LT. {m}) GOTO {l1}"));
    } else {
        let a = g.idx("K");
        u.stmt(None, &format!("BLEND = A({a}) * {} + S1 * 0.0625", g.rc()));
    }
    u.finish()
}

fn unit_main(g: &mut Gen) -> String {
    let mut u = U::new();
    // Half the corpus uses an implicit main (no PROGRAM card).
    if g.r.chance(50) {
        u.stmt(None, "PROGRAM MAIN");
    }
    common_header(&mut u, g.n);
    let use_equiv = g.r.chance(40);
    let use_data = g.r.chance(40);
    if use_equiv {
        u.stmt(None, "REAL T1, T2");
        u.stmt(None, "EQUIVALENCE (T1, T2)");
    }
    if use_data {
        u.stmt(None, "REAL W(3)");
        u.stmt(None, &format!("DATA W /2*{}, {}/", g.rc(), g.rc()));
    }
    u.stmt(None, "S1 = 0.0");
    u.stmt(None, "S2 = 0.0");
    u.stmt(None, "KACC = 0");
    u.stmt(None, "CALL FILLUP");
    u.stmt(None, &format!("CALL SWEEP({})", g.rc()));
    let lt = u.next_label();
    let outer = 2 + g.r.below(4);
    u.stmt(None, &format!("DO {lt} I = 1, {outer}"));
    u.stmt(None, "CALL STIR(I)");
    u.stmt(Some(lt), "CONTINUE");
    if use_equiv {
        u.stmt(None, "T1 = S2 * 0.5");
        u.stmt(None, "S2 = S2 + T2");
    }
    if use_data {
        u.stmt(None, "S2 = S2 + W(1) + W(2) * W(3)");
    }
    if g.r.chance(60) {
        // OMP reduction loop: reassociation-tolerant compare in
        // Parallel mode, bit-exact in Serial/Simulated. The term is
        // parenthesized so the statement parses as `acc + term` — the
        // reduction shape the vector/native tiers accept.
        u.raw("C$OMP PARALLEL DO REDUCTION(+:S1) PRIVATE(I)");
        let lo = u.next_label();
        u.stmt(None, &format!("DO {lo} I = 1, N"));
        u.stmt(None, &format!("S1 = S1 + (A(I) * {} + B(I))", g.rc()));
        u.stmt(Some(lo), "CONTINUE");
    }
    let lb = u.next_label();
    u.stmt(None, &format!("DO {lb} I = 1, {}", 1 + g.r.below(3)));
    u.stmt(None, "S1 = S1 + BLEND(I)");
    u.stmt(Some(lb), "CONTINUE");
    let extra = 1 + g.r.below(3);
    for _ in 0..extra {
        g.block(&mut u, "KACC", "S1");
    }
    u.stmt(None, "PRINT *, S1, S2, KACC");
    u.finish()
}

/// Derives one deterministic two-file fixed-form F77 program from `seed`.
/// The entry unit is always `main`; the files share the COMMON block
/// `/DAT/` so cross-file global storage is exercised by every program.
pub fn generate(seed: u64) -> Vec<String> {
    let mut r = Rng::new(seed);
    let n = 4 + r.below(13); // PARAMETER N in 4..=16
    let mut g = Gen { r: &mut r, n };
    let mut f1 = String::new();
    f1.push_str(&unit_fillup(&mut g));
    f1.push_str(&unit_sweep(&mut g));
    f1.push_str(&unit_stir(&mut g));
    f1.push_str(&unit_blend(&mut g));
    let f2 = unit_main(&mut g);
    vec![f1, f2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(42), generate(42));
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_sources_are_fixed_form() {
        for seed in 0..20 {
            for src in generate(seed) {
                assert!(crate::fixedform::is_fixed_form(&src), "seed {seed}");
            }
        }
    }
}
