//! Allocation budgets of the front end and of sema, and fingerprints of
//! the AST, RIR and bytecode they lead to, for both source forms.
//!
//! Each stage is judged against the size of what it returns: this file
//! counts heap allocations (`alloc` + `realloc` calls, per thread) made
//! by `ProgramSet::from_sources`, `parse::parse`, `lex::lex` and
//! `sema::resolve` over fixed corpora and pins them under named budgets,
//! and pins an FNV-1a fingerprint of the `Debug` rendering of every AST
//! and every resolved program those corpora produce — so "same program,
//! fewer allocations" is one test rather than something inferred from
//! the downstream differential suites.
//!
//! The fingerprint literals were computed at the commit *before* the
//! front end was made allocation-lean (two front ends, then); a change
//! to them means the front end now hands sema a different program. (The F77 literal was
//! recomputed once since, when the card path's `PARALLEL DO` without a
//! `COLLAPSE` clause started saying `collapse: 1` like the free-form
//! path: 123 of the 200 programs, that substitution and nothing else.)
//! The RIR literals were computed at the commit before sema resolved
//! names through a scope chain. The bytecode literals, per build, come in
//! two parts — instruction streams and vector descriptors — so a change
//! says which of the two moved; each is explained at its test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[path = "common/sources.rs"]
mod sources;

use fortrans::ProgramSet;
use fun3d::variants::{Fun3dConfig, Fun3dVariant};
use sarb::variants::SarbVariant;
use sources::glaf_source_sets;

struct Counting;

thread_local! {
    /// Allocation calls made by this thread (tests run one per thread).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(calls: u64, live: i64) {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + calls));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump(1, 1);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump(1, 1);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump(1, 0);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        bump(0, -1);
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread; its result is dropped
/// outside the count.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    allocs_and_live_of(f).0
}

/// As [`allocs_of`], with the number of blocks still allocated when `f`
/// returns: what its result retains.
fn allocs_and_live_of<T>(f: impl FnOnce() -> T) -> (u64, i64) {
    let before = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    let n = (ALLOCS.with(Cell::get) - before.0, LIVE.with(Cell::get) - before.1);
    drop(out);
    n
}

fn fnv1a(h: &mut u64, text: &str) {
    for b in text.bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn refs(sources: &[String]) -> Vec<&str> {
    sources.iter().map(String::as_str).collect()
}

const F77_SEEDS: std::ops::Range<u64> = 0..200;

/// The two free-form corpora the budgets are stated over.
fn free_form_corpora() -> [(&'static str, Vec<String>); 2] {
    let fun3d = Fun3dVariant::Glaf(Fun3dConfig::default());
    [
        ("SARB v3", sarb::variants::variant_sources(SarbVariant::GlafParallel(3))),
        ("FUN3D default", fun3d::variants::variant_sources(fun3d)),
    ]
}

#[test]
fn fixed_form_ingest_allocation_budget() {
    let mut total = 0u64;
    for seed in F77_SEEDS {
        let sources = fortrans::gen::generate(seed);
        let sources = refs(&sources);
        total += allocs_of(|| ProgramSet::from_sources(&sources).expect("corpus program ingests"));
    }
    // 3628 at the parent; the ASTs returned retain 715.
    let mean = total / (F77_SEEDS.end - F77_SEEDS.start);
    println!("from_sources: mean {mean} allocations per generated program");
    assert!(mean <= 1600, "from_sources makes {mean} allocations per program (budget 1600)");
}

#[test]
fn free_form_lex_and_parse_allocation_budgets() {
    // (lex budget, parse budget): SARB v3 is 2837 / 6135 at the parent
    // (its AST retains 1550), FUN3D default 2049 / 4585.
    let budgets = [(1500, 3300), (1100, 2450)];
    for ((name, sources), (lex_budget, parse_budget)) in free_form_corpora().into_iter().zip(budgets)
    {
        let lex: u64 =
            sources.iter().map(|s| allocs_of(|| fortrans::lex::lex(s).expect("lexes"))).sum();
        let parse: u64 =
            sources.iter().map(|s| allocs_of(|| fortrans::parse::parse(s).expect("parses"))).sum();
        println!("{name}: lex {lex}, parse {parse} allocations");
        assert!(lex <= lex_budget, "{name}: lex makes {lex} allocations (budget {lex_budget})");
        assert!(
            parse <= parse_budget,
            "{name}: parse makes {parse} allocations (budget {parse_budget})"
        );
        // The design behind the budget: the lexer allocates its three
        // buffers per source, never per line or per token.
        let per_source = 16 * sources.len() as u64;
        assert!(lex <= per_source, "{name}: lex makes {lex} allocations for {per_source} allowed");
    }
}

#[test]
fn ast_fingerprint_is_the_parents() {
    let mut f77 = FNV_OFFSET;
    for seed in F77_SEEDS {
        let sources = fortrans::gen::generate(seed);
        let set = ProgramSet::from_sources(&refs(&sources)).expect("corpus program ingests");
        fnv1a(&mut f77, &format!("{:?}", set.ast));
    }
    let mut glaf = FNV_OFFSET;
    for sources in glaf_source_sets() {
        for s in &sources {
            let ast = fortrans::parse::parse(s).expect("generated FORTRAN parses");
            fnv1a(&mut glaf, &format!("{ast:?}"));
        }
    }
    println!("fingerprints: f77 {f77:#018x}, glaf {glaf:#018x}");
    assert_eq!(
        f77, 0xa868_7e93_efd8_78c4,
        "generated F77 corpus: the fixed-form front end built a different AST"
    );
    assert_eq!(
        glaf, 0xe3bd_97dd_8fe0_301e,
        "GLAF source sets: the free-form front end built a different AST"
    );
}

#[test]
fn sema_allocation_budgets() {
    // SARB v3 is 2256 at the parent (the RIR retains 722), FUN3D default
    // 1154 (437).
    for ((name, sources), budget) in free_form_corpora().into_iter().zip([1650, 800]) {
        let ast = ProgramSet::from_sources(&refs(&sources)).expect("parses").ast;
        let (n, live) = allocs_and_live_of(|| fortrans::sema::resolve(&ast).expect("resolves"));
        // Printed, not gated: the quickest of 300 runs.
        let quickest = (0..300)
            .map(|_| {
                let t = std::time::Instant::now();
                let prog = fortrans::sema::resolve(&ast);
                let dt = t.elapsed();
                drop(prog);
                dt
            })
            .min()
            .expect("ran");
        println!(
            "{name}: sema {n} allocations, {live} live after, {:.1} us",
            quickest.as_secs_f64() * 1e6
        );
        assert!(n <= budget, "{name}: sema makes {n} allocations (budget {budget})");
    }
    // 680 at the parent; the RIRs returned retain 316.
    let (mut total, mut live) = (0u64, 0i64);
    for seed in F77_SEEDS {
        let sources = fortrans::gen::generate(seed);
        let ast = ProgramSet::from_sources(&refs(&sources)).expect("corpus program ingests").ast;
        let (n, l) = allocs_and_live_of(|| fortrans::sema::resolve(&ast).expect("resolves"));
        total += n;
        live += l;
    }
    let programs = F77_SEEDS.end - F77_SEEDS.start;
    let (mean, live) = (total / programs, live / programs as i64);
    println!("generated F77 corpus: sema mean {mean} allocations per program, {live} live after");
    assert!(mean <= 550, "sema makes {mean} allocations per generated program (budget 550)");
}

#[test]
fn rir_fingerprint_is_the_parents() {
    let mut f77 = FNV_OFFSET;
    for seed in F77_SEEDS {
        let sources = fortrans::gen::generate(seed);
        let set = ProgramSet::from_sources(&refs(&sources)).expect("corpus program ingests");
        fnv1a(&mut f77, &format!("{:?}", fortrans::sema::resolve(&set.ast)));
    }
    let mut glaf = FNV_OFFSET;
    for sources in glaf_source_sets() {
        let set = ProgramSet::from_sources(&refs(&sources)).expect("generated FORTRAN parses");
        fnv1a(&mut glaf, &format!("{:?}", fortrans::sema::resolve(&set.ast)));
    }
    println!("RIR fingerprints: f77 {f77:#018x}, glaf {glaf:#018x}");
    assert_eq!(
        f77, 0xb2fd_67da_7fa4_b4ed,
        "generated F77 corpus: sema handed lowering a different program"
    );
    assert_eq!(
        glaf, 0xb22e_e5ee_20d5_b431,
        "GLAF source sets: sema handed lowering a different program"
    );
}

/// One build of a program in two texts: its instruction streams (every
/// `BUnit` field but `vecs`) and its vector descriptors. A unit without
/// fused spans prints without its span table, one without inlined
/// blocks without its two inlining tables, and one without `SetI`s
/// without its affine table, as every unit printed before they existed,
/// so the literals pinned before them hold.
fn split_texts(bunits: Vec<fortrans::bytecode::BUnit>) -> (String, String) {
    let (mut streams, mut descs) = (String::new(), String::new());
    for mut bu in bunits {
        descs += &format!("{:?}", std::mem::take(&mut bu.vecs));
        let text = format!("{bu:?}").replacen(", affine: [], ", ", ", 1);
        let text = match text.strip_suffix(", spans: [] }") {
            Some(head) => format!("{head} }}"),
            None => text,
        };
        let empty = ", inlines: [], units: [] }";
        match text.strip_suffix(empty) {
            Some(head) => streams += &format!("{head} }}"),
            None => streams += &text,
        }
    }
    (streams, descs)
}

/// Both builds of a program, `[optimized, traced]`, split by
/// [`split_texts`]; the optimized build is lowered from
/// `rir::rewrite::optimized` of the program, as
/// `CompiledProgram::compile` lowers it, and
/// its descriptors are followed by what the vector analysis reports
/// about them.
fn bytecode_texts(sources: &[&str]) -> [(String, String); 2] {
    let set = ProgramSet::from_sources(sources).expect("program ingests");
    let prog = fortrans::sema::resolve(&set.ast).expect("program resolves");
    let lowered = fortrans::rir::rewrite::optimized(&prog);
    let (opt_streams, mut opt_descs) =
        split_texts(fortrans::bytecode::compile_program(&lowered, false));
    let traced = split_texts(fortrans::bytecode::compile_program(&prog, true));
    let artifact = fortrans::CompiledProgram::compile(sources).expect("program compiles");
    opt_descs += &format!("{:?}{:?}", artifact.vector_report(), artifact.vector_refusals());
    [(opt_streams, opt_descs), traced]
}

/// Fingerprints `[optimized, traced]` of the generated F77 corpus (seeds
/// 0..32) and of the GLAF source sets, each a pair `(f77, glaf)`, of the
/// instruction streams (`descs` false) or the vector descriptors.
fn bytecode_fingerprints(descs: bool) -> [(u64, u64); 2] {
    let hash = |corpus: Vec<Vec<String>>| {
        let mut h = [FNV_OFFSET; 2];
        for sources in corpus {
            for (h, texts) in h.iter_mut().zip(bytecode_texts(&refs(&sources))) {
                fnv1a(h, if descs { &texts.1 } else { &texts.0 });
            }
        }
        h
    };
    let f77 = hash((0..32).map(fortrans::gen::generate).collect());
    let glaf = hash(glaf_source_sets());
    [(f77[0], glaf[0]), (f77[1], glaf[1])]
}

/// The traced build's instruction streams must stay byte-identical:
/// Simulated runs and the paper's figures rest on them. The F77 literal
/// was computed at the commit before entry-guard proofs (by running this
/// split at that commit); that build has not changed since scoped
/// temporaries. The GLAF literal moved with running sums in two SARB
/// units only: `g_sw_band` gained a `VecLoop` in front of its
/// attenuation loop (now a region), and `g_ent_band` lost the fixup of
/// `wb` and `ub`, which nothing reads after its loop. It moved again
/// when each region's prep became one `SetI` in place of a `Quiet`
/// bracket around stack code (0x3e8d_c791_c833_58dd before); no
/// generated program has a prep. Both literals moved when every loop
/// began to count its trips: `DoHead1`, `DoHeadN` and `DoHead` became
/// one `DoHead { ctr, left, var, exit }` (`var` is `ctr` where the
/// variable is no frame INTEGER), the `Do*` instructions' `end` slot
/// became `left`, and `IntrF` lost its `to_int` field, which follows
/// from `f`. With those renames made in the parent's text, every
/// stream of both corpora and both builds reads as it did
/// (0x7096_b2b5_204a_fa86 and 0x34c4_10c7_e2c5_607b before).
#[test]
fn bytecode_fingerprint_is_the_parents() {
    let [_, (f77, glaf)] = bytecode_fingerprints(false);
    println!("traced instruction-stream fingerprints: f77 {f77:#018x}, glaf {glaf:#018x}");
    assert_eq!(f77, 0x5479_50bf_0c66_aebc, "generated F77 corpus: the traced build changed");
    assert_eq!(glaf, 0xffe2_f030_76c0_a856, "GLAF source sets: the traced build changed");
}

/// The optimized build's instruction streams, pinned where scoped
/// temporaries left them: the literals were computed at the commit
/// before entry-guard proofs, which moved descriptors only. The GLAF
/// literal moved with running sums in the same two units as the traced
/// build's: one more `VecLoop` in `g_sw_band`, 26 fixup instructions
/// fewer in `g_ent_band`. It moved again with contracted temporaries in
/// one unit of one set, the fused FUN3D configuration's `edge_loop`:
/// nine of its ten fixed arrays became frame scalars, and their element
/// loads and stores scalar ones (119 instructions before and after).
/// Re-pinned for inlined leaves, which move the GLAF literal: a called
/// unit that calls a leaf holds its body between an `InlineEnter` and
/// an `InlineExit`, with the inlining tables after the unit's others
/// (FUN3D's `cell_loop` holds `angle_check` and `edge_loop`, `edge_loop`
/// `ioff_search`; SARB's band integrations their band units). The
/// generated corpus makes its calls from main programs, which keep
/// them, so its literal stays. The GLAF literal moved once more when
/// `InlineDesc` lost its `level` field, which the depth check now
/// counts along `outer`, and again for fused spans: a run of same-range
/// loops lowers to a `SpanEnter`, its S, the fused region and the
/// original statements, with the span table after the unit's others
/// (FUN3D's prologue chains and edge pairs, SARB's band pairs). No
/// generated program holds such a run, so the F77 literal stays. The
/// GLAF literal moved again when a fused loop became its region alone:
/// the scalar copy and the jump past the original statements left every
/// span, the region falls through to them, and the span table lost
/// `slow`, `end` and `per_iter`. Both literals moved when the scalar
/// glue began to carry its operands: affine INTEGER frame-scalar
/// assignments and `VecLoop` preps lower to one `SetI` with an affine
/// table, and fused loops over `i32` literal bounds start with one
/// `DoInitK`, in both corpora. Both moved again with the traced build's
/// for the one loop head and `IntrF`'s field, and for nothing else
/// (0xc7eb_4f08_9a19_49f3 and 0xbb76_1cdb_3d51_f577 before).
#[test]
fn optimized_bytecode_fingerprint() {
    let [(f77, glaf), _] = bytecode_fingerprints(false);
    println!("optimized instruction-stream fingerprints: f77 {f77:#018x}, glaf {glaf:#018x}");
    assert_eq!(f77, 0xbbc4_1f7e_72b2_bb2d, "generated F77 corpus: the optimized build changed");
    assert_eq!(glaf, 0x192d_7e62_1c87_3572, "GLAF source sets: the optimized build changed");
}

/// The vector descriptors of both builds, re-pinned when lowering began
/// to prove entry guards. Every descriptor's text moved, since each
/// access now carries its proof and each descriptor its window and
/// global-cell list: in the generated F77 corpus every one of the 156
/// accesses of the 92 descriptors (both builds) is proven, and in the
/// GLAF sets 547 of 1,110 accesses are, with 280 of 402 descriptors
/// carrying a window. Alias pairs moved where two different global cells
/// met and one was written, and every pair of both corpora was such a
/// pair, so none is left: the F77 corpus's COMMON `sweep` region held
/// one per program and build (64 in all), the GLAF sets' SARB and FUN3D
/// regions 1,110 (FUN3D's face nest alone 51). Re-pinned again for
/// running sums: every descriptor gained `fixup_cost` and every
/// accumulator `VecRed::stmt`, `g_sw_band`'s attenuation loop became a
/// region, and `g_ent_band`'s fixup cost is 0. Re-pinned for contracted
/// temporaries: every report line gained `contracted` (which alone moved
/// the generated F77 corpus's literal), and the fused FUN3D `edge_loop`
/// region streams 7 accesses instead of 16, nine temporaries contracted.
/// Re-pinned for inlined leaves: a caller's build holds a copy of each
/// region of the leaves it inlined, so the optimized GLAF literal moved;
/// the generated corpus inlines nothing, and no traced literal moved.
/// Re-pinned for fused spans: each span adds its fused region, and the
/// report lists it, so the optimized GLAF literal moved again. Re-pinned
/// when the forwarded-temp fixup left: every descriptor lost
/// `fixup_cost` (0 in both corpora; with ", fixup_cost: 0" struck from
/// the parent's text, three literals read as they do now), and each
/// fused region's iteration cost and exit state became its original
/// loops', which moved the optimized GLAF literal on top. Re-pinned
/// when literal-bound loops began with one `DoInitK`: a nest region's
/// inner loops, and a fused region's original loops, retire two steps
/// fewer per inner loop or original loop, so the iteration costs of the
/// optimized GLAF sets' nest and fused regions moved (the generated
/// corpus holds neither). Re-pinned when every loop began to count its
/// trips: a nest region's exit state leaves each inner loop's trip slot
/// at 0, where it left the end bound, so both GLAF literals moved
/// (0xc330_88d9_b834_f7a0 and 0x6eb3_5bd3_28bc_8e3b before) and nothing
/// else in any descriptor did.
#[test]
fn vector_descriptor_fingerprints() {
    let [(opt_f77, opt_glaf), (traced_f77, traced_glaf)] = bytecode_fingerprints(true);
    println!(
        "descriptor fingerprints: optimized f77 {opt_f77:#018x}, glaf {opt_glaf:#018x}; \
         traced f77 {traced_f77:#018x}, glaf {traced_glaf:#018x}"
    );
    let moved = |corpus: &str, build: &str| format!("{corpus}: the {build} descriptors changed");
    assert_eq!(opt_f77, 0xe0a7_aa3c_3c90_3297, "{}", moved("generated F77 corpus", "optimized"));
    assert_eq!(opt_glaf, 0x07e2_7a8d_46aa_197c, "{}", moved("GLAF source sets", "optimized"));
    assert_eq!(traced_f77, 0x22d0_f02b_8b54_95df, "{}", moved("generated F77 corpus", "traced"));
    assert_eq!(traced_glaf, 0x1aa0_c379_ff92_56a3, "{}", moved("GLAF source sets", "traced"));
}
