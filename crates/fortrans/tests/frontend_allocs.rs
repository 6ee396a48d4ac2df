//! Allocation budgets and the AST fingerprints of the front end, for both
//! source forms.
//!
//! The front end is judged against the size of what it returns: this
//! file counts heap allocations (`alloc` + `realloc` calls, per thread)
//! made by `ProgramSet::from_sources`, `parse::parse` and `lex::lex` over
//! fixed corpora and pins them under named budgets, and pins an FNV-1a
//! fingerprint of the `Debug` rendering of every AST those corpora
//! produce — so "same AST, fewer allocations" is one test rather than
//! something inferred from the downstream differential suites.
//!
//! The fingerprint literals were computed at the commit *before* the
//! front end was made allocation-lean (two front ends, then); a change
//! to them means the front end now hands sema a different program. (The F77 literal was
//! recomputed once since, when the card path's `PARALLEL DO` without a
//! `COLLAPSE` clause started saying `collapse: 1` like the free-form
//! path: 123 of the 200 programs, that substitution and nothing else.)

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
}

fn bump() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls `f` makes on this thread; its result is dropped
/// outside the count.
fn allocs_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let n = ALLOCS.with(Cell::get) - before;
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
    // (sources, lex budget, parse budget): SARB v3 is 2837 / 6135 at the
    // parent (its AST retains 1550), FUN3D default 2049 / 4585.
    let corpora = [
        ("SARB v3", sarb::variants::variant_sources(SarbVariant::GlafParallel(3)), 1500, 3300),
        (
            "FUN3D default",
            fun3d::variants::variant_sources(Fun3dVariant::Glaf(Fun3dConfig::default())),
            1100,
            2450,
        ),
    ];
    for (name, sources, lex_budget, parse_budget) in corpora {
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
