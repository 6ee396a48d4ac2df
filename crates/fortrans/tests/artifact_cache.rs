//! Property tests for the [`fortrans::ArtifactCache`]: source-hash
//! keying, LRU eviction order, the capacity invariant, and monotone
//! hit/miss/eviction accounting — checked against a reference LRU model
//! under randomized compile sequences. The suite ends with the traced
//! bytecode build an artifact makes on its first Simulated run: counted
//! in the size estimate only once it exists, built once under a race,
//! and never built for a session that overrides it.

use std::sync::Arc;

use fortrans::{source_hash, ArtifactCache};
use proptest::prelude::*;

/// A pool of small, distinct, valid programs. Index `i` yields a unique
/// source text (and therefore a unique source hash).
fn program(i: usize) -> String {
    format!(
        r#"
MODULE m{i}
CONTAINS
  REAL(8) FUNCTION f{i}(x)
    REAL(8) :: x
    f{i} = x * {i}.0D0 + {i}
  END FUNCTION f{i}
END MODULE m{i}
"#
    )
}

#[test]
fn same_source_returns_the_same_arc() {
    let cache = ArtifactCache::new(4);
    let src = program(1);
    let a = cache.get_or_compile(&[&src]).unwrap();
    let b = cache.get_or_compile(&[&src]).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "hit must return the identical artifact");
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    assert_eq!(a.source_hash(), source_hash(&[&src]));
}

#[test]
fn whitespace_distinct_sources_are_distinct_entries() {
    let cache = ArtifactCache::new(4);
    let src = program(2);
    let spaced = format!("{src}\n"); // same program, different text
    let a = cache.get_or_compile(&[&src]).unwrap();
    let b = cache.get_or_compile(&[&spaced]).unwrap();
    assert_ne!(source_hash(&[&src]), source_hash(&[&spaced]));
    assert!(!Arc::ptr_eq(&a, &b), "textually distinct sources get distinct artifacts");
    assert_eq!(cache.len(), 2);
    assert_eq!(cache.misses(), 2);
}

#[test]
fn multi_file_hash_is_order_and_boundary_sensitive() {
    let (a, b) = (program(3), program(4));
    assert_ne!(source_hash(&[&a, &b]), source_hash(&[&b, &a]), "file order matters");
    let joined = format!("{a}{b}");
    assert_ne!(
        source_hash(&[&a, &b]),
        source_hash(&[&joined]),
        "file boundaries are part of the key"
    );
}

/// Reference LRU model: front = least recently used, back = most recent.
struct ModelLru {
    cap: usize,
    order: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelLru {
    fn new(cap: usize) -> ModelLru {
        ModelLru { cap: cap.max(1), order: Vec::new(), hits: 0, misses: 0, evictions: 0 }
    }

    fn access(&mut self, hash: u64) {
        if let Some(pos) = self.order.iter().position(|&h| h == hash) {
            self.order.remove(pos);
            self.order.push(hash);
            self.hits += 1;
        } else {
            self.misses += 1;
            if self.order.len() == self.cap {
                self.order.remove(0);
                self.evictions += 1;
            }
            self.order.push(hash);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized compile sequences over a pool of 6 distinct programs
    /// against caches of capacity 1..4: the cache must match the
    /// reference model access for access — LRU order (via `lru_hashes`),
    /// the capacity invariant, counter values, and the accounting
    /// identity `misses == len + evictions`. Counters are checked
    /// monotone at every step.
    #[test]
    fn cache_matches_the_reference_lru_model(
        cap in 1usize..5,
        seq in prop::collection::vec(0usize..6, 1..40),
    ) {
        let sources: Vec<String> = (0..6).map(program).collect();
        let hashes: Vec<u64> = sources.iter().map(|s| source_hash(&[s.as_str()])).collect();
        let cache = ArtifactCache::new(cap);
        let mut model = ModelLru::new(cap);
        let (mut last_hits, mut last_misses, mut last_evictions) = (0u64, 0u64, 0u64);
        for &i in &seq {
            let artifact = cache.get_or_compile(&[sources[i].as_str()]).unwrap();
            prop_assert_eq!(artifact.source_hash(), hashes[i]);
            model.access(hashes[i]);

            // Exact agreement with the model after every access.
            prop_assert_eq!(cache.lru_hashes(), model.order.clone());
            prop_assert_eq!(cache.len(), model.order.len());
            prop_assert!(cache.len() <= cache.capacity(), "capacity invariant");
            prop_assert_eq!(cache.hits(), model.hits);
            prop_assert_eq!(cache.misses(), model.misses);
            prop_assert_eq!(cache.evictions(), model.evictions);

            // Monotonicity, and exactly one counter ticks per access.
            let ticked = (cache.hits() - last_hits) + (cache.misses() - last_misses);
            prop_assert_eq!(ticked, 1, "exactly one hit-or-miss per access");
            prop_assert!(cache.evictions() >= last_evictions);
            (last_hits, last_misses, last_evictions) =
                (cache.hits(), cache.misses(), cache.evictions());
        }
        prop_assert_eq!(cache.misses(), cache.len() as u64 + cache.evictions());
    }

    /// A re-compiled evicted program is a fresh artifact; an entry still
    /// resident keeps its identity across unrelated accesses.
    #[test]
    fn resident_entries_keep_identity_and_evicted_ones_do_not(
        filler in prop::collection::vec(1usize..6, 1..10),
    ) {
        let keep = program(0);
        let cache = ArtifactCache::new(2);
        let first = cache.get_or_compile(&[&keep]).unwrap();
        let mut resident = true;
        for &i in &filler {
            let src = program(i);
            cache.get_or_compile(&[src.as_str()]).unwrap();
            // Touch the kept entry only while it is still resident.
            if resident && cache.lru_hashes().contains(&first.source_hash()) {
                let again = cache.get_or_compile(&[&keep]).unwrap();
                prop_assert!(Arc::ptr_eq(&first, &again), "resident entry keeps its Arc");
            } else {
                resident = false;
            }
        }
        if !resident {
            let fresh = cache.get_or_compile(&[&keep]).unwrap();
            prop_assert!(!Arc::ptr_eq(&first, &fresh), "evicted entry recompiles fresh");
            prop_assert_eq!(fresh.source_hash(), first.source_hash());
        }
    }
}

// ---------------------------------------------------------------------
// Size-aware eviction (byte budget)
// ---------------------------------------------------------------------

#[test]
fn byte_budget_zero_keeps_only_the_newest_entry() {
    // Every artifact is over a 0-byte budget, but the newest entry is
    // always kept: the cache degenerates to capacity 1 by bytes.
    let cache = ArtifactCache::with_byte_budget(8, 0);
    assert_eq!(cache.byte_budget(), Some(0));
    for i in 10..14 {
        let src = program(i);
        cache.get_or_compile(&[&src]).unwrap();
        assert_eq!(cache.len(), 1, "budget 0 keeps exactly the newest artifact");
    }
    assert_eq!(cache.evictions(), 3);
}

#[test]
fn byte_budget_evicts_lru_first_and_tracks_bytes() {
    let one = {
        let probe = ArtifactCache::new(1);
        let src = program(20);
        probe.get_or_compile(&[&src]).unwrap().estimated_bytes()
    };
    assert!(one > 0, "artifacts report a nonzero size estimate");
    // Room for roughly two artifacts of this shape.
    let cache = ArtifactCache::with_byte_budget(16, one * 2 + one / 2);
    let srcs: Vec<String> = (21..25).map(program).collect();
    for src in &srcs {
        cache.get_or_compile(&[src]).unwrap();
        assert!(
            cache.len() == 1 || cache.bytes() <= one * 2 + one / 2,
            "cache over byte budget with multiple entries"
        );
    }
    // The survivors are the most recently inserted; LRU went first.
    let order = cache.lru_hashes();
    let last = source_hash(&[srcs.last().unwrap()]);
    assert_eq!(order.last().copied(), Some(last), "newest artifact survives");
    assert!(!order.contains(&source_hash(&[&srcs[0]])), "oldest artifact evicted");
    assert!(cache.evictions() >= 2);
}

#[test]
fn entry_cap_still_applies_with_a_generous_byte_budget() {
    let cache = ArtifactCache::with_byte_budget(2, usize::MAX);
    for i in 30..35 {
        let src = program(i);
        cache.get_or_compile(&[&src]).unwrap();
    }
    assert_eq!(cache.len(), 2, "entry capacity binds when bytes do not");
}

// ---------------------------------------------------------------------
// Quarantine ledger / circuit breaker
// ---------------------------------------------------------------------

use fortrans::{QuarantineMode, QuarantinePolicy};

#[test]
fn breaker_trips_at_threshold_and_only_clears_explicitly() {
    let cache = ArtifactCache::new(4);
    cache.set_quarantine_policy(Some(QuarantinePolicy {
        threshold: 3,
        mode: QuarantineMode::Refuse,
    }));
    let h = 0xABCD;
    cache.record_fault(h, false);
    cache.record_fault(h, true);
    assert!(!cache.is_quarantined(h), "below threshold");
    assert_eq!(cache.fault_counts(h), (1, 1));
    cache.record_fault(h, false);
    assert!(cache.is_quarantined(h), "threshold reached");
    assert_eq!(cache.quarantined_hashes(), vec![h]);
    // Disabling the policy does NOT close an open breaker.
    cache.set_quarantine_policy(None);
    assert!(cache.is_quarantined(h));
    assert!(cache.clear_quarantine(h), "clear reports the breaker was open");
    assert!(!cache.is_quarantined(h));
    assert_eq!(cache.fault_counts(h), (0, 0), "clear zeroes the ledger entry");
    assert!(!cache.clear_quarantine(h), "second clear is a no-op");
}

#[test]
fn fault_ledger_survives_eviction() {
    // Quarantine is keyed by source hash, not cache residency: evicting
    // an artifact must not launder its fault history.
    let cache = ArtifactCache::new(1);
    cache.set_quarantine_policy(Some(QuarantinePolicy {
        threshold: 2,
        mode: QuarantineMode::Refuse,
    }));
    let src = program(40);
    let h = cache.get_or_compile(&[&src]).unwrap().source_hash();
    cache.record_fault(h, false);
    // Evict it by inserting another artifact into the 1-entry cache.
    let other = program(41);
    cache.get_or_compile(&[&other]).unwrap();
    assert!(!cache.lru_hashes().contains(&h), "artifact evicted");
    cache.record_fault(h, false);
    assert!(cache.is_quarantined(h), "faults recorded across eviction trip the breaker");
}

#[test]
fn faults_without_a_policy_count_but_never_trip() {
    let cache = ArtifactCache::new(4);
    let h = 0x77;
    for _ in 0..100 {
        cache.record_fault(h, false);
    }
    assert_eq!(cache.fault_counts(h), (100, 0));
    assert!(!cache.is_quarantined(h), "no policy, no breaker");
}

// ---------------------------------------------------------------------
// The lazily built traced variant
// ---------------------------------------------------------------------

use std::sync::Barrier;

use fortrans::bytecode::{compile_program, BInstr};
use fortrans::{ArgVal, CompiledProgram, ExecMode, ExecTier, FaultPlan, PoolSet, Session};

const SIMULATED: ExecMode = ExecMode::Simulated { threads: 2 };

/// A reduction under an OMP loop: Serial, Parallel and Simulated all
/// have work to do, and Simulated posts a cost trace.
fn omp_program() -> Arc<CompiledProgram> {
    let src = r#"
MODULE lazy
CONTAINS
  REAL(8) FUNCTION total(n)
    INTEGER :: n
    INTEGER :: i
    REAL(8) :: s
    s = 0.0D0
    !$OMP PARALLEL DO REDUCTION(+:s)
    DO i = 1, n
      s = s + 0.25D0 * i * i
    END DO
    !$OMP END PARALLEL DO
    total = s
  END FUNCTION total
END MODULE lazy
"#;
    CompiledProgram::compile(&[src]).expect("lazy-build program compiles")
}

#[test]
fn only_the_first_simulated_run_builds_the_traced_variant() {
    let art = omp_program();
    let session = Session::solo(Arc::clone(&art));
    let args = [ArgVal::I(64)];
    let compiled = art.estimated_bytes();
    for (mode, tier) in [
        (ExecMode::Serial, ExecTier::Vm),
        (ExecMode::Parallel { threads: 2 }, ExecTier::Vm),
        (ExecMode::Serial, ExecTier::TreeWalk),
        (SIMULATED, ExecTier::TreeWalk),
    ] {
        session.run_tiered("total", &args, mode, tier).expect("run succeeds");
        let built = art.estimated_bytes() != compiled;
        assert!(!built, "{mode:?} on {tier:?} built the traced variant");
    }
    let first = session.run("total", &args, SIMULATED).expect("first Simulated run");
    assert!(first.fallback.is_none(), "the traced build verified and ran");
    let grown = art.estimated_bytes();
    assert!(grown > compiled, "the first Simulated run adds the traced build");
    let build = art.bytecode(true);
    let again = Session::solo(Arc::clone(&art)).run("total", &args, SIMULATED).expect("rerun");
    assert_eq!(again.trace, first.trace);
    assert_eq!(art.estimated_bytes(), grown, "later Simulated runs build nothing");
    assert!(Arc::ptr_eq(&build, &art.bytecode(true)), "one traced build per artifact");
}

#[test]
fn racing_first_simulated_runs_share_one_traced_build() {
    let art = omp_program();
    let pools = Arc::new(PoolSet::new());
    let start = Barrier::new(8);
    let (builds, traces): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                let session = Session::new(Arc::clone(&art), Arc::clone(&pools));
                let (art, start) = (&art, &start);
                scope.spawn(move || {
                    start.wait();
                    let out = session.run("total", &[ArgVal::I(64)], SIMULATED).expect("run");
                    assert!(out.fallback.is_none());
                    (art.bytecode(true), out.trace)
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().expect("racer panicked")).unzip()
    });
    assert!(builds.iter().all(|b| Arc::ptr_eq(b, &builds[0])), "racers built more than once");
    assert!(!traces[0].events.is_empty(), "Simulated runs post a trace");
    assert!(traces.iter().all(|t| *t == traces[0]), "racers' cost traces differ");
}

#[test]
fn a_traced_override_runs_without_building_the_artifact_variant() {
    let art = omp_program();
    let compiled = art.estimated_bytes();
    let args = [ArgVal::I(64)];
    let oracle = Session::solo(Arc::clone(&art))
        .run_tiered("total", &args, SIMULATED, ExecTier::TreeWalk)
        .expect("oracle run");
    let session = Session::solo(Arc::clone(&art));
    let own = compile_program(art.program(), true);
    session.debug_faults(FaultPlan { bytecode: Some((true, own)), ..FaultPlan::default() });
    let out = session.run("total", &args, SIMULATED).expect("override run");
    assert!(out.fallback.is_none(), "the override executed on the VM");
    assert_eq!(out.trace, oracle.trace);
    assert_eq!(art.estimated_bytes(), compiled, "the override built the artifact's variant");
    // An override that traps still traps, with the artifact untouched.
    let mut broken = compile_program(art.program(), true);
    for instr in broken.iter_mut().flat_map(|bu| bu.code.iter_mut()) {
        if let BInstr::LoadF(slot) | BInstr::StoreF(slot) = instr {
            *slot = u32::MAX;
        }
    }
    session.debug_faults(FaultPlan { bytecode: Some((true, broken)), ..FaultPlan::default() });
    let out = session.run("total", &args, SIMULATED).expect("fallback answers");
    assert!(out.fallback.is_some(), "the broken override executed and trapped");
    assert_eq!(out.trace, oracle.trace);
    assert_eq!(art.estimated_bytes(), compiled);
}

#[test]
fn a_simulated_run_grows_a_cached_artifact_until_the_next_insert() {
    let srcs: Vec<String> = (40..43).map(program).collect();
    let sizes: Vec<usize> = srcs
        .iter()
        .map(|src| ArtifactCache::new(1).get_or_compile(&[src]).unwrap().estimated_bytes())
        .collect();
    // Room for the first two artifacts as compiled, optimized build only.
    let budget = sizes[0] + sizes[1];
    let cache = ArtifactCache::with_byte_budget(8, budget);
    let first = cache.get_or_compile(&[&srcs[0]]).unwrap();
    cache.get_or_compile(&[&srcs[1]]).unwrap();
    assert_eq!((cache.len(), cache.bytes()), (2, budget));
    Session::solo(Arc::clone(&first))
        .run("f40", &[ArgVal::F(1.5)], SIMULATED)
        .expect("Simulated run");
    assert!(first.estimated_bytes() > sizes[0], "the run made the traced build");
    // The budget is checked on insert only: the grown entry stays.
    assert_eq!(cache.len(), 2);
    assert!(cache.bytes() > budget);
    assert_eq!(cache.evictions(), 0);
    // The next insert evicts least recently used first, the grown entry.
    cache.get_or_compile(&[&srcs[2]]).unwrap();
    assert!(cache.bytes() <= budget, "the insert restored the budget");
    assert!(!cache.lru_hashes().contains(&first.source_hash()));
    assert_eq!(cache.evictions(), 1);
}
