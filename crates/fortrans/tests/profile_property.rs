//! Property tests for the [`Profile`] renderers.
//!
//! * JSON round-trips losslessly: `from_json(to_json(p)) == p` for
//!   arbitrary profiles (integer-only payload, escaped strings).
//! * Folded stacks round-trip to the span skeleton:
//!   `parse_folded(to_folded(p)) == skeleton(p.spans)` for span trees
//!   satisfying the format's representable subset — sibling frame labels
//!   distinct (folded merges equal paths) and inclusive wall time at
//!   least the children's sum (self time is what the format stores).
//!
//! Generated trees satisfy both by construction, which mirrors what the
//! collector produces (it merges sibling spans by identity and charges
//! children's elapsed time to the parent too).

use fortrans::{FallbackInfo, Profile, RegionReport, SpanKind, SpanNode};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Draws a span tree of the given depth. Sibling labels are made
/// distinct by construction: child `i` gets `line == base + i` (loops)
/// or a name suffixed with `i` (units).
fn draw_tree(rng: &mut TestRng, depth: u32) -> SpanNode {
    let kind = match rng.below(3) {
        0 => SpanKind::Unit,
        1 => SpanKind::Loop,
        _ => SpanKind::OmpLoop,
    };
    let n_children = if depth == 0 { 0 } else { rng.below(4) };
    let base_line = 1 + rng.below(500) as u32;
    let children: Vec<SpanNode> = (0..n_children)
        .map(|i| {
            let mut c = draw_tree(rng, depth - 1);
            match c.kind {
                SpanKind::Unit => c.name = format!("{}_{i}", c.name),
                SpanKind::Loop | SpanKind::OmpLoop => c.line = base_line + i as u32,
            }
            c
        })
        .collect();
    let child_sum: u64 = children.iter().map(|c| c.wall_ns).sum();
    let name_strat = "[a-z][a-z0-9_]{0,8}";
    SpanNode {
        kind,
        name: if kind == SpanKind::Unit {
            Strategy::new_value(&name_strat, rng)
        } else {
            String::new()
        },
        line: if kind == SpanKind::Unit { 0 } else { base_line },
        entries: rng.below(1000) as u64,
        wall_ns: child_sum + rng.below(10_000) as u64,
        children,
    }
}

fn draw_profile(rng: &mut TestRng) -> Profile {
    let n_roots = 1 + rng.below(3);
    let spans: Vec<SpanNode> = (0..n_roots)
        .map(|i| {
            let mut s = draw_tree(rng, 3);
            match s.kind {
                SpanKind::Unit => s.name = format!("{}_{i}", s.name),
                SpanKind::Loop | SpanKind::OmpLoop => s.line = 1000 + i as u32,
            }
            s
        })
        .collect();
    let regions: Vec<RegionReport> = (0..rng.below(3))
        .map(|_| {
            let threads = 1 + rng.below(8) as u64;
            RegionReport {
                threads,
                wall_ns: rng.below(1_000_000) as u64,
                busy_ns: (0..threads).map(|_| rng.below(1_000_000) as u64).collect(),
                start_ns: (0..threads).map(|_| rng.below(100_000) as u64).collect(),
                line: rng.below(2000) as u64,
                sched: ["static", "static,4", "dynamic,1", "guided,2"][rng.below(4)].into(),
            }
        })
        .collect();
    Profile {
        entry: Strategy::new_value(&"[a-z][a-z0-9_]{0,10}", rng),
        tier: if rng.below(2) == 0 { "vm".into() } else { "tree-walk".into() },
        mode: ["serial", "parallel(4)", "simulated(2)"][rng.below(3)].into(),
        wall_ns: rng.next_u64() >> 20,
        steps: rng.next_u64() >> 20,
        max_steps: if rng.below(2) == 0 { Some(rng.next_u64() >> 20) } else { None },
        spans,
        regions,
        fallback: if rng.below(3) == 0 {
            Some(FallbackInfo {
                unit: Strategy::new_value(&"[a-z][a-z0-9_]{0,10}", rng),
                // Exercise JSON escaping: quotes, backslash, control chars.
                what: format!("trap \"{}\"\\\n\t\u{1}", rng.below(100)),
            })
        } else {
            None
        },
        fallback_count: rng.below(10) as u64,
        native_entries: rng.below(100) as u64,
        native_deopts: rng.below(10) as u64,
    }
}

#[test]
fn json_round_trip_is_lossless() {
    let mut rng = TestRng::for_test("json_round_trip_is_lossless");
    for case in 0..256 {
        let p = draw_profile(&mut rng);
        let json = p.to_json();
        let back = Profile::from_json(&json)
            .unwrap_or_else(|e| panic!("case {case}: JSON does not parse back: {e}\n{json}"));
        assert_eq!(p, back, "case {case}: JSON round-trip changed the profile");
    }
}

#[test]
fn folded_round_trip_is_the_skeleton() {
    let mut rng = TestRng::for_test("folded_round_trip_is_the_skeleton");
    for case in 0..256 {
        let p = draw_profile(&mut rng);
        let folded = p.to_folded();
        let parsed = Profile::parse_folded(&folded)
            .unwrap_or_else(|e| panic!("case {case}: folded does not parse back: {e}\n{folded}"));
        let skel: Vec<SpanNode> = p.spans.iter().map(|s| s.skeleton()).collect();
        assert_eq!(parsed, skel, "case {case}: folded round-trip changed the span tree");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Headroom never underflows and is consistent with the budget.
    #[test]
    fn headroom_is_saturating(steps in 0u64..1_000_000, budget in 0u64..1_000_000) {
        let p = Profile {
            entry: "e".into(),
            tier: "vm".into(),
            mode: "serial".into(),
            wall_ns: 0,
            steps,
            max_steps: Some(budget),
            spans: vec![],
            regions: vec![],
            fallback: None,
            fallback_count: 0,
            native_entries: 0,
            native_deopts: 0,
        };
        let h = p.steps_headroom().unwrap();
        prop_assert_eq!(h, budget.saturating_sub(steps));
        prop_assert!(h <= budget);
    }
}
