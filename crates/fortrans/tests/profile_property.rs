//! Property tests for the [`Profile`] writers (nothing reads a saved
//! profile back, so these check the output, not a round trip).
//!
//! * `to_json` is well-formed for arbitrary profiles: braces, brackets
//!   and quotes balance, strings hold no raw control character, and the
//!   top-level counters appear with their values.
//! * `to_folded` has exactly one line per leaf path, every line's path is
//!   distinct and ends in an integer weight, and the weights sum to the
//!   roots' inclusive `wall_ns` — for span trees in the format's
//!   representable subset: sibling frame labels distinct (folded merges
//!   equal paths) and inclusive wall time at least the children's sum
//!   (self time is what the format stores).
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

/// Panics unless `json` nests its braces and brackets properly, closes
/// every string, and escapes every control character.
fn assert_well_formed(json: &str, case: usize) {
    let mut open: Vec<char> = Vec::new();
    let mut chars = json.chars();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        assert!(c >= ' ', "case {case}: raw control character {c:?} in\n{json}");
        match (in_string, c) {
            (true, '\\') => {
                let esc = chars.next();
                assert!(
                    matches!(esc, Some('"' | '\\' | 'n' | 'r' | 't' | 'u')),
                    "case {case}: bad escape {esc:?} in\n{json}"
                );
            }
            (_, '"') => in_string = !in_string,
            (false, '{' | '[') => open.push(c),
            (false, '}' | ']') => {
                let want = if c == '}' { '{' } else { '[' };
                assert_eq!(open.pop(), Some(want), "case {case}: stray {c:?} in\n{json}");
            }
            _ => {}
        }
    }
    assert!(!in_string && open.is_empty(), "case {case}: unterminated\n{json}");
}

#[test]
fn json_is_well_formed_and_carries_the_counters() {
    let mut rng = TestRng::for_test("json_is_well_formed_and_carries_the_counters");
    for case in 0..256 {
        let p = draw_profile(&mut rng);
        let json = p.to_json();
        assert_well_formed(&json, case);
        let max_steps = p.max_steps.map_or("null".to_string(), |m| m.to_string());
        for field in [
            format!("\"wall_ns\":{},\"steps\":{},\"max_steps\":{max_steps},", p.wall_ns, p.steps),
            format!("\"fallback_count\":{},", p.fallback_count),
            format!("\"native_entries\":{},\"native_deopts\":{}}}", p.native_entries, p.native_deopts),
        ] {
            assert!(json.contains(&field), "case {case}: no {field} in\n{json}");
        }
        assert_eq!(json.contains("\"fallback\":null"), p.fallback.is_none(), "case {case}");
    }
}

/// Every root-to-leaf label path of `nodes`, `;`-joined.
fn leaf_paths(nodes: &[SpanNode], prefix: &str, out: &mut Vec<String>) {
    for n in nodes {
        let path = if prefix.is_empty() { n.label() } else { format!("{prefix};{}", n.label()) };
        if n.children.is_empty() {
            out.push(path);
        } else {
            leaf_paths(&n.children, &path, out);
        }
    }
}

#[test]
fn folded_has_one_line_per_leaf_and_weights_sum_to_the_roots() {
    let mut rng = TestRng::for_test("folded_has_one_line_per_leaf_and_weights_sum_to_the_roots");
    for case in 0..256 {
        let p = draw_profile(&mut rng);
        let folded = p.to_folded();
        let lines: Vec<(&str, u64)> = folded
            .lines()
            .map(|l| {
                let (path, weight) = l.rsplit_once(' ').expect("path and weight");
                (path, weight.parse().unwrap_or_else(|_| panic!("case {case}: weight in {l:?}")))
            })
            .collect();
        let mut paths: Vec<&str> = lines.iter().map(|(path, _)| *path).collect();
        paths.sort_unstable();
        assert!(paths.windows(2).all(|w| w[0] != w[1]), "case {case}: repeated path\n{folded}");
        let mut leaves = Vec::new();
        leaf_paths(&p.spans, "", &mut leaves);
        for leaf in &leaves {
            assert!(paths.binary_search(&leaf.as_str()).is_ok(), "case {case}: no line for {leaf}");
        }
        let total: u64 = lines.iter().map(|(_, w)| w).sum();
        let roots: u64 = p.spans.iter().map(|s| s.wall_ns).sum();
        assert_eq!(total, roots, "case {case}: weights do not add up to the roots\n{folded}");
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
