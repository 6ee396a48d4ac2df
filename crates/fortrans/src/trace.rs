//! Execution observability: per-unit / per-DO-loop spans and the
//! [`Profile`] report.
//!
//! Both execution tiers accept an optional [`Collector`] reference. When
//! absent (the default for [`crate::Session::run`]), the only cost is a
//! branch on an `Option` at unit, DO-loop and OMP-region boundaries —
//! never per instruction or per iteration. When present, the tiers record
//!
//! * one **span** per unit activation, per counted `DO` loop entry and
//!   per `!$OMP PARALLEL DO` region, merged by call path into a tree with
//!   entry counts and inclusive wall time;
//! * the tier's **step count** (VM instructions retired / interpreter
//!   statements executed), which doubles as the [`crate::RunLimits`]
//!   budget headroom;
//! * trap/fallback diagnostics when the VM tier re-executed on the
//!   tree-walk oracle.
//!
//! `DO WHILE` loops are deliberately *not* profiled (neither tier), so
//! span trees are tier-invariant by construction — the differential suite
//! locks this.
//!
//! The report renders as JSON (hand-rolled; the workspace has no serde)
//! and as folded stacks (`a;b;c N`, flamegraph-ready). Nothing in the
//! tree reads either back; goldens here and the properties in
//! `tests/profile_property.rs` pin what the writers emit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One program unit (subroutine/function) activation site.
    Unit,
    /// One counted `DO` loop (entries = loop entries, not iterations).
    Loop,
    /// One `!$OMP PARALLEL DO` region.
    OmpLoop,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Unit => "unit",
            SpanKind::Loop => "loop",
            SpanKind::OmpLoop => "omp",
        }
    }
}

/// One node of the merged span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub kind: SpanKind,
    /// Unit name for `Unit` spans; empty for loops.
    pub name: String,
    /// Source line of the `DO` statement; 0 for units.
    pub line: u32,
    /// Times this span was entered.
    pub entries: u64,
    /// Inclusive wall time across all entries.
    pub wall_ns: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall time not attributed to any child span.
    pub fn self_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.children.iter().map(|c| c.wall_ns).sum())
    }

    /// The node's folded-stack frame label.
    pub fn label(&self) -> String {
        match self.kind {
            SpanKind::Unit => self.name.clone(),
            SpanKind::Loop => format!("do@{}", self.line),
            SpanKind::OmpLoop => format!("omp@{}", self.line),
        }
    }
}

/// Per-region worker utilization, mirrored from
/// `omprt::RegionMetrics` (kept structurally so `Profile` stays
/// dependency-free and integer-only for lossless JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionReport {
    pub threads: u64,
    /// Fork-to-join wall time of the region.
    pub wall_ns: u64,
    /// Per-worker busy time (`busy_ns[tid]`).
    pub busy_ns: Vec<u64>,
    /// Per-worker wake latency, fork to closure entry (`start_ns[tid]`).
    pub start_ns: Vec<u64>,
    /// Source line of the parallel DO that forked the region — the join
    /// key back to `omp@line` spans and schedule overrides (0 when the
    /// fork was untagged).
    pub line: u64,
    /// Rendered schedule the region ran under (e.g. `static`,
    /// `dynamic,1`); empty when the fork was untagged.
    pub sched: String,
}

impl RegionReport {
    /// Total idle time summed over workers.
    pub fn idle_ns(&self) -> u64 {
        let cap = self.wall_ns.saturating_mul(self.threads);
        cap.saturating_sub(self.busy_ns.iter().sum())
    }

    /// Mean busy fraction of the team, in [0, 1].
    pub fn utilization(&self) -> f64 {
        let cap = self.wall_ns.saturating_mul(self.threads);
        if cap == 0 {
            return 0.0;
        }
        let busy: u64 = self.busy_ns.iter().sum();
        busy as f64 / cap as f64
    }

    /// Max-over-mean busy time — 1.0 means perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.busy_ns.iter().copied().max().unwrap_or(0);
        let n = self.busy_ns.len().max(1) as f64;
        let mean = self.busy_ns.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 1.0;
        }
        max as f64 / mean
    }

    /// Median over the team of the fork-to-closure-entry latency (upper
    /// median for an even team; 0 for an empty record).
    pub fn median_start_ns(&self) -> u64 {
        let mut v = self.start_ns.clone();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0)
    }
}

/// VM→oracle fallback diagnostics for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FallbackInfo {
    /// Unit the trap surfaced in.
    pub unit: String,
    /// The trap payload.
    pub what: String,
}

/// The stable observability report of one profiled run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Entry unit name.
    pub entry: String,
    /// `"vm"` or `"tree-walk"` — the tier that produced the answer.
    pub tier: String,
    /// `"serial"`, `"parallel(N)"` or `"simulated(N)"`.
    pub mode: String,
    /// End-to-end wall time of the run.
    pub wall_ns: u64,
    /// VM instructions retired / interpreter statements executed — the
    /// same counter [`crate::RunLimits::max_steps`] budgets.
    pub steps: u64,
    /// The step budget, when one was configured.
    pub max_steps: Option<u64>,
    pub spans: Vec<SpanNode>,
    /// Parallel-region utilization, in fork order (Parallel mode only).
    pub regions: Vec<RegionReport>,
    /// Set when the VM trapped and the oracle re-ran the request.
    pub fallback: Option<FallbackInfo>,
    /// Session-lifetime fallback total (monotonic across runs).
    pub fallback_count: u64,
    /// Session-lifetime count of loop entries executed on the native
    /// (JIT) tier (monotonic across runs; 0 on targets without one).
    pub native_entries: u64,
    /// Session-lifetime count of native-tier deopts — entry-guard
    /// failures on promoted regions that fell back to the vector or
    /// scalar path (monotonic across runs).
    pub native_deopts: u64,
}

impl Profile {
    /// Remaining step budget, when a budget was set.
    pub fn steps_headroom(&self) -> Option<u64> {
        self.max_steps.map(|m| m.saturating_sub(self.steps))
    }

    /// Aggregate loop-entry counts keyed by `(unit, line)` — the
    /// tier-invariant observable the differential suite compares.
    pub fn loop_entry_counts(&self) -> BTreeMap<(String, u32), u64> {
        let mut out = BTreeMap::new();
        fn walk(nodes: &[SpanNode], unit: &str, out: &mut BTreeMap<(String, u32), u64>) {
            for n in nodes {
                match n.kind {
                    SpanKind::Unit => walk(&n.children, &n.name, out),
                    SpanKind::Loop | SpanKind::OmpLoop => {
                        *out.entry((unit.to_string(), n.line)).or_insert(0) += n.entries;
                        walk(&n.children, unit, out);
                    }
                }
            }
        }
        walk(&self.spans, "", &mut out);
        out
    }

    // ---- JSON ----

    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let _ = write!(s, "\"entry\":{}", json_str(&self.entry));
        let _ = write!(s, ",\"tier\":{}", json_str(&self.tier));
        let _ = write!(s, ",\"mode\":{}", json_str(&self.mode));
        let _ = write!(s, ",\"wall_ns\":{}", self.wall_ns);
        let _ = write!(s, ",\"steps\":{}", self.steps);
        match self.max_steps {
            Some(m) => {
                let _ = write!(s, ",\"max_steps\":{m}");
            }
            None => s.push_str(",\"max_steps\":null"),
        }
        s.push_str(",\"spans\":[");
        for (i, n) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            span_json(n, &mut s);
        }
        s.push_str("],\"regions\":[");
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"threads\":{},\"wall_ns\":{},\"line\":{},\"sched\":{},\"busy_ns\":[",
                r.threads,
                r.wall_ns,
                r.line,
                json_str(&r.sched)
            );
            let per_thread = |s: &mut String, ns: &[u64]| {
                for (j, b) in ns.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{b}");
                }
            };
            per_thread(&mut s, &r.busy_ns);
            s.push_str("],\"start_ns\":[");
            per_thread(&mut s, &r.start_ns);
            s.push_str("]}");
        }
        s.push(']');
        match &self.fallback {
            Some(f) => {
                let _ = write!(
                    s,
                    ",\"fallback\":{{\"unit\":{},\"what\":{}}}",
                    json_str(&f.unit),
                    json_str(&f.what)
                );
            }
            None => s.push_str(",\"fallback\":null"),
        }
        let _ = write!(s, ",\"fallback_count\":{}", self.fallback_count);
        let _ = write!(s, ",\"native_entries\":{}", self.native_entries);
        let _ = write!(s, ",\"native_deopts\":{}", self.native_deopts);
        s.push('}');
        s
    }

    // ---- Folded stacks ----

    /// Flamegraph-ready folded stacks: one `path;to;frame self_ns` line
    /// per span with nonzero self time (leaves always emitted, so no
    /// frame disappears).
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        let mut path: Vec<String> = Vec::new();
        fn walk(nodes: &[SpanNode], path: &mut Vec<String>, out: &mut String) {
            for n in nodes {
                path.push(n.label());
                let own = n.self_ns();
                if own > 0 || n.children.is_empty() {
                    let _ = writeln!(out, "{} {}", path.join(";"), own);
                }
                walk(&n.children, path, out);
                path.pop();
            }
        }
        walk(&self.spans, &mut path, &mut out);
        out
    }
}

fn span_json(n: &SpanNode, s: &mut String) {
    let _ = write!(
        s,
        "{{\"kind\":{},\"name\":{},\"line\":{},\"entries\":{},\"wall_ns\":{},\"children\":[",
        json_str(n.kind.name()),
        json_str(&n.name),
        n.line,
        n.entries,
        n.wall_ns
    );
    for (i, c) in n.children.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        span_json(c, s);
    }
    s.push_str("]}");
}

/// JSON string literal with full escaping of quotes, backslashes and
/// control characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---- the collector the tiers write into ----

struct Node {
    kind: SpanKind,
    name: String,
    line: u32,
    entries: u64,
    wall_ns: u64,
    children: Vec<usize>,
}

struct Open {
    node: usize,
    start: Instant,
    kind: SpanKind,
    /// VM only: pc just past the loop (used by [`Collector::close_loops_at`]).
    end_pc: u32,
}

#[derive(Default)]
struct CInner {
    nodes: Vec<Node>,
    roots: Vec<usize>,
    open: Vec<Open>,
    steps: u64,
}

/// Span sink shared by both tiers for one run.
///
/// Deliberately **not** `Sync`: parallel-region workers never hold a
/// collector (worker `Vm`/`Task` instances are constructed without one),
/// so all writes come from the orchestrating thread.
#[derive(Default)]
pub struct Collector {
    inner: RefCell<CInner>,
}

impl Collector {
    pub fn new() -> Collector {
        Collector::default()
    }

    fn enter(&self, kind: SpanKind, name: &str, line: u32, end_pc: u32) {
        let mut i = self.inner.borrow_mut();
        let parent = i.open.last().map(|o| o.node);
        let siblings = match parent {
            Some(p) => &i.nodes[p].children,
            None => &i.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&c| i.nodes[c].kind == kind && i.nodes[c].line == line && i.nodes[c].name == name);
        let node = match found {
            Some(n) => n,
            None => {
                let n = i.nodes.len();
                i.nodes.push(Node {
                    kind,
                    name: name.to_string(),
                    line,
                    entries: 0,
                    wall_ns: 0,
                    children: Vec::new(),
                });
                match parent {
                    Some(p) => i.nodes[p].children.push(n),
                    None => i.roots.push(n),
                }
                n
            }
        };
        i.nodes[node].entries += 1;
        i.open.push(Open { node, start: Instant::now(), kind, end_pc });
    }

    fn pop_one(i: &mut CInner) {
        if let Some(o) = i.open.pop() {
            i.nodes[o.node].wall_ns += o.start.elapsed().as_nanos() as u64;
        }
    }

    /// Opens a unit span (entry unit or a call).
    pub fn unit_enter(&self, name: &str) {
        self.enter(SpanKind::Unit, name, 0, 0);
    }

    /// Closes the innermost unit span, first closing any loop spans left
    /// open by a `RETURN` from inside a loop.
    pub fn unit_exit(&self) {
        let mut i = self.inner.borrow_mut();
        while let Some(top) = i.open.last() {
            let is_unit = top.kind == SpanKind::Unit;
            Self::pop_one(&mut i);
            if is_unit {
                break;
            }
        }
    }

    /// Opens a counted-DO-loop span. `end_pc` is the VM pc just past the
    /// loop (0 in the tree-walk tier, which closes structurally).
    pub fn loop_enter(&self, line: u32, end_pc: u32) {
        self.enter(SpanKind::Loop, "", line, end_pc);
    }

    /// Structured close of the innermost loop span (tree-walk tier).
    pub fn loop_exit(&self) {
        let mut i = self.inner.borrow_mut();
        if i.open.last().map(|o| o.kind) == Some(SpanKind::Loop) {
            Self::pop_one(&mut i);
        }
    }

    /// VM tier: a jump to `target` leaves every open loop whose end pc is
    /// at or before the target (loop-exit branches and `EXIT` jumps land
    /// exactly on a loop's end pc; backward jumps close nothing).
    pub fn close_loops_at(&self, target: u32) {
        let mut i = self.inner.borrow_mut();
        while let Some(top) = i.open.last() {
            if top.kind != SpanKind::Loop || top.end_pc > target {
                break;
            }
            Self::pop_one(&mut i);
        }
    }

    /// Opens an `!$OMP PARALLEL DO` region span.
    pub fn omp_enter(&self, line: u32) {
        self.enter(SpanKind::OmpLoop, "", line, 0);
    }

    /// Closes the innermost OMP span (and any loop spans still open
    /// inside the region body).
    pub fn omp_exit(&self) {
        let mut i = self.inner.borrow_mut();
        while let Some(top) = i.open.last() {
            let is_omp = top.kind == SpanKind::OmpLoop;
            Self::pop_one(&mut i);
            if is_omp {
                break;
            }
        }
    }

    /// Records the tier's retired-step count.
    pub fn set_steps(&self, steps: u64) {
        self.inner.borrow_mut().steps = steps;
    }

    /// Closes any spans still open (error unwinds) and extracts the span
    /// tree and step count.
    pub fn finish(&self) -> (Vec<SpanNode>, u64) {
        let mut i = self.inner.borrow_mut();
        while !i.open.is_empty() {
            Self::pop_one(&mut i);
        }
        fn build(nodes: &[Node], idx: usize) -> SpanNode {
            let n = &nodes[idx];
            SpanNode {
                kind: n.kind,
                name: n.name.clone(),
                line: n.line,
                entries: n.entries,
                wall_ns: n.wall_ns,
                children: n.children.iter().map(|&c| build(nodes, c)).collect(),
            }
        }
        let spans = i.roots.iter().map(|&r| build(&i.nodes, r)).collect();
        (spans, i.steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: SpanKind, name: &str, line: u32, entries: u64, wall: u64) -> SpanNode {
        SpanNode { kind, name: name.into(), line, entries, wall_ns: wall, children: vec![] }
    }

    fn sample() -> Profile {
        let inner = leaf(SpanKind::Loop, "", 7, 12, 400);
        let omp = SpanNode { children: vec![inner], ..leaf(SpanKind::OmpLoop, "", 5, 1, 900) };
        let callee = leaf(SpanKind::Unit, "helper", 0, 3, 50);
        let root = SpanNode {
            children: vec![omp, callee],
            ..leaf(SpanKind::Unit, "work", 0, 1, 1000)
        };
        Profile {
            entry: "work".into(),
            tier: "vm".into(),
            mode: "parallel(4)".into(),
            wall_ns: 1100,
            steps: 12345,
            max_steps: Some(1_000_000),
            spans: vec![root],
            regions: vec![RegionReport {
                threads: 4,
                wall_ns: 800,
                busy_ns: vec![700, 650, 600, 550],
                start_ns: vec![20, 45, 60, 75],
                line: 5,
                sched: "static".into(),
            }],
            fallback: None,
            fallback_count: 0,
            native_entries: 42,
            native_deopts: 3,
        }
    }

    /// Everything of `sample()`'s JSON between the header fields and the
    /// fallback: the span tree (with `helper` spelled `helper_name`) and
    /// the one region.
    fn spans_and_regions_json(helper_name: &str) -> String {
        [
            r#""spans":[{"kind":"unit","name":"work","line":0,"entries":1,"wall_ns":1000,"children":["#,
            r#"{"kind":"omp","name":"","line":5,"entries":1,"wall_ns":900,"children":["#,
            r#"{"kind":"loop","name":"","line":7,"entries":12,"wall_ns":400,"children":[]}]},"#,
            r#"{"kind":"unit","name":""#,
            helper_name,
            r#"","line":0,"entries":3,"wall_ns":50,"children":[]}]}],"#,
            r#""regions":[{"threads":4,"wall_ns":800,"line":5,"sched":"static","#,
            r#""busy_ns":[700,650,600,550],"start_ns":[20,45,60,75]}],"#,
        ]
        .concat()
    }

    #[test]
    fn to_json_golden() {
        let want = [
            r#"{"entry":"work","tier":"vm","mode":"parallel(4)","wall_ns":1100,"steps":12345,"#,
            r#""max_steps":1000000,"#,
            &spans_and_regions_json("helper"),
            r#""fallback":null,"fallback_count":0,"native_entries":42,"native_deopts":3}"#,
        ]
        .concat();
        assert_eq!(sample().to_json(), want);
    }

    #[test]
    fn to_json_golden_with_fallback_and_escapes() {
        let mut p = sample();
        p.spans[0].children[1].name = "hel\"per\\\u{2}".into();
        p.fallback = Some(FallbackInfo {
            unit: "we\"ird\\name".into(),
            what: "line1\nline2\ttab\u{1}".into(),
        });
        p.max_steps = None;
        let want = [
            r#"{"entry":"work","tier":"vm","mode":"parallel(4)","wall_ns":1100,"steps":12345,"#,
            r#""max_steps":null,"#,
            &spans_and_regions_json(r#"hel\"per\\\u0002"#),
            r#""fallback":{"unit":"we\"ird\\name","what":"line1\nline2\ttab\u0001"},"#,
            r#""fallback_count":0,"native_entries":42,"native_deopts":3}"#,
        ]
        .concat();
        assert_eq!(p.to_json(), want);
    }

    #[test]
    fn to_folded_golden() {
        // Self time per path: `work` keeps 1000 - 900 - 50.
        let want = "work 50\nwork;omp@5 500\nwork;omp@5;do@7 400\nwork;helper 50\n";
        assert_eq!(sample().to_folded(), want);
    }

    #[test]
    fn collector_merges_and_counts() {
        let c = Collector::new();
        c.unit_enter("main");
        for _ in 0..3 {
            c.loop_enter(4, 10);
            c.loop_exit();
        }
        c.unit_enter("callee");
        c.unit_exit();
        c.unit_enter("callee");
        c.unit_exit();
        c.unit_exit();
        let (spans, _) = c.finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "main");
        assert_eq!(spans[0].children.len(), 2);
        assert_eq!(spans[0].children[0].entries, 3);
        assert_eq!(spans[0].children[1].entries, 2);
    }

    #[test]
    fn unit_exit_closes_stray_loops() {
        let c = Collector::new();
        c.unit_enter("f");
        c.loop_enter(2, 9);
        c.loop_enter(3, 8);
        c.unit_exit(); // RETURN from inside the nest
        let (spans, _) = c.finish();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].children[0].children[0].line == 3);
    }

    #[test]
    fn close_loops_at_respects_end_pcs() {
        let c = Collector::new();
        c.unit_enter("f");
        c.loop_enter(2, 20);
        c.loop_enter(3, 10);
        c.close_loops_at(10); // inner natural exit
        c.close_loops_at(5); // backward jump: closes nothing
        c.close_loops_at(20); // outer exit
        {
            let i = c.inner.borrow();
            assert_eq!(i.open.len(), 1, "only the unit span remains open");
        }
        c.unit_exit();
        let (spans, _) = c.finish();
        assert_eq!(spans[0].children.len(), 1);
        assert_eq!(spans[0].children[0].children.len(), 1);
    }

    #[test]
    fn loop_entry_counts_key_by_enclosing_unit() {
        let c = Collector::new();
        c.unit_enter("outer");
        c.loop_enter(5, 0);
        c.loop_exit();
        c.unit_enter("inner");
        c.loop_enter(5, 0);
        c.loop_enter(6, 0);
        c.loop_exit();
        c.loop_exit();
        c.unit_exit();
        c.unit_exit();
        let (spans, steps) = c.finish();
        let p = Profile {
            entry: "outer".into(),
            tier: "vm".into(),
            mode: "serial".into(),
            wall_ns: 0,
            steps,
            max_steps: None,
            spans,
            regions: vec![],
            fallback: None,
            fallback_count: 0,
            native_entries: 0,
            native_deopts: 0,
        };
        let counts = p.loop_entry_counts();
        assert_eq!(counts[&("outer".to_string(), 5)], 1);
        assert_eq!(counts[&("inner".to_string(), 5)], 1);
        assert_eq!(counts[&("inner".to_string(), 6)], 1);
    }

    #[test]
    fn headroom_and_region_math() {
        let p = sample();
        assert_eq!(p.steps_headroom(), Some(1_000_000 - 12345));
        let r = &p.regions[0];
        assert_eq!(r.idle_ns(), 4 * 800 - (700 + 650 + 600 + 550));
        assert!(r.utilization() > 0.7 && r.utilization() < 0.8);
        assert!(r.imbalance() > 1.0);
    }
}
