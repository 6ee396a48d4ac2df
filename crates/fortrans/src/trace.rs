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
//! and as folded stacks (`a;b;c N`, flamegraph-ready). Both renderers
//! have parsers, so profiles survive a round-trip through either format —
//! locked by property tests.

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

    /// Copy with entry counts zeroed — the shape information a folded
    /// stack preserves.
    pub fn skeleton(&self) -> SpanNode {
        SpanNode {
            kind: self.kind,
            name: self.name.clone(),
            line: self.line,
            entries: 0,
            wall_ns: self.wall_ns,
            children: self.children.iter().map(|c| c.skeleton()).collect(),
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

    pub fn from_json(src: &str) -> Result<Profile, String> {
        let v = Json::parse(src)?;
        let o = v.obj("profile")?;
        let spans = o
            .req("spans")?
            .arr("spans")?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let regions = o
            .req("regions")?
            .arr("regions")?
            .iter()
            .map(|r| {
                let ro = r.obj("region")?;
                let per_thread = |key: &str| {
                    ro.req(key)?.arr(key)?.iter().map(|b| b.num(key)).collect::<Result<Vec<_>, _>>()
                };
                Ok(RegionReport {
                    threads: ro.req("threads")?.num("threads")?,
                    wall_ns: ro.req("wall_ns")?.num("wall_ns")?,
                    line: ro.req("line")?.num("line")?,
                    sched: ro.req("sched")?.str("sched")?,
                    busy_ns: per_thread("busy_ns")?,
                    start_ns: per_thread("start_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let fallback = match o.req("fallback")? {
            Json::Null => None,
            f => {
                let fo = f.obj("fallback")?;
                Some(FallbackInfo {
                    unit: fo.req("unit")?.str("unit")?,
                    what: fo.req("what")?.str("what")?,
                })
            }
        };
        Ok(Profile {
            entry: o.req("entry")?.str("entry")?,
            tier: o.req("tier")?.str("tier")?,
            mode: o.req("mode")?.str("mode")?,
            wall_ns: o.req("wall_ns")?.num("wall_ns")?,
            steps: o.req("steps")?.num("steps")?,
            max_steps: match o.req("max_steps")? {
                Json::Null => None,
                v => Some(v.num("max_steps")?),
            },
            spans,
            regions,
            fallback,
            fallback_count: o.req("fallback_count")?.num("fallback_count")?,
            native_entries: o.num_or_zero("native_entries")?,
            native_deopts: o.num_or_zero("native_deopts")?,
        })
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

    /// Rebuilds the span tree of [`Profile::to_folded`] output. Entry
    /// counts are not representable in folded form, so the result
    /// compares equal to the original's [`SpanNode::skeleton`].
    pub fn parse_folded(src: &str) -> Result<Vec<SpanNode>, String> {
        // Arena build: (label path) trie preserving first-appearance order.
        #[derive(Debug)]
        struct N {
            label: String,
            self_ns: u64,
            children: Vec<N>,
        }
        fn insert(level: &mut Vec<N>, frames: &[&str], self_ns: u64) {
            let (first, rest) = match frames.split_first() {
                Some(x) => x,
                None => return,
            };
            let pos = match level.iter().position(|n| n.label == *first) {
                Some(p) => p,
                None => {
                    level.push(N { label: first.to_string(), self_ns: 0, children: Vec::new() });
                    level.len() - 1
                }
            };
            if rest.is_empty() {
                level[pos].self_ns += self_ns;
            } else {
                insert(&mut level[pos].children, rest, self_ns);
            }
        }
        let mut roots: Vec<N> = Vec::new();
        for (lno, line) in src.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("folded line {}: missing count", lno + 1))?;
            let self_ns: u64 = count
                .parse()
                .map_err(|_| format!("folded line {}: bad count {count:?}", lno + 1))?;
            let frames: Vec<&str> = stack.split(';').collect();
            if frames.iter().any(|f| f.is_empty()) {
                return Err(format!("folded line {}: empty frame", lno + 1));
            }
            insert(&mut roots, &frames, self_ns);
        }
        fn finish(n: N) -> Result<SpanNode, String> {
            let (kind, name, line) = if let Some(rest) = n.label.strip_prefix("do@") {
                (SpanKind::Loop, String::new(), rest.parse().map_err(|_| bad_label(&n.label))?)
            } else if let Some(rest) = n.label.strip_prefix("omp@") {
                (SpanKind::OmpLoop, String::new(), rest.parse().map_err(|_| bad_label(&n.label))?)
            } else {
                (SpanKind::Unit, n.label.clone(), 0)
            };
            let children = n
                .children
                .into_iter()
                .map(finish)
                .collect::<Result<Vec<SpanNode>, _>>()?;
            let wall = n.self_ns + children.iter().map(|c| c.wall_ns).sum::<u64>();
            Ok(SpanNode { kind, name, line, entries: 0, wall_ns: wall, children })
        }
        fn bad_label(l: &str) -> String {
            format!("folded frame {l:?}: bad line number")
        }
        roots.into_iter().map(finish).collect()
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

fn span_from_json(v: &Json) -> Result<SpanNode, String> {
    let o = v.obj("span")?;
    let kind = match o.req("kind")?.str("kind")?.as_str() {
        "unit" => SpanKind::Unit,
        "loop" => SpanKind::Loop,
        "omp" => SpanKind::OmpLoop,
        other => return Err(format!("unknown span kind {other:?}")),
    };
    Ok(SpanNode {
        kind,
        name: o.req("name")?.str("name")?,
        line: o.req("line")?.num("line")? as u32,
        entries: o.req("entries")?.num("entries")?,
        wall_ns: o.req("wall_ns")?.num("wall_ns")?,
        children: o
            .req("children")?
            .arr("children")?
            .iter()
            .map(span_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
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

// ---- minimal JSON reader (objects/arrays/strings/u64/null — exactly
// what the writer above emits) ----

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(src: &str) -> Result<Json, String> {
        let b = src.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing JSON at byte {pos}"));
        }
        Ok(v)
    }

    fn obj(&self, what: &str) -> Result<ObjRef<'_>, String> {
        match self {
            Json::Obj(fields) => Ok(ObjRef(fields)),
            _ => Err(format!("{what}: expected object")),
        }
    }

    fn arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            _ => Err(format!("{what}: expected array")),
        }
    }

    fn num(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("{what}: expected number")),
        }
    }

    fn str(&self, what: &str) -> Result<String, String> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(format!("{what}: expected string")),
        }
    }
}

struct ObjRef<'a>(&'a [(String, Json)]);

impl ObjRef<'_> {
    fn req(&self, key: &str) -> Result<&Json, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Numeric field that older snapshots may lack; absent → 0.
    fn num_or_zero(&self, key: &str) -> Result<u64, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v.num(key),
            None => Ok(0),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of JSON".into()),
        Some(b'n') => {
            if b[*pos..].starts_with(b"null") {
                *pos += 4;
                Ok(Json::Null)
            } else {
                Err(format!("bad token at byte {pos}", pos = *pos))
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            loop {
                out.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(out));
                    }
                    _ => return Err(format!("expected , or ] at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut out = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected : at byte {}", *pos));
                }
                *pos += 1;
                out.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(out));
                    }
                    _ => return Err(format!("expected , or }} at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected byte {c:?} at {}", *pos)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(cp).ok_or("bad \\u codepoint")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
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

    #[test]
    fn json_round_trip() {
        let p = sample();
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn json_round_trip_with_fallback_and_escapes() {
        let mut p = sample();
        p.fallback = Some(FallbackInfo {
            unit: "we\"ird\\name".into(),
            what: "line1\nline2\ttab\u{1}".into(),
        });
        p.max_steps = None;
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn folded_round_trip_is_skeleton() {
        let p = sample();
        let parsed = Profile::parse_folded(&p.to_folded()).unwrap();
        let skel: Vec<SpanNode> = p.spans.iter().map(|s| s.skeleton()).collect();
        assert_eq!(parsed, skel);
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
