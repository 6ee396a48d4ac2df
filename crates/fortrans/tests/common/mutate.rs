//! Deterministic fault injection for the hardened-execution test
//! harness: seeded corruptions of verified bytecode, each invalid by
//! construction so the verifier (or, for runtime-only faults, the
//! engine's trap path) must reject it.

use fortrans::bytecode::{BInstr, BUnit};

/// xorshift64* — deterministic, dependency-free.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Avoid the all-zero fixed point; decorrelate small seeds.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-enough draw in `0..n` from the high half of the next
    /// output: xorshift's low bits repeat with short periods across
    /// nearby seeds, which a power-of-two `n` would see alone.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 32) % n.max(1) as u64) as usize
    }
}

/// What a corruption did, for test diagnostics.
pub struct Mutation {
    pub unit: usize,
    pub kind: &'static str,
    pub detail: String,
}

impl std::fmt::Display for Mutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] unit {}: {}", self.kind, self.unit, self.detail)
    }
}

/// Applies one seeded corruption to `bunits` in place. Deterministic:
/// the same seed on the same program produces the same mutation.
/// Returns `None` only when no unit has any code.
pub fn corrupt(bunits: &mut [BUnit], seed: u64) -> Option<Mutation> {
    let mut rng = Rng::new(seed);
    let units: Vec<usize> = bunits
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.code.is_empty())
        .map(|(i, _)| i)
        .collect();
    if units.is_empty() {
        return None;
    }
    let u = units[rng.below(units.len())];
    const KINDS: usize = 18;
    let start = rng.below(KINDS);
    for k in 0..KINDS {
        let got = match (start + k) % KINDS {
            0 => retarget_jump(&mut bunits[u], &mut rng),
            1 => slot_out_of_range(&mut bunits[u], &mut rng),
            2 => opcode_flip(&mut bunits[u], &mut rng),
            3 => truncate_stream(&mut bunits[u]),
            4 => zero_stride(&mut bunits[u]),
            5 => vec_op_oob(&mut bunits[u], &mut rng),
            6 => vec_unbalance(&mut bunits[u], &mut rng),
            7 => vec_iter_cost(&mut bunits[u], &mut rng),
            8 => vec_access_slot(&mut bunits[u], &mut rng),
            9 => vec_red_slot(&mut bunits[u], &mut rng),
            10 => sub_operand(&mut bunits[u], &mut rng),
            11 => vec_iter_ledger(&mut bunits[u], &mut rng),
            12 => vec_proof(&mut bunits[u], &mut rng),
            13 => call_arity(&mut bunits[u], &mut rng),
            14 => vec_running_sum(&mut bunits[u], &mut rng),
            15 => inline_enter(&mut bunits[u], &mut rng),
            16 => span(&mut bunits[u], &mut rng),
            _ => scalar_glue(&mut bunits[u], &mut rng),
        };
        if let Some((kind, detail)) = got {
            return Some(Mutation { unit: u, kind, detail });
        }
    }
    None
}

type Applied = Option<(&'static str, String)>;

/// Points a control-flow target past the end of the unit.
fn retarget_jump(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use BInstr::*;
    let sites: Vec<usize> = bu
        .code
        .iter()
        .enumerate()
        .filter(|(_, i)| {
            matches!(
                i,
                Jump(_)
                    | JumpIfFalse(_)
                    | DoHead { .. }
                    | DoIncr1 { .. }
                    | DoIncr { .. }
                    | Critical { .. }
            )
        })
        .map(|(pc, _)| pc)
        .collect();
    if sites.is_empty() {
        return None;
    }
    let pc = sites[rng.below(sites.len())];
    let bad = bu.code.len() as u32 + 1 + (rng.next_u64() % 97) as u32;
    match &mut bu.code[pc] {
        Jump(t) | JumpIfFalse(t) => *t = bad,
        DoHead { exit, .. } => *exit = bad,
        DoIncr1 { head, .. } | DoIncr { head, .. } => *head = bad,
        Critical { end, .. } => *end = bad,
        _ => return None,
    }
    Some(("retargeted-jump", format!("pc {pc}: target -> {bad}")))
}

/// Pushes a frame-bank or global-cell index far out of range.
fn slot_out_of_range(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use BInstr::*;
    let sites: Vec<usize> = bu
        .code
        .iter()
        .enumerate()
        .filter(|(_, i)| {
            matches!(
                i,
                LoadI(_)
                    | LoadF(_)
                    | LoadB(_)
                    | StoreI(_)
                    | StoreF(_)
                    | StoreB(_)
                    | LoadG(_)
                    | StoreG(_)
            )
        })
        .map(|(pc, _)| pc)
        .collect();
    if sites.is_empty() {
        return None;
    }
    let pc = sites[rng.below(sites.len())];
    let bad = u32::MAX - (rng.next_u64() % 1000) as u32;
    match &mut bu.code[pc] {
        LoadI(s) | LoadF(s) | LoadB(s) | StoreI(s) | StoreF(s) | StoreB(s) | LoadG(s)
        | StoreG(s) => *s = bad,
        _ => return None,
    }
    Some(("slot-out-of-range", format!("pc {pc}: slot -> {bad}")))
}

/// Corrupts an operand-addressed element access: points an i-slot
/// operand far outside the bank, moves the operand run past the end
/// of the subscript table, or grows the list beyond the VM's
/// subscript buffer.
fn sub_operand(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use fortrans::bytecode::{SubOp, MAX_INLINE_RANK};
    use BInstr::*;
    let sites: Vec<usize> = bu
        .code
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, LoadElemS { .. } | StoreElemS { .. }))
        .map(|(pc, _)| pc)
        .collect();
    if sites.is_empty() {
        return None;
    }
    let pc = sites[rng.below(sites.len())];
    let table_len = bu.subops.len() as u32;
    let (LoadElemS { subs, n, .. } | StoreElemS { subs, n, .. }) = &mut bu.code[pc] else {
        return None;
    };
    let run = *subs as usize..*subs as usize + *n as usize;
    let slot_at = bu.subops[run.clone()].iter().position(|op| matches!(op, SubOp::Slot(_)));
    let detail = match (rng.below(3), slot_at) {
        (0, Some(k)) => {
            let bad = u32::MAX - (rng.next_u64() % 1000) as u32;
            bu.subops[run.start + k] = SubOp::Slot(bad);
            format!("pc {pc}: operand {k} -> Slot({bad})")
        }
        (1, _) | (0, None) => {
            *subs = table_len + 1 + (rng.next_u64() % 97) as u32;
            format!("pc {pc}: operand run -> {subs}..")
        }
        _ => {
            *n = (MAX_INLINE_RANK + 1 + rng.below(16)) as u8;
            format!("pc {pc}: operand count -> {n}")
        }
    };
    Some(("sub-operand", detail))
}

/// Replaces the entry instruction with one that pops from the empty
/// stack (the entry depth is always zero, so this always underflows).
fn opcode_flip(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use BInstr::*;
    let new = match rng.below(6) {
        0 => AddI,
        1 => AddF,
        2 => MulI,
        3 => DivF,
        4 => CvtIF,
        _ => NotB,
    };
    let old = format!("{:?}", bu.code[0]);
    bu.code[0] = new;
    Some(("opcode-flip", format!("pc 0: {old} -> {new:?}")))
}

/// Cuts the stream after a straight-line prefix that leaves values
/// on the operand stack, so the unit ends mid-expression.
fn truncate_stream(bu: &mut BUnit) -> Applied {
    use BInstr::*;
    let mut depth = 0u32;
    for pc in 0..bu.code.len() {
        let (pops, pushes) = match bu.code[pc] {
            Const(_) | LoadI(_) | LoadF(_) | LoadB(_) | LoadG(_) => (0, 1),
            CvtIF | CvtFI | CvtIB | CvtFB | NegF | NegI | NotB => (1, 1),
            AddF | SubF | MulF | DivF | PowFF | PowFI | AddI | SubI | MulI | DivI
            | PowII | AndB | OrB | CmpF(_) | CmpI(_) => (2, 1),
            StoreI(_) | StoreF(_) | StoreB(_) | StoreG(_) => (1, 0),
            _ => return None,
        };
        if depth < pops {
            return None; // original bytecode should never get here
        }
        depth = depth - pops + pushes;
        if depth > 0 {
            let cut = pc + 1;
            let dropped = bu.code.len() - cut;
            bu.code.truncate(cut);
            return Some((
                "truncated-stream",
                format!("cut at pc {cut}, dropped {dropped} instructions"),
            ));
        }
    }
    None
}

/// Turns a compiler-proven non-zero DO step constant into zero.
fn zero_stride(bu: &mut BUnit) -> Applied {
    use BInstr::*;
    for pc in 1..bu.code.len() {
        if let DoInit { check: false, .. } = bu.code[pc] {
            bu.code[pc - 1] = Const(0);
            return Some(("zero-stride", format!("pc {}: step constant -> 0", pc - 1)));
        }
    }
    None
}

/// Points a vector lane op at an access stream the descriptor never
/// declared — the bytecode analogue of non-conformable operands.
fn vec_op_oob(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    let sites: Vec<usize> = (0..bu.vecs.len())
        .filter(|&d| bu.vecs[d].stmts.iter().any(|ops| !ops.is_empty()))
        .collect();
    if sites.is_empty() {
        return None;
    }
    let d = sites[rng.below(sites.len())];
    let desc = &mut bu.vecs[d];
    let bad = desc.accesses.len() as u32 + 1 + (rng.next_u64() % 9) as u32;
    for ops in &mut desc.stmts {
        for op in ops.iter_mut() {
            match op {
                fortrans::bytecode::VecOp::Load(ai) | fortrans::bytecode::VecOp::Store(ai) => {
                    *ai = bad;
                    return Some((
                        "vec-op-oob",
                        format!("descriptor {d}: access index -> {bad}"),
                    ));
                }
                _ => {}
            }
        }
    }
    None
}

/// Drops the trailing store of a vector lane program, leaving the
/// lane stack unbalanced (a slice-length/stack-effect corruption).
fn vec_unbalance(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    let sites: Vec<usize> = (0..bu.vecs.len())
        .filter(|&d| {
            bu.vecs[d]
                .stmts
                .iter()
                .any(|ops| matches!(ops.last(), Some(fortrans::bytecode::VecOp::Store(_))))
        })
        .collect();
    if sites.is_empty() {
        return None;
    }
    let d = sites[rng.below(sites.len())];
    for (si, ops) in bu.vecs[d].stmts.iter_mut().enumerate() {
        if matches!(ops.last(), Some(fortrans::bytecode::VecOp::Store(_))) {
            ops.pop();
            return Some((
                "vec-unbalance",
                format!("descriptor {d}: dropped trailing store of statement {si}"),
            ));
        }
    }
    None
}

/// Zeroes a vector descriptor's per-iteration scalar cost. The VM's
/// step pre-reserve and the native tier's safepoint cadence both
/// scale by it; promotion must refuse rather than divide by zero or
/// run an unbounded block between interrupt polls.
fn vec_iter_cost(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    let sites: Vec<usize> = (0..bu.vecs.len()).filter(|&d| bu.vecs[d].iter_cost != 0).collect();
    if sites.is_empty() {
        return None;
    }
    let d = sites[rng.below(sites.len())];
    bu.vecs[d].iter_cost = 0;
    Some(("vec-iter-cost", format!("descriptor {d}: iter_cost -> 0")))
}

/// Miscounts (or drops) a vector descriptor's per-iteration cost
/// ledger. Nothing traps: a Simulated run would post the wrong
/// counts for every vectorized trip and the figures built on the
/// trace would silently move, so only the verifier can catch it.
fn vec_iter_ledger(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    if bu.vecs.is_empty() {
        return None;
    }
    let d = rng.below(bu.vecs.len());
    let ledger = &mut bu.vecs[d].iter_ledger;
    let bump = 1 + rng.next_u64() % 7;
    let detail = match (ledger.as_mut(), rng.below(4)) {
        (Some(_), 0) => {
            *ledger = None;
            "dropped".to_string()
        }
        (Some(l), 1) => {
            l.ops.flop += bump;
            format!("flop += {bump}")
        }
        (Some(l), 2) => {
            l.ops.load += bump;
            format!("load += {bump}")
        }
        (Some(l), _) => {
            l.ops.store = l.ops.store.wrapping_sub(1);
            "store -= 1".to_string()
        }
        (None, _) => {
            let mut l = fortrans::cost::Ledger::default();
            l.ops.iop = bump;
            *ledger = Some(l);
            format!("invented, iop = {bump}")
        }
    };
    Some(("vec-iter-ledger", format!("descriptor {d}: ledger {detail}")))
}

/// Points a vector access stream at an array slot the frame doesn't
/// have. A native region compiled from this descriptor would walk a
/// wild stream base — promotion must refuse, and the VM tier must
/// deopt at resolution instead of indexing out of range.
fn vec_access_slot(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use fortrans::bytecode::VSlot;
    let sites: Vec<usize> =
        (0..bu.vecs.len()).filter(|&d| !bu.vecs[d].accesses.is_empty()).collect();
    if sites.is_empty() {
        return None;
    }
    let d = sites[rng.below(sites.len())];
    let a = rng.below(bu.vecs[d].accesses.len());
    let bad = u32::MAX - (rng.next_u64() % 1000) as u32;
    bu.vecs[d].accesses[a].vs = VSlot::A(bad);
    Some(("vec-access-slot", format!("descriptor {d}: access {a} slot -> A({bad})")))
}

/// Points a vector reduction's accumulator at an out-of-range frame
/// slot — the merged result of a native region would land outside
/// the f64 bank.
fn vec_red_slot(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use fortrans::bytecode::VSlot;
    let sites: Vec<usize> = (0..bu.vecs.len()).filter(|&d| bu.vecs[d].red.is_some()).collect();
    if sites.is_empty() {
        return None;
    }
    let d = sites[rng.below(sites.len())];
    let bad = u32::MAX - (rng.next_u64() % 100) as u32;
    if let Some(r) = &mut bu.vecs[d].red {
        r.vs = VSlot::F(bad);
    }
    Some(("vec-red-slot", format!("descriptor {d}: accumulator -> F({bad})")))
}

/// Widens a vector descriptor's proven window or shifts a proven
/// stream's base. The entry trusts both instead of checking each proven
/// stream's bounds: a native region would read and write outside the
/// array, the vector rung would index past its cells.
fn vec_proof(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use fortrans::bytecode::FULL_WINDOW;
    let sites: Vec<usize> =
        (0..bu.vecs.len()).filter(|&d| bu.vecs[d].window != FULL_WINDOW).collect();
    if sites.is_empty() {
        return None;
    }
    let d = sites[rng.below(sites.len())];
    let bump = 1 + (rng.next_u64() % 7) as i64;
    let desc = &mut bu.vecs[d];
    let proven: Vec<usize> =
        (0..desc.accesses.len()).filter(|&a| desc.accesses[a].proven.is_some()).collect();
    let detail = match (rng.below(2), proven.is_empty()) {
        (0, false) => {
            let a = proven[rng.below(proven.len())];
            let (base, _) = desc.accesses[a].proven.as_mut().expect("proven");
            *base += bump;
            format!("access {a}: proven base += {bump}")
        }
        _ => match desc.window.1.checked_add(bump) {
            Some(end) => {
                desc.window.1 = end;
                format!("window end += {bump}")
            }
            None => {
                desc.window.0 -= bump;
                format!("window start -= {bump}")
            }
        },
    };
    Some(("vec-proof", format!("descriptor {d}: {detail}")))
}

/// Breaks a running sum: moves a statement that reads the running value
/// ahead of the accumulator statement, or turns a map descriptor's first
/// lane push into a running-value read though it has no accumulator.
/// Either way the vector rung would read lanes no fold has filled.
fn vec_running_sum(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use fortrans::bytecode::VecOp;
    let reads = |ops: &Vec<VecOp>| ops.iter().any(|op| matches!(op, VecOp::Running));
    let push = |op: &VecOp| {
        matches!(
            op,
            VecOp::Load(_)
                | VecOp::Splat(_)
                | VecOp::SplatF(_)
                | VecOp::SplatG(_)
                | VecOp::SplatI { .. }
        )
    };
    let running: Vec<usize> =
        (0..bu.vecs.len()).filter(|&d| bu.vecs[d].stmts.iter().any(reads)).collect();
    let maps: Vec<usize> = (0..bu.vecs.len())
        .filter(|&d| bu.vecs[d].red.is_none() && bu.vecs[d].stmts.iter().flatten().any(push))
        .collect();
    if !running.is_empty() && (maps.is_empty() || rng.below(2) == 0) {
        let d = running[rng.below(running.len())];
        let desc = &mut bu.vecs[d];
        let k = desc.stmts.iter().position(reads).expect("a statement reads it");
        let stmt = desc.stmts.remove(k);
        desc.stmts.insert(0, stmt);
        if let Some(r) = &mut desc.red {
            r.stmt += 1;
        }
        return Some(("vec-running-sum", format!("descriptor {d}: statement {k} moved first")));
    }
    let d = *maps.get(rng.below(maps.len()))?;
    let op = bu.vecs[d].stmts.iter_mut().flatten().find(|op| push(op)).expect("a lane push");
    *op = VecOp::Running;
    Some(("vec-running-sum", format!("descriptor {d}: a lane push reads a running value")))
}

/// Breaks a call site: drops an argument (arity mismatch) or, for
/// zero-argument calls, points the callee out of range.
fn call_arity(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use BInstr::*;
    let sites: Vec<u32> = bu
        .code
        .iter()
        .filter_map(|i| match i {
            Call { spec, .. } => Some(*spec),
            _ => None,
        })
        .collect();
    if sites.is_empty() {
        return None;
    }
    let spec = sites[rng.below(sites.len())] as usize;
    let cs = &mut bu.calls[spec];
    if cs.args.pop().is_some() {
        Some(("call-arity", format!("spec {spec}: dropped one argument")))
    } else {
        cs.callee = u32::MAX - 1;
        Some(("call-arity", format!("spec {spec}: callee -> out of range")))
    }
}

/// Breaks an inlined block: points its entry at a descriptor that does
/// not exist, widens its reset past the end of a frame bank, misstates
/// its nesting level, or drops the entry so its exit closes a block
/// that never opened. A reset outside the bank would write past the
/// frame; a wrong level trips the call-depth limit at the wrong call.
fn inline_enter(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use BInstr::*;
    let sites: Vec<usize> = bu
        .code
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, InlineEnter { .. }))
        .map(|(pc, _)| pc)
        .collect();
    if sites.is_empty() {
        return None;
    }
    let pc = sites[rng.below(sites.len())];
    let InlineEnter { desc } = bu.code[pc] else { return None };
    let d = &mut bu.inlines[desc as usize];
    let detail = match rng.below(4) {
        0 => {
            let bad = bu.inlines.len() as u32 + (rng.next_u64() % 9) as u32;
            bu.code[pc] = InlineEnter { desc: bad };
            format!("pc {pc}: descriptor -> {bad}")
        }
        1 => {
            let (range, n) = match rng.below(4) {
                0 => (&mut d.i, bu.ni),
                1 => (&mut d.f, bu.nf),
                2 => (&mut d.b, bu.nb),
                _ => (&mut d.a, bu.na),
            };
            range.1 = n + 1 + (rng.next_u64() % 7) as u32;
            format!("descriptor {desc}: reset range -> {range:?}")
        }
        2 => {
            d.outer = desc + (rng.next_u64() % 3) as u32;
            format!("descriptor {desc}: outer -> {}", d.outer)
        }
        _ => {
            bu.code[pc] = Jump(pc as u32 + 1);
            format!("pc {pc}: entry dropped")
        }
    };
    Some(("inline-enter", detail))
}

/// Breaks a fused span: widens its S over the instructions after it —
/// the fused loop's set-up and its region — so the speculated range
/// would store and transfer control; or misstates its step constant or
/// its fused region's iteration cost or exit state, so a committed span
/// would retire other steps than its original statements or leave other
/// loop state.
fn span(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use BInstr::*;
    let spans: Vec<u32> = bu
        .code
        .iter()
        .filter_map(|i| match i {
            SpanEnter { span } => Some(*span),
            _ => None,
        })
        .collect();
    if spans.is_empty() {
        return None;
    }
    let k = spans[rng.below(spans.len())];
    let d = &mut bu.spans[k as usize];
    let VecLoop { desc, .. } = bu.code[d.fused as usize] else { return None };
    let v = &mut bu.vecs[desc as usize];
    let detail = match rng.below(4) {
        0 => {
            d.s.1 = d.fused + 1;
            format!("span {k}: S widened to {:?}", d.s)
        }
        1 => {
            d.fixed += 1 + (rng.next_u64() % 5) as i64;
            format!("span {k}: fixed steps -> {}", d.fixed)
        }
        2 => {
            v.iter_cost += 1 + (rng.next_u64() % 3) as u32;
            format!("span {k}: fused iteration cost -> {}", v.iter_cost)
        }
        _ => {
            match v.exit_state.last_mut() {
                Some((_, value)) => *value += 1,
                None => v.exit_state.push((0, 1)),
            }
            format!("span {k}: fused exit state -> {:?}", v.exit_state)
        }
    };
    Some(("span", detail))
}

/// Breaks the optimized build's operand-carrying glue: points a `SetI`'s
/// destination or one of its affine terms past the i-bank, or the
/// instruction at an affine entry the table does not hold; or points a
/// `DoInitK`'s counter or trip slot past the i-bank. The VM writes and
/// reads those slots unchecked.
fn scalar_glue(bu: &mut BUnit, rng: &mut Rng) -> Applied {
    use BInstr::*;
    let sites: Vec<usize> = bu
        .code
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, SetI { .. } | DoInitK { .. }))
        .map(|(pc, _)| pc)
        .collect();
    if sites.is_empty() {
        return None;
    }
    let pc = sites[rng.below(sites.len())];
    let bad = bu.ni + (rng.next_u64() % 97) as u32;
    let detail = match &mut bu.code[pc] {
        SetI { dst, aff } => {
            let terms = &mut bu.affine[*aff as usize].terms;
            match rng.below(3) {
                0 => {
                    *dst = bad;
                    format!("pc {pc}: SetI destination -> {bad}")
                }
                1 if !terms.is_empty() => {
                    let k = rng.below(terms.len());
                    terms[k].0 = bad;
                    format!("pc {pc}: affine entry {aff} term {k} slot -> {bad}")
                }
                _ => {
                    *aff = bu.affine.len() as u32 + (rng.next_u64() % 9) as u32;
                    format!("pc {pc}: affine entry -> {aff}")
                }
            }
        }
        DoInitK { ctr, left, .. } => {
            let (slot, what) = if rng.below(2) == 0 { (ctr, "counter") } else { (left, "trips") };
            *slot = bad;
            format!("pc {pc}: DoInitK {what} -> {bad}")
        }
        _ => return None,
    };
    Some(("scalar-glue", detail))
}
