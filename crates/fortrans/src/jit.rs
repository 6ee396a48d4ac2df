//! Tier-3 native execution: a template JIT over the VM's vector-loop
//! regions.
//!
//! The bytecode compiler already extracts every unit-stride affine `DO`
//! loop into a [`VecDesc`] — interned access streams plus postfix lane
//! programs — and the verifier ([`crate::verify`]) proves the slot,
//! stack-depth and arity invariants the chunked executor relies on.
//! This module lowers exactly those regions to x86-64 machine code,
//! emitted in-process into `mmap`'d executable pages (raw Linux
//! syscalls; no external toolchain, works offline).
//!
//! ## Contract with the VM
//!
//! The native path slots in *above* the vector superinstruction inside
//! the VM's one `VecLoop` entry (`Vm::exec_fast_loop`) and shares its
//! guards: every guard (type/rank, whole-range affine bounds, alias,
//! step-budget pre-reservation) runs once, in Rust, before the first
//! element is written, so a loop either completes natively or falls
//! through — a *deopt* — to the vector/scalar path, which produces the
//! bit-identical answer (or the stock error at the exact faulting
//! iteration). The emitted code therefore contains no bounds
//! checks and no error paths: it is a pure counted loop over streams
//! whose safety was proven at entry.
//!
//! Bit-exactness: `addsd`/`subsd`/`mulsd`/`divsd` and the sign-flip are
//! the IEEE-754 operations rustc emits for scalar f64 arithmetic.
//! `PowI` lanes with exponent 2, 3 or 4 are inline `mulsd`s in the
//! order of `intrinsics::powi_lane`, which is `f64::powi`'s
//! own; other `PowI` and `Pow` lanes call `f64::powi` and `f64::powf`.
//! An `Intr` lane calls its intrinsic's typed kernel
//! (`Intr::lane_kernel`) at the kernel's address —
//! the functions `Intr::eval_f` calls. So every lane value is
//! bit-identical to the scalar tier's.
//!
//! Safepoints: the trampoline in [`crate::vm`] calls the compiled body
//! in blocks of ~`1024 / iter_cost` iterations, polling
//! `EffLimits::check_interrupt` between blocks — the same 1024-step
//! cadence as the scalar `tick()`, so `RunLimits` deadlines and
//! [`crate::interp::CancelToken`] cancellation trip identically in all
//! three tiers.
//!
//! Arch gating: everything that touches machine code is compiled only
//! for `x86_64` Linux. Elsewhere [`available`] is `false`,
//! [`NativeRegion::compile`] returns `None`, and the VM falls through
//! to the vector/scalar paths — a clean no-JIT build.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use crate::bytecode::{BUnit, VecDesc, VecOp, VecRedOp, VEC_MAX_DEPTH};
use crate::intrinsics::LaneKernel;
use crate::rir::RProgram;

/// Whether this build can execute native regions at all.
pub fn available() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
}

/// Loop entries a region must accumulate before it is promoted
/// (compiled and entered natively) when eager compilation is off.
pub const DEFAULT_HOT_THRESHOLD: u32 = 32;

// ---------------------------------------------------------------------------
// Runtime interface: the context the trampoline hands to compiled code
// ---------------------------------------------------------------------------

/// One resolved access stream: `ptr` addresses the element at iteration
/// offset `k = 0` (the flat base offset is already applied) and
/// `stride8` is the per-iteration advance in bytes. The trampoline
/// derives both from the same `(handle, base, stride)` triple the
/// vector tier resolves, after the bounds guard proved every `k` in
/// range.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct Stream {
    pub ptr: *mut u64,
    pub stride8: i64,
}

/// Spill slots reserved for saving live lane registers around helper
/// calls (the lane stack is at most [`VEC_MAX_DEPTH`] deep).
const SPILL_SAVES: usize = VEC_MAX_DEPTH as usize;
/// Spill slots for marshalling helper-call arguments (max intrinsic
/// arity is 8).
const SPILL_ARGS: usize = 8;
/// Byte offset of the spill area inside [`JitCtx`].
const CTX_SPILL: i32 = 0x28;
/// Byte offset of the argument slots inside [`JitCtx`].
const CTX_ARGS: i32 = CTX_SPILL + 8 * SPILL_SAVES as i32;

/// The in-memory calling convention of a compiled region: one pointer
/// argument (SysV `rdi`) to this struct. Field offsets are fixed —
/// the emitter hard-codes them — so the layout is `repr(C)` and
/// guarded by tests.
#[repr(C)]
pub struct JitCtx {
    /// First iteration offset of this block (inclusive).
    pub k0: i64, // 0x00
    /// Last iteration offset of this block (exclusive).
    pub k1: i64, // 0x08
    /// Resolved access streams, one per `VecAccess`.
    pub streams: *const Stream, // 0x10
    /// Loop-invariant operand pool (f64 bits / raw i64), filled per
    /// entry from the [`PoolEntry`] recipe.
    pub pool: *const u64, // 0x18
    /// Reduction accumulator (live across blocks; written back by the
    /// trampoline after the last block).
    pub acc: f64, // 0x20
    /// Scratch for saving lane registers and marshalling helper-call
    /// arguments.
    pub spill: [u64; SPILL_SAVES + SPILL_ARGS], // 0x28
}

/// Recipe for one invariant-pool slot, resolved by the trampoline at
/// every loop entry (frame scalars and globals can change between
/// entries; the machine code only ever sees pool offsets).
#[derive(Debug, Clone, Copy)]
pub enum PoolEntry {
    /// f64 constant bits (`VecOp::Splat`).
    ConstF(u64),
    /// Broadcast of frame f64 slot (`VecOp::SplatF`).
    FrameF(u32),
    /// Broadcast of a global scalar cell (`VecOp::SplatG`).
    GlobF(u32),
    /// `SplatI` coefficient, stored raw.
    ICoeff(i64),
    /// `SplatI` base term `coeff*lo + add + frame.i[inv]` (wrapping;
    /// `inv == NO_SLOT` contributes 0), so the emitted code computes
    /// `coeff*k + base` — identical to the interpreter's
    /// `coeff*(lo+k) + add + inv` under wrapping arithmetic.
    IBase { coeff: i64, add: i64, inv: u32 },
}

// ---------------------------------------------------------------------------
// Executable memory (x86_64 Linux only): raw mmap/mprotect/munmap
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod exec_mem {
    const SYS_MMAP: i64 = 9;
    const SYS_MPROTECT: i64 = 10;
    const SYS_MUNMAP: i64 = 11;
    const PROT_READ: i64 = 1;
    const PROT_WRITE: i64 = 2;
    const PROT_EXEC: i64 = 4;
    const MAP_PRIVATE: i64 = 0x02;
    const MAP_ANONYMOUS: i64 = 0x20;
    const PAGE: usize = 4096;

    /// Raw Linux syscall (the lockfile has no libc crate, and the JIT
    /// must work without adding one). `syscall` clobbers rcx/r11.
    ///
    /// # Safety
    /// The caller passes a valid syscall number and arguments for it.
    unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
        let ret: i64;
        // SAFETY: the caller's number and arguments (above); the kernel
        // writes only rax, rcx and r11, all declared, and no stack.
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
        ret
    }

    /// One W^X-disciplined executable mapping: mapped read-write,
    /// filled, then flipped to read-execute. Never writable and
    /// executable at the same time.
    pub struct ExecBuf {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is read-execute from construction on and
    // nothing writes through `ptr`; it is unmapped only by `Drop`, which
    // runs once no thread holds the buffer, so moving or sharing the
    // pointer across threads is sound.
    unsafe impl Send for ExecBuf {}
    // SAFETY: as for `Send`: `&ExecBuf` only reads `ptr` and `len`.
    unsafe impl Sync for ExecBuf {}

    impl ExecBuf {
        /// Copies `code` into a fresh executable mapping. `None` when
        /// the kernel refuses the mapping (out of memory, lockdown
        /// policies forbidding exec pages, ...) — the caller falls
        /// back to the VM tier.
        pub fn new(code: &[u8]) -> Option<ExecBuf> {
            if code.is_empty() {
                return None;
            }
            let len = code.len().div_ceil(PAGE) * PAGE;
            // SAFETY: anonymous private mapping with no fixed address;
            // arguments follow the mmap(2) contract.
            let p = unsafe {
                syscall6(
                    SYS_MMAP,
                    0,
                    len as i64,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // Errors come back as small negative errno values; valid
            // user mappings are strictly positive addresses.
            if p <= 0 {
                return None;
            }
            let ptr = p as *mut u8;
            // SAFETY: `ptr` is a fresh RW mapping at least `code.len()`
            // bytes long and nothing else aliases it yet.
            unsafe { std::ptr::copy_nonoverlapping(code.as_ptr(), ptr, code.len()) };
            // SAFETY: flips the whole mapping to RX; address and length
            // are exactly the mapping's.
            let r = unsafe { syscall6(SYS_MPROTECT, p, len as i64, PROT_READ | PROT_EXEC, 0, 0, 0) };
            if r != 0 {
                // SAFETY: unmaps the mapping created above.
                unsafe { syscall6(SYS_MUNMAP, p, len as i64, 0, 0, 0, 0) };
                return None;
            }
            Some(ExecBuf { ptr, len })
        }

        pub fn entry(&self) -> *const u8 {
            self.ptr
        }
    }

    impl Drop for ExecBuf {
        fn drop(&mut self) {
            // SAFETY: unmaps the mapping this struct owns; its region is
            // dropped with the promotion table, which every run that can
            // enter it holds.
            unsafe { syscall6(SYS_MUNMAP, self.ptr as i64, self.len as i64, 0, 0, 0, 0) };
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-exact lane helpers called from emitted code (SysV ABI)
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
extern "sysv64" fn jit_pow(a: f64, b: f64) -> f64 {
    a.powf(b)
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
extern "sysv64" fn jit_powi(a: f64, e: i32) -> f64 {
    a.powi(e)
}

// ---------------------------------------------------------------------------
// The emitter (x86_64 Linux only)
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod emit {
    /// Minimal x86-64 assembler: exactly the instruction forms the
    /// lane-program template needs, encoded by hand. Register roles are
    /// fixed — rbx = k, r12 = ctx, r13 = k1, r14 = streams, r15 = pool,
    /// rax/rcx/rdx/rdi/rsi = scratch, xmm0..15 = the lane stack (depth
    /// `d` lives in `xmm(d)`; `VEC_MAX_DEPTH == 16` fills the file
    /// exactly).
    pub struct Asm {
        pub code: Vec<u8>,
    }

    impl Asm {
        pub fn new() -> Asm {
            Asm { code: Vec::with_capacity(256) }
        }

        fn b(&mut self, bytes: &[u8]) {
            self.code.extend_from_slice(bytes);
        }

        fn d32(&mut self, v: i32) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        fn d64(&mut self, v: u64) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        // ---- integer moves / arithmetic ----

        /// push rbx; push r12..r15 — five pushes keep the stack
        /// 16-aligned at every helper call site.
        pub fn prologue(&mut self) {
            self.b(&[0x53, 0x41, 0x54, 0x41, 0x55, 0x41, 0x56, 0x41, 0x57]);
            // mov r12, rdi
            self.b(&[0x49, 0x89, 0xFC]);
            // mov rbx, [r12+0x00]; mov r13, [r12+0x08]
            self.b(&[0x49, 0x8B, 0x5C, 0x24, 0x00]);
            self.b(&[0x4D, 0x8B, 0x6C, 0x24, 0x08]);
            // mov r14, [r12+0x10]; mov r15, [r12+0x18]
            self.b(&[0x4D, 0x8B, 0x74, 0x24, 0x10]);
            self.b(&[0x4D, 0x8B, 0x7C, 0x24, 0x18]);
        }

        /// pop r15..r12; pop rbx; ret
        pub fn epilogue(&mut self) {
            self.b(&[0x41, 0x5F, 0x41, 0x5E, 0x41, 0x5D, 0x41, 0x5C, 0x5B, 0xC3]);
        }

        /// cmp rbx, r13
        pub fn cmp_k_k1(&mut self) {
            self.b(&[0x4C, 0x39, 0xEB]);
        }

        /// jge rel32 (patched later); returns the patch site.
        pub fn jge(&mut self) -> usize {
            self.b(&[0x0F, 0x8D]);
            let at = self.code.len();
            self.d32(0);
            at
        }

        /// jl rel32 back to `target`.
        pub fn jl_to(&mut self, target: usize) {
            self.b(&[0x0F, 0x8C]);
            let rel = target as i64 - (self.code.len() as i64 + 4);
            self.d32(rel as i32);
        }

        /// Patches a rel32 site to jump to the current position.
        pub fn patch_here(&mut self, at: usize) {
            let rel = (self.code.len() as i64 - (at as i64 + 4)) as i32;
            self.code[at..at + 4].copy_from_slice(&rel.to_le_bytes());
        }

        /// add rbx, 1
        pub fn inc_k(&mut self) {
            self.b(&[0x48, 0x83, 0xC3, 0x01]);
        }

        /// mov rax, [r14 + disp]   (stream field load)
        pub fn mov_rax_streams(&mut self, disp: i32) {
            self.b(&[0x49, 0x8B, 0x86]);
            self.d32(disp);
        }

        /// mov rcx, [r14 + disp]
        pub fn mov_rcx_streams(&mut self, disp: i32) {
            self.b(&[0x49, 0x8B, 0x8E]);
            self.d32(disp);
        }

        /// mov rax, [r15 + disp]   (pool load)
        pub fn mov_rax_pool(&mut self, disp: i32) {
            self.b(&[0x49, 0x8B, 0x87]);
            self.d32(disp);
        }

        /// add rax, [r15 + disp]
        pub fn add_rax_pool(&mut self, disp: i32) {
            self.b(&[0x49, 0x03, 0x87]);
            self.d32(disp);
        }

        /// imul rcx, rbx
        pub fn imul_rcx_k(&mut self) {
            self.b(&[0x48, 0x0F, 0xAF, 0xCB]);
        }

        /// imul rax, rbx
        pub fn imul_rax_k(&mut self) {
            self.b(&[0x48, 0x0F, 0xAF, 0xC3]);
        }

        /// mov rax, imm64
        pub fn mov_rax_imm(&mut self, v: u64) {
            self.b(&[0x48, 0xB8]);
            self.d64(v);
        }

        /// mov rcx, imm64
        pub fn mov_rcx_imm(&mut self, v: u64) {
            self.b(&[0x48, 0xB9]);
            self.d64(v);
        }

        /// mov edi, imm32
        pub fn mov_edi_imm(&mut self, v: i32) {
            self.code.push(0xBF);
            self.d32(v);
        }

        /// xor rax, rcx
        pub fn xor_rax_rcx(&mut self) {
            self.b(&[0x48, 0x31, 0xC8]);
        }

        /// call rax
        pub fn call_rax(&mut self) {
            self.b(&[0xFF, 0xD0]);
        }

        // ---- SSE scalar-double forms ----

        fn sse_rex(&mut self, reg: u8, rm_ext: bool) {
            let mut rex = 0x40u8;
            if reg >= 8 {
                rex |= 0x04; // REX.R
            }
            if rm_ext {
                rex |= 0x01; // REX.B
            }
            if rex != 0x40 {
                self.code.push(rex);
            }
        }

        /// movsd xmm(dst), [rax + rcx]
        pub fn movsd_load_indexed(&mut self, dst: u8) {
            self.code.push(0xF2);
            self.sse_rex(dst, false);
            self.b(&[0x0F, 0x10, 0x04 | ((dst & 7) << 3), 0x08]);
        }

        /// movsd [rax + rcx], xmm(src)
        pub fn movsd_store_indexed(&mut self, src: u8) {
            self.code.push(0xF2);
            self.sse_rex(src, false);
            self.b(&[0x0F, 0x11, 0x04 | ((src & 7) << 3), 0x08]);
        }

        /// movsd xmm(dst), [r15 + disp]   (pool broadcast)
        pub fn movsd_load_pool(&mut self, dst: u8, disp: i32) {
            self.code.push(0xF2);
            self.sse_rex(dst, true);
            self.b(&[0x0F, 0x10, 0x87 | ((dst & 7) << 3)]);
            self.d32(disp);
        }

        /// movsd xmm(dst), [r12 + disp]   (ctx field / spill load)
        pub fn movsd_load_ctx(&mut self, dst: u8, disp: i32) {
            self.code.push(0xF2);
            self.sse_rex(dst, true);
            self.b(&[0x0F, 0x10, 0x84 | ((dst & 7) << 3), 0x24]);
            self.d32(disp);
        }

        /// movsd [r12 + disp], xmm(src)
        pub fn movsd_store_ctx(&mut self, src: u8, disp: i32) {
            self.code.push(0xF2);
            self.sse_rex(src, true);
            self.b(&[0x0F, 0x11, 0x84 | ((src & 7) << 3), 0x24]);
            self.d32(disp);
        }

        /// addsd/subsd/mulsd/divsd xmm(a), xmm(b): a = a op b
        pub fn sse_op(&mut self, opcode: u8, a: u8, b: u8) {
            self.code.push(0xF2);
            let mut rex = 0x40u8;
            if a >= 8 {
                rex |= 0x04;
            }
            if b >= 8 {
                rex |= 0x01;
            }
            if rex != 0x40 {
                self.code.push(rex);
            }
            self.b(&[0x0F, opcode, 0xC0 | ((a & 7) << 3) | (b & 7)]);
        }

        /// mulsd xmm(dst), [r12 + disp]
        pub fn mulsd_ctx(&mut self, dst: u8, disp: i32) {
            self.code.push(0xF2);
            self.sse_rex(dst, true);
            self.b(&[0x0F, OP_MULSD, 0x84 | ((dst & 7) << 3), 0x24]);
            self.d32(disp);
        }

        /// cvtsi2sd xmm(dst), rax
        pub fn cvtsi2sd_rax(&mut self, dst: u8) {
            self.code.push(0xF2);
            self.code.push(if dst >= 8 { 0x4C } else { 0x48 });
            self.b(&[0x0F, 0x2A, 0xC0 | ((dst & 7) << 3)]);
        }

        /// movq rax, xmm(src)
        pub fn movq_rax_xmm(&mut self, src: u8) {
            self.code.push(0x66);
            self.code.push(if src >= 8 { 0x4C } else { 0x48 });
            self.b(&[0x0F, 0x7E, 0xC0 | ((src & 7) << 3)]);
        }

        /// movq xmm(dst), rax
        pub fn movq_xmm_rax(&mut self, dst: u8) {
            self.code.push(0x66);
            self.code.push(if dst >= 8 { 0x4C } else { 0x48 });
            self.b(&[0x0F, 0x6E, 0xC0 | ((dst & 7) << 3)]);
        }
    }

    pub const OP_ADDSD: u8 = 0x58;
    pub const OP_MULSD: u8 = 0x59;
    pub const OP_SUBSD: u8 = 0x5C;
    pub const OP_DIVSD: u8 = 0x5E;
}

// ---------------------------------------------------------------------------
// Region compilation
// ---------------------------------------------------------------------------

/// One compiled loop region: executable code plus the recipe the
/// trampoline uses to resolve its loop-invariant operand pool at every
/// entry. Immutable after construction; shared across sessions through
/// the artifact's [`NativeCache`].
#[cfg_attr(not(all(target_arch = "x86_64", target_os = "linux")), allow(dead_code))]
pub struct NativeRegion {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    buf: exec_mem::ExecBuf,
    /// Invariant-pool recipe, in pool-slot order.
    pub pool: Vec<PoolEntry>,
    /// Number of access streams the code indexes (trampoline sanity).
    pub naccess: usize,
    /// Whether the region folds a reduction through `JitCtx::acc`.
    pub has_red: bool,
}

impl NativeRegion {
    /// Compiles one verifier-accepted vector descriptor to native code.
    ///
    /// `None` means "refused": unsupported target, a descriptor that
    /// fails re-verification (corrupted bytecode must never reach the
    /// emitter), a masked select, a running sum (an accumulator
    /// statement among others), an empty or zero-cost region, or an
    /// exec-page allocation failure. Refusals are cached by
    /// [`NativeCache`] so the VM falls through to the vector/scalar path
    /// with no repeated work.
    pub fn compile(
        prog: &RProgram,
        bunits: &[BUnit],
        uidx: usize,
        desc: u32,
    ) -> Option<NativeRegion> {
        // Native regions are only ever emitted from verifier-accepted
        // bytecode: re-run the descriptor acceptance check here, which
        // also refuses descriptors a fault-injection harness corrupted
        // *after* the compile-time verification pass.
        if crate::verify::check_vec_desc(prog, bunits, uidx, desc).is_err() {
            return None;
        }
        let d = &bunits[uidx].vecs[desc as usize];
        // The emitter knows f64 lane programs only, and folds an
        // accumulator only as a one-statement body: a masked select and
        // a running sum stay on the vector rung.
        if d.sel.is_some()
            || d.stmts.is_empty()
            || d.iter_cost == 0
            || (d.red.is_some() && d.stmts.len() != 1)
        {
            return None;
        }
        Self::emit(d)
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn emit(d: &VecDesc) -> Option<NativeRegion> {
        use emit::*;

        let mut asm = Asm::new();
        let mut pool: Vec<PoolEntry> = Vec::new();

        asm.prologue();
        asm.cmp_k_k1();
        let empty_jump = asm.jge();
        let top = asm.code.len();

        // Spills the live lanes below `live`, runs `call` (argument
        // marshalling and the calls, result in xmm0), stashes xmm0 in
        // arg slot 0, restores, and moves the result to lane `live`.
        let helper_call = |asm: &mut Asm, live: u8, call: &dyn Fn(&mut Asm)| {
            for j in 0..live {
                asm.movsd_store_ctx(j, CTX_SPILL + 8 * i32::from(j));
            }
            call(asm);
            asm.movsd_store_ctx(0, CTX_ARGS);
            for j in 0..live {
                asm.movsd_load_ctx(j, CTX_SPILL + 8 * i32::from(j));
            }
            asm.movsd_load_ctx(live, CTX_ARGS);
        };
        // Stores lanes `l..l + n` in the arg slots; helper calls clobber
        // every xmm register, the slots survive them.
        let stash_args = |asm: &mut Asm, l: u8, n: u8| {
            for t in 0..n {
                asm.movsd_store_ctx(l + t, CTX_ARGS + 8 * i32::from(t));
            }
        };
        let call_addr = |asm: &mut Asm, addr: usize| {
            asm.mov_rax_imm(addr as u64);
            asm.call_rax();
        };

        for ops in &d.stmts {
            let mut dep: u8 = 0;
            for op in ops {
                // The verifier proved stack balance and the depth cap;
                // re-check defensively so an emitter bug can only ever
                // refuse, never emit out-of-file register indices.
                match *op {
                    VecOp::Running => return None, // refused above
                    VecOp::Load(ai) => {
                        if dep >= VEC_MAX_DEPTH as u8 {
                            return None;
                        }
                        let disp = 16 * ai as i32;
                        asm.mov_rax_streams(disp);
                        asm.mov_rcx_streams(disp + 8);
                        asm.imul_rcx_k();
                        asm.movsd_load_indexed(dep);
                        dep += 1;
                    }
                    VecOp::Splat(c) => {
                        if dep >= VEC_MAX_DEPTH as u8 {
                            return None;
                        }
                        let off = 8 * pool.len() as i32;
                        pool.push(PoolEntry::ConstF(c.to_bits()));
                        asm.movsd_load_pool(dep, off);
                        dep += 1;
                    }
                    VecOp::SplatF(s) => {
                        if dep >= VEC_MAX_DEPTH as u8 {
                            return None;
                        }
                        let off = 8 * pool.len() as i32;
                        pool.push(PoolEntry::FrameF(s));
                        asm.movsd_load_pool(dep, off);
                        dep += 1;
                    }
                    VecOp::SplatG(c) => {
                        if dep >= VEC_MAX_DEPTH as u8 {
                            return None;
                        }
                        let off = 8 * pool.len() as i32;
                        pool.push(PoolEntry::GlobF(c));
                        asm.movsd_load_pool(dep, off);
                        dep += 1;
                    }
                    VecOp::SplatI { coeff, add, inv } => {
                        if dep >= VEC_MAX_DEPTH as u8 {
                            return None;
                        }
                        let off = 8 * pool.len() as i32;
                        pool.push(PoolEntry::ICoeff(coeff));
                        pool.push(PoolEntry::IBase { coeff, add, inv });
                        asm.mov_rax_pool(off);
                        asm.imul_rax_k();
                        asm.add_rax_pool(off + 8);
                        asm.cvtsi2sd_rax(dep);
                        dep += 1;
                    }
                    VecOp::Add | VecOp::Sub | VecOp::Mul | VecOp::Div => {
                        if dep < 2 {
                            return None;
                        }
                        let opc = match *op {
                            VecOp::Add => OP_ADDSD,
                            VecOp::Sub => OP_SUBSD,
                            VecOp::Mul => OP_MULSD,
                            _ => OP_DIVSD,
                        };
                        asm.sse_op(opc, dep - 2, dep - 1);
                        dep -= 1;
                    }
                    VecOp::Pow => {
                        if dep < 2 {
                            return None;
                        }
                        let la = dep - 2;
                        helper_call(&mut asm, la, &|a: &mut Asm| {
                            // Marshal through memory: la/lb may be 0/1.
                            stash_args(a, la, 2);
                            a.movsd_load_ctx(0, CTX_ARGS);
                            a.movsd_load_ctx(1, CTX_ARGS + 8);
                            call_addr(a, jit_pow as *const () as usize);
                        });
                        dep -= 1;
                    }
                    VecOp::PowI(e) => {
                        if dep < 1 {
                            return None;
                        }
                        // 2, 3 and 4 multiply out inline in
                        // `intrinsics::powi_lane`'s order. For 3 the
                        // copy of x goes to memory (a depth-16 stack has
                        // no free register). (x*x)*x has the bits of
                        // x*(x*x): the product commutes, and a NaN x
                        // gives both operands its payload.
                        let l = dep - 1;
                        match e {
                            2 => asm.sse_op(OP_MULSD, l, l),
                            3 => {
                                asm.movsd_store_ctx(l, CTX_ARGS);
                                asm.sse_op(OP_MULSD, l, l);
                                asm.mulsd_ctx(l, CTX_ARGS);
                            }
                            4 => {
                                asm.sse_op(OP_MULSD, l, l);
                                asm.sse_op(OP_MULSD, l, l);
                            }
                            _ => helper_call(&mut asm, l, &|a: &mut Asm| {
                                stash_args(a, l, 1);
                                a.movsd_load_ctx(0, CTX_ARGS);
                                a.mov_edi_imm(e);
                                call_addr(a, jit_powi as *const () as usize);
                            }),
                        }
                    }
                    VecOp::Neg => {
                        if dep < 1 {
                            return None;
                        }
                        // Flip the sign bit through the integer unit:
                        // bit-identical to Rust's `-x`, with no aligned
                        // SSE constant needed.
                        asm.movq_rax_xmm(dep - 1);
                        asm.mov_rcx_imm(0x8000_0000_0000_0000);
                        asm.xor_rax_rcx();
                        asm.movq_xmm_rax(dep - 1);
                    }
                    VecOp::Intr { f, argc: na } => {
                        if dep < na || na == 0 || u32::from(na) > 8 {
                            return None;
                        }
                        // The intrinsic's lane kernel, called at its
                        // address with its arguments in xmm0/xmm1.
                        let l = dep - na;
                        match f.lane_kernel() {
                            LaneKernel::Const(c) => {
                                asm.mov_rax_imm(c.to_bits());
                                asm.movq_xmm_rax(l);
                            }
                            LaneKernel::Unary(k) => helper_call(&mut asm, l, &|a: &mut Asm| {
                                stash_args(a, l, 1);
                                a.movsd_load_ctx(0, CTX_ARGS);
                                call_addr(a, k as usize);
                            }),
                            LaneKernel::Binary(k) => {
                                if na < 2 {
                                    return None;
                                }
                                helper_call(&mut asm, l, &|a: &mut Asm| {
                                    stash_args(a, l, 2);
                                    a.movsd_load_ctx(0, CTX_ARGS);
                                    a.movsd_load_ctx(1, CTX_ARGS + 8);
                                    call_addr(a, k as usize);
                                });
                            }
                            LaneKernel::Fold(seed, k) => helper_call(&mut asm, l, &|a: &mut Asm| {
                                stash_args(a, l, na);
                                a.mov_rax_imm(seed.to_bits());
                                a.movq_xmm_rax(0);
                                for t in 0..na {
                                    a.movsd_load_ctx(1, CTX_ARGS + 8 * i32::from(t));
                                    call_addr(a, k as usize);
                                }
                            }),
                        }
                        dep = l + 1;
                    }
                    VecOp::Store(ai) => {
                        if dep < 1 {
                            return None;
                        }
                        dep -= 1;
                        let disp = 16 * ai as i32;
                        asm.mov_rax_streams(disp);
                        asm.mov_rcx_streams(disp + 8);
                        asm.imul_rcx_k();
                        asm.movsd_store_indexed(dep);
                    }
                }
            }
            if let Some(r) = d.red {
                // The single reduction program left its term in xmm0;
                // fold with the accumulator on the side it held in
                // source (operand order matters for NaN payloads).
                if dep != 1 {
                    return None;
                }
                let opc = match r.op {
                    VecRedOp::Add => OP_ADDSD,
                    VecRedOp::Mul => OP_MULSD,
                };
                asm.movsd_load_ctx(1, 0x20);
                if r.acc_left {
                    asm.sse_op(opc, 1, 0);
                    asm.movsd_store_ctx(1, 0x20);
                } else {
                    asm.sse_op(opc, 0, 1);
                    asm.movsd_store_ctx(0, 0x20);
                }
            } else if dep != 0 {
                return None;
            }
        }

        asm.inc_k();
        asm.cmp_k_k1();
        asm.jl_to(top);
        asm.patch_here(empty_jump);
        asm.epilogue();

        let buf = exec_mem::ExecBuf::new(&asm.code)?;
        Some(NativeRegion { buf, pool, naccess: d.accesses.len(), has_red: d.red.is_some() })
    }

    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    fn emit(_d: &VecDesc) -> Option<NativeRegion> {
        None
    }

    /// Runs one block of iterations (`ctx.k0..ctx.k1`).
    ///
    /// # Safety
    /// `ctx.streams` must point at `self.naccess` streams whose
    /// pointers stay valid for every iteration in the block (the
    /// trampoline holds the array handles and proved bounds for the
    /// whole range), and `ctx.pool` at at least `self.pool.len()`
    /// slots filled from this region's recipe.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub unsafe fn enter(&self, ctx: &mut JitCtx) {
        // SAFETY: `buf` holds the code `emit` generated for this region,
        // a sysv64 function of one `*mut JitCtx`; what it reads through
        // `ctx` is valid by the caller's contract (above).
        let f: extern "sysv64" fn(*mut JitCtx) = std::mem::transmute(self.buf.entry());
        f(ctx);
    }

    /// # Safety
    /// Never constructed on non-JIT targets; this stub keeps callers
    /// compiling.
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    pub unsafe fn enter(&self, _ctx: &mut JitCtx) {
        // SAFETY: nothing to uphold: no `NativeRegion` exists here.
        unreachable!("native regions cannot be constructed on this target");
    }
}

// ---------------------------------------------------------------------------
// Promotion table
// ---------------------------------------------------------------------------

/// Promotion state of one region: the entries it has seen, and once
/// settled, its compiled code or `None` for a refusal (never retried).
#[derive(Default)]
struct Promoted {
    heat: AtomicU32,
    region: OnceLock<Option<NativeRegion>>,
}

/// The native tier's promotion table for one optimized build: one slot
/// per `(unit, descriptor)`, stored flat, unit `u`'s slots at
/// `first[u]..first[u + 1]`. It is made beside the build it indexes —
/// the artifact's, shared by every session over it, or a session's
/// injected one — so a VM always reads the table of the bytecode it
/// runs.
pub struct NativeCache {
    first: Box<[u32]>,
    slots: Box<[Promoted]>,
}

impl NativeCache {
    /// A table for `bunits` with every slot cold.
    pub fn new(bunits: &[BUnit]) -> NativeCache {
        let first = std::iter::once(0).chain(bunits.iter().scan(0, |n, bu| {
            *n += bu.vecs.len() as u32;
            Some(*n)
        }));
        let first: Box<[u32]> = first.collect();
        let slots = (0..first[bunits.len()]).map(|_| Promoted::default()).collect();
        NativeCache { first, slots }
    }

    /// Number of regions compiled so far.
    pub fn compiled_count(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s.region.get(), Some(Some(_)))).count()
    }

    /// The compiled region a `VecLoop` entry of `(uidx, desc)` runs, if
    /// any. An unsettled slot counts the entry and compiles once it has
    /// [`DEFAULT_HOT_THRESHOLD`] (at once under `eager`). Compilation
    /// runs outside any lock: racing compiles are equivalent, the first
    /// to settle the slot wins, and no thread waits on another's. A
    /// descriptor outside the table (injected bytecode is not verified)
    /// is a refusal.
    pub(crate) fn region(
        &self,
        prog: &RProgram,
        bunits: &[BUnit],
        uidx: usize,
        desc: u32,
        eager: bool,
    ) -> Option<&NativeRegion> {
        let &[lo, hi, ..] = self.first.get(uidx..)? else { return None };
        let slot = self.slots[lo as usize..hi as usize].get(desc as usize)?;
        if let Some(settled) = slot.region.get() {
            return settled.as_ref();
        }
        if !eager && slot.heat.fetch_add(1, Ordering::Relaxed) < DEFAULT_HOT_THRESHOLD - 1 {
            return None;
        }
        let _ = slot.region.set(NativeRegion::compile(prog, bunits, uidx, desc));
        slot.region.get()?.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_layout_matches_emitter_offsets() {
        // The emitter hard-codes these; a layout change must fail loudly.
        assert_eq!(std::mem::offset_of!(JitCtx, k0), 0x00);
        assert_eq!(std::mem::offset_of!(JitCtx, k1), 0x08);
        assert_eq!(std::mem::offset_of!(JitCtx, streams), 0x10);
        assert_eq!(std::mem::offset_of!(JitCtx, pool), 0x18);
        assert_eq!(std::mem::offset_of!(JitCtx, acc), 0x20);
        assert_eq!(std::mem::offset_of!(JitCtx, spill), CTX_SPILL as usize);
        assert_eq!(std::mem::size_of::<Stream>(), 16);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    mod native {
        use super::super::*;
        use crate::bytecode::{VecAccess, VecRed, VecSub, VSlot, NO_SLOT};
        use crate::intrinsics::Intr;
        use crate::rir::ScalarTy;

        /// Reference evaluation of one lane program at iteration `k`
        /// over plain f64 buffers — mirrors the VM's chunked executor
        /// one lane at a time.
        fn eval_ref(
            d: &VecDesc,
            bufs: &mut [Vec<f64>],
            streams: &[(usize, i64, i64)], // (buf idx, base, stride)
            lo: i64,
            n: i64,
            mut acc: f64,
        ) -> f64 {
            let mut stack = [0.0f64; 16];
            for k in 0..n {
                for ops in &d.stmts {
                    let mut dep = 0usize;
                    for op in ops {
                        match *op {
                            VecOp::Load(ai) => {
                                let (b, base, stride) = streams[ai as usize];
                                stack[dep] = bufs[b][(base + stride * k) as usize];
                                dep += 1;
                            }
                            VecOp::Splat(c) => {
                                stack[dep] = c;
                                dep += 1;
                            }
                            VecOp::SplatI { coeff, add, inv: _ } => {
                                let i = lo.wrapping_add(k);
                                stack[dep] = coeff.wrapping_mul(i).wrapping_add(add) as f64;
                                dep += 1;
                            }
                            VecOp::SplatF(_) | VecOp::SplatG(_) | VecOp::Running => {
                                unreachable!("not in tests")
                            }
                            VecOp::Add => {
                                stack[dep - 2] += stack[dep - 1];
                                dep -= 1;
                            }
                            VecOp::Sub => {
                                stack[dep - 2] -= stack[dep - 1];
                                dep -= 1;
                            }
                            VecOp::Mul => {
                                stack[dep - 2] *= stack[dep - 1];
                                dep -= 1;
                            }
                            VecOp::Div => {
                                stack[dep - 2] /= stack[dep - 1];
                                dep -= 1;
                            }
                            VecOp::Pow => {
                                stack[dep - 2] = stack[dep - 2].powf(stack[dep - 1]);
                                dep -= 1;
                            }
                            VecOp::PowI(e) => stack[dep - 1] = stack[dep - 1].powi(e),
                            VecOp::Neg => stack[dep - 1] = -stack[dep - 1],
                            VecOp::Intr { f, argc } => {
                                let na = argc as usize;
                                dep -= na;
                                let v = f.eval_f(&stack[dep..dep + na]);
                                stack[dep] = v;
                                dep += 1;
                            }
                            VecOp::Store(ai) => {
                                dep -= 1;
                                let (b, base, stride) = streams[ai as usize];
                                bufs[b][(base + stride * k) as usize] = stack[dep];
                            }
                        }
                    }
                    if let Some(r) = d.red {
                        let t = stack[0];
                        acc = match (r.op, r.acc_left) {
                            (VecRedOp::Add, true) => acc + t,
                            (VecRedOp::Add, false) => t + acc,
                            (VecRedOp::Mul, true) => acc * t,
                            (VecRedOp::Mul, false) => t * acc,
                        };
                    }
                }
            }
            acc
        }

        /// Runs the emitted code over u64-bit buffers mirroring
        /// `bufs`, returning the final accumulator.
        fn run_native(
            region: &NativeRegion,
            bufs: &mut [Vec<f64>],
            streams: &[(usize, i64, i64)],
            lo: i64,
            n: i64,
            acc0: f64,
        ) -> f64 {
            let mut bits: Vec<Vec<u64>> =
                bufs.iter().map(|b| b.iter().map(|x| x.to_bits()).collect()).collect();
            let svec: Vec<Stream> = streams
                .iter()
                .map(|&(b, base, stride)| Stream {
                    ptr: unsafe { bits[b].as_mut_ptr().offset(base as isize) },
                    stride8: stride * 8,
                })
                .collect();
            let pool: Vec<u64> = region
                .pool
                .iter()
                .map(|e| match *e {
                    PoolEntry::ConstF(b) => b,
                    PoolEntry::ICoeff(c) => c as u64,
                    PoolEntry::IBase { coeff, add, .. } => {
                        coeff.wrapping_mul(lo).wrapping_add(add) as u64
                    }
                    _ => unreachable!("not in tests"),
                })
                .collect();
            let mut ctx = JitCtx {
                k0: 0,
                k1: n,
                streams: svec.as_ptr(),
                pool: pool.as_ptr(),
                acc: acc0,
                spill: [0; SPILL_SAVES + SPILL_ARGS],
            };
            unsafe { region.enter(&mut ctx) };
            for (b, out) in bits.iter().zip(bufs.iter_mut()) {
                for (x, y) in b.iter().zip(out.iter_mut()) {
                    *y = f64::from_bits(*x);
                }
            }
            ctx.acc
        }

        fn acc_f(subs: Vec<VecSub>, write: bool) -> VecAccess {
            VecAccess { vs: VSlot::A(0), v: 0, ty: ScalarTy::F, subs, write, proven: None }
        }

        fn sub1() -> VecSub {
            VecSub { coeff: 1, add: 0, inv: NO_SLOT }
        }

        fn desc(accesses: Vec<VecAccess>, stmts: Vec<Vec<VecOp>>, red: Option<VecRed>) -> VecDesc {
            let max_depth = stmts
                .iter()
                .filter_map(|ops| crate::bytecode::vec_stack_effect(ops))
                .map(|(_, mx)| mx)
                .max()
                .unwrap_or(0);
            let alias_pairs = VecDesc::write_pairs(&accesses, &[]);
            VecDesc {
                accesses,
                alias_pairs,
                window: crate::bytecode::FULL_WINDOW,
                globals: Vec::new(),
                stmts,
                red,
                sel: None,
                guarded: Vec::new(),
                max_depth,
                iter_cost: 4,
                taken_cost: 0,
                iter_ledger: None,
                exit_state: Vec::new(),
                line: 1,
            }
        }

        fn check(d: &VecDesc, nbufs: usize, streams: &[(usize, i64, i64)], n: i64, acc0: f64) {
            let len = 2 * n as usize + 8;
            check_on(d, streams, n, acc0, &|salt| {
                (0..nbufs)
                    .map(|b| {
                        (0..len)
                            .map(|i| ((i * 7 + b * 13 + salt) % 23) as f64 * 0.375 + 0.25)
                            .collect()
                    })
                    .collect()
            });
        }

        /// [`check`] over buffers cycling through signed zeros and
        /// infinities, NaNs with different payloads (one signaling),
        /// subnormals and negative values.
        fn check_edges(d: &VecDesc, nbufs: usize, streams: &[(usize, i64, i64)], n: i64) {
            let edges = [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(0x7ff8_0000_0000_0001),
                f64::from_bits(0xfff8_0000_0000_0002),
                f64::from_bits(0x7ff0_0000_0000_0003),
                f64::from_bits(1),
                -f64::from_bits(0x000f_ffff_ffff_ffff),
                -2.5,
                1.0274,
                3.0,
                -1e-300,
                1e300,
            ];
            let len = 2 * n as usize + 8;
            check_on(d, streams, n, 0.0, &|salt| {
                (0..nbufs)
                    .map(|b| (0..len).map(|i| edges[(i * 5 + b * 3 + salt) % edges.len()]).collect())
                    .collect()
            });
        }

        fn check_on(
            d: &VecDesc,
            streams: &[(usize, i64, i64)],
            n: i64,
            acc0: f64,
            mk: &dyn Fn(usize) -> Vec<Vec<f64>>,
        ) {
            let region = NativeRegion::emit(d).expect("emit");
            let mut want_bufs = mk(3);
            let mut got_bufs = mk(3);
            let want = eval_ref(d, &mut want_bufs, streams, 5, n, acc0);
            let got = run_native(&region, &mut got_bufs, streams, 5, n, acc0);
            assert_eq!(want.to_bits(), got.to_bits(), "accumulator bits");
            for (w, g) in want_bufs.iter().zip(got_bufs.iter()) {
                let wb: Vec<u64> = w.iter().map(|x| x.to_bits()).collect();
                let gb: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
                assert_eq!(wb, gb, "buffer bits");
            }
        }

        #[test]
        fn map_statement_axpy() {
            // a(i) = a(i) * c + b(i)
            let d = desc(
                vec![acc_f(vec![sub1()], true), acc_f(vec![sub1()], false)],
                vec![vec![
                    VecOp::Load(0),
                    VecOp::Splat(1.5),
                    VecOp::Mul,
                    VecOp::Load(1),
                    VecOp::Add,
                    VecOp::Store(0),
                ]],
                None,
            );
            check(&d, 2, &[(0, 2, 1), (1, 0, 1)], 37, 0.0);
        }

        #[test]
        fn reduction_dot_product() {
            let d = desc(
                vec![acc_f(vec![sub1()], false), acc_f(vec![sub1()], false)],
                vec![vec![VecOp::Load(0), VecOp::Load(1), VecOp::Mul]],
                Some(VecRed { vs: VSlot::F(0), op: VecRedOp::Add, acc_left: true, stmt: 0 }),
            );
            check(&d, 2, &[(0, 0, 1), (1, 1, 1)], 100, 0.5);
        }

        #[test]
        fn reduction_acc_right_product() {
            let d = desc(
                vec![acc_f(vec![sub1()], false)],
                vec![vec![VecOp::Load(0), VecOp::Splat(0.25), VecOp::Add]],
                Some(VecRed { vs: VSlot::F(0), op: VecRedOp::Mul, acc_left: false, stmt: 0 }),
            );
            check(&d, 1, &[(0, 0, 1)], 11, 1.0);
        }

        #[test]
        fn helper_ops_pow_powi_intr() {
            // a(i) = exp(-b(i)) + b(i)**2 + b(i)**c + b(i)**3 + b(i)**4
            //        + b(i)**(-1) + b(i)**5 — exercises Intr, the inline
            // PowI forms, the powi call, Pow and Neg with live registers
            // across the calls.
            let mut ops = vec![
                VecOp::Load(1),
                VecOp::Neg,
                VecOp::Intr { f: Intr::Exp, argc: 1 },
                VecOp::Load(1),
                VecOp::PowI(2),
                VecOp::Add,
                VecOp::Load(1),
                VecOp::Splat(1.25),
                VecOp::Pow,
                VecOp::Add,
            ];
            for e in [3, 4, -1, 5] {
                ops.extend([VecOp::Load(1), VecOp::PowI(e), VecOp::Add]);
            }
            ops.push(VecOp::Store(0));
            let d = desc(
                vec![acc_f(vec![sub1()], true), acc_f(vec![sub1()], false)],
                vec![ops],
                None,
            );
            check(&d, 2, &[(0, 0, 1), (1, 3, 1)], 29, 0.0);
            // On edge inputs, one statement and one output per exponent:
            // two NaNs never meet in an add, whose payload rustc leaves
            // to operand order.
            let es = [2, 3, 4, -1, 5, 0, 1, -2, 64];
            let stmts = es
                .iter()
                .enumerate()
                .map(|(k, &e)| edge_stmt(vec![VecOp::Load(0), VecOp::PowI(e)], k as u32 + 1))
                .collect();
            let d = desc(edge_accesses(es.len()), stmts, None);
            check_edges(&d, es.len() + 2, &edge_streams(es.len()), 29);
        }

        #[test]
        fn inline_powi_3_at_full_lane_depth() {
            // Sixteen live lanes fill xmm0..15: the cube of the top lane
            // has no free register and keeps its copy of x in memory.
            let mut ops: Vec<VecOp> = (0..VEC_MAX_DEPTH).map(|_| VecOp::Load(1)).collect();
            ops.push(VecOp::PowI(3));
            ops.extend((1..VEC_MAX_DEPTH).map(|_| VecOp::Add));
            ops.push(VecOp::Store(0));
            let d = desc(
                vec![acc_f(vec![sub1()], true), acc_f(vec![sub1()], false)],
                vec![ops],
                None,
            );
            assert_eq!(d.max_depth, VEC_MAX_DEPTH);
            check(&d, 2, &[(0, 0, 1), (1, 1, 1)], 31, 0.0);
            // The cube alone on edge inputs, still at depth 16.
            let mut ops: Vec<VecOp> = (1..VEC_MAX_DEPTH).map(|_| VecOp::Splat(0.0)).collect();
            ops.extend([VecOp::Load(1), VecOp::PowI(3)]);
            ops.extend((1..VEC_MAX_DEPTH).map(|_| VecOp::Add));
            ops.push(VecOp::Store(0));
            let d = desc(
                vec![acc_f(vec![sub1()], true), acc_f(vec![sub1()], false)],
                vec![ops],
                None,
            );
            assert_eq!(d.max_depth, VEC_MAX_DEPTH);
            check_edges(&d, 2, &[(0, 0, 1), (1, 1, 1)], 31);
        }

        /// `0.5 + (0.25 + value)`: two constant lanes stay live below
        /// the value (and across its helper calls), and a NaN value
        /// meets no other NaN.
        fn edge_stmt(value: Vec<VecOp>, out: u32) -> Vec<VecOp> {
            let mut ops = vec![VecOp::Splat(0.5), VecOp::Splat(0.25)];
            ops.extend(value);
            ops.extend([VecOp::Add, VecOp::Add, VecOp::Store(out)]);
            ops
        }

        /// Two inputs (accesses 0 and `outs + 1`) and `outs` outputs.
        fn edge_accesses(outs: usize) -> Vec<VecAccess> {
            let mut a = vec![acc_f(vec![sub1()], false)];
            a.extend((0..outs).map(|_| acc_f(vec![sub1()], true)));
            a.push(acc_f(vec![sub1()], false));
            a
        }

        fn edge_streams(outs: usize) -> Vec<(usize, i64, i64)> {
            let mut s = vec![(0, 2, 1)];
            s.extend((1..=outs).map(|k| (k, 0, 1)));
            s.push((outs + 1, 1, 1));
            s
        }

        #[test]
        fn every_lane_kernel_kind_on_edge_inputs() {
            // One statement per intrinsic over inputs b and c: constant,
            // unary, binary and fold kernels, NaNs in every argument
            // position of MAX and MIN.
            let (b, c) = (VecOp::Load(0), VecOp::Load(6));
            let intr = |f, argc| VecOp::Intr { f, argc };
            let mut values: Vec<Vec<VecOp>> = [
                Intr::Huge,
                Intr::Tiny,
                Intr::Abs,
                Intr::Log,
                Intr::Alog,
                Intr::Log10,
                Intr::Exp,
                Intr::Sqrt,
                Intr::Sin,
                Intr::Cos,
                Intr::Tan,
                Intr::Atan,
                Intr::Real,
                Intr::Dble,
            ]
            .into_iter()
            .map(|f| vec![b, intr(f, 1)])
            .collect();
            values.extend([
                vec![b, c, intr(Intr::Mod, 2)],
                vec![c, b, intr(Intr::Sign, 2)],
                vec![b, c, intr(Intr::Max, 2)],
                vec![c, b, intr(Intr::Min, 2)],
                vec![b, c, VecOp::Splat(0.5), intr(Intr::Max, 3)],
                vec![c, VecOp::Splat(-1.0), b, c, intr(Intr::Min, 4)],
                vec![b, c, b, c, b, c, b, c, intr(Intr::Max, 8)],
            ]);
            // Statements share five output streams.
            let stmts =
                values.into_iter().enumerate().map(|(k, v)| edge_stmt(v, k as u32 % 5 + 1)).collect();
            let d = desc(edge_accesses(5), stmts, None);
            check(&d, 7, &edge_streams(5), 41, 0.0);
            check_edges(&d, 7, &edge_streams(5), 41);
        }

        #[test]
        fn two_arg_intrinsics_and_deep_stack() {
            // a(i) = max(b(i), sign(b(i), -b(i))) + min(b(i), 2.0)
            let d = desc(
                vec![acc_f(vec![sub1()], true), acc_f(vec![sub1()], false)],
                vec![vec![
                    VecOp::Load(1),
                    VecOp::Load(1),
                    VecOp::Load(1),
                    VecOp::Neg,
                    VecOp::Intr { f: Intr::Sign, argc: 2 },
                    VecOp::Intr { f: Intr::Max, argc: 2 },
                    VecOp::Load(1),
                    VecOp::Splat(2.0),
                    VecOp::Intr { f: Intr::Min, argc: 2 },
                    VecOp::Add,
                    VecOp::Store(0),
                ]],
                None,
            );
            check(&d, 2, &[(0, 0, 1), (1, 1, 1)], 53, 0.0);
        }

        #[test]
        fn splat_i_affine_index() {
            // a(i) = 3*i - 7 (as f64), i running from lo.
            let d = desc(
                vec![acc_f(vec![sub1()], true)],
                vec![vec![
                    VecOp::SplatI { coeff: 3, add: -7, inv: NO_SLOT },
                    VecOp::Store(0),
                ]],
                None,
            );
            check(&d, 1, &[(0, 0, 1)], 19, 0.0);
        }

        #[test]
        fn strided_and_offset_streams() {
            // a(2i) = b(n-i)-ish: negative stride read, stride-2 write.
            let d = desc(
                vec![acc_f(vec![sub1()], true), acc_f(vec![sub1()], false)],
                vec![vec![VecOp::Load(1), VecOp::Splat(0.5), VecOp::Div, VecOp::Store(0)]],
                None,
            );
            check(&d, 2, &[(0, 0, 2), (1, 40, -1)], 20, 0.0);
        }

        #[test]
        fn block_split_equals_one_shot() {
            // Running k in two blocks must produce the same bits as one
            // block (the trampoline polls safepoints between blocks).
            let d = desc(
                vec![acc_f(vec![sub1()], false)],
                vec![vec![VecOp::Load(0), VecOp::Load(0), VecOp::Mul]],
                Some(VecRed { vs: VSlot::F(0), op: VecRedOp::Add, acc_left: true, stmt: 0 }),
            );
            let region = NativeRegion::emit(&d).expect("emit");
            let vals: Vec<f64> = (0..64).map(|i| (i as f64) * 0.3 - 4.0).collect();
            let mut bits: Vec<u64> = vals.iter().map(|x| x.to_bits()).collect();
            let svec = [Stream { ptr: bits.as_mut_ptr(), stride8: 8 }];
            let pool: Vec<u64> = Vec::new();
            let run_blocks = |splits: &[(i64, i64)]| -> f64 {
                let mut ctx = JitCtx {
                    k0: 0,
                    k1: 0,
                    streams: svec.as_ptr(),
                    pool: pool.as_ptr(),
                    acc: 0.125,
                    spill: [0; SPILL_SAVES + SPILL_ARGS],
                };
                for &(k0, k1) in splits {
                    ctx.k0 = k0;
                    ctx.k1 = k1;
                    unsafe { region.enter(&mut ctx) };
                }
                ctx.acc
            };
            let one = run_blocks(&[(0, 64)]);
            let many = run_blocks(&[(0, 17), (17, 40), (40, 64)]);
            assert_eq!(one.to_bits(), many.to_bits());
        }

        #[test]
        fn empty_block_is_a_no_op() {
            let d = desc(
                vec![acc_f(vec![sub1()], true)],
                vec![vec![VecOp::Splat(9.0), VecOp::Store(0)]],
                None,
            );
            let region = NativeRegion::emit(&d).expect("emit");
            let mut bits = [1.0f64.to_bits(); 4];
            let svec = [Stream { ptr: bits.as_mut_ptr(), stride8: 8 }];
            let pool: Vec<u64> = region
                .pool
                .iter()
                .map(|e| match *e {
                    PoolEntry::ConstF(b) => b,
                    _ => 0,
                })
                .collect();
            let mut ctx = JitCtx {
                k0: 3,
                k1: 3,
                streams: svec.as_ptr(),
                pool: pool.as_ptr(),
                acc: 0.0,
                spill: [0; SPILL_SAVES + SPILL_ARGS],
            };
            unsafe { region.enter(&mut ctx) };
            assert!(bits.iter().all(|&b| b == 1.0f64.to_bits()));
        }
    }

    #[test]
    fn cache_counts_then_promotes_and_caches_refusals() {
        // Threshold promotion and sharing are exercised through the
        // service in `tests/native_tier.rs`; here the table's edges: an
        // empty build has no slots, and a unit or descriptor outside the
        // table is a refusal, not a panic.
        let prog = RProgram::default();
        let cache = NativeCache::new(&[]);
        assert_eq!(cache.compiled_count(), 0);
        assert!(cache.region(&prog, &[], 0, 0, true).is_none());
        assert!(cache.region(&prog, &[], usize::MAX, u32::MAX, false).is_none());
    }
}
