//! Compile-time and run-time error types.

/// A source position (line-granular; the lexer joins continuations so a
/// logical line's first physical line is reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub line: u32,
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// Errors raised while lexing, parsing or resolving a program.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The front end rejected the source set. Lexing and parsing of
    /// either source form recover at statement boundaries, so this
    /// carries *every* problem found: one batch submission reports all
    /// its errors in one pass.
    Source { diags: Diagnostics },
    Sema { msg: String, span: Span },
    /// The static bytecode verifier rejected a compiled unit. `pc` is the
    /// instruction index within the unit (or the unit length for
    /// end-of-stream faults).
    Verify { unit: String, pc: u32, msg: String },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Source { diags } => {
                write!(
                    f,
                    "source rejected: {} error(s), {} warning(s)\n{}",
                    diags.error_count(),
                    diags.warning_count(),
                    diags.render()
                )
            }
            CompileError::Sema { msg, span } => write!(f, "semantic error at {span}: {msg}"),
            CompileError::Verify { unit, pc, msg } => {
                write!(f, "bytecode verification failed in `{unit}` at pc {pc}: {msg}")
            }
        }
    }
}

/// How bad one front-end diagnostic is. `Warning`s alone never fail a
/// compile (e.g. discarded text past column 72); `Error`s do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Warning,
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One recovered problem from the front end: where, how bad, what, and
/// (when we can guess) how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Index of the offending source in the submitted set.
    pub file: usize,
    pub span: Span,
    pub severity: Severity,
    pub message: String,
    /// A fix-hint, when the front end can suggest one.
    pub hint: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "file {}, line {}: {}: {}",
            self.file, self.span.line, self.severity, self.message
        )?;
        if let Some(h) = &self.hint {
            write!(f, "\n  help: {h}")?;
        }
        Ok(())
    }
}

/// The accumulated diagnostics of one front-end pass over a source set.
/// Statement-boundary recovery means this usually holds *several*
/// entries for a malformed file, in source order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics {
    pub list: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn push(&mut self, d: Diagnostic) {
        self.list.push(d);
    }

    pub fn error(&mut self, file: usize, line: u32, message: impl Into<String>) {
        self.list.push(Diagnostic {
            file,
            span: Span { line },
            severity: Severity::Error,
            message: message.into(),
            hint: None,
        });
    }

    pub fn error_hint(
        &mut self,
        file: usize,
        line: u32,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) {
        self.list.push(Diagnostic {
            file,
            span: Span { line },
            severity: Severity::Error,
            message: message.into(),
            hint: Some(hint.into()),
        });
    }

    pub fn warn_hint(
        &mut self,
        file: usize,
        line: u32,
        message: impl Into<String>,
        hint: impl Into<String>,
    ) {
        self.list.push(Diagnostic {
            file,
            span: Span { line },
            severity: Severity::Warning,
            message: message.into(),
            hint: Some(hint.into()),
        });
    }

    pub fn error_count(&self) -> usize {
        self.list.iter().filter(|d| d.severity == Severity::Error).count()
    }

    pub fn warning_count(&self) -> usize {
        self.list.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// One line per diagnostic (plus indented help lines), in source
    /// order. This is what golden tests pin.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, d) in self.list.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&d.to_string());
        }
        out
    }
}

impl std::error::Error for CompileError {}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Array index outside declared bounds.
    OutOfBounds { var: String, dim: usize, index: i64, lo: i64, hi: i64 },
    /// Use of an unallocated allocatable array.
    Unallocated { var: String },
    /// ALLOCATE of an already-allocated array (without SAVE-guard).
    AlreadyAllocated { var: String },
    /// Call of an unknown unit, or argument count mismatch.
    BadCall { name: String, msg: String },
    /// Arithmetic fault surfaced deliberately (e.g. integer division by
    /// zero; float ops follow IEEE and do not fault).
    Arith { msg: String },
    /// Type confusion that slipped past static checking.
    Type { msg: String },
    /// User-visible STOP with a message.
    Stop { msg: String },
    /// Iteration/recursion safety valve tripped.
    Limit { msg: String },
    /// An internal fault (worker panic, contained VM trap) surfaced as a
    /// recoverable error instead of aborting the process.
    Trap { what: String },
    /// Cooperative cancellation observed at a safepoint (DO-loop
    /// back-edge, OMP region entry, VM dispatch poll). `at_line` is the
    /// source line executing when the token was observed, when known.
    /// `reason` records who fired the token (e.g. an expired job
    /// deadline). Cancellation is final: it never retries and never
    /// falls back to the oracle tier.
    Cancelled { at_line: Option<u32>, reason: String },
    /// The artifact's circuit breaker is open: its accumulated
    /// trap/cancel count crossed the quarantine threshold and the policy
    /// refuses new runs until `ArtifactCache::clear_quarantine`.
    Quarantined { source_hash: u64, faults: u64 },
    /// A job was rejected before execution started (compile failure in a
    /// deferred-compile batch, or a panic while setting up its session).
    Rejected { msg: String },
    /// A runtime fault annotated with where it happened. `line` is the
    /// source line (via the PC→line debug table in the VM tier, or the
    /// statement span in the tree-walk tier); `pc` is the bytecode
    /// program counter and is set only by the VM tier. Display shows the
    /// line when known so both tiers render identically, and falls back
    /// to the pc otherwise.
    Ctx { unit: String, line: Option<u32>, pc: Option<u32>, inner: Box<RunError> },
}

impl RunError {
    /// Wraps `self` with execution context unless it is already wrapped
    /// (the innermost frame wins: it is the most precise).
    pub fn with_ctx(self, unit: &str, line: Option<u32>, pc: Option<u32>) -> RunError {
        match self {
            RunError::Ctx { .. } => self,
            inner => RunError::Ctx { unit: unit.to_string(), line, pc, inner: Box::new(inner) },
        }
    }

    /// The underlying fault, stripped of any context wrapper.
    pub fn root(&self) -> &RunError {
        match self {
            RunError::Ctx { inner, .. } => inner.root(),
            other => other,
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::OutOfBounds { var, dim, index, lo, hi } => write!(
                f,
                "index {index} out of bounds {lo}:{hi} in dimension {dim} of `{var}`"
            ),
            RunError::Unallocated { var } => write!(f, "array `{var}` used before ALLOCATE"),
            RunError::AlreadyAllocated { var } => write!(f, "array `{var}` is already allocated"),
            RunError::BadCall { name, msg } => write!(f, "bad call to `{name}`: {msg}"),
            RunError::Arith { msg } => write!(f, "arithmetic error: {msg}"),
            RunError::Type { msg } => write!(f, "type error: {msg}"),
            RunError::Stop { msg } => write!(f, "STOP: {msg}"),
            RunError::Limit { msg } => write!(f, "limit exceeded: {msg}"),
            RunError::Trap { what } => write!(f, "internal fault trapped: {what}"),
            RunError::Cancelled { at_line, reason } => {
                write!(f, "cancelled: {reason}")?;
                if let Some(l) = at_line {
                    write!(f, " (observed at line {l})")?;
                }
                Ok(())
            }
            RunError::Quarantined { source_hash, faults } => write!(
                f,
                "artifact {source_hash:016x} is quarantined after {faults} faults; \
                 clear it explicitly to resume"
            ),
            RunError::Rejected { msg } => write!(f, "job rejected: {msg}"),
            RunError::Ctx { unit, line, pc, inner } => {
                write!(f, "{inner} (in {unit}")?;
                match (line, pc) {
                    (Some(l), _) => write!(f, " at line {l})"),
                    (None, Some(p)) => write!(f, " at pc {p})"),
                    (None, None) => write!(f, ")"),
                }
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = CompileError::Sema { msg: "x".into(), span: Span { line: 3 } };
        assert_eq!(e.to_string(), "semantic error at line 3: x");
        let mut diags = Diagnostics::default();
        diags.error(0, 3, "x");
        let e = CompileError::Source { diags };
        assert_eq!(
            e.to_string(),
            "source rejected: 1 error(s), 0 warning(s)\nfile 0, line 3: error: x"
        );
        let r = RunError::OutOfBounds { var: "a".into(), dim: 0, index: 9, lo: 1, hi: 4 };
        assert!(r.to_string().contains("out of bounds"));
    }
}
