//! The parsed (name-based) AST. Resolution to slot-based form happens in
//! [`crate::sema`].

use crate::error::Span;

/// Scalar types the engine evaluates. `Real` and `Real8` both evaluate in
//  f64; the distinction is kept for declarations and byte accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeSpec {
    Integer,
    Real,
    Real8,
    Logical,
    Character,
    Derived(String),
}

/// The most dimensions an array may have (FORTRAN 77/90 allow 7). The
/// parser refuses a longer dimension list and sema a longer flattened
/// `base%field` shape, so every subscript list the engine sees fits the
/// VM's fixed subscript buffer.
pub(crate) const MAX_RANK: usize = 8;

/// What an array of more than [`MAX_RANK`] dimensions is refused with.
pub(crate) fn rank_error(rank: usize) -> String {
    format!("rank {rank} exceeds the supported maximum of {MAX_RANK}")
}

/// One dimension declarator: `lo:hi`, `n` (meaning `1:n`), or `:`
/// (deferred — allocatable).
#[derive(Debug, Clone, PartialEq)]
pub struct DimDecl {
    pub lo: Option<Expr>,
    pub hi: Option<Expr>,
    pub deferred: bool,
}

/// Attributes on a declaration line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attrs {
    pub dims: Option<Vec<DimDecl>>,
    pub allocatable: bool,
    pub save: bool,
    pub parameter: bool,
}

/// One declared entity: `name(dims) = init`.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    pub name: String,
    pub dims: Option<Vec<DimDecl>>,
    pub init: Option<Expr>,
    /// Per-element initializers for a whole array (fixed-form `DATA`).
    /// Length always equals the element count; unspecified elements are
    /// filled with a zero literal by the front end.
    pub init_list: Option<Vec<Expr>>,
}

/// A declaration line.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    pub spec: TypeSpec,
    pub attrs: Attrs,
    pub entities: Vec<Entity>,
    pub span: Span,
}

/// A derived-TYPE definition.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDef {
    pub name: String,
    pub fields: Vec<Decl>,
    pub span: Span,
}

/// One `part` of a designator path: `name` or `name(subscripts)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    pub name: String,
    pub subs: Vec<Expr>,
}

/// A designator: `a`, `a(i,j)`, `fi%vd(i)`, `atoms(i)%x`.
#[derive(Debug, Clone, PartialEq)]
pub struct Desig {
    pub parts: Vec<Part>,
    pub span: Span,
}

impl Desig {
    /// The whole variable `name`: one part, no subscripts.
    pub fn scalar(name: String, span: Span) -> Desig {
        Desig { parts: vec![Part { name, subs: vec![] }], span }
    }

    /// The base variable name.
    pub fn base(&self) -> &str {
        &self.parts[0].name
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Expressions. `Name(Desig)` covers variable reads, array elements,
/// function calls and intrinsic calls — disambiguated during resolution,
/// exactly as a Fortran compiler must.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Int(i64),
    Real(f64),
    Logical(bool),
    Str(String),
    Name(Desig),
    Bin(Bin, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
}

/// Reduction operators accepted in `REDUCTION(op: list)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    Add,
    Mul,
    Max,
    Min,
}

/// Schedule kinds accepted in `SCHEDULE(kind[, chunk])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    Static,
    Dynamic,
    Guided,
}

/// Clauses of `!$OMP PARALLEL DO`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OmpDo {
    pub private: Vec<String>,
    pub firstprivate: Vec<String>,
    pub reductions: Vec<(RedOp, Vec<String>)>,
    pub collapse: usize,
    pub num_threads: Option<Expr>,
    /// `SCHEDULE(kind[, chunk])`; `None` means the clause was absent
    /// (runtime default: static block partitioning).
    pub schedule: Option<(SchedKind, Option<usize>)>,
}

/// The four legacy branches, kept symbolic until [`crate::legalize`]
/// turns them into structured control flow.
#[derive(Debug, Clone, PartialEq)]
pub enum Branch {
    /// `GO TO l`
    Goto(u32),
    /// `GO TO (l1, l2, ...), e`
    Computed(Vec<u32>, Expr),
    /// `GO TO v [, (l1, l2, ...)]`
    Assigned(String, Vec<u32>),
    /// `IF (e) l1, l2, l3`
    Arith(Expr, u32, u32, u32),
}

/// Statements. (The `Do` variant is bigger than the rest; this is a
/// parse-time structure that is immediately lowered, so clarity beats
/// boxing.)
///
/// `Label` and `Branch` exist only between the parser and the legalizer:
/// a `Label` marks the statement after it as a jump target, and the
/// legalizer removes every one of both before sema sees the tree.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Stmt {
    Assign { target: Desig, value: Expr, atomic: bool, span: Span },
    If { arms: Vec<(Expr, Vec<Stmt>)>, else_body: Vec<Stmt>, span: Span },
    Do {
        var: String,
        start: Expr,
        end: Expr,
        step: Option<Expr>,
        body: Vec<Stmt>,
        omp: Option<OmpDo>,
        span: Span,
    },
    DoWhile { cond: Expr, body: Vec<Stmt>, span: Span },
    Call { name: String, args: Vec<Expr>, span: Span },
    Allocate { items: Vec<(Desig, Vec<DimDecl>)>, span: Span },
    Deallocate { names: Vec<Desig>, span: Span },
    Critical { name: Option<String>, body: Vec<Stmt>, span: Span },
    Return(Span),
    Exit(Span),
    Cycle(Span),
    Continue(Span),
    Stop { message: Option<String>, span: Span },
    Print { args: Vec<Expr>, span: Span },
    Label(u32, Span),
    Branch(Branch, Span),
}

impl Stmt {
    /// The source position of the statement keyword line.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Do { span, .. }
            | Stmt::DoWhile { span, .. }
            | Stmt::Call { span, .. }
            | Stmt::Allocate { span, .. }
            | Stmt::Deallocate { span, .. }
            | Stmt::Critical { span, .. }
            | Stmt::Stop { span, .. }
            | Stmt::Print { span, .. } => *span,
            Stmt::Return(span)
            | Stmt::Exit(span)
            | Stmt::Cycle(span)
            | Stmt::Continue(span)
            | Stmt::Label(_, span)
            | Stmt::Branch(_, span) => *span,
        }
    }
}

/// Calls `f` on every variable name in `body` — designator bases, DO
/// variables, assigned-GOTO variables; never subprogram or component
/// names — with `true` when the name stands whole there (a scalar read,
/// an assignment target, a loop variable) and `false` when it is
/// subscripted or heads a component path. Each name is handed out once,
/// for the whole borrow, so `f` may rewrite it and keep it.
pub fn for_each_name<'a>(body: &'a mut [Stmt], f: &mut impl FnMut(&'a mut String, bool)) {
    for s in body {
        match s {
            Stmt::Assign { target, value, .. } => {
                names_in_desig(target, true, f);
                names_in_expr(value, f);
            }
            Stmt::If { arms, else_body, .. } => {
                for (cond, arm) in arms {
                    names_in_expr(cond, f);
                    for_each_name(arm, f);
                }
                for_each_name(else_body, f);
            }
            Stmt::Do { var, start, end, step, body, .. } => {
                f(var, true);
                names_in_expr(start, f);
                names_in_expr(end, f);
                if let Some(e) = step {
                    names_in_expr(e, f);
                }
                for_each_name(body, f);
            }
            Stmt::DoWhile { cond, body, .. } => {
                names_in_expr(cond, f);
                for_each_name(body, f);
            }
            Stmt::Call { args, .. } | Stmt::Print { args, .. } => {
                args.iter_mut().for_each(|a| names_in_expr(a, f));
            }
            Stmt::Allocate { items, .. } => {
                for (d, dims) in items {
                    names_in_desig(d, false, f);
                    for e in dims.iter_mut().flat_map(|d| d.lo.iter_mut().chain(&mut d.hi)) {
                        names_in_expr(e, f);
                    }
                }
            }
            Stmt::Deallocate { names, .. } => {
                names.iter_mut().for_each(|d| names_in_desig(d, false, f));
            }
            Stmt::Critical { body, .. } => for_each_name(body, f),
            Stmt::Branch(Branch::Computed(_, e) | Branch::Arith(e, ..), _) => names_in_expr(e, f),
            Stmt::Branch(Branch::Assigned(v, _), _) => f(v, true),
            Stmt::Branch(Branch::Goto(_), _)
            | Stmt::Return(_)
            | Stmt::Exit(_)
            | Stmt::Cycle(_)
            | Stmt::Continue(_)
            | Stmt::Stop { .. }
            | Stmt::Label(..) => {}
        }
    }
}

/// [`for_each_name`] over one expression.
fn names_in_expr<'a>(e: &'a mut Expr, f: &mut impl FnMut(&'a mut String, bool)) {
    match e {
        Expr::Name(d) => names_in_desig(d, false, f),
        Expr::Bin(_, a, b) => {
            names_in_expr(a, f);
            names_in_expr(b, f);
        }
        Expr::Neg(a) | Expr::Not(a) => names_in_expr(a, f),
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) => {}
    }
}

/// [`for_each_name`] over one designator; `defined` marks an assignment
/// target, whose base counts as whole even when subscripted.
pub fn names_in_desig<'a>(
    d: &'a mut Desig,
    defined: bool,
    f: &mut impl FnMut(&'a mut String, bool),
) {
    let whole = defined || (d.parts.len() == 1 && d.parts[0].subs.is_empty());
    for (k, p) in d.parts.iter_mut().enumerate() {
        if k == 0 {
            f(&mut p.name, whole);
        }
        p.subs.iter_mut().for_each(|s| names_in_expr(s, f));
    }
}

/// Subprogram kind.
#[derive(Debug, Clone, PartialEq)]
pub enum UnitKind {
    Subroutine,
    Function(TypeSpec),
}

/// A SUBROUTINE or FUNCTION.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    pub kind: UnitKind,
    pub name: String,
    pub params: Vec<String>,
    pub uses: Vec<String>,
    pub decls: Vec<Decl>,
    /// `COMMON /block/ v1, v2` lines.
    pub commons: Vec<(String, Vec<String>)>,
    pub body: Vec<Stmt>,
    pub span: Span,
}

/// A MODULE.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub name: String,
    pub uses: Vec<String>,
    pub typedefs: Vec<TypeDef>,
    pub decls: Vec<Decl>,
    pub threadprivate: Vec<String>,
    pub units: Vec<Unit>,
    pub span: Span,
}

impl Module {
    /// An empty module.
    pub fn new(name: String, span: Span) -> Module {
        Module {
            name,
            uses: vec![],
            typedefs: vec![],
            decls: vec![],
            threadprivate: vec![],
            units: vec![],
            span,
        }
    }
}

/// A parsed compilation: one or more modules.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ast {
    pub modules: Vec<Module>,
}
