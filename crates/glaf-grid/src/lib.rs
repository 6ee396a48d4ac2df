//! # glaf-grid — the GLAF grid abstraction
//!
//! In GLAF every program datum — scalar, multi-dimensional array, or C-like
//! struct — is represented by a single uniform abstraction: the **grid**
//! (paper §2.1, Fig. 1). A grid records its dimensionality, per-dimension
//! extents and lower bounds, element typing, a caption (the variable name)
//! and a free-text comment that the code generators turn into a source
//! comment.
//!
//! This crate also carries the *legacy-integration attributes* that the ICPP
//! 2018 paper adds on top of the original framework (paper §3):
//!
//! * a grid may live in an **existing FORTRAN module** (§3.1) — code
//!   generation must emit `USE <module>` instead of a declaration;
//! * a grid may belong to a **COMMON block** (§3.2) — declarations are
//!   grouped per block and a `COMMON /name/ v1, v2, ...` line is emitted;
//! * a grid may be a **module-scope variable** of the generated module
//!   (§3.3) — declared and initialized once in the module's global scope;
//! * a grid may be an **element of an existing TYPE variable** (§3.5) — all
//!   uses are prefixed with `var%` in FORTRAN (`var.` in C).
//!
//! Finally, [`layout`] names the optimization back-end's
//! array-of-structures / structure-of-arrays choice (§2.1) — the tag the
//! code generators branch on.

pub mod grid;
pub mod layout;
pub mod scope;
pub mod types;

pub use grid::{Dim, ElemType, Field, Grid, GridBuilder};
pub use layout::Layout;
pub use scope::{GridOrigin, InitData, IntegrationAttr};
pub use types::DataType;

/// Crate-level error type for grid construction and addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A dimension was declared with a zero or negative extent.
    EmptyDimension { grid: String, dim: usize },
    /// An index vector had the wrong arity for the grid.
    WrongArity { grid: String, expected: usize, got: usize },
    /// An index was outside the declared bounds of its dimension.
    OutOfBounds { grid: String, dim: usize, index: i64, lo: i64, hi: i64 },
    /// A struct field was referenced that the grid does not define.
    NoSuchField { grid: String, field: String },
    /// Grid names must be valid FORTRAN/C identifiers.
    BadName(String),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyDimension { grid, dim } => {
                write!(f, "grid `{grid}`: dimension {dim} has empty extent")
            }
            GridError::WrongArity { grid, expected, got } => {
                write!(f, "grid `{grid}`: expected {expected} indices, got {got}")
            }
            GridError::OutOfBounds { grid, dim, index, lo, hi } => write!(
                f,
                "grid `{grid}`: index {index} out of bounds {lo}..={hi} in dimension {dim}"
            ),
            GridError::NoSuchField { grid, field } => {
                write!(f, "grid `{grid}`: no struct field named `{field}`")
            }
            GridError::BadName(name) => write!(f, "`{name}` is not a valid identifier"),
        }
    }
}

impl std::error::Error for GridError {}

/// Returns true when `name` is a valid identifier in both FORTRAN and C:
/// a letter followed by letters, digits or underscores.
pub fn is_valid_identifier(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifier_validation() {
        assert!(is_valid_identifier("img_src"));
        assert!(is_valid_identifier("a1"));
        assert!(!is_valid_identifier("1a"));
        assert!(!is_valid_identifier(""));
        assert!(!is_valid_identifier("foo-bar"));
        assert!(!is_valid_identifier("_x"));
    }

    #[test]
    fn error_display() {
        let e = GridError::OutOfBounds {
            grid: "g".into(),
            dim: 1,
            index: 9,
            lo: 0,
            hi: 3,
        };
        assert!(e.to_string().contains("out of bounds"));
    }
}
