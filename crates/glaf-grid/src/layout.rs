//! Struct-grid layout: array-of-structures or structure-of-arrays.
//!
//! GLAF's code-optimization back-end exposes a data-layout choice
//! (array-of-structures vs. structure-of-arrays, paper §2.1). What the
//! rest of the workspace calls here is the [`Layout`] tag: a
//! [`crate::Grid`] carries one, and `glaf-codegen`'s FORTRAN and C
//! back-ends branch on it to declare and address struct grids (`a(i)%f`
//! against `a_f(i)`).

/// Layout of a struct-element grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[derive(Default)]
pub enum Layout {
    /// `a(i)%f` elements of one record adjacent (array of structures).
    #[default]
    AoS,
    /// `f_a(i)` one array per field (structure of arrays).
    SoA,
}
