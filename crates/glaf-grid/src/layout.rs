//! Element addressing: array order and AoS/SoA layout.
//!
//! GLAF's code-optimization back-end exposes a data-layout choice
//! (array-of-structures vs. structure-of-arrays, paper §2.1). What the
//! rest of the workspace calls here is the [`Layout`] tag: a
//! [`crate::Grid`] carries one, and `glaf-codegen`'s FORTRAN and C
//! back-ends branch on it to declare and address struct grids (`a(i)%f`
//! against `a_f(i)`). The index arithmetic — [`linear_index`],
//! [`delinearize`], [`struct_offset`] and [`ArrayOrder`] — states the
//! addressing those emitted forms denote; its only callers are this
//! module's own unit and property tests, which prove each a bijection.


/// Memory order of a multi-dimensional grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayOrder {
    /// First index fastest — native FORTRAN order.
    ColumnMajor,
    /// Last index fastest — native C order.
    RowMajor,
}

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


/// Computes the 0-based linear offset of `indices` (already shifted to be
/// 0-based) inside extents `dims`, in the given order.
///
/// Panics in debug builds if arities differ or any index is out of range;
/// callers are expected to have validated against the owning grid.
pub fn linear_index(indices: &[usize], dims: &[usize], order: ArrayOrder) -> usize {
    debug_assert_eq!(indices.len(), dims.len());
    match order {
        ArrayOrder::ColumnMajor => {
            let mut off = 0usize;
            let mut stride = 1usize;
            for (&i, &d) in indices.iter().zip(dims.iter()) {
                debug_assert!(i < d, "index {i} out of extent {d}");
                off += i * stride;
                stride *= d;
            }
            off
        }
        ArrayOrder::RowMajor => {
            let mut off = 0usize;
            let mut stride = 1usize;
            for (&i, &d) in indices.iter().zip(dims.iter()).rev() {
                debug_assert!(i < d, "index {i} out of extent {d}");
                off += i * stride;
                stride *= d;
            }
            off
        }
    }
}

/// Inverse of [`linear_index`]: reconstructs the index vector from a linear
/// offset. Called by this module's tests, to prove bijectivity.
pub fn delinearize(mut off: usize, dims: &[usize], order: ArrayOrder) -> Vec<usize> {
    let mut out = vec![0usize; dims.len()];
    match order {
        ArrayOrder::ColumnMajor => {
            for (slot, &d) in out.iter_mut().zip(dims.iter()) {
                *slot = off % d;
                off /= d;
            }
        }
        ArrayOrder::RowMajor => {
            for (slot, &d) in out.iter_mut().zip(dims.iter()).rev() {
                *slot = off % d;
                off /= d;
            }
        }
    }
    out
}

/// Linear offset of field `f` (of `nfields`) for record `rec` (of `nrecs`)
/// under the chosen struct layout.
pub fn struct_offset(rec: usize, f: usize, nrecs: usize, nfields: usize, layout: Layout) -> usize {
    debug_assert!(rec < nrecs && f < nfields);
    match layout {
        Layout::AoS => rec * nfields + f,
        Layout::SoA => f * nrecs + rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn column_major_matches_fortran() {
        // a(i,j) with extents (4,3): offset = (i-1) + (j-1)*4 for 1-based.
        let dims = [4, 3];
        assert_eq!(linear_index(&[0, 0], &dims, ArrayOrder::ColumnMajor), 0);
        assert_eq!(linear_index(&[1, 0], &dims, ArrayOrder::ColumnMajor), 1);
        assert_eq!(linear_index(&[0, 1], &dims, ArrayOrder::ColumnMajor), 4);
        assert_eq!(linear_index(&[3, 2], &dims, ArrayOrder::ColumnMajor), 11);
    }

    #[test]
    fn row_major_matches_c() {
        let dims = [4, 3];
        assert_eq!(linear_index(&[0, 0], &dims, ArrayOrder::RowMajor), 0);
        assert_eq!(linear_index(&[0, 1], &dims, ArrayOrder::RowMajor), 1);
        assert_eq!(linear_index(&[1, 0], &dims, ArrayOrder::RowMajor), 3);
        assert_eq!(linear_index(&[3, 2], &dims, ArrayOrder::RowMajor), 11);
    }

    #[test]
    fn struct_layouts_disagree_exactly_when_expected() {
        // 3 records x 2 fields.
        assert_eq!(struct_offset(1, 1, 3, 2, Layout::AoS), 3);
        assert_eq!(struct_offset(1, 1, 3, 2, Layout::SoA), 4);
        // record 0 field 0 agree.
        assert_eq!(struct_offset(0, 0, 3, 2, Layout::AoS), 0);
        assert_eq!(struct_offset(0, 0, 3, 2, Layout::SoA), 0);
    }

    fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
        prop::collection::vec(1usize..6, 1..4)
    }

    proptest! {
        /// linear_index . delinearize == id for every offset, both orders.
        #[test]
        fn linearize_bijective(dims in dims_strategy()) {
            let n: usize = dims.iter().product();
            for order in [ArrayOrder::ColumnMajor, ArrayOrder::RowMajor] {
                let mut seen = vec![false; n];
                for off in 0..n {
                    let idx = delinearize(off, &dims, order);
                    let back = linear_index(&idx, &dims, order);
                    prop_assert_eq!(back, off);
                    prop_assert!(!seen[back]);
                    seen[back] = true;
                }
            }
        }

        /// AoS and SoA are both bijections over the rec x field rectangle.
        #[test]
        fn struct_layout_bijective(nrecs in 1usize..8, nfields in 1usize..6) {
            for layout in [Layout::AoS, Layout::SoA] {
                let mut seen = vec![false; nrecs * nfields];
                for r in 0..nrecs {
                    for f in 0..nfields {
                        let off = struct_offset(r, f, nrecs, nfields, layout);
                        prop_assert!(off < nrecs * nfields);
                        prop_assert!(!seen[off]);
                        seen[off] = true;
                    }
                }
            }
        }
    }
}
