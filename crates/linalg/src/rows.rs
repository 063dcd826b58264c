//! Rows of lanes whose length the compiler can see.
//!
//! Every lockstep kernel keeps its data lane-minor: entry `i` of lane `l`
//! of a block lives at `i·L + l`, so "entry `i` of every lane" is one
//! contiguous row of `L` values, and a *row pass* does the same arithmetic
//! on every lane of a row. Whether that arithmetic becomes packed
//! instructions is decided by what the compiler knows: over rows of a
//! run-time length it emits one scalar operation per lane; over
//! `[f64; L]` rows it unrolls the lane loop and packs it — provided it also
//! knows that the block a pass writes overlaps none of those it reads, which
//! a pass gets from taking its blocks as `&[f64]` / `&mut [f64]` parameters
//! of a function that is not `#[inline(always)]` (that attribute splices the
//! body in before the parameters' guarantees reach the code generator).
//!
//! A pass is therefore written once, generic over a [`LaneWidth`], and
//! [`with_lane_width!`](crate::with_lane_width) instantiates it for the
//! widths the engines schedule (1, 2, 4, 8 — rows are `[T; L]`) and for any
//! other width (rows are slices; the same body, not a second copy of it).
//! Nothing here changes what is computed: a lane's value is the same
//! IEEE-754 expression at every width.

use std::ops::{Index, IndexMut};

/// The lane width `L` of a row pass, and with it the type of one row.
pub trait LaneWidth: Copy {
    /// `L` values, one per lane: `[T; L]` when `L` is fixed at compile
    /// time, `[T]` otherwise.
    type Row<T: Copy>: ?Sized + Index<usize, Output = T> + IndexMut<usize>;

    /// `L`.
    fn lanes(self) -> usize;

    /// Row `s` of a lane-minor block.
    ///
    /// # Panics
    ///
    /// Panics if the block has no row `s`.
    fn row<T: Copy>(self, block: &[T], s: usize) -> &Self::Row<T>;

    /// Row `s` of a lane-minor block, mutably.
    ///
    /// # Panics
    ///
    /// Panics if the block has no row `s`.
    fn row_mut<T: Copy>(self, block: &mut [T], s: usize) -> &mut Self::Row<T>;

    /// Runs `pass` on an accumulator row that starts at `init` in every
    /// lane and ends up in `out`. At a fixed width the accumulator is a
    /// local, so a pass that adds to it term by term keeps it in registers
    /// and `out` is written once; otherwise it is `out` itself.
    fn reduce<T: Copy>(self, init: T, out: &mut Self::Row<T>, pass: impl FnOnce(&mut Self::Row<T>));
}

/// A width fixed at compile time: rows are `[T; L]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWidth<const L: usize>;

impl<const L: usize> LaneWidth for FixedWidth<L> {
    type Row<T: Copy> = [T; L];

    #[inline(always)]
    fn lanes(self) -> usize {
        L
    }

    #[inline(always)]
    fn row<T: Copy>(self, block: &[T], s: usize) -> &[T; L] {
        &block.as_chunks().0[s]
    }

    #[inline(always)]
    fn row_mut<T: Copy>(self, block: &mut [T], s: usize) -> &mut [T; L] {
        &mut block.as_chunks_mut().0[s]
    }

    #[inline(always)]
    fn reduce<T: Copy>(self, init: T, out: &mut [T; L], pass: impl FnOnce(&mut [T; L])) {
        let mut acc = [init; L];
        pass(&mut acc);
        *out = acc;
    }
}

/// A width known only at run time: rows are slices of that length. The
/// route of widths [`with_lane_width!`](crate::with_lane_width) has no
/// fixed instantiation for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnyWidth(pub usize);

impl LaneWidth for AnyWidth {
    type Row<T: Copy> = [T];

    #[inline(always)]
    fn lanes(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn row<T: Copy>(self, block: &[T], s: usize) -> &[T] {
        &block[s * self.0..][..self.0]
    }

    #[inline(always)]
    fn row_mut<T: Copy>(self, block: &mut [T], s: usize) -> &mut [T] {
        &mut block[s * self.0..][..self.0]
    }

    #[inline(always)]
    fn reduce<T: Copy>(self, init: T, out: &mut [T], pass: impl FnOnce(&mut [T])) {
        out.fill(init);
        pass(out);
    }
}

/// Evaluates `$pass` with `$w` bound to the [`LaneWidth`] for `$lanes`
/// lanes: a [`FixedWidth`] at 1, 2, 4 and 8, [`AnyWidth`] otherwise. The
/// one place a run-time lane width becomes a compile-time one.
///
/// ```
/// use paraspace_linalg::{with_lane_width, LaneWidth};
///
/// // `out ← a·x`, row by row.
/// fn scale_rows<W: LaneWidth>(w: W, a: &[f64], x: &[f64], out: &mut [f64]) {
///     let a = w.row(a, 0);
///     for s in 0..x.len() / w.lanes() {
///         let (x, out) = (w.row(x, s), w.row_mut(out, s));
///         for l in 0..w.lanes() {
///             out[l] = a[l] * x[l];
///         }
///     }
/// }
///
/// for lanes in [2, 3] {
///     let a: Vec<f64> = (0..lanes).map(|l| 1.0 + l as f64).collect();
///     let x = vec![2.0; 2 * lanes];
///     let mut out = vec![0.0; 2 * lanes];
///     with_lane_width!(lanes, |w| scale_rows(w, &a, &x, &mut out));
///     assert_eq!(out[lanes..], out[..lanes]);
///     assert_eq!(out[lanes - 1], 2.0 * lanes as f64);
/// }
/// ```
#[macro_export]
macro_rules! with_lane_width {
    ($lanes:expr, |$w:ident| $pass:expr) => {
        match $lanes {
            1 => {
                let $w = $crate::FixedWidth::<1>;
                $pass
            }
            2 => {
                let $w = $crate::FixedWidth::<2>;
                $pass
            }
            4 => {
                let $w = $crate::FixedWidth::<4>;
                $pass
            }
            8 => {
                let $w = $crate::FixedWidth::<8>;
                $pass
            }
            lanes => {
                let $w = $crate::AnyWidth(lanes);
                $pass
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `out_l ← Σ_s x[s][l]` through `reduce`.
    fn column_sums<W: LaneWidth>(w: W, x: &[f64], out: &mut [f64]) {
        w.reduce(0.0, w.row_mut(out, 0), |acc| {
            for s in 0..x.len() / w.lanes() {
                let x = w.row(x, s);
                for l in 0..w.lanes() {
                    acc[l] += x[l];
                }
            }
        });
    }

    #[test]
    fn every_width_sees_the_same_rows() {
        for lanes in [1, 2, 3, 4, 5, 8] {
            let x: Vec<f64> = (0..3 * lanes).map(|i| i as f64).collect();
            let mut out = vec![f64::NAN; lanes];
            with_lane_width!(lanes, |w| {
                assert_eq!(w.lanes(), lanes);
                column_sums(w, &x, &mut out);
            });
            let want: Vec<f64> = (0..lanes).map(|l| (3 * l + 3 * lanes) as f64).collect();
            assert_eq!(out, want, "lanes={lanes}");
        }
    }

    #[test]
    fn rows_of_any_element_type() {
        let mut mask = [false; 6];
        FixedWidth::<2>.row_mut(&mut mask, 1)[1] = true;
        AnyWidth(3).row_mut(&mut mask, 1)[2] = true;
        assert_eq!(mask, [false, false, false, true, false, true]);
    }

    #[test]
    #[should_panic]
    fn a_row_past_the_block_panics() {
        let _ = FixedWidth::<4>.row(&[0.0; 7], 1);
    }
}
