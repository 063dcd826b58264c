//! The structural nonzero pattern of a square matrix.
//!
//! A mass-action Jacobian's sparsity is fixed by stoichiometry the moment a
//! model is compiled. The LU kernels factor densely regardless (see
//! `docs/NUMERICS.md` § LU ordering for the measurement behind that), but
//! the sensitivity `J·S` contractions and the lane-width autotuner's
//! working-set estimate read the pattern to touch `nnz` entries per row
//! pass instead of `n²`.

/// The structural nonzero positions of an `n × n` matrix, in CSR form
/// (sorted, deduplicated column indices per row).
///
/// # Example
///
/// ```
/// use paraspace_linalg::SparsityPattern;
///
/// let p = SparsityPattern::from_entries(3, [(0, 0), (0, 2), (2, 0), (1, 1), (0, 2)]);
/// assert_eq!(p.nnz(), 4); // duplicates collapse
/// assert!(p.contains(0, 2) && !p.contains(2, 2));
/// assert_eq!(p.row(0), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl SparsityPattern {
    /// Builds a pattern from `(row, col)` entries (any order, duplicates
    /// allowed).
    ///
    /// # Panics
    ///
    /// Panics if an entry lies outside `n × n`.
    pub fn from_entries(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, j) in entries {
            assert!(i < n && j < n, "pattern entry ({i}, {j}) outside {n}x{n}");
            rows[i].push(j as u32);
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        row_ptr.push(0);
        for r in &mut rows {
            r.sort_unstable();
            r.dedup();
            cols.extend_from_slice(r);
            row_ptr.push(cols.len());
        }
        SparsityPattern { n, row_ptr, cols }
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Sorted column indices of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Whether position `(i, j)` is structural.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i).binary_search(&(j as u32)).is_ok()
    }
}
