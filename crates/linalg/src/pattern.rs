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
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, j) in entries {
            assert!(i < n && j < n, "pattern entry ({i}, {j}) outside {n}x{n}");
            rows[i].push(j);
        }
        Self::from_rows(n, rows)
    }

    /// Builds a pattern row by row: `rows` yields, for rows `0..n` in
    /// order, that row's column indices (any order, duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not yield `n` rows or a column is `≥ n`.
    pub fn from_rows<R>(n: usize, rows: impl IntoIterator<Item = R>) -> Self
    where
        R: IntoIterator<Item = usize>,
    {
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols: Vec<u32> = Vec::new();
        row_ptr.push(0);
        for row in rows {
            let start = cols.len();
            for j in row {
                assert!(j < n, "pattern column {j} outside {n}x{n}");
                cols.push(j as u32);
            }
            cols[start..].sort_unstable();
            // Dedup the row in place: `kept` is one past the last column kept.
            let mut kept = start;
            for at in start..cols.len() {
                if kept == start || cols[kept - 1] != cols[at] {
                    cols[kept] = cols[at];
                    kept += 1;
                }
            }
            cols.truncate(kept);
            row_ptr.push(kept);
        }
        assert_eq!(row_ptr.len(), n + 1, "pattern of dimension {n} needs {n} rows");
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
