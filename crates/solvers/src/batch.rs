//! Structure-of-arrays state for lane-batched integration.
//!
//! The lane-batched path integrates `L` independent parameterizations of
//! the *same* network in lockstep: every state-sized buffer holds the
//! states of all lanes interleaved **species-major, lane-minor** —
//! component `s` of lane `l` lives at `data[s * L + l]`. The row passes of
//! the batched right-hand side and the lockstep steppers then work on one
//! contiguous row of `L` lanes at a time
//! ([`LaneWidth`](paraspace_linalg::LaneWidth): a `[f64; L]` at the widths
//! the engines schedule, which is what makes the release build's arithmetic
//! packed — `scripts/lane-asm-check.sh` counts it) — the layout MPGOS-style
//! batched integrators use on real SIMD/SIMT hardware (one global-memory
//! transaction serves a whole warp; here, one cache line serves a row of
//! eight lanes).
//!
//! Lane width `L` is chosen at runtime (engines auto-select it per model);
//! per-lane results are bitwise independent of `L` because every lane's
//! arithmetic is an unshared dependency chain evaluated in the same order
//! at any width.

/// A species-major, lane-minor SoA block of `dim × lanes` values.
///
/// # Example
///
/// ```
/// use paraspace_solvers::BatchState;
///
/// let mut s = BatchState::zeros(3, 4); // 3 species × 4 lanes
/// s.set(2, 1, 7.0);
/// assert_eq!(s.at(2, 1), 7.0);
/// assert_eq!(s.row(2), &[0.0, 7.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchState {
    data: Vec<f64>,
    dim: usize,
    lanes: usize,
}

impl BatchState {
    /// A zero-filled block for `dim` components × `lanes` lanes.
    pub fn zeros(dim: usize, lanes: usize) -> Self {
        BatchState { data: vec![0.0; dim * lanes], dim, lanes }
    }

    /// Number of components (the ODE dimension `n`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Lane width `L`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Resizes in place to `dim × lanes`, zero-filling; contents are
    /// unspecified afterwards (callers fully rewrite before reading).
    pub fn resize(&mut self, dim: usize, lanes: usize) {
        self.dim = dim;
        self.lanes = lanes;
        self.data.clear();
        self.data.resize(dim * lanes, 0.0);
    }

    /// The raw SoA slice (`component s`, `lane l` ⇒ index `s·L + l`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw SoA slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value of component `s` in lane `l`.
    #[inline]
    pub fn at(&self, s: usize, l: usize) -> f64 {
        self.data[s * self.lanes + l]
    }

    /// Sets component `s` in lane `l`.
    #[inline]
    pub fn set(&mut self, s: usize, l: usize, v: f64) {
        self.data[s * self.lanes + l] = v;
    }

    /// All lanes of component `s` (one contiguous row).
    #[inline]
    pub fn row(&self, s: usize) -> &[f64] {
        &self.data[s * self.lanes..(s + 1) * self.lanes]
    }

    /// Copies lane `l` out into `dst` (length `dim`): the strided gather
    /// used when a lane's scalar trajectory is materialized (sample
    /// delivery, hand-off to a scalar solver).
    pub fn gather_lane(&self, l: usize, dst: &mut [f64]) {
        assert_eq!(dst.len(), self.dim, "gather buffer length");
        for (s, d) in dst.iter_mut().enumerate() {
            *d = self.data[s * self.lanes + l];
        }
    }

    /// Writes `src` (length `dim`) into lane `l`: the strided scatter used
    /// when a member is bound into a lane.
    pub fn scatter_lane(&mut self, l: usize, src: &[f64]) {
        assert_eq!(src.len(), self.dim, "scatter buffer length");
        for (s, &v) in src.iter().enumerate() {
            self.data[s * self.lanes + l] = v;
        }
    }

    /// Copies lane `l` of `src` into lane `l` of `self` (same shape).
    pub fn copy_lane_from(&mut self, src: &BatchState, l: usize) {
        debug_assert_eq!(self.dim, src.dim);
        debug_assert_eq!(self.lanes, src.lanes);
        for s in 0..self.dim {
            self.data[s * self.lanes + l] = src.data[s * src.lanes + l];
        }
    }
}

/// A batch of `members` same-network ODE systems integrated `lanes` at a
/// time.
///
/// Implementors own the per-member static data (initial states, kinetic
/// constants) and a lane-slot table: [`bind_lane`](Self::bind_lane) loads
/// one member's constants into a lane column, after which
/// [`rhs_batch`](Self::rhs_batch) evaluates every lane's right-hand side in
/// one species-major/lane-minor sweep. The lockstep solver rebinds retired
/// lanes to pending members (lane compaction), so one implementor value
/// services an entire lane-group.
///
/// `t` is per-lane (lanes sit at different integration times); autonomous
/// systems ignore it.
pub trait BatchOdeSystem {
    /// The ODE dimension `n` (identical across members).
    fn dim(&self) -> usize;

    /// Lane width `L`.
    fn lanes(&self) -> usize;

    /// Number of members in this lane-group's queue.
    fn members(&self) -> usize;

    /// Writes member `member`'s initial state into `y0` (length `n`).
    fn initial_state(&self, member: usize, y0: &mut [f64]);

    /// Loads member `member`'s static per-lane data (rate constants) into
    /// lane `lane`.
    fn bind_lane(&mut self, lane: usize, member: usize);

    /// Evaluates `dy/dt = f(t_l, y_l)` for every lane `l` into `dydt`.
    ///
    /// `t` has one entry per lane. Every lane column must be written —
    /// including lanes whose results the caller will discard — and each
    /// lane's arithmetic must depend only on that lane's column (no
    /// cross-lane reductions), which is what makes per-member results
    /// bitwise independent of lane width.
    fn rhs_batch(&mut self, t: &[f64], y: &BatchState, dydt: &mut BatchState);

    /// Whether [`jacobian_batch`](Self::jacobian_batch) is implemented.
    ///
    /// The implicit lockstep solver ([`Radau5Batch`](crate::Radau5Batch))
    /// requires it; explicit solvers never call it, so implementors that
    /// only feed `Dopri5Batch` can ignore both methods.
    fn supports_jacobian_batch(&self) -> bool {
        false
    }

    /// Evaluates the full analytic Jacobian of every lane into `jac`, an
    /// `n × n × L` SoA block: `∂f_i/∂y_j` of lane `l` at
    /// `(i·n + j)·L + l`. Lane independence and per-lane bitwise identity
    /// with the scalar Jacobian are required exactly as for
    /// [`rhs_batch`](Self::rhs_batch).
    ///
    /// The default panics; implementors advertising
    /// [`supports_jacobian_batch`](Self::supports_jacobian_batch) must
    /// override it.
    fn jacobian_batch(&mut self, t: &[f64], y: &BatchState, jac: &mut [f64]) {
        let _ = (t, y, jac);
        panic!("this BatchOdeSystem does not implement jacobian_batch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_layout_is_species_major_lane_minor() {
        let mut s = BatchState::zeros(2, 3);
        s.set(0, 0, 1.0);
        s.set(0, 2, 2.0);
        s.set(1, 1, 3.0);
        assert_eq!(s.as_slice(), &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        assert_eq!(s.row(1), &[0.0, 3.0, 0.0]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut s = BatchState::zeros(4, 3);
        s.scatter_lane(1, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = [0.0; 4];
        s.gather_lane(1, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
        // Other lanes untouched.
        s.gather_lane(0, &mut out);
        assert_eq!(out, [0.0; 4]);
    }

    #[test]
    fn copy_lane_moves_one_column() {
        let mut a = BatchState::zeros(2, 2);
        let mut b = BatchState::zeros(2, 2);
        b.scatter_lane(0, &[5.0, 6.0]);
        b.scatter_lane(1, &[7.0, 8.0]);
        a.copy_lane_from(&b, 1);
        assert_eq!(a.at(0, 1), 7.0);
        assert_eq!(a.at(1, 1), 8.0);
        assert_eq!(a.at(0, 0), 0.0);
    }

    #[test]
    fn resize_reshapes() {
        let mut s = BatchState::zeros(2, 2);
        s.set(1, 1, 9.0);
        s.resize(3, 4);
        assert_eq!(s.dim(), 3);
        assert_eq!(s.lanes(), 4);
        assert_eq!(s.as_slice().len(), 12);
        assert!(s.as_slice().iter().all(|&v| v == 0.0));
    }
}
