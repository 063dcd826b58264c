//! The complex Radau iteration matrix of the autophagy analogue through
//! every complex LU in `linalg`, against the routine they replaced.
//!
//! `linalg` stores complex factors as two `f64` planes and eliminates on
//! them; before that, `CluFactor` and every lane of `BatchCluFactor` ran
//! the generic elimination over interleaved `Complex64` values. Recorded
//! trajectories depend on that arithmetic bit for bit, so the interleaved
//! routine is kept here as the reference and held against both types on
//! `E2 = (α + iβ)/h·I − J` of the 46-species network the PSA benchmark
//! integrates, at step sizes from the fast transient to the slow drift (the
//! pivot order changes with `h`).

use paraspace_linalg::{BatchCluFactor, CMatrix, CluFactor, Complex64, Matrix};
use paraspace_models::autophagy;
use paraspace_solvers::{OdeSolver, Radau5, SolverOptions};

/// Radau IIA's complex inverse eigenvalue `α + iβ`.
const ALPH: f64 = 2.6810828736277523;
const BETA: f64 = 3.0504301992474105;

/// The elimination over interleaved complex values as `linalg` ran it for
/// `Complex64` before the planes: first strict maximum of `|a_ik|²` pivots,
/// full-row exchange, `m = a_ik / a_kk`, rows with `m == 0` skipped,
/// `a_ij − m·u_kj` for `j` ascending.
fn interleaved_eliminate(a: &mut [Complex64], n: usize, pivots: &mut [usize]) -> Result<(), usize> {
    for k in 0..n {
        let mut piv = k;
        let mut max = a[k * n + k].abs_sq();
        for (i, row) in (k + 1..n).zip(a[(k + 1) * n..].chunks_exact(n)) {
            let v = row[k].abs_sq();
            if v > max {
                max = v;
                piv = i;
            }
        }
        if max == 0.0 {
            return Err(k);
        }
        pivots[k] = piv;
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let pivot_row = &mut upper[k * n..];
        if piv != k {
            pivot_row.swap_with_slice(&mut lower[(piv - k - 1) * n..][..n]);
        }
        let pivot = pivot_row[k];
        let u = &pivot_row[k + 1..];
        for row in lower.chunks_exact_mut(n) {
            let m = row[k] / pivot;
            row[k] = m;
            if m != Complex64::ZERO {
                for (x, &u) in row[k + 1..].iter_mut().zip(u) {
                    *x -= m * u;
                }
            }
        }
    }
    Ok(())
}

/// The substitution that went with it: exchanges, `L y = P b`, `U x = y`,
/// every sum left to right.
fn interleaved_solve(lu: &[Complex64], pivots: &[usize], b: &mut [Complex64]) {
    let n = b.len();
    for (k, &p) in pivots.iter().enumerate() {
        b.swap(k, p);
    }
    for (i, row) in lu.chunks_exact(n).enumerate().skip(1) {
        let mut acc = b[i];
        for (&l, &y) in row[..i].iter().zip(&b[..i]) {
            acc -= l * y;
        }
        b[i] = acc;
    }
    for (i, row) in lu.chunks_exact(n).enumerate().rev() {
        let mut acc = b[i];
        for (&u, &x) in row[i + 1..].iter().zip(&b[i + 1..]) {
            acc -= u * x;
        }
        b[i] = acc / row[i];
    }
}

fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn plane_bits(re: &[f64], im: &[f64]) -> Vec<(u64, u64)> {
    re.iter().zip(im).map(|(re, im)| (re.to_bits(), im.to_bits())).collect()
}

#[test]
fn planar_complex_lu_is_the_interleaved_one_on_the_autophagy_iteration_matrix() {
    // An oscillating grid point, its Jacobian taken mid-cycle.
    let model = autophagy::scaled_model(2e3, 3e-7, 0.25);
    let odes = model.compile().unwrap();
    let n = odes.n_species();
    assert_eq!(n, 46);
    let k = model.rate_constants();
    let sys = paraspace_core::RbmOdeSystem::new(&odes, k.clone());
    let state = Radau5::new()
        .solve(&sys, 0.0, &model.initial_state(), &[23.7], &SolverOptions::default())
        .unwrap();
    let mut jac = Matrix::zeros(n, n);
    odes.jacobian_with(state.state_at(0), &k, &mut jac);

    let steps = [1e-4, 3e-3, 0.05, 0.4, 6.0, 80.0];
    let matrices: Vec<CMatrix> = steps
        .iter()
        .map(|h| {
            let mut e2 = CMatrix::from_real(&jac);
            for z in e2.as_mut_slice() {
                *z = -*z;
            }
            for i in 0..n {
                e2[(i, i)] += Complex64::new(ALPH / h, BETA / h);
            }
            e2
        })
        .collect();
    let rhs: Vec<Complex64> =
        (0..n).map(|i| Complex64::new(1.0 / (1 + i) as f64, (i as f64).sin())).collect();

    let lanes = steps.len();
    let mut batch = BatchCluFactor::new(n, n, lanes).unwrap();
    for (l, e2) in matrices.iter().enumerate() {
        let (re, im) = batch.lane_planes_mut(l);
        for ((re, im), z) in re.iter_mut().zip(im).zip(e2.as_slice()) {
            (*re, *im) = (z.re, z.im);
        }
    }
    batch.factor(&vec![true; lanes]);
    // Split rows: component i's real parts at row 2i, imaginary parts at 2i + 1.
    let mut block = vec![0.0; 2 * n * lanes];
    for (i, &b) in rhs.iter().enumerate() {
        block[2 * i * lanes..][..lanes].fill(b.re);
        block[(2 * i + 1) * lanes..][..lanes].fill(b.im);
    }
    batch.solve_lanes(&mut block, &vec![true; lanes]);

    let mut pivot_orders = Vec::new();
    for (l, e2) in matrices.iter().enumerate() {
        let mut want = e2.as_slice().to_vec();
        let mut pivots = vec![0; n];
        interleaved_eliminate(&mut want, n, &mut pivots).unwrap();
        let mut want_x = rhs.clone();
        interleaved_solve(&want, &pivots, &mut want_x);

        let scalar = CluFactor::new(e2.clone()).unwrap();
        let mut x = rhs.clone();
        scalar.solve_in_place(&mut x);
        assert_eq!(bits(&x), bits(&want_x), "h = {}: CluFactor solve", steps[l]);
        let factors = scalar.into_planes();
        let (re, im) = factors.split_at(n * n);
        assert_eq!(plane_bits(re, im), bits(&want), "h = {}: CluFactor factors", steps[l]);

        assert!(!batch.is_singular(l));
        let (re, im) = batch.lane_planes_mut(l);
        assert_eq!(plane_bits(re, im), bits(&want), "h = {}: BatchCluFactor factors", steps[l]);
        let lane_x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::new(block[2 * i * lanes + l], block[(2 * i + 1) * lanes + l]))
            .collect();
        assert_eq!(bits(&lane_x), bits(&want_x), "h = {}: BatchCluFactor solve", steps[l]);
        pivot_orders.push(pivots);
    }
    // The step sizes must not all eliminate in one order, or the exchanges
    // were never compared.
    let identity: Vec<usize> = (0..n).collect();
    assert!(pivot_orders.iter().any(|p| *p != identity), "no row exchange was exercised");
    assert!(pivot_orders.iter().any(|p| *p != pivot_orders[0]), "one pivot order at every h");
}
