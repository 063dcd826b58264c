//! Sparse-vs-dense batched LU microbench on real model patterns.
//!
//! The stiff lockstep path picks between the dense lane-major kernels
//! (`BatchLuFactor` / `BatchCluFactor`) and the sparse symbolic-once
//! kernels (`BatchSparseLuFactor` / `BatchSparseCluFactor`) per model,
//! from the all-sequence fill closure of the stoichiometric Jacobian
//! pattern. This bench measures both kernels on the two pattern regimes
//! that decide the gate:
//!
//! * `compartments-112` — 28 loosely-coupled 4-species compartment
//!   chains; the closure stays block-sparse and
//!   [`SymbolicLu::prefers_sparse`] engages the sparse path;
//! * `metabolic-114` — the 114-species metabolic backbone; one strongly
//!   coupled pivot race closes the pattern to ~81% dense, the gate
//!   declines, and the numbers here show why (the sparse kernel's
//!   indirection buys almost no entry reduction).
//!
//! Every timed refresh (fill + factor) is followed by an in-loop solve
//! that is asserted **bitwise identical** between the sparse and dense
//! kernels — the parity contract the solver relies on — so the bench
//! doubles as an end-to-end kernel-equivalence check. Results go to
//! `results/BENCH_sparse_lu.json` (relative to the workspace root).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paraspace_linalg::{
    BatchCluFactor, BatchLuFactor, BatchSparseCluFactor, BatchSparseLuFactor, Complex64, SymbolicLu,
};
use paraspace_models::metabolic;
use paraspace_rbm::{Reaction, ReactionBasedModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const WIDTHS: [usize; 3] = [1, 4, 8];

struct Row {
    pattern: &'static str,
    n: usize,
    stoich_nnz: usize,
    closed_nnz: usize,
    prefers_sparse: bool,
    kind: &'static str,
    path: &'static str,
    lane_width: usize,
    reps: usize,
    refresh_mean_ns: f64,
    refresh_best_ns: f64,
    solve_mean_ns: f64,
    solve_best_ns: f64,
}

/// One pattern under test: the model-derived stoichiometric entries plus
/// deterministic per-lane values (diagonally dominant so every lane
/// factors without hitting the singular mask).
struct Case {
    name: &'static str,
    entries: Vec<(usize, usize)>,
    n: usize,
    sym: Arc<SymbolicLu>,
}

/// The block-sparse regime: `compartments` loosely-coupled 4-species
/// degradation chains, rates staggered per compartment. Mirrors the
/// `compartment_chains` family the model-level sparsity tests integrate
/// end-to-end.
fn compartment_chains(compartments: usize) -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    for c in 0..compartments {
        let ids: Vec<_> = (0..4)
            .map(|s| m.add_species(format!("C{c}S{s}"), if s == 0 { 1.0 } else { 0.2 }))
            .collect();
        for s in 0..4 {
            let k = 10f64.powi(s as i32) * (1.0 + 0.01 * c as f64);
            let products: &[(paraspace_rbm::SpeciesId, u32)] =
                if s + 1 < 4 { &[(ids[s + 1], 1)] } else { &[] };
            m.add_reaction(Reaction::mass_action(&[(ids[s], 1)], products, k))
                .expect("chain reaction");
        }
    }
    m
}

fn case(name: &'static str, model: &ReactionBasedModel) -> Case {
    let odes = model.compile().expect("compile network");
    let pattern = odes.jacobian_sparsity();
    let n = pattern.dim();
    let entries: Vec<(usize, usize)> =
        (0..n).flat_map(|i| pattern.row(i).iter().map(move |&j| (i, j as usize))).collect();
    Case { name, entries, n, sym: Arc::new(SymbolicLu::analyze(&pattern)) }
}

/// Deterministic per-lane values over the input pattern. The refresh
/// helpers add a diagonal shift of `n` on top (mirroring the Radau
/// iteration matrix `fac·I − J`, whose shifted diagonal always exists in
/// the closure even when the stoichiometric pattern misses `(i, i)`), so
/// every lane is comfortably nonsingular.
fn lane_values(case: &Case, lanes: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut vals = vec![0.0; case.entries.len() * lanes];
    for v in vals.iter_mut() {
        *v = rng.gen_range(-1.0..1.0);
    }
    vals
}

fn rhs(n: usize, lanes: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n * lanes).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Fill + factor the dense real kernel from the shared value set.
fn dense_refresh(f: &mut BatchLuFactor, case: &Case, vals: &[f64], lanes: usize, mask: &[bool]) {
    let n = case.n;
    for l in 0..lanes {
        let m = f.lane_mut(l);
        m.fill(0.0);
        for (e, &(i, j)) in case.entries.iter().enumerate() {
            m[i * n + j] = vals[e * lanes + l];
        }
        for d in m.iter_mut().step_by(n + 1) {
            *d += n as f64;
        }
    }
    f.factor(mask);
}

/// Fill + factor the sparse real kernel from the shared value set.
fn sparse_refresh(
    f: &mut BatchSparseLuFactor,
    case: &Case,
    vals: &[f64],
    lanes: usize,
    mask: &[bool],
) {
    let (sym, v) = f.parts_mut();
    v.fill(0.0);
    for (e, &(i, j)) in case.entries.iter().enumerate() {
        let base = sym.pos(i, j).expect("closure is a superset of the input pattern") * lanes;
        v[base..base + lanes].copy_from_slice(&vals[e * lanes..(e + 1) * lanes]);
    }
    let shift = case.n as f64;
    for i in 0..case.n {
        for l in 0..lanes {
            v[sym.diag_entry(i) * lanes + l] += shift;
        }
    }
    f.factor(mask);
}

fn dense_refresh_c(f: &mut BatchCluFactor, case: &Case, vals: &[f64], lanes: usize, mask: &[bool]) {
    let n = case.n;
    let shift = Complex64::new(n as f64, 0.5 * n as f64);
    for l in 0..lanes {
        let m = f.lane_mut(l);
        m.fill(Complex64::new(0.0, 0.0));
        for (e, &(i, j)) in case.entries.iter().enumerate() {
            // Same real part as the real kernel; a structured imaginary
            // part keeps the complex pivot race nontrivial.
            let re = vals[e * lanes + l];
            m[i * n + j] = Complex64::new(re, 0.25 * re);
        }
        for d in m.iter_mut().step_by(n + 1) {
            *d += shift;
        }
    }
    f.factor(mask);
}

fn sparse_refresh_c(
    f: &mut BatchSparseCluFactor,
    case: &Case,
    vals: &[f64],
    lanes: usize,
    mask: &[bool],
) {
    let (sym, v) = f.parts_mut();
    v.fill(Complex64::new(0.0, 0.0));
    for (e, &(i, j)) in case.entries.iter().enumerate() {
        let base = sym.pos(i, j).expect("closure is a superset of the input pattern") * lanes;
        for l in 0..lanes {
            let re = vals[e * lanes + l];
            v[base + l] = Complex64::new(re, 0.25 * re);
        }
    }
    let shift = Complex64::new(case.n as f64, 0.5 * case.n as f64);
    for i in 0..case.n {
        for l in 0..lanes {
            v[sym.diag_entry(i) * lanes + l] += shift;
        }
    }
    f.factor(mask);
}

/// Best-of / mean-of `reps` wall times of `op`.
fn time_op(reps: usize, mut op: impl FnMut()) -> (f64, f64) {
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        op();
        let ns = t0.elapsed().as_nanos() as f64;
        total += ns;
        best = best.min(ns);
    }
    (total / reps as f64, best)
}

#[allow(clippy::too_many_arguments)]
fn sweep_case(rows: &mut Vec<Row>, case: &Case, reps: usize, rng: &mut StdRng) {
    for &lanes in &WIDTHS {
        let mask = vec![true; lanes];
        let vals = lane_values(case, lanes, rng);
        let b0 = rhs(case.n, lanes, rng);
        let b0c: Vec<Complex64> = b0.iter().map(|&x| Complex64::new(x, -0.5 * x)).collect();

        let mut dense = BatchLuFactor::new(case.n, case.n, lanes).expect("dense factor");
        let mut sparse =
            BatchSparseLuFactor::new(Arc::clone(&case.sym), lanes).expect("sparse factor");
        let mut dense_c = BatchCluFactor::new(case.n, case.n, lanes).expect("dense clu");
        let mut sparse_c =
            BatchSparseCluFactor::new(Arc::clone(&case.sym), lanes).expect("sparse clu");

        // Warm both kernels and hold the solver to its parity contract:
        // identical matrices must produce bitwise-identical solves.
        dense_refresh(&mut dense, case, &vals, lanes, &mask);
        sparse_refresh(&mut sparse, case, &vals, lanes, &mask);
        for l in 0..lanes {
            assert!(
                !dense.is_singular(l) && !sparse.is_singular(l),
                "{} lanes {lanes}: lane {l} factored singular — the timed loops would \
                 measure an early-exit, not a factorization",
                case.name
            );
        }
        let (mut xd, mut xs) = (b0.clone(), b0.clone());
        dense.solve_lanes(&mut xd, &mask);
        sparse.solve_lanes(&mut xs, &mask);
        assert!(
            xd.iter().zip(&xs).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{} lanes {lanes}: sparse real solve is not bitwise == dense",
            case.name
        );
        dense_refresh_c(&mut dense_c, case, &vals, lanes, &mask);
        sparse_refresh_c(&mut sparse_c, case, &vals, lanes, &mask);
        let (mut zd, mut zs) = (b0c.clone(), b0c.clone());
        dense_c.solve_lanes(&mut zd, &mask);
        sparse_c.solve_lanes(&mut zs, &mask);
        assert!(
            zd.iter()
                .zip(&zs)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()),
            "{} lanes {lanes}: sparse complex solve is not bitwise == dense",
            case.name
        );

        let mut push =
            |kind: &'static str, path: &'static str, refresh: (f64, f64), solve: (f64, f64)| {
                rows.push(Row {
                    pattern: case.name,
                    n: case.n,
                    stoich_nnz: case.entries.len(),
                    closed_nnz: case.sym.nnz(),
                    prefers_sparse: case.sym.prefers_sparse(),
                    kind,
                    path,
                    lane_width: lanes,
                    reps,
                    refresh_mean_ns: refresh.0,
                    refresh_best_ns: refresh.1,
                    solve_mean_ns: solve.0,
                    solve_best_ns: solve.1,
                });
            };

        let refresh = time_op(reps, || dense_refresh(&mut dense, case, &vals, lanes, &mask));
        let solve = time_op(reps, || {
            let mut x = b0.clone();
            dense.solve_lanes(&mut x, &mask);
            std::hint::black_box(&mut x);
        });
        push("real", "dense", refresh, solve);

        let refresh = time_op(reps, || sparse_refresh(&mut sparse, case, &vals, lanes, &mask));
        let solve = time_op(reps, || {
            let mut x = b0.clone();
            sparse.solve_lanes(&mut x, &mask);
            std::hint::black_box(&mut x);
        });
        push("real", "sparse", refresh, solve);

        let refresh = time_op(reps, || dense_refresh_c(&mut dense_c, case, &vals, lanes, &mask));
        let solve = time_op(reps, || {
            let mut z = b0c.clone();
            dense_c.solve_lanes(&mut z, &mask);
            std::hint::black_box(&mut z);
        });
        push("complex", "dense", refresh, solve);

        let refresh = time_op(reps, || sparse_refresh_c(&mut sparse_c, case, &vals, lanes, &mask));
        let solve = time_op(reps, || {
            let mut z = b0c.clone();
            sparse_c.solve_lanes(&mut z, &mask);
            std::hint::black_box(&mut z);
        });
        push("complex", "sparse", refresh, solve);
    }
}

fn sweep(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let reps = if test_mode { 1 } else { 20 };
    let mut rng = StdRng::seed_from_u64(0x5AB5E);

    let compartments = case("compartments-112", &compartment_chains(28));
    let metabolic = case("metabolic-114", &metabolic::model());
    assert!(
        compartments.sym.prefers_sparse(),
        "compartment closure must stay sparse enough to engage the sparse path"
    );
    assert!(
        !metabolic.sym.prefers_sparse(),
        "metabolic closure is near-dense; the gate must decline the sparse path"
    );

    let mut rows: Vec<Row> = Vec::new();
    sweep_case(&mut rows, &compartments, reps, &mut rng);
    sweep_case(&mut rows, &metabolic, reps, &mut rng);

    if !test_mode {
        write_json(&rows);
    }

    // Surface the sparse-engaged refresh through the criterion reporter
    // (the full matrix is in the JSON).
    let mut group = c.benchmark_group("sparse_lu_compartments112_refresh");
    group.sample_size(10);
    for lanes in WIDTHS {
        group.bench_with_input(BenchmarkId::new("width", lanes), &lanes, |b, &l| {
            let mask = vec![true; l];
            let vals = lane_values(&compartments, l, &mut rng);
            let mut f = BatchSparseLuFactor::new(Arc::clone(&compartments.sym), l).expect("factor");
            b.iter(|| sparse_refresh(&mut f, &compartments, &vals, l, &mask))
        });
    }
    group.finish();
}

fn write_json(rows: &[Row]) {
    let mut body = String::from("{\n");
    body.push_str(&paraspace_bench::bench_header("sparse_lu", 1));
    body.push_str(
        "  \"note\": \"batched LU refresh (fill + factor) and triangular solve wall times on \
         model-derived Jacobian patterns; closed_nnz is the all-pivot-sequence fill closure the \
         sparse kernels factor over, dense entries are n^2; every timed configuration's solve is \
         asserted bitwise identical between the sparse and dense kernels in-loop\",\n",
    );
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"pattern\": \"{}\", \"n\": {}, \"stoich_nnz\": {}, \"closed_nnz\": {}, \
             \"prefers_sparse\": {}, \"kind\": \"{}\", \"path\": \"{}\", \"lane_width\": {}, \
             \"reps\": {}, \"refresh_mean_ns\": {:.0}, \"refresh_best_ns\": {:.0}, \
             \"solve_mean_ns\": {:.0}, \"solve_best_ns\": {:.0}}}{}\n",
            r.pattern,
            r.n,
            r.stoich_nnz,
            r.closed_nnz,
            r.prefers_sparse,
            r.kind,
            r.path,
            r.lane_width,
            r.reps,
            r.refresh_mean_ns,
            r.refresh_best_ns,
            r.solve_mean_ns,
            r.solve_best_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let out = out_dir.join("BENCH_sparse_lu.json");
    std::fs::write(&out, body).expect("write BENCH_sparse_lu.json");
    println!("wrote {}", out.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sweep
}
criterion_main!(benches);
