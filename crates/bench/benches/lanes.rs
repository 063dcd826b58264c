//! Lane-width throughput sweep: lane width × batch size on the fine engine.
//!
//! Measures the real host wall time of the fine engine's batch numerics on
//! the symmetric 16-species × 16-reaction generated model, at lane widths
//! 1 (the scalar published-baseline path) / 2 / 4 / 8, over several batch
//! sizes, and writes the machine-readable sweep to
//! `results/BENCH_lanes.json` (relative to the workspace root).
//!
//! The lane path's win on a host CPU comes from the SoA lockstep kernel:
//! each op of the flux program and each species term is applied to a
//! contiguous row of lanes (packed arithmetic at widths 2, 4, 8), and the per-member
//! device-pricing work collapses into one launch costing per lane-group.
//! Bitwise determinism across widths ≥ 2 is asserted in-loop, so the sweep
//! doubles as an end-to-end lockstep-correctness check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paraspace_core::{FineEngine, SimulationJob, Simulator};
use paraspace_rbm::{perturbed_batch, sbgen::SbGen};
use paraspace_solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    batch: usize,
    lane_width: usize,
    reps: usize,
    mean_wall_ns: f64,
    best_wall_ns: f64,
    sims_per_sec_best: f64,
    lane_occupancy: f64,
    speedup_vs_scalar: f64,
}

fn sweep(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (batches, reps): (Vec<usize>, usize) =
        if test_mode { (vec![8], 1) } else { (vec![32, 128, 512], 5) };

    let mut rng = StdRng::seed_from_u64(0x1A);
    let model = SbGen::new(16, 16).generate(&mut rng);
    let opts = SolverOptions { max_steps: 100_000, ..SolverOptions::default() };

    let mut rows: Vec<Row> = Vec::new();
    for &batch in &batches {
        let params = perturbed_batch(&model, batch, &mut rng);
        let job = SimulationJob::builder(&model)
            .time_points(vec![0.5, 1.0])
            .parameterizations(params)
            .options(opts.clone())
            .build()
            .expect("job");

        // Width-2 run is the lockstep reference for the bitwise check.
        let reference = FineEngine::new().with_lane_width(2).run(&job).expect("reference");
        let mut scalar_best = f64::INFINITY;

        for &width in &WIDTHS {
            let engine = FineEngine::new().with_lane_width(width);
            let warm = engine.run(&job).expect("warm-up run");
            if width >= 2 {
                for (i, (r, p)) in reference.outcomes.iter().zip(&warm.outcomes).enumerate() {
                    let (a, b) = (r.solution.as_ref().unwrap(), p.solution.as_ref().unwrap());
                    assert_eq!(a.states, b.states, "member {i}: width {width} vs 2");
                }
            }
            let occupancy = warm.lanes.map(|l| l.occupancy()).unwrap_or(1.0);

            let mut total = 0.0f64;
            let mut best = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                let r = engine.run(&job).expect("timed run");
                let ns = t0.elapsed().as_nanos() as f64;
                assert_eq!(r.outcomes.len(), batch);
                total += ns;
                best = best.min(ns);
            }
            if width == 1 {
                scalar_best = best;
            }
            rows.push(Row {
                batch,
                lane_width: width,
                reps,
                mean_wall_ns: total / reps as f64,
                best_wall_ns: best,
                sims_per_sec_best: batch as f64 / (best / 1e9),
                lane_occupancy: occupancy,
                speedup_vs_scalar: scalar_best / best,
            });
        }
    }

    if !test_mode {
        write_json(&rows);
    }

    // Surface one representative batch size through the criterion reporter.
    let mid = batches[batches.len() / 2];
    let params = perturbed_batch(&model, mid, &mut rng);
    let job = SimulationJob::builder(&model)
        .time_points(vec![0.5, 1.0])
        .parameterizations(params)
        .options(opts)
        .build()
        .expect("job");
    let mut group = c.benchmark_group(format!("fine_lanes_batch{mid}"));
    for width in WIDTHS {
        let engine = FineEngine::new().with_lane_width(width);
        group.bench_with_input(BenchmarkId::new("width", width), &width, |b, _| {
            b.iter(|| engine.run(&job).expect("run"))
        });
    }
    group.finish();
}

fn write_json(rows: &[Row]) {
    let mut body = String::from("{\n");
    body.push_str(&paraspace_bench::bench_header("lanes", 1));
    body.push_str("  \"engine\": \"fine\",\n");
    body.push_str("  \"model\": {\"species\": 16, \"reactions\": 16, \"time_points\": 2},\n");
    body.push_str(
        "  \"note\": \"wall time of the host-side batch numerics; lane_width 1 is the scalar \
         RKF45 baseline path, widths >= 2 the lockstep SoA DOPRI5 path; speedup_vs_scalar \
         compares best wall times within the same batch size\",\n",
    );
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"batch\": {}, \"lane_width\": {}, \"reps\": {}, \"mean_wall_ns\": {:.0}, \
             \"best_wall_ns\": {:.0}, \"sims_per_sec_best\": {:.1}, \"lane_occupancy\": {:.4}, \
             \"speedup_vs_scalar\": {:.3}}}{}\n",
            r.batch,
            r.lane_width,
            r.reps,
            r.mean_wall_ns,
            r.best_wall_ns,
            r.sims_per_sec_best,
            r.lane_occupancy,
            r.speedup_vs_scalar,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let out = out_dir.join("BENCH_lanes.json");
    std::fs::write(&out, body).expect("write BENCH_lanes.json");
    println!("wrote {}", out.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sweep
}
criterion_main!(benches);
