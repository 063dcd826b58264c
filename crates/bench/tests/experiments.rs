//! The evaluation's tables, regenerated and checked. Each test computes one
//! table through the function `reproduce` calls, requires the committed
//! `results/<name>.txt` to be exactly its text, and asserts on the same
//! values every shape claim EXPERIMENTS.md marks ✔.
//!
//! The tables run thousands of integrations, so the suite runs in optimized
//! builds only: `cargo test --release -p paraspace-bench --test experiments`
//! (plain debug `cargo test` marks it ignored).

use paraspace_bench::{ablations, maps, results_file, studies, validation};

/// `table!(test, name, value, |v| claims)`: a release-only test that
/// computes `value`, requires `results/<name>.txt` to be its text, and then
/// runs `claims` on it.
macro_rules! table {
    ($test:ident, $name:literal, $value:expr, |$v:ident| $claims:block) => {
        #[test]
        #[cfg_attr(debug_assertions, ignore = "tables run in release builds: cargo test --release")]
        fn $test() {
            let $v = $value;
            let (text, committed) = ($v.to_string(), std::fs::read_to_string(results_file($name)));
            assert!(
                committed.is_ok_and(|c| c == text),
                "results/{}.txt is not what this commit prints; re-record it with\n  \
                 cargo run --release -p paraspace-bench --bin reproduce -- {}\nprinted:\n{text}",
                $name,
                $name
            );
            $claims
        }
    };
}

/// E1–E3: the CPU wins every single simulation; at the largest batch a GPU
/// engine wins every model, coarse-only the smallest and fine+coarse the
/// largest.
fn map_shape(map: &maps::Map) {
    let winners: Vec<Vec<&str>> =
        map.rows().map(|row| row.iter().map(|c| c.winner().engine).collect()).collect();
    assert!(winners.iter().all(|w| w[0].ends_with("-cpu")), "single simulations: {winners:?}");
    let batch: Vec<&str> = winners.iter().map(|w| w[w.len() - 1]).collect();
    assert!(
        batch.iter().all(|w| ["coarse", "fine-coarse"].contains(w)),
        "largest batch: {batch:?}"
    );
    assert_eq!((batch[0], batch[batch.len() - 1]), ("coarse", "fine-coarse"));
}

table!(e1_symmetric, "map_symmetric", maps::symmetric(false), |map| { map_shape(&map) });
table!(e2_species_heavy, "map_species_heavy", maps::species_heavy(false), |m| { map_shape(&m) });
table!(e3_reaction_heavy, "map_reaction_heavy", maps::reaction_heavy(false), |m| { map_shape(&m) });

// E4: the plane splits into oscillating and quiescent regions along the
// analytic Hopf boundary; in the 24-hour budget fine+coarse completes over
// 5× either CPU baseline, and VODE fewer than LSODA.
table!(e4_psa2d_autophagy, "psa2d_autophagy", studies::psa2d_autophagy(false), |psa| {
    let (agree, total) = psa.hopf_agreement();
    assert!(agree * 100 >= total * 80, "Hopf-boundary agreement {agree}/{total}");
    let oscillating = psa.ambra.fraction_above(1e-2);
    assert!((0.1..0.9).contains(&oscillating), "both phases must occur: {oscillating}");
    let [fc, lsoda, vode] = ["fine-coarse", "lsoda-cpu", "vode-cpu"].map(|e| psa.in_budget(e));
    assert!(fc > 5 * lsoda && fc > 5 * vode, "fine-coarse {fc} vs lsoda {lsoda} / vode {vode}");
    assert!(vode < lsoda, "vode {vode} vs lsoda {lsoda}");
});

// E5: every dead-end HK complex carries a higher total-order index than
// every catalytic-cycle species. E6: fine+coarse prices the probe batch
// below LSODA.
table!(e5_e6_sa_metabolic, "sa_metabolic", studies::sa_metabolic(false), |sa| {
    let st = |ids: &[usize]| ids.iter().map(|&i| sa.indices[i].st).collect::<Vec<f64>>();
    let dead_end_min = st(&studies::Sobol::DEAD_END).into_iter().fold(f64::INFINITY, f64::min);
    let cycle_max = st(&studies::Sobol::CYCLE).into_iter().fold(0.0, f64::max);
    assert!(dead_end_min > cycle_max, "dead-end ST {dead_end_min:.3} vs cycle ST {cycle_max:.3}");
    let (gpu, cpu) = sa.probe_ns;
    assert!(gpu < cpu, "fine-coarse {gpu} ns vs lsoda {cpu} ns");
});

// E7: the same number of swarm simulations costs less simulated time on
// fine+coarse than on LSODA.
table!(e7_pe_metabolic, "pe_metabolic", studies::pe_metabolic(false), |pe| {
    assert_eq!(pe.gpu.simulations, pe.cpu.simulations);
    assert!(pe.gpu.simulated_ns < pe.cpu.simulated_ns);
});

// E7b: the hybrid reaches the fine-coarse swarm's common loss with fewer
// solves, and the swarm costs the same solves on either engine.
table!(e7b_pe_gradient, "pe_gradient", studies::pe_gradient(false), |pe| {
    let [_, hybrid, swarm, lsoda_swarm] = &pe.rows[..] else { panic!("four estimators") };
    assert!(hybrid.common_l1 <= swarm.common_l1, "{} vs {}", hybrid.common_l1, swarm.common_l1);
    assert!(hybrid.solves < swarm.solves, "{} vs {} solves", hybrid.solves, swarm.solves);
    assert_eq!(swarm.solves, lsoda_swarm.solves);
});

// E8: fine+coarse < coarse < CPU ≪ fine-only (the published fine-grained
// route serializes a batch: over 5× fine+coarse), and every integration
// speedup exceeds its simulation speedup.
table!(e8_speedup_table, "speedup_table", maps::speedup_table(false), |e8| {
    let [coarse, lsoda, vode, fine] =
        ["coarse", "lsoda-cpu", "vode-cpu", "fine"].map(|e| e8.speedup(e).0);
    assert!(1.0 < coarse && coarse < lsoda.min(vode), "coarse {coarse}, cpu {lsoda} / {vode}");
    assert!(fine > 5.0 && fine > lsoda.max(vode), "fine {fine}");
    for t in e8.cell.engines.iter().filter(|t| t.engine != "fine-coarse") {
        let (sim, int) = e8.speedup(t.engine);
        assert!(int > sim, "{}: integration {int:.1}x vs simulation {sim:.1}x", t.engine);
    }
});

// V1: RADAU5 is the most accurate solver on the oscillator at every
// tolerance, and every solver's error falls as the tolerance tightens.
table!(v1_accuracy_table, "accuracy_table", validation::accuracy_table(), |v1| {
    for r in &v1.nonstiff.rows {
        let (radau, other) =
            (v1.nonstiff.error("radau5", r.rtol), v1.nonstiff.error(r.solver, r.rtol));
        assert!(radau <= other, "{} beats radau5 at rtol {:e}", r.solver, r.rtol);
    }
    for table in [&v1.nonstiff, &v1.stiff] {
        for rows in table.rows.chunks(3) {
            let e: Vec<f64> = rows.iter().map(|r| table.error(r.solver, r.rtol)).collect();
            assert!(e[0] > e[1] && e[1] > e[2], "{}: {e:?}", rows[0].solver);
        }
    }
});

// A1: with the launch-queue model the per-simulation cost bottoms out at
// 512 and degrades past 2048; without it the cost keeps falling.
table!(a1_ablation_batch, "ablation_batch", ablations::batch(false), |a1| {
    let per_sim: Vec<(usize, f64, f64)> =
        a1.rows.iter().map(|&(b, dp, no_dp)| (b, dp / b as f64, no_dp / b as f64)).collect();
    let best = per_sim.iter().min_by(|a, b| a.1.total_cmp(&b.1)).expect("rows");
    assert_eq!(best.0, 512);
    let at = |b| per_sim.iter().find(|r| r.0 == b).expect("batch").1;
    assert!(at(4096) > 1.2 * at(512));
    assert!(per_sim.windows(2).all(|w| w[1].2 < w[0].2), "no-DP cost must keep falling");
});

// A2: coarse-only wins the smallest model, fine+coarse the largest, and
// fine+coarse's advantage grows with the model.
table!(a2_ablation_granularity, "ablation_granularity", ablations::granularity(false), |a2| {
    let ratios: Vec<f64> = a2.rows.iter().map(|&(_, fc, coarse)| coarse / fc).collect();
    assert!(ratios[0] < 1.0 && ratios[ratios.len() - 1] > 1.0, "{ratios:?}");
    assert!(ratios.windows(2).all(|w| w[1] > w[0]), "{ratios:?}");
});

// A3: every member integrates at every threshold; raising the threshold
// moves members from RADAU5 to DOPRI5, and only thresholds above the
// published 500 re-route failed DOPRI5 attempts.
table!(a3_ablation_stiffness, "ablation_stiffness", ablations::stiffness(false), |a3| {
    assert!(a3.rows.iter().all(|r| r.successes == a3.members));
    assert!(a3.rows.windows(2).all(|w| w[1].stiff <= w[0].stiff));
    for r in &a3.rows {
        assert_eq!(r.rerouted > 0, r.threshold > 500.0, "threshold {}", r.threshold);
    }
});

// A4: on-chip placement pays while the model fits; the model that
// overflows constant memory keeps the smallest gain.
table!(a4_ablation_memory, "ablation_memory", ablations::memory(false), |a4| {
    let gain = |r: &ablations::MemoryRow| r.global_ns / r.hierarchy_ns;
    let (fit, overflow): (Vec<_>, Vec<_>) = a4.rows.iter().partition(|r| r.fits.0);
    assert!(!overflow.is_empty() && fit.iter().all(|r| gain(r) > 1.0));
    assert!(overflow.iter().all(|o| fit.iter().all(|r| gain(o) < gain(r))));
});

// S1: per-replicate device cost falls with ensemble size for both
// simulators, and their protein means agree within 10 %.
table!(
    s1_stochastic_ensembles,
    "stochastic_ensembles",
    validation::stochastic_ensembles(false),
    |s1| {
        let per_rep = |r: &validation::EnsembleRow| {
            let n = r.replicates as f64;
            (r.simulated_ns.0 / n, r.simulated_ns.1 / n)
        };
        for w in s1.rows.windows(2) {
            let (a, b) = (per_rep(&w[0]), per_rep(&w[1]));
            assert!(b.0 < a.0 && b.1 < a.1, "{} → {} replicates", w[0].replicates, w[1].replicates);
        }
        for r in &s1.rows {
            let (ssa, tau) = r.protein_mean;
            assert!(
                (ssa - tau).abs() / ssa.max(1.0) < 0.1,
                "{}: ssa {ssa}, tau {tau}",
                r.replicates
            );
        }
    }
);
