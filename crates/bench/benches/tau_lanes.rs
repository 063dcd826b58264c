//! Stochastic lane-width throughput sweep: lockstep tau-leaping lanes vs
//! the scalar tau-leaping loop and exact SSA, on bundled models rescaled
//! from concentration units to molecule counts.
//!
//! Three models cover the regimes of the batched kernel:
//!
//! * `autophagy-counts` — the bundled autophagy analogue at
//!   `scale = 0.05` (12 species × 333 reactions) converted to counts at
//!   volume factor 1000; the per-tick propensity + tau-selection sweeps
//!   over 333 reactions dominate, the regime where lockstep SoA batching
//!   pays (and the regime the GPU tau-leaping literature benchmarks).
//!   Exact SSA is infeasible here — ~9M events per replicate — which is
//!   the point of leaping; the SSA column is omitted.
//! * `decay-chain` — the bundled 4-species linear chain seeded with
//!   10 000 copies of `S0`; leap-friendly early, but the depleting tail
//!   drives ~80 % of steps into the single-event SSA fallback, so the row
//!   shows what lockstep buys when divergent per-lane tails dominate.
//! * `enzyme` — the bundled Michaelis–Menten mechanism in counts
//!   (200 enzymes, 5 000 substrates); the small enzyme pool pins tau near
//!   the SSA threshold, the near-critical boundary regime.
//!
//! Columns per model × ensemble size:
//!
//! * `ssa-scalar` — the exact direct method per replicate (omitted for
//!   `autophagy-counts`), the order-of-magnitude anchor;
//! * `tau-scalar` — scalar tau-leaping per replicate (`--lane-width 1`),
//!   the like-for-like baseline for the lockstep acceptance bar;
//! * `tau-lanes` at widths 2 / 4 / 8 — the lockstep `TauLeapBatch`
//!   kernel over species-major SoA counts;
//! * `tau-lanes-auto` — the width an unpinned ensemble runs at (the full
//!   width). Where that width was already timed above the row reuses that
//!   measurement — it is the identical code path.
//!
//! Every lane width is asserted bitwise identical to the scalar
//! tau-leaping ensemble — straight off the timed runs, so the check is
//! free — because the counter-based per-replicate RNG makes lane packing
//! pure scheduling. The sweep therefore doubles as an end-to-end
//! lockstep-correctness check. Results go to
//! `results/BENCH_tau_lanes.json` (relative to the workspace root).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paraspace_models::{autophagy, classic};
use paraspace_rbm::{ReactionBasedModel, SpeciesId};
use paraspace_stochastic::{
    DirectMethod, StochasticBatch, StochasticBatchResult, StochasticSimulator, TauLeaping,
};
use std::path::Path;
use std::time::Instant;

const WIDTHS: [usize; 3] = [2, 4, 8];
const SEED: u64 = 0x7A0_1EAF;

struct Row {
    model: &'static str,
    replicates: usize,
    column: &'static str,
    lane_width: usize,
    reps: usize,
    mean_wall_ns: f64,
    best_wall_ns: f64,
    reps_per_sec_best: f64,
    speedup_vs_scalar_tau: f64,
    speedup_vs_ssa: Option<f64>,
}

struct ModelCfg {
    name: &'static str,
    model: ReactionBasedModel,
    times: Vec<f64>,
    /// Timing repetitions for the SSA anchor; leaping columns run
    /// `2·reps + 1` (or `reps` when `reps == 1`).
    reps: usize,
    /// Whether the exact-SSA anchor is feasible at these event counts.
    with_ssa: bool,
    /// Whether this model carries the width-8 >= 1.5x acceptance bar.
    acceptance: bool,
}

/// Standard concentration → molecule-count conversion at volume factor
/// `V`: initial states scale by `V`, an order-`o` mass-action rate
/// constant scales by `V^(1-o)` — fluxes then scale with system size and
/// relative fluctuations shrink, the large-population regime tau-leaping
/// (and its lockstep batching) exists for.
fn to_counts(mut m: ReactionBasedModel, volume: f64) -> ReactionBasedModel {
    for s in 0..m.n_species() {
        let c = m.initial_state()[s];
        m.set_initial_concentration(SpeciesId::from_index(s), (c * volume).round());
    }
    for i in 0..m.n_reactions() {
        let order: u32 = m.reactions()[i].reactants().iter().map(|&(_, c)| c).sum();
        let k = m.reactions()[i].rate_constant();
        m.reaction_mut(i).set_rate_constant(k * volume.powi(1 - order as i32));
    }
    m
}

fn models(test_mode: bool) -> Vec<ModelCfg> {
    let mut decay = classic::decay_chain(4);
    decay.set_initial_concentration(SpeciesId::from_index(0), 10_000.0);
    let mut enzyme = classic::enzyme_mechanism(2.5e-4, 0.1, 0.1);
    enzyme.set_initial_concentration(SpeciesId::from_index(0), 200.0);
    enzyme.set_initial_concentration(SpeciesId::from_index(1), 5_000.0);
    let autophagy = to_counts(autophagy::scaled_model(1e4, 1e-6, 0.05), 1000.0);
    let autophagy_horizon = if test_mode { 0.002 } else { 0.02 };
    vec![
        ModelCfg {
            name: "autophagy-counts",
            model: autophagy,
            times: vec![autophagy_horizon * 0.25, autophagy_horizon * 0.5, autophagy_horizon],
            reps: 1,
            with_ssa: false,
            acceptance: true,
        },
        ModelCfg {
            name: "decay-chain",
            model: decay,
            times: vec![0.25, 0.5, 1.0, 2.0],
            reps: 3,
            with_ssa: true,
            acceptance: false,
        },
        ModelCfg {
            name: "enzyme",
            model: enzyme,
            times: vec![0.25, 0.5, 1.0, 2.0],
            reps: 3,
            with_ssa: true,
            acceptance: false,
        },
    ]
}

fn run_column<S: StochasticSimulator + Sync>(
    simulator: S,
    cfg: &ModelCfg,
    replicates: usize,
    lane_width: Option<usize>,
) -> StochasticBatchResult {
    StochasticBatch::new(simulator)
        .with_seed(SEED)
        .with_lane_width(lane_width)
        .run(&cfg.model, &cfg.times, replicates)
        .expect("ensemble must run")
}

fn sweep_model(rows: &mut Vec<Row>, cfg: &ModelCfg, ensembles: &[usize], test_mode: bool) {
    for &replicates in ensembles {
        let reps = if test_mode { 1 } else { cfg.reps };
        let tau_reps = if reps > 1 { 2 * reps + 1 } else { reps };
        // Best-of-N wall timing; the last run's outcomes come back so the
        // bitwise lockstep check rides the timed work for free.
        let time_column = |n_reps: usize,
                           run: &dyn Fn() -> StochasticBatchResult|
         -> (f64, f64, StochasticBatchResult) {
            let mut total = 0.0f64;
            let mut best = f64::INFINITY;
            let mut last = None;
            for _ in 0..n_reps {
                let t0 = Instant::now();
                let out = run();
                let ns = t0.elapsed().as_nanos() as f64;
                assert_eq!(out.outcomes.len(), replicates, "one outcome per replicate");
                assert!(out.failures().is_empty(), "no replicate may fail in the sweep");
                total += ns;
                best = best.min(ns);
                last = Some(out);
            }
            (total / n_reps as f64, best, last.expect("n_reps > 0"))
        };

        let mut timed: Vec<(&'static str, usize, usize, f64, f64)> = Vec::new();
        let mut ssa_best = None;
        if cfg.with_ssa {
            let (mean, best, _) =
                time_column(reps, &|| run_column(DirectMethod::new(), cfg, replicates, None));
            ssa_best = Some(best);
            timed.push(("ssa-scalar", 1, reps, mean, best));
        }
        let (mean, best, reference) =
            time_column(tau_reps, &|| run_column(TauLeaping::new(), cfg, replicates, Some(1)));
        assert_eq!(reference.lane_width, 1, "{}: pinned width 1 must run scalar", cfg.name);
        timed.push(("tau-scalar", 1, tau_reps, mean, best));
        let tau_best = best;
        for &width in &WIDTHS {
            let (mean, best, lanes) = time_column(tau_reps, &|| {
                run_column(TauLeaping::new(), cfg, replicates, Some(width))
            });
            assert_eq!(
                lanes.lane_width, width,
                "{}: pinned width {width} must run the lane path",
                cfg.name
            );
            assert_eq!(
                reference.outcomes, lanes.outcomes,
                "{} x{}: width {width} not bitwise == scalar tau-leaping",
                cfg.name, replicates
            );
            timed.push(("tau-lanes", width, tau_reps, mean, best));
        }

        // The unpinned configuration. Where its width was already timed
        // above the row reuses that measurement — it is the identical code
        // path.
        let unpinned = run_column(TauLeaping::new(), cfg, replicates, None);
        assert_eq!(
            reference.outcomes, unpinned.outcomes,
            "{} x{}: the unpinned width not bitwise == scalar tau-leaping",
            cfg.name, replicates
        );
        let auto_w = unpinned.lane_width;
        let auto_src = if auto_w == 1 { ("tau-scalar", 1) } else { ("tau-lanes", auto_w) };
        let (n_reps, mean, best) = match timed.iter().find(|t| (t.0, t.1) == auto_src) {
            Some(&(_, _, n_reps, mean, best)) => (n_reps, mean, best),
            None => {
                let (mean, best, _) = time_column(tau_reps, &|| {
                    run_column(TauLeaping::new(), cfg, replicates, Some(auto_w))
                });
                (tau_reps, mean, best)
            }
        };
        timed.push(("tau-lanes-auto", auto_w, n_reps, mean, best));

        for (column, lane_width, n_reps, mean, best) in timed {
            rows.push(Row {
                model: cfg.name,
                replicates,
                column,
                lane_width,
                reps: n_reps,
                mean_wall_ns: mean,
                best_wall_ns: best,
                reps_per_sec_best: replicates as f64 / (best / 1e9),
                speedup_vs_scalar_tau: tau_best / best,
                speedup_vs_ssa: ssa_best.map(|s| s / best),
            });
        }
    }
}

fn sweep(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let ensembles: Vec<usize> = if test_mode { vec![32] } else { vec![32, 256, 2048] };
    let cfgs = models(test_mode);

    let mut rows: Vec<Row> = Vec::new();
    for cfg in &cfgs {
        sweep_model(&mut rows, cfg, &ensembles, test_mode);
    }

    if !test_mode {
        write_json(&rows);
        // The acceptance bar for the lockstep stochastic path: on the
        // sweep-dominated model, width 8 beats scalar tau-leaping
        // >= 1.5x at the 2048-replicate scale, and the unpinned width
        // never loses to the scalar loop it replaces. The decay-chain and
        // enzyme rows are context — they chart the regimes where
        // divergent per-lane tails cap the lockstep win.
        let bar_models: Vec<&str> = cfgs.iter().filter(|c| c.acceptance).map(|c| c.name).collect();
        for r in rows.iter().filter(|r| bar_models.contains(&r.model)) {
            if r.column == "tau-lanes" && r.lane_width == 8 && r.replicates == 2048 {
                assert!(
                    r.speedup_vs_scalar_tau >= 1.5,
                    "{} x{}: width-8 speedup vs scalar tau-leaping is {:.3}, below the 1.5x bar",
                    r.model,
                    r.replicates,
                    r.speedup_vs_scalar_tau
                );
            }
            if r.column == "tau-lanes-auto" {
                assert!(
                    r.speedup_vs_scalar_tau >= 1.0,
                    "{} x{}: unpinned width {} is {:.3}x scalar tau-leaping, below 1.0x",
                    r.model,
                    r.replicates,
                    r.lane_width,
                    r.speedup_vs_scalar_tau
                );
            }
        }
    }

    // Surface the small-ensemble sweep through the criterion reporter
    // (the full matrix is in the JSON).
    let small = ensembles[0];
    let decay = &cfgs[1];
    let mut group = c.benchmark_group(format!("tau_lanes_decay_chain_x{small}"));
    group.sample_size(10);
    for width in WIDTHS {
        group.bench_with_input(BenchmarkId::new("width", width), &width, |b, &w| {
            b.iter(|| run_column(TauLeaping::new(), decay, small, Some(w)))
        });
    }
    group.finish();
}

fn write_json(rows: &[Row]) {
    let mut body = String::from("{\n");
    body.push_str(&paraspace_bench::bench_header("tau_lanes", 1));
    body.push_str(
        "  \"models\": {\"autophagy-counts\": {\"species\": 12, \"reactions\": 333, \
         \"volume_factor\": 1000, \"horizon\": 0.02}, \"decay-chain\": {\"species\": 4, \
         \"reactions\": 4, \"s0\": 10000, \"horizon\": 2.0}, \"enzyme\": {\"species\": 4, \
         \"reactions\": 3, \"enzymes\": 200, \"substrates\": 5000, \"horizon\": 2.0}},\n",
    );
    body.push_str(
        "  \"note\": \"single-thread wall time of the stochastic ensemble numerics; ssa-scalar \
         is the exact direct method (omitted for autophagy-counts, where ~9M events per \
         replicate make exact simulation infeasible — the reason leaping exists), tau-scalar \
         the scalar tau-leaping loop, tau-lanes the lockstep SoA TauLeapBatch kernel (bitwise \
         identical to tau-scalar by the counter-based per-replicate RNG), tau-lanes-auto the \
         width an unpinned ensemble runs at; speedups compare best wall times \
         within the same model and ensemble size; decay-chain and enzyme chart the \
         SSA-fallback-heavy regimes where divergent per-lane tails cap the lockstep win\",\n",
    );
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let vs_ssa = match r.speedup_vs_ssa {
            Some(v) => format!("{v:.3}"),
            None => "null".to_string(),
        };
        body.push_str(&format!(
            "    {{\"model\": \"{}\", \"replicates\": {}, \"column\": \"{}\", \
             \"lane_width\": {}, \"reps\": {}, \"mean_wall_ns\": {:.0}, \
             \"best_wall_ns\": {:.0}, \"reps_per_sec_best\": {:.2}, \
             \"speedup_vs_scalar_tau\": {:.3}, \"speedup_vs_ssa\": {}}}{}\n",
            r.model,
            r.replicates,
            r.column,
            r.lane_width,
            r.reps,
            r.mean_wall_ns,
            r.best_wall_ns,
            r.reps_per_sec_best,
            r.speedup_vs_scalar_tau,
            vs_ssa,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let out = out_dir.join("BENCH_tau_lanes.json");
    std::fs::write(&out, body).expect("write BENCH_tau_lanes.json");
    println!("wrote {}", out.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sweep
}
criterion_main!(benches);
