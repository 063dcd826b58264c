//! Shared harness for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! reconstructed evaluation (see DESIGN.md's experiment index). This
//! library provides the shared pieces: the engine roster, comparison-cell
//! execution, table formatting, and the scaled-down/full experiment sizing
//! controlled by the `PARASPACE_FULL` environment variable.

use paraspace_core::{
    CoarseEngine, CpuEngine, CpuSolverKind, FineCoarseEngine, FineEngine, SimError, SimulationJob,
    Simulator,
};
use paraspace_rbm::perturbed_batch;
use paraspace_solvers::SolverOptions;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Whether the full-size (publication-scale) experiments were requested
/// via `PARASPACE_FULL=1`; default is a scaled-down grid that finishes in
/// minutes on one core.
pub fn full_scale() -> bool {
    std::env::var("PARASPACE_FULL").map(|v| v == "1").unwrap_or(false)
}

/// The git revision of the working tree, for provenance-stamping emitted
/// result files — with `+dirty` appended when tracked files differ from it,
/// so numbers taken on an uncommitted change do not pass for the commit's;
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let git = |args: &[&str]| std::process::Command::new("git").args(args).output().ok();
    let rev = git(&["rev-parse", "--short", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    match rev {
        None => "unknown".into(),
        Some(rev) => {
            let clean = git(&["diff", "--quiet", "HEAD"]).is_some_and(|o| o.status.success());
            if clean {
                rev
            } else {
                rev + "+dirty"
            }
        }
    }
}

/// The shared provenance header every `results/BENCH_*.json` emitter
/// opens with: the bench name, what the host offers (`host_cpus`), the
/// worker-thread count the measured configurations actually ran with
/// (`threads_used` — the maximum, for benches that sweep thread counts),
/// and the git revision the numbers were taken at. Returned as the
/// leading JSON fragment (after `{`), so a result file can never be
/// mistaken for a different machine's or revision's numbers.
pub fn bench_header(bench: &str, threads_used: usize) -> String {
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "  \"bench\": \"{bench}\",\n  \"host_cpus\": {host_cpus},\n  \
         \"threads_used\": {threads_used},\n  \"git_rev\": \"{}\",\n",
        git_rev()
    )
}

/// The simulator roster of the comparison study, in presentation order.
fn engine_roster() -> Vec<Box<dyn Simulator>> {
    vec![
        Box::new(CpuEngine::new(CpuSolverKind::Lsoda)),
        Box::new(CpuEngine::new(CpuSolverKind::Vode)),
        Box::new(CoarseEngine::new()),
        Box::new(FineEngine::new()),
        Box::new(FineCoarseEngine::new()),
    ]
}

/// One comparison-map cell: every engine's simulated total and integration
/// time on the same job.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Engine name.
    pub engine: &'static str,
    /// Simulated total ("simulation") time, ns.
    pub total_ns: f64,
    /// Simulated integration time, ns.
    pub integration_ns: f64,
    /// Members that produced trajectories.
    pub successes: usize,
}

/// Runs all engines on a synthetic `n × m` model with `sims` perturbed
/// parameterizations and returns one [`CellResult`] per engine.
///
/// # Errors
///
/// Propagates job-level failures.
pub fn comparison_cell(
    n_species: usize,
    n_reactions: usize,
    sims: usize,
    seed: u64,
) -> Result<Vec<CellResult>, SimError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = paraspace_rbm::sbgen::SbGen::new(n_species, n_reactions).generate(&mut rng);
    let batch = perturbed_batch(&model, sims, &mut rng);
    let time_points: Vec<f64> = (1..=10).map(|i| i as f64 * 0.5).collect();
    let options = SolverOptions { max_steps: 100_000, ..SolverOptions::default() };
    let mut out = Vec::new();
    for engine in engine_roster() {
        let job = SimulationJob::builder(&model)
            .time_points(time_points.clone())
            .parameterizations(batch.clone())
            .options(options.clone())
            .build()?;
        let r = engine.run(&job)?;
        out.push(CellResult {
            engine: r.engine,
            total_ns: r.timing.simulated_total_ns,
            integration_ns: r.timing.simulated_integration_ns,
            successes: r.success_count(),
        });
    }
    Ok(out)
}

/// The winner (lowest simulated total time) of a cell.
fn best_engine(cell: &[CellResult]) -> &'static str {
    cell.iter()
        .min_by(|a, b| a.total_ns.partial_cmp(&b.total_ns).expect("finite times"))
        .map(|c| c.engine)
        .unwrap_or("-")
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders a comparison map (rows = model sizes, columns = batch sizes) as
/// an aligned text table of winning engines.
fn render_map(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    winners: &[Vec<&'static str>],
) -> String {
    let mut s = String::new();
    s.push_str(&format!("== {title} ==\n"));
    let width = winners
        .iter()
        .flatten()
        .map(|w| w.len())
        .chain(col_labels.iter().map(|c| c.len()))
        .max()
        .unwrap_or(8)
        + 2;
    let row_w = row_labels.iter().map(|r| r.len()).max().unwrap_or(8) + 2;
    s.push_str(&format!("{:row_w$}", "model\\sims"));
    for c in col_labels {
        s.push_str(&format!("{c:>width$}"));
    }
    s.push('\n');
    for (r, row) in row_labels.iter().zip(winners) {
        s.push_str(&format!("{r:row_w$}"));
        for w in row {
            s.push_str(&format!("{w:>width$}"));
        }
        s.push('\n');
    }
    s
}

/// The grid of model sizes and batch sizes for the map experiments.
pub struct MapGrid {
    /// `(N, M)` model sizes.
    pub sizes: Vec<(usize, usize)>,
    /// Batch sizes.
    pub sims: Vec<usize>,
}

impl MapGrid {
    /// The symmetric-map grid (`N = M`).
    pub fn symmetric() -> MapGrid {
        let sizes: Vec<(usize, usize)> = if full_scale() {
            vec![8, 16, 32, 64, 128, 256, 512].into_iter().map(|s| (s, s)).collect()
        } else {
            vec![8, 16, 32, 64].into_iter().map(|s| (s, s)).collect()
        };
        MapGrid { sizes, sims: Self::sim_axis() }
    }

    /// Species-heavy asymmetric grid (`N > M`).
    pub fn species_heavy() -> MapGrid {
        let sizes = if full_scale() {
            vec![(32, 8), (64, 16), (128, 32), (256, 64), (512, 128)]
        } else {
            vec![(32, 8), (64, 16), (96, 24)]
        };
        MapGrid { sizes, sims: Self::sim_axis() }
    }

    /// Reaction-heavy asymmetric grid (`M > N`).
    pub fn reaction_heavy() -> MapGrid {
        let sizes = if full_scale() {
            vec![(8, 32), (16, 64), (32, 128), (64, 256), (213, 640)]
        } else {
            vec![(8, 32), (16, 64), (21, 64)]
        };
        MapGrid { sizes, sims: Self::sim_axis() }
    }

    fn sim_axis() -> Vec<usize> {
        if full_scale() {
            vec![1, 16, 64, 256, 512, 1024, 2048]
        } else {
            vec![1, 16, 128]
        }
    }
}

/// Runs a whole map experiment and prints both the winner map and the raw
/// per-cell timings.
///
/// # Errors
///
/// Propagates job-level failures.
pub fn run_map_experiment(title: &str, grid: &MapGrid) -> Result<(), SimError> {
    let mut winners = Vec::new();
    let mut detail = String::new();
    for &(n, m) in &grid.sizes {
        let mut row = Vec::new();
        for &sims in &grid.sims {
            let cell = comparison_cell(
                n,
                m,
                sims,
                0xC0FFEE ^ (n as u64) << 20 ^ (m as u64) << 8 ^ sims as u64,
            )?;
            row.push(best_engine(&cell));
            detail.push_str(&format!("model {n}x{m}, sims {sims}:\n"));
            for c in &cell {
                detail.push_str(&format!(
                    "    {:12} total {:>12}  integration {:>12}  ok {}/{}\n",
                    c.engine,
                    fmt_ns(c.total_ns),
                    fmt_ns(c.integration_ns),
                    c.successes,
                    sims
                ));
            }
        }
        winners.push(row);
    }
    let rows: Vec<String> = grid.sizes.iter().map(|&(n, m)| format!("{n}x{m}")).collect();
    let cols: Vec<String> = grid.sims.iter().map(|s| s.to_string()).collect();
    println!("{}", render_map(title, &rows, &cols, &winners));
    println!("{detail}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_cell_runs_all_engines() {
        let cell = comparison_cell(6, 6, 2, 1).unwrap();
        assert_eq!(cell.len(), 5);
        for c in &cell {
            assert!(c.total_ns > 0.0);
            assert!(c.successes <= 2);
        }
    }

    #[test]
    fn best_engine_picks_minimum() {
        let cell = vec![
            CellResult { engine: "a", total_ns: 5.0, integration_ns: 1.0, successes: 1 },
            CellResult { engine: "b", total_ns: 2.0, integration_ns: 1.0, successes: 1 },
        ];
        assert_eq!(best_engine(&cell), "b");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3.2e6), "3.20 ms");
        assert_eq!(fmt_ns(7.5e9), "7.50 s");
    }

    #[test]
    fn render_map_alignment() {
        let s = render_map(
            "t",
            &["8x8".into(), "16x16".into()],
            &["1".into(), "128".into()],
            &[vec!["cpu", "fine-coarse"], vec!["coarse", "fine-coarse"]],
        );
        assert!(s.contains("fine-coarse"));
        assert_eq!(s.lines().count(), 4);
    }
}
