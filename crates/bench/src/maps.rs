//! E1–E3, the comparison maps, and E8, the speedup table: every engine of
//! the comparison study on one synthetic job per cell.

use crate::fmt_ns;
use paraspace_core::{
    AutoEngine, CoarseEngine, CpuEngine, CpuSolverKind, Executor, FineCoarseEngine, FineEngine,
    SimulationJob, Simulator,
};
use paraspace_rbm::{perturbed_batch, sbgen::SbGen};
use paraspace_solvers::SolverOptions;
use rand::{rngs::StdRng, SeedableRng};
use std::fmt;

/// The simulator roster of the comparison study, in presentation order.
fn roster() -> [Box<dyn Simulator>; 5] {
    [
        Box::new(CpuEngine::new(CpuSolverKind::Lsoda)),
        Box::new(CpuEngine::new(CpuSolverKind::Vode)),
        Box::new(CoarseEngine::new()),
        Box::new(FineEngine::new()),
        Box::new(FineCoarseEngine::new()),
    ]
}

/// One engine's simulated clocks on a comparison job.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Engine name; for `AutoEngine`, the engine it dispatched to.
    pub engine: &'static str,
    /// Simulated total ("simulation") time, ns.
    pub total_ns: f64,
    /// Simulated integration time, ns.
    pub integration_ns: f64,
    /// Members that produced trajectories.
    pub successes: usize,
}

/// One comparison cell: the roster and `AutoEngine` on `sims` perturbed
/// members of a synthetic model with `n` species and `m` reactions.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Species.
    pub n: usize,
    /// Reactions.
    pub m: usize,
    /// Members.
    pub sims: usize,
    /// The roster's timings, in roster order.
    pub engines: Vec<Timing>,
    /// `AutoEngine`'s timing.
    pub auto: Timing,
}

impl Cell {
    fn run(n: usize, m: usize, sims: usize, seed: u64) -> Cell {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SbGen::new(n, m).generate(&mut rng);
        let job = SimulationJob::builder(&model)
            .time_points((1..=10).map(|i| i as f64 * 0.5).collect())
            .parameterizations(perturbed_batch(&model, sims, &mut rng))
            .options(SolverOptions { max_steps: 100_000, ..SolverOptions::default() })
            .build()
            .expect("comparison job");
        let time = |engine: &dyn Simulator| {
            let r = engine.run(&job).expect("comparison run");
            let (total_ns, integration_ns) =
                (r.timing.simulated_total_ns, r.timing.simulated_integration_ns);
            Timing { engine: r.engine, total_ns, integration_ns, successes: r.success_count() }
        };
        let engines = roster().iter().map(|e| time(e.as_ref())).collect();
        Cell { n, m, sims, engines, auto: time(&AutoEngine::new()) }
    }

    /// The roster engine with the lowest simulated total time.
    pub fn winner(&self) -> &Timing {
        self.engines.iter().min_by(|a, b| a.total_ns.total_cmp(&b.total_ns)).expect("roster")
    }

    /// The timing of roster engine `name`.
    pub fn engine(&self, name: &str) -> &Timing {
        self.engines.iter().find(|t| t.engine == name).expect("engine in the roster")
    }

    /// `AutoEngine`'s total time over the winner's.
    fn auto_ratio(&self) -> f64 {
        self.auto.total_ns / self.winner().total_ns
    }
}

/// A comparison map: rows are model sizes (smallest first), columns the
/// batch sizes `sims`.
#[derive(Debug, Clone)]
pub struct Map {
    title: &'static str,
    /// The cells in row-major order.
    pub cells: Vec<Cell>,
    /// The batch sizes.
    pub sims: Vec<usize>,
}

impl Map {
    fn run(title: &'static str, sizes: &[(usize, usize)], full: bool) -> Map {
        let sims = if full { vec![1, 16, 64, 256, 512, 1024, 2048] } else { vec![1, 16, 128] };
        let grid: Vec<(usize, usize, usize)> =
            sizes.iter().flat_map(|&(n, m)| sims.iter().map(move |&s| (n, m, s))).collect();
        let cells = Executor::default().map(grid.len(), |i| {
            let (n, m, s) = grid[i];
            Cell::run(n, m, s, 0xC0FFEE ^ (n as u64) << 20 ^ (m as u64) << 8 ^ s as u64)
        });
        Map { title, cells, sims }
    }

    /// The rows of the map.
    pub fn rows(&self) -> std::slice::Chunks<'_, Cell> {
        self.cells.chunks(self.sims.len())
    }

    fn grid(&self, f: &mut fmt::Formatter<'_>, label: impl Fn(&Cell) -> String) -> fmt::Result {
        let labels: Vec<String> = self.cells.iter().map(label).collect();
        let w = labels.iter().map(String::len).max().unwrap_or(0) + 2;
        write!(f, "{:12}", "model\\sims")?;
        self.sims.iter().try_for_each(|s| write!(f, "{s:>w$}"))?;
        for (row, labels) in self.rows().zip(labels.chunks(self.sims.len())) {
            write!(f, "\n{:12}", format!("{}x{}", row[0].n, row[0].m))?;
            labels.iter().try_for_each(|l| write!(f, "{l:>w$}"))?;
        }
        writeln!(f)
    }
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        self.grid(f, |c| c.winner().engine.to_string())?;
        writeln!(f, "\n== AutoEngine's pick (* = within 10 % of the winner) ==")?;
        let hit = |c: &Cell| c.auto_ratio() <= 1.10;
        self.grid(f, |c| format!("{}{}", c.auto.engine, if hit(c) { "*" } else { "" }))?;
        for c in &self.cells {
            write!(f, "\nmodel {}x{}, sims {}:", c.n, c.m, c.sims)?;
            for t in &c.engines {
                let (total, int) = (fmt_ns(t.total_ns), fmt_ns(t.integration_ns));
                let ok = format!("{}/{}", t.successes, c.sims);
                write!(
                    f,
                    "\n    {:12} total {total:>12}  integration {int:>12}  ok {ok}",
                    t.engine
                )?;
            }
            writeln!(f, "\n    auto → {:12} {:.2}x the winner", c.auto.engine, c.auto_ratio())?;
        }
        let hits = self.cells.iter().filter(|c| hit(c)).count();
        writeln!(f, "\nauto within 10 % of the winner in {hits} of {} cells", self.cells.len())
    }
}

/// E1 (Fig-2-class): the comparison map for symmetric RBMs (`N = M`).
pub fn symmetric(full: bool) -> Map {
    let sizes: &[usize] = if full { &[8, 16, 32, 64, 128, 256, 512] } else { &[8, 16, 32, 64] };
    let sizes: Vec<(usize, usize)> = sizes.iter().map(|&s| (s, s)).collect();
    Map::run("E1: comparison map, symmetric RBMs (N = M)", &sizes, full)
}

/// E2 (Fig-3-class): the comparison map for species-heavy RBMs (`N > M`).
pub fn species_heavy(full: bool) -> Map {
    let sizes: &[(usize, usize)] = if full {
        &[(32, 8), (64, 16), (128, 32), (256, 64), (512, 128)]
    } else {
        &[(32, 8), (64, 16), (96, 24)]
    };
    Map::run("E2: comparison map, species-heavy RBMs (N > M)", sizes, full)
}

/// E3 (Fig-4-class): the comparison map for reaction-heavy RBMs (`M > N`).
pub fn reaction_heavy(full: bool) -> Map {
    let sizes: &[(usize, usize)] = if full {
        &[(8, 32), (16, 64), (32, 128), (64, 256), (213, 640)]
    } else {
        &[(8, 32), (16, 64), (21, 64)]
    };
    Map::run("E3: comparison map, reaction-heavy RBMs (M > N)", sizes, full)
}

/// E8: the headline speedup table, one large comparison cell with every
/// engine against the fine+coarse engine.
#[derive(Debug, Clone)]
pub struct Speedups {
    /// The cell.
    pub cell: Cell,
}

impl Speedups {
    /// Engine `name`'s (simulation, integration) time over fine-coarse's.
    pub fn speedup(&self, name: &str) -> (f64, f64) {
        let (t, fc) = (self.cell.engine(name), self.cell.engine("fine-coarse"));
        (t.total_ns / fc.total_ns, t.integration_ns / fc.integration_ns)
    }
}

/// E8 on a 48 × 48 model with 128 members (256 × 256 and 512 at full scale).
pub fn speedup_table(full: bool) -> Speedups {
    let (n, sims) = if full { (256, 512) } else { (48, 128) };
    Speedups { cell: Cell::run(n, n, sims, 0xE8) }
}

impl fmt::Display for Speedups {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.cell;
        writeln!(
            f,
            "E8: speedup table on a {}x{} synthetic model, {} simulations\n",
            c.n, c.m, c.sims
        )?;
        let [e, s, i, ss, is] =
            ["engine", "simulation", "integration", "sim-speedup", "int-speedup"];
        writeln!(f, "{e:12} {s:>14} {i:>14} {ss:>12} {is:>12}")?;
        for t in &c.engines {
            let ((sim, int), total) = (self.speedup(t.engine), fmt_ns(t.total_ns));
            let integration = fmt_ns(t.integration_ns);
            writeln!(f, "{:12} {total:>14} {integration:>14} {sim:>11.1}x {int:>11.1}x", t.engine)?;
        }
        writeln!(f, "\n(speedups are each engine's time divided by the fine+coarse engine's)")
    }
}
