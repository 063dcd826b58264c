//! `ensemble_tau`: a tau-leaping replicate ensemble through the CLI. The
//! ODE solvers, `linalg` and the Jacobian kernels do no work here;
//! `TauLeapBatch`, the counter RNG and the per-replicate file writes do
//! all of it — a solver or LU change predicts no movement.

use super::{
    clear_dir, list_files, parse_ok_count, Check, Ctx, Rep, Workload, CAMPAIGN_DEADLINE, THREADS,
};
use crate::sys::run_campaign;
use crate::trace::Tracer;
use paraspace_rbm::{biosimware, Reaction, ReactionBasedModel};
use paraspace_stochastic::{initial_counts, PropensityTable};
use std::path::PathBuf;

pub const REPLICATES: usize = 1024;
/// Rates of the two-stage gene-expression network of
/// `crates/bench/src/bin/stochastic_ensembles.rs`: mRNA birth and decay,
/// translation, protein decay.
const MRNA_BIRTH: f64 = 1200.0;
const MRNA_DECAY: f64 = 2.0;
const TRANSLATION: f64 = 10.0;
const PROTEIN_DECAY: f64 = 1.0;
const SAMPLE_TIMES: usize = 5;
/// End of the simulated window; the network is stationary after t ≈ 5, so
/// the horizon sets the leaps per replicate and nothing else.
const HORIZON: f64 = 300.0;
/// Tau-leaping at the default ε = 0.03 inflates the stationary variances by
/// about 4 %, and the pooled sample variance of 1024 replicates resolves
/// about 2 % (one σ), so 0.15 is five σ away at any seed; a wrong sampler
/// or propensity is off by far more.
const REF_LIMIT: f64 = 0.15;
/// 128 replicates resolve a variance to about 6 %.
const SMOKE_REF_LIMIT: f64 = 0.5;

pub struct EnsembleTau<'a> {
    pub ctx: &'a Ctx<'a>,
    pub replicates: usize,
    pub model_dir: PathBuf,
    pub out_dir: PathBuf,
    pub times: Vec<f64>,
}

fn gene_expression() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let mrna = m.add_species("mRNA", 0.0);
    let prot = m.add_species("protein", 0.0);
    for reaction in [
        Reaction::mass_action(&[], &[(mrna, 1)], MRNA_BIRTH),
        Reaction::mass_action(&[(mrna, 1)], &[], MRNA_DECAY),
        Reaction::mass_action(&[(mrna, 1)], &[(mrna, 1), (prot, 1)], TRANSLATION),
        Reaction::mass_action(&[(prot, 1)], &[], PROTEIN_DECAY),
    ] {
        m.add_reaction(reaction).expect("valid gene-expression reaction");
    }
    m
}

/// Exact first and second moments of the network at `times`, from the
/// chemical master equation's moment equations — closed for a network
/// whose propensities are all linear. Rows are `[E m, E p, Var m, Var p]`.
fn cme_moments(times: &[f64]) -> Vec<[f64; 4]> {
    // State: mean m, mean p, Cmm, Cmp, Cpp.
    let rhs = |s: &[f64; 5]| -> [f64; 5] {
        let [m, p, cmm, cmp, cpp] = *s;
        [
            MRNA_BIRTH - MRNA_DECAY * m,
            TRANSLATION * m - PROTEIN_DECAY * p,
            -2.0 * MRNA_DECAY * cmm + MRNA_BIRTH + MRNA_DECAY * m,
            -(MRNA_DECAY + PROTEIN_DECAY) * cmp + TRANSLATION * cmm,
            -2.0 * PROTEIN_DECAY * cpp
                + 2.0 * TRANSLATION * cmp
                + TRANSLATION * m
                + PROTEIN_DECAY * p,
        ]
    };
    let axpy = |s: &[f64; 5], k: &[f64; 5], h: f64| -> [f64; 5] {
        std::array::from_fn(|i| s[i] + h * k[i])
    };
    const DT: f64 = 1e-4;
    let mut state = [0.0f64; 5];
    let mut t = 0.0f64;
    let mut rows = Vec::with_capacity(times.len());
    for &target in times {
        while t < target - 1e-12 {
            let h = DT.min(target - t);
            let k1 = rhs(&state);
            let k2 = rhs(&axpy(&state, &k1, h / 2.0));
            let k3 = rhs(&axpy(&state, &k2, h / 2.0));
            let k4 = rhs(&axpy(&state, &k3, h));
            for i in 0..5 {
                state[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            t += h;
        }
        rows.push([state[0], state[1], state[2], state[4]]);
    }
    rows
}

/// Rows of an `ensemble_*.tsv` table, without header and time column.
fn read_table(path: &std::path::Path) -> Result<Vec<Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.split('\t')
                .skip(1)
                .map(|v| v.parse::<f64>().map_err(|_| format!("bad number {v:?}")))
                .collect()
        })
        .collect()
}

impl<'a> EnsembleTau<'a> {
    pub fn new(ctx: &'a Ctx<'a>) -> Result<Self, String> {
        let model = gene_expression();
        let times: Vec<f64> =
            (1..=SAMPLE_TIMES).map(|i| i as f64 * HORIZON / SAMPLE_TIMES as f64).collect();
        let model_dir = ctx.work.path().join("model");
        biosimware::write_dir(&model, &model_dir).map_err(|e| e.to_string())?;
        biosimware::write_time_points(&times, &model_dir).map_err(|e| e.to_string())?;
        Ok(EnsembleTau {
            ctx,
            replicates: ctx.sized(REPLICATES, 64),
            out_dir: ctx.work.path().join("out"),
            model_dir,
            times,
        })
    }
}

impl EnsembleTau<'_> {
    /// The `ensemble` command line on `threads` host threads.
    pub fn command(&self, threads: usize) -> std::process::Command {
        let mut cmd = self.ctx.cli_command();
        cmd.arg("ensemble")
            .arg(&self.model_dir)
            .args(["--simulator", "tau-leaping"])
            .args(["--replicates", &self.replicates.to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--seed", &self.ctx.seed.to_string()])
            .arg("--out")
            .arg(&self.out_dir);
        cmd
    }
}

impl Workload for EnsembleTau<'_> {
    fn members(&self) -> usize {
        self.replicates
    }

    fn describe(&self) -> String {
        format!(
            "paraspace-cli ensemble --simulator tau-leaping --replicates {} --threads {THREADS}: gene expression (2 species, 4 reactions, mRNA birth {MRNA_BIRTH}), {SAMPLE_TIMES} sample times to t = {HORIZON}",
            self.replicates
        )
    }

    fn setup_batch(&self) -> usize {
        16384
    }

    fn prepare_once(&self) -> Result<(), String> {
        let model = biosimware::read_dir(&self.model_dir).map_err(|e| e.to_string())?;
        let times = biosimware::read_time_points(&self.model_dir).map_err(|e| e.to_string())?;
        model.validate().map_err(|e| e.to_string())?;
        let table = PropensityTable::new(&model);
        std::hint::black_box((table.stoich().n_reactions(), initial_counts(&model), times));
        Ok(())
    }

    fn repetition(&mut self) -> Result<Rep, String> {
        clear_dir(&self.out_dir)?;
        let mut cmd = self.command(THREADS);
        let run = run_campaign(&mut cmd, CAMPAIGN_DEADLINE).map_err(|e| e.to_string())?;
        let ok = parse_ok_count(&run.stdout, "replicates ok");
        Ok(Rep::from_child(run, self.replicates, ok))
    }

    fn check(&mut self) -> Result<Check, String> {
        let files = list_files(&self.out_dir)?;
        let replicate_files = files
            .iter()
            .filter(|(p, _)| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("replicate_") && n.ends_with(".tsv"))
            })
            .count();
        let mean = read_table(&self.out_dir.join("ensemble_mean.tsv"))?;
        let variance = read_table(&self.out_dir.join("ensemble_variance.tsv"))?;
        let exact = cme_moments(&self.times);
        let shaped = mean.len() == exact.len()
            && variance.len() == exact.len()
            && mean.iter().chain(&variance).all(|row| row.len() == 2);
        let mut ref_err = if shaped { 0.0f64 } else { f64::INFINITY };
        if shaped {
            for species in 0..2 {
                // Means at every sample time; variances pooled over the
                // sample times, which lie tens of correlation times apart
                // — a sample variance of 1024 replicates alone resolves
                // no better than 4 %.
                for (got, want) in mean.iter().zip(&exact) {
                    ref_err = ref_err.max((got[species] - want[species]).abs() / want[species]);
                }
                let pooled =
                    |rows: &mut dyn Iterator<Item = f64>| rows.sum::<f64>() / exact.len() as f64;
                let got = pooled(&mut variance.iter().map(|row| row[species]));
                let want = pooled(&mut exact.iter().map(|row| row[2 + species]));
                ref_err = ref_err.max((got - want).abs() / want);
            }
        }
        Ok(Check {
            ref_err,
            ref_limit: if self.ctx.smoke { SMOKE_REF_LIMIT } else { REF_LIMIT },
            conditions: vec![(
                format!("{} replicate files written", self.replicates),
                replicate_files == self.replicates,
            )],
        })
    }

    fn trace(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        crate::trace::ensemble::trace(self, tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At stationarity the mRNA is Poisson and the protein variance has the
    /// textbook two-stage form; the integrated moment equations must land
    /// on both.
    #[test]
    fn moment_equations_reach_the_known_stationary_values() {
        let row = cme_moments(&[40.0])[0];
        let m = MRNA_BIRTH / MRNA_DECAY;
        let p = TRANSLATION * m / PROTEIN_DECAY;
        let var_p = p * (1.0 + TRANSLATION / (MRNA_DECAY + PROTEIN_DECAY));
        for (got, want) in [(row[0], m), (row[1], p), (row[2], m), (row[3], var_p)] {
            assert!((got - want).abs() / want < 1e-6, "{got} vs {want}");
        }
    }
}
