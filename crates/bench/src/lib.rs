//! The reconstructed evaluation, one function per table.
//!
//! Each table of EXPERIMENTS.md (E1–E8 with E7b, V1, A1–A4, S1) is a
//! function that computes the table's values — a parameter product mapped
//! over cells and collected in order — and returns them as a value whose
//! `Display` is the table text committed as `results/<name>.txt`. The `reproduce` binary
//! rewrites those files from [`TABLES`]; the release `experiments` suite
//! calls the same functions, requires the committed text, and asserts the
//! shape claims on the values. Every number in a table is modelled (the
//! simulated device's clocks, the CPU roofline, solver counters), so cells
//! run on an [`Executor`](paraspace_core::Executor) over all cores without
//! moving a digit.

pub mod ablations;
pub mod maps;
pub mod studies;
pub mod validation;

use std::path::PathBuf;

/// Whether the full-size (publication-scale) experiments were requested
/// via `PARASPACE_FULL=1`; default is a scaled-down grid that finishes in
/// minutes on one core.
pub fn full_scale() -> bool {
    std::env::var("PARASPACE_FULL").map(|v| v == "1").unwrap_or(false)
}

/// One table of the evaluation: the stem of its `results/<name>.txt` and
/// its text at the default (`false`) or full (`true`) scale.
pub struct Table {
    /// File stem under `results/`, and the name `reproduce` takes.
    pub name: &'static str,
    /// Computes the table and renders it.
    pub render: fn(bool) -> String,
}

/// Every table, in EXPERIMENTS.md order.
pub const TABLES: [Table; 14] = [
    Table { name: "map_symmetric", render: |full| maps::symmetric(full).to_string() },
    Table { name: "map_species_heavy", render: |full| maps::species_heavy(full).to_string() },
    Table { name: "map_reaction_heavy", render: |full| maps::reaction_heavy(full).to_string() },
    Table { name: "psa2d_autophagy", render: |full| studies::psa2d_autophagy(full).to_string() },
    Table { name: "sa_metabolic", render: |full| studies::sa_metabolic(full).to_string() },
    Table { name: "pe_metabolic", render: |full| studies::pe_metabolic(full).to_string() },
    Table { name: "pe_gradient", render: |full| studies::pe_gradient(full).to_string() },
    Table { name: "speedup_table", render: |full| maps::speedup_table(full).to_string() },
    Table { name: "accuracy_table", render: |_| validation::accuracy_table().to_string() },
    Table { name: "ablation_batch", render: |full| ablations::batch(full).to_string() },
    Table { name: "ablation_granularity", render: |full| ablations::granularity(full).to_string() },
    Table { name: "ablation_stiffness", render: |full| ablations::stiffness(full).to_string() },
    Table { name: "ablation_memory", render: |full| ablations::memory(full).to_string() },
    Table {
        name: "stochastic_ensembles",
        render: |full| validation::stochastic_ensembles(full).to_string(),
    },
];

/// The committed default-scale text of table `name`.
pub fn results_file(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results")).join(format!("{name}.txt"))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_has_a_results_file_and_every_file_a_table() {
        let dir = results_file("").parent().expect("results directory").to_path_buf();
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("results directory")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut names: Vec<String> = TABLES.iter().map(|t| format!("{}.txt", t.name)).collect();
        names.sort();
        assert_eq!(files, names, "results/ must hold exactly one <table>.txt per TABLES entry");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3.2e6), "3.20 ms");
        assert_eq!(fmt_ns(7.5e9), "7.50 s");
    }
}
