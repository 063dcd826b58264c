//! Regenerates the evaluation's tables.
//!
//! ```text
//! cargo run --release -p paraspace-bench --bin reproduce [-- TABLE...]
//! ```
//!
//! Rewrites `results/<TABLE>.txt` for each named table, or for all 14 when
//! none is named. With `PARASPACE_FULL=1` the tables are computed at
//! publication scale and printed to stdout instead, so a full-scale run
//! never overwrites a committed default-scale table. Each table's host wall
//! time goes to stderr.

use paraspace_bench::{full_scale, results_file, TABLES};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<_> =
        TABLES.iter().filter(|t| names.is_empty() || names.contains(&t.name.into())).collect();
    if let Some(unknown) = names.iter().find(|n| TABLES.iter().all(|t| t.name != n.as_str())) {
        let known: Vec<&str> = TABLES.iter().map(|t| t.name).collect();
        eprintln!("error: unknown table `{unknown}`; tables: {}", known.join(", "));
        return ExitCode::FAILURE;
    }
    let full = full_scale();
    for table in chosen {
        let started = Instant::now();
        let text = (table.render)(full);
        let path = results_file(table.name);
        if full {
            print!("{text}");
        } else if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("{}: host wall {:.1?}", table.name, started.elapsed());
    }
    ExitCode::SUCCESS
}
