//! BioSimWare-style on-disk model format.
//!
//! The GPU simulator family (cupSODA, LASSIE, and the engine reproduced
//! here) exchanges models as a *directory* of plain-text files rather than a
//! single document:
//!
//! | file | contents |
//! |---|---|
//! | `alphabet` | the `N` species names, whitespace-separated, one line |
//! | `left_side` | `M × N` reactant stoichiometric matrix `A`, one reaction per line |
//! | `right_side` | `M × N` product stoichiometric matrix `B`, one reaction per line |
//! | `c_vector` | the `M` kinetic constants, one per line |
//! | `M_0` | the `N` initial concentrations, whitespace-separated, one line |
//! | `t_vector` | *(optional)* sampling time points, one per line |
//! | `c_matrix` | *(optional)* one rate-constant row per parameterization |
//! | `MX_0` | *(optional)* one initial-state row per parameterization |
//!
//! [`write_dir`] and [`read_dir`] round-trip a [`ReactionBasedModel`];
//! [`read_parameterizations`] and [`read_time_points`] load the optional
//! batch files.
//!
//! # Example
//!
//! ```
//! use paraspace_rbm::{biosimware, Reaction, ReactionBasedModel};
//!
//! # fn main() -> Result<(), paraspace_rbm::RbmError> {
//! let mut m = ReactionBasedModel::new();
//! let a = m.add_species("A", 1.0);
//! let b = m.add_species("B", 0.0);
//! m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.5))?;
//!
//! let dir = std::env::temp_dir().join("paraspace_doctest_bsw");
//! biosimware::write_dir(&m, &dir)?;
//! let back = biosimware::read_dir(&dir)?;
//! assert_eq!(back.n_species(), 2);
//! assert_eq!(back.rate_constants(), vec![0.5]);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

use crate::{Parameterization, RbmError, Reaction, ReactionBasedModel, SpeciesId};
use std::fs;
use std::path::Path;

/// Writes `model` to `dir` in the BioSimWare directory layout, creating the
/// directory if needed.
///
/// # Errors
///
/// Propagates filesystem errors as [`RbmError::Io`].
pub fn write_dir(model: &ReactionBasedModel, dir: &Path) -> Result<(), RbmError> {
    fs::create_dir_all(dir)?;
    let names: Vec<&str> = model.species().iter().map(|s| s.name.as_str()).collect();
    fs::write(dir.join("alphabet"), names.join("\t") + "\n")?;

    let n = model.n_species();
    let mut left = String::new();
    let mut right = String::new();
    let mut cvec = String::new();
    for r in model.reactions() {
        left.push_str(&side_row(r.reactants(), n));
        right.push_str(&side_row(r.products(), n));
        cvec.push_str(&format!("{:e}\n", r.rate_constant()));
    }
    fs::write(dir.join("left_side"), left)?;
    fs::write(dir.join("right_side"), right)?;
    fs::write(dir.join("c_vector"), cvec)?;

    let m0: Vec<String> = model.initial_state().iter().map(|x| format!("{x:e}")).collect();
    fs::write(dir.join("M_0"), m0.join("\t") + "\n")?;
    Ok(())
}

/// Writes sampling time points as a `t_vector` file in `dir`.
///
/// # Errors
///
/// Propagates filesystem errors as [`RbmError::Io`].
pub fn write_time_points(time_points: &[f64], dir: &Path) -> Result<(), RbmError> {
    fs::create_dir_all(dir)?;
    let body: String = time_points.iter().map(|t| format!("{t:e}\n")).collect();
    fs::write(dir.join("t_vector"), body)?;
    Ok(())
}

/// Writes a batch of parameterizations as `c_matrix` / `MX_0` files.
///
/// Members lacking an override inherit the model's baked values, so the
/// written rows are always fully resolved.
///
/// # Errors
///
/// [`RbmError::ParameterizationMismatch`] for badly sized overrides, plus
/// filesystem errors.
pub fn write_parameterizations(
    model: &ReactionBasedModel,
    batch: &[Parameterization],
    dir: &Path,
) -> Result<(), RbmError> {
    fs::create_dir_all(dir)?;
    let mut cmat = String::new();
    let mut mx0 = String::new();
    for p in batch {
        let (x0, k) = p.resolve(model)?;
        cmat.push_str(&(k.iter().map(|v| format!("{v:e}")).collect::<Vec<_>>().join("\t") + "\n"));
        mx0.push_str(&(x0.iter().map(|v| format!("{v:e}")).collect::<Vec<_>>().join("\t") + "\n"));
    }
    fs::write(dir.join("c_matrix"), cmat)?;
    fs::write(dir.join("MX_0"), mx0)?;
    Ok(())
}

/// Reads a model from a BioSimWare directory.
///
/// # Errors
///
/// [`RbmError::Io`] for missing files and [`RbmError::Parse`] for malformed
/// contents (ragged matrices, non-numeric entries, row-count mismatches).
pub fn read_dir(dir: &Path) -> Result<ReactionBasedModel, RbmError> {
    let alphabet = fs::read_to_string(dir.join("alphabet"))?;
    let names: Vec<&str> = alphabet.split_whitespace().collect();
    let n = names.len();
    if n == 0 {
        return Err(parse_err("alphabet", "no species names found"));
    }

    let m0 = fs::read_to_string(dir.join("M_0"))?;
    let m0 = parse_row(&m0, ascii_separated(&m0), "M_0")?;
    if m0.len() != n {
        return Err(parse_err(
            "M_0",
            &format!("expected {n} initial concentrations, found {}", m0.len()),
        ));
    }

    let left = parse_matrix(&fs::read_to_string(dir.join("left_side"))?, n, "left_side")?;
    let right = parse_matrix(&fs::read_to_string(dir.join("right_side"))?, n, "right_side")?;
    if left.len() != right.len() {
        return Err(parse_err(
            "right_side",
            &format!("{} rows but left_side has {}", right.len(), left.len()),
        ));
    }
    let cvec = parse_column(&fs::read_to_string(dir.join("c_vector"))?, "c_vector")?;
    if cvec.len() != left.len() {
        return Err(parse_err(
            "c_vector",
            &format!("{} constants but {} reactions", cvec.len(), left.len()),
        ));
    }

    let mut model = ReactionBasedModel::with_capacity(n, left.len());
    for (name, &x0) in names.iter().zip(m0.iter()) {
        model.add_species_checked(*name, x0)?;
    }
    for ((lrow, rrow), &k) in left.iter().zip(right.iter()).zip(cvec.iter()) {
        let reactants = row_to_side(lrow);
        let products = row_to_side(rrow);
        model.add_reaction(Reaction::mass_action(&reactants, &products, k))?;
    }
    Ok(model)
}

/// Reads the optional `t_vector` file.
///
/// # Errors
///
/// [`RbmError::Io`] if absent, [`RbmError::Parse`] if malformed.
pub fn read_time_points(dir: &Path) -> Result<Vec<f64>, RbmError> {
    parse_column(&fs::read_to_string(dir.join("t_vector"))?, "t_vector")
}

/// Reads the optional `c_matrix` / `MX_0` pair into a parameterization
/// batch. Either file may be absent; present files must agree on row count.
///
/// # Errors
///
/// [`RbmError::Parse`] for size mismatches against the model or between the
/// two files.
pub fn read_parameterizations(
    model: &ReactionBasedModel,
    dir: &Path,
) -> Result<Vec<Parameterization>, RbmError> {
    let cmat = match fs::read_to_string(dir.join("c_matrix")) {
        Ok(s) => Some(parse_matrix(&s, model.n_reactions(), "c_matrix")?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };
    let mx0 = match fs::read_to_string(dir.join("MX_0")) {
        Ok(s) => Some(parse_matrix(&s, model.n_species(), "MX_0")?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };
    let rows = match (&cmat, &mx0) {
        (Some(c), Some(x)) => {
            if c.len() != x.len() {
                return Err(parse_err(
                    "MX_0",
                    &format!("{} rows but c_matrix has {}", x.len(), c.len()),
                ));
            }
            c.len()
        }
        (Some(c), None) => c.len(),
        (None, Some(x)) => x.len(),
        (None, None) => 0,
    };
    Ok((0..rows)
        .map(|i| Parameterization {
            rate_constants: cmat.as_ref().map(|c| c[i].clone()),
            initial_state: mx0.as_ref().map(|x| x[i].clone()),
        })
        .collect())
}

fn side_row(side: &[(usize, u32)], n: usize) -> String {
    let mut row = vec![0u32; n];
    for &(s, c) in side {
        row[s] = c;
    }
    row.iter().map(|c| c.to_string()).collect::<Vec<_>>().join("\t") + "\n"
}

fn row_to_side(row: &[f64]) -> Vec<(SpeciesId, u32)> {
    row.iter()
        .enumerate()
        .filter(|&(_, &c)| c != 0.0)
        .map(|(s, &c)| (SpeciesId::from_index(s), c as u32))
        .collect()
}

fn parse_err(context: &str, message: &str) -> RbmError {
    RbmError::Parse { context: context.to_string(), message: message.to_string() }
}

/// Whether `text` separates its tokens by ASCII whitespace only, so that
/// `split_ascii_whitespace` yields exactly the tokens `split_whitespace`
/// does: ASCII text without U+000B, the one ASCII character that is
/// Unicode white space but not ASCII whitespace. Every file the writers
/// produce qualifies.
fn ascii_separated(text: &str) -> bool {
    text.is_ascii() && !text.as_bytes().contains(&0x0B)
}

/// Parses the whitespace-separated numbers of `text`; `ascii` (from
/// [`ascii_separated`] over the whole file) picks the faster ASCII split.
fn parse_row(text: &str, ascii: bool, context: &str) -> Result<Vec<f64>, RbmError> {
    let parse = |tok: &str| {
        tok.parse::<f64>().map_err(|_| parse_err(context, &format!("bad number {tok:?}")))
    };
    if ascii {
        text.split_ascii_whitespace().map(parse).collect()
    } else {
        text.split_whitespace().map(parse).collect()
    }
}

fn parse_column(text: &str, context: &str) -> Result<Vec<f64>, RbmError> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| l.parse::<f64>().map_err(|_| parse_err(context, &format!("bad number {l:?}"))))
        .collect()
}

fn parse_matrix(text: &str, cols: usize, context: &str) -> Result<Vec<Vec<f64>>, RbmError> {
    let ascii = ascii_separated(text);
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row = parse_row(line, ascii, context)?;
        if row.len() != cols {
            return Err(parse_err(
                context,
                &format!("row {i} has {} entries, expected {cols}", row.len()),
            ));
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbgen::SbGen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("paraspace_bsw_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn roundtrip_preserves_model() {
        let mut rng = StdRng::seed_from_u64(21);
        let model = SbGen::new(12, 17).generate(&mut rng);
        let dir = tmpdir("roundtrip");
        write_dir(&model, &dir).unwrap();
        let back = read_dir(&dir).unwrap();
        assert_eq!(back.n_species(), model.n_species());
        assert_eq!(back.n_reactions(), model.n_reactions());
        for (a, b) in model.species().iter().zip(back.species()) {
            assert_eq!(a.name, b.name);
            assert!((a.initial_concentration - b.initial_concentration).abs() < 1e-15);
        }
        for (a, b) in model.reactions().iter().zip(back.reactions()) {
            assert_eq!(a.reactants(), b.reactants());
            assert_eq!(a.products(), b.products());
            assert!((a.rate_constant() - b.rate_constant()).abs() < 1e-20);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn time_points_roundtrip() {
        let dir = tmpdir("tvec");
        write_time_points(&[0.0, 0.5, 1.0, 10.0], &dir).unwrap();
        assert_eq!(read_time_points(&dir).unwrap(), vec![0.0, 0.5, 1.0, 10.0]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parameterization_batch_roundtrip() {
        let mut rng = StdRng::seed_from_u64(22);
        let model = SbGen::new(5, 4).generate(&mut rng);
        let batch = crate::perturbed_batch(&model, 6, &mut rng);
        let dir = tmpdir("batch");
        write_parameterizations(&model, &batch, &dir).unwrap();
        let back = read_parameterizations(&model, &dir).unwrap();
        assert_eq!(back.len(), 6);
        for (orig, got) in batch.iter().zip(&back) {
            let (x0_a, k_a) = orig.resolve(&model).unwrap();
            let (x0_b, k_b) = got.resolve(&model).unwrap();
            for (p, q) in k_a.iter().zip(&k_b) {
                assert!((p - q).abs() < 1e-12 * p.abs().max(1e-300));
            }
            assert_eq!(x0_a.len(), x0_b.len());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unicode_separators_parse_as_their_ascii_twin() {
        let ascii = "1.5\t0 2e-3\n\n  4 5\t6\n";
        let twins =
            ["1.5\u{a0}0\u{2003}2e-3\n\n\u{2003} 4 5\u{a0}6\n", "1.5\u{b}0 2e-3\n\n  4\u{b}5\t6\n"];
        let want = parse_matrix(ascii, 3, "c_matrix").unwrap();
        assert!(ascii_separated(ascii));
        for twin in twins {
            assert!(!ascii_separated(twin), "{twin:?}");
            assert_eq!(parse_matrix(twin, 3, "c_matrix").unwrap(), want, "{twin:?}");
        }
        assert_eq!(
            parse_row("7\u{a0}8", false, "M_0").unwrap(),
            parse_row("7 8", true, "M_0").unwrap()
        );
    }

    #[test]
    fn missing_directory_is_io_error() {
        let err = read_dir(Path::new("/nonexistent/paraspace")).unwrap_err();
        assert!(matches!(err, RbmError::Io { .. }));
    }

    #[test]
    fn ragged_matrix_is_parse_error() {
        let dir = tmpdir("ragged");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("alphabet"), "A\tB\n").unwrap();
        fs::write(dir.join("M_0"), "1.0\t0.0\n").unwrap();
        fs::write(dir.join("left_side"), "1\t0\n1\n").unwrap();
        fs::write(dir.join("right_side"), "0\t1\n0\t1\n").unwrap();
        fs::write(dir.join("c_vector"), "1.0\n2.0\n").unwrap();
        let err = read_dir(&dir).unwrap_err();
        assert!(matches!(err, RbmError::Parse { .. }), "got {err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_constant_count_is_parse_error() {
        let dir = tmpdir("cvec");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("alphabet"), "A\n").unwrap();
        fs::write(dir.join("M_0"), "1.0\n").unwrap();
        fs::write(dir.join("left_side"), "1\n").unwrap();
        fs::write(dir.join("right_side"), "0\n").unwrap();
        fs::write(dir.join("c_vector"), "1.0\n2.0\n").unwrap();
        let err = read_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("c_vector"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_numeric_entry_is_parse_error() {
        let dir = tmpdir("nan");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("alphabet"), "A\n").unwrap();
        fs::write(dir.join("M_0"), "banana\n").unwrap();
        let err = read_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("banana"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_parameterization_dir_yields_empty_batch() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = SbGen::new(3, 3).generate(&mut rng);
        let dir = tmpdir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert!(read_parameterizations(&model, &dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_batch_rows_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = SbGen::new(2, 2).generate(&mut rng);
        let dir = tmpdir("mismatch");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("c_matrix"), "1.0\t2.0\n3.0\t4.0\n").unwrap();
        fs::write(dir.join("MX_0"), "1.0\t1.0\n").unwrap();
        assert!(read_parameterizations(&model, &dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
