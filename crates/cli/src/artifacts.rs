//! The per-member artifact files of a campaign: `simulate`'s
//! `dynamics_NNNNN` and `ensemble`'s `replicate_NNNNN`, each `.tsv` for a
//! trajectory and `.err` for a failure report.
//!
//! A campaign's `--out` may hold an earlier campaign's files. What it holds
//! afterwards is this campaign's members and nothing else of that kind, as
//! if it had run into a fresh directory. Files this campaign writes too are
//! overwritten in place: deleting and re-creating every one of them made a
//! rerun into a used directory an order of magnitude slower than a run into
//! a fresh one. Only the stale ones are removed: indices past the batch,
//! names no member is written under, and the `.tsv` of a member that now
//! fails (or the `.err` of one that now succeeds). On a fresh directory a
//! file costs what a plain write costs.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Writes `body` as the contents of the file at `path`, over the bytes of a
/// file already there: they are overwritten and the file is cut to length
/// afterwards, so a rerun whose files come out the same size (most of them)
/// never frees and reallocates their blocks, as truncating first would.
pub(crate) fn overwrite(path: &Path, body: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file =
        std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
    file.write_all(body)?;
    file.set_len(body.len() as u64)
}

/// The writer of one campaign's `members` member artifacts named
/// `{prefix}NNNNN` in `out_path`. Members may be written in any order and
/// from several threads.
pub(crate) struct MemberFiles {
    out_path: PathBuf,
    prefix: &'static str,
    members: usize,
    /// The files of this kind `out_path` held when the first member was
    /// written, once the stale ones among them are gone (the error text
    /// when listing or removing failed).
    found: OnceLock<Result<BTreeSet<String>, String>>,
}

impl MemberFiles {
    pub(crate) fn new(out_path: PathBuf, prefix: &'static str, members: usize) -> Self {
        MemberFiles { out_path, prefix, members, found: OnceLock::new() }
    }

    /// The directory the files are written to.
    pub(crate) fn out_path(&self) -> &Path {
        &self.out_path
    }

    /// The name member `index` is written under.
    fn name(&self, index: usize, ok: bool) -> String {
        format!("{}{index:05}.{}", self.prefix, if ok { "tsv" } else { "err" })
    }

    /// Writes the file of member `index`, and removes the file the member
    /// had under the other extension.
    pub(crate) fn put(&self, index: usize, ok: bool, body: &[u8]) -> std::io::Result<()> {
        let found = self.prune()?;
        let (name, flipped) = (self.name(index, ok), self.name(index, !ok));
        if found.contains(&flipped) {
            std::fs::remove_file(self.out_path.join(flipped))?;
        }
        let path = self.out_path.join(&name);
        if found.contains(&name) {
            overwrite(&path, body)
        } else {
            std::fs::write(path, body)
        }
    }

    /// Lists the directory's files of this kind once, on the first call,
    /// and removes those no member of this campaign is written under. A
    /// campaign that writes no member calls it to replace the last one all
    /// the same; one that fails before its first write leaves them.
    pub(crate) fn prune(&self) -> std::io::Result<&BTreeSet<String>> {
        let found = self.found.get_or_init(|| self.list_and_prune().map_err(|e| e.to_string()));
        found.as_ref().map_err(|e| std::io::Error::other(e.clone()))
    }

    fn list_and_prune(&self) -> std::io::Result<BTreeSet<String>> {
        let mut found = BTreeSet::new();
        for entry in std::fs::read_dir(&self.out_path)? {
            let entry = entry?;
            let Some(name) = entry.file_name().to_str().map(str::to_string) else { continue };
            let Some(index) = self.index(&name) else { continue };
            let kept = name == self.name(index, true) || name == self.name(index, false);
            if index < self.members && kept {
                found.insert(name);
            } else {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(found)
    }

    /// The member index of a file of this kind — `{prefix}`, digits, then
    /// `.tsv` or `.err` — or `usize::MAX` for one no index fits, `None` for
    /// any other file.
    fn index(&self, name: &str) -> Option<usize> {
        let rest = name.strip_prefix(self.prefix)?;
        let digits = rest.strip_suffix(".tsv").or_else(|| rest.strip_suffix(".err"))?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        Some(digits.parse().unwrap_or(usize::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reused_directory_keeps_exactly_the_new_members() {
        let dir =
            std::env::temp_dir().join(format!("paraspace_member_files_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "dynamics_00000.tsv", // overwritten, shorter
            "dynamics_00001.tsv", // flips to `.err`
            "dynamics_00002.err", // flips to `.tsv`
            "dynamics_00003.tsv", // past the batch
            "dynamics_2.tsv",     // no member's name
            "dynamics_99999999999999999999999.err",
            "dynamics_notes.tsv", // not a member artifact
            "replicate_00000.tsv",
        ] {
            std::fs::write(dir.join(name), "an earlier campaign's bytes").unwrap();
        }
        let files = MemberFiles::new(dir.clone(), "dynamics_", 3);
        files.put(1, false, b"err 1").unwrap();
        files.put(0, true, b"tsv 0").unwrap();
        files.put(2, true, b"tsv 2").unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let expected = [
            "dynamics_00000.tsv",
            "dynamics_00001.err",
            "dynamics_00002.tsv",
            "dynamics_notes.tsv",
            "replicate_00000.tsv",
        ];
        assert_eq!(names, expected);
        assert_eq!(std::fs::read(dir.join("dynamics_00000.tsv")).unwrap(), b"tsv 0");
        // No member: the earlier campaign's members go all the same.
        MemberFiles::new(dir.clone(), "dynamics_", 0).prune().unwrap();
        assert!(!dir.join("dynamics_00000.tsv").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
