//! Workspace file discovery.
//!
//! The analyzer polices *library* source: the root `src/` tree plus
//! every `crates/*/src` tree except `crates/compat` (vendored
//! API-compatible subsets of external crates — not ours to lint).
//! Integration tests, benches, and examples are harness code and are
//! not scanned; `#[cfg(test)]` regions inside scanned files are
//! exempted by the region tracker instead.
//!
//! Discovery order is sorted, so diagnostics, JSONL output, and waiver
//! matching are byte-stable run over run — the analyzer holds itself
//! to the determinism bar it enforces.

use fault::{Error, Result};
use std::path::{Path, PathBuf};

/// All `.rs` files under the default lint roots of `root`, sorted.
pub(crate) fn workspace_files(root: &Path) -> Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = read_dir_sorted(&crates_dir)?;
        crate_dirs.retain(|p| p.is_dir() && p.file_name().map(|n| n != "compat").unwrap_or(false));
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();
    if files.is_empty() {
        // A bad --root (typo, wrong CI working directory) must not
        // masquerade as a clean run: "nothing to lint" is an error.
        return Err(Error::invalid(format!(
            "no Rust sources found under {} — expected src/ or crates/*/src; \
             is --root pointing at the workspace?",
            root.display()
        )));
    }
    Ok(files)
}

/// All `.rs` files under the workspace's *reference* roots, sorted:
/// integration tests, benches, and examples — the root `tests/`,
/// `benches/`, `examples/` trees plus each crate's (compat excluded,
/// mirroring [`workspace_files`]). Reference files are never linted,
/// but the `dead-pub-api` pass reads their identifier uses as
/// external-consumer evidence: an API a bench or integration test
/// exercises is alive. An empty result is fine here — a workspace
/// without tests is lint-worthy, not an I/O error.
pub(crate) fn reference_files(root: &Path) -> Result<Vec<PathBuf>> {
    const REF_DIRS: &[&str] = &["tests", "benches", "examples"];
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs = read_dir_sorted(&crates_dir)?;
        crate_dirs.retain(|p| p.is_dir() && p.file_name().map(|n| n != "compat").unwrap_or(false));
        roots.extend(crate_dirs);
    }
    for base in roots {
        for dir in REF_DIRS {
            let d = base.join(dir);
            if d.is_dir() {
                collect_rs(&d, &mut files)?;
            }
        }
    }
    // The analyzer's own fixture corpus is deliberate-violation test
    // data, not a real consumer of anything — its identifiers must not
    // keep workspace API alive.
    files.retain(|p| !p.components().any(|c| c.as_os_str() == "fixtures"));
    files.sort();
    Ok(files)
}

/// Recursively collect `.rs` files under `dir` (any order; caller sorts).
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<()> {
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(entry);
        }
    }
    Ok(())
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>> {
    let iter = std::fs::read_dir(dir).map_err(|e| Error::io(dir.display().to_string(), e))?;
    let mut entries = Vec::new();
    for entry in iter {
        let entry = entry.map_err(|e| Error::io(dir.display().to_string(), e))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}
