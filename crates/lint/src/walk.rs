//! Workspace file discovery: every `.rs` file the invariants govern, in a
//! deterministic (sorted) order.

use std::io;
use std::path::{Path, PathBuf};

/// Directories never linted:
/// * `target`, `.git` — build/VCS artifacts;
/// * `vendor` — offline shims that mimic *external* crates' APIs (they
///   intentionally use `std::collections::HashMap` etc. under foreign
///   names and carry their own conventions);
/// * `results` — generated output;
/// * `crates/lint/tests/fixtures` — sources with violations on purpose.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor", "results", "fixtures"];

/// Collects workspace-relative paths (with `/` separators) of every `.rs`
/// file under `root`, skipping [`SKIP_DIRS`].
pub fn rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    visit(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Every file of [`rust_files`] with its contents, as `(path, source)`.
pub fn sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for rel in rust_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(files)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            visit(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphalytics_graph::scratch::ScratchDir;

    #[test]
    fn skips_fixture_and_vendor_dirs() {
        let scratch = ScratchDir::new(None, "gx-lint-walk").unwrap();
        let dir = scratch.path();
        for sub in ["src", "vendor/fake/src", "tests/fixtures", "target/debug"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        std::fs::write(dir.join("src/lib.rs"), "").unwrap();
        std::fs::write(dir.join("vendor/fake/src/lib.rs"), "").unwrap();
        std::fs::write(dir.join("tests/fixtures/bad.rs"), "").unwrap();
        std::fs::write(dir.join("target/debug/junk.rs"), "").unwrap();
        let files = rust_files(dir).unwrap();
        assert_eq!(files, vec!["src/lib.rs"]);
    }
}
