//! Scratch directories that cannot outlive their owner.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A freshly created directory `<root>/<prefix>-<pid>-<n>`, removed with
/// everything in it when the value is dropped — on success, on an early
/// `?` return and while unwinding alike. The process id and `n`, a
/// process-wide counter, keep any two owners on different paths.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates the directory under `root` (the system temp directory when
    /// `None`). The root itself is never removed.
    pub fn new(root: Option<&Path>, prefix: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "{prefix}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        match root {
            Some(root) => Self::named(root, &name),
            None => Self::named(&std::env::temp_dir(), &name),
        }
    }

    /// Creates `<root>/<name>` for an owner that alone names entries under
    /// `root` (itself a scratch directory), so the path is the same for
    /// every owner in turn.
    pub fn named(root: &Path, name: &str) -> std::io::Result<Self> {
        let path = root.join(name);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Drop cannot report; a directory that cannot be removed costs
        // disk, not correctness.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new(None, "gx-scratch-test").unwrap();
        let b = ScratchDir::new(None, "gx-scratch-test").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("spill"), b"x").unwrap();
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        assert!(!pa.exists());
        assert!(pb.is_dir(), "dropping one instance touched another");
    }

    #[test]
    fn removed_while_unwinding_and_the_root_is_kept() {
        let root = ScratchDir::new(None, "gx-scratch-root").unwrap();
        let inner = std::panic::catch_unwind(|| {
            let dir = ScratchDir::new(Some(root.path()), "run").unwrap();
            std::fs::write(dir.path().join("checkpoint"), b"x").unwrap();
            std::panic::panic_any(dir.path().to_path_buf());
        })
        .unwrap_err();
        let inner = inner.downcast_ref::<PathBuf>().unwrap();
        assert_eq!(inner.parent(), Some(root.path()));
        assert!(!inner.exists(), "a panic leaked the scratch directory");
        assert!(root.path().is_dir());
    }
}
