//! Run environment: the per-run scratch directory and the machine facts
//! printed in the output header.

use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// Directory, relative to the working directory, under which each run
/// creates its own scratch directory.
pub const SCRATCH_ROOT: &str = ".bench_scratch";

/// A fresh directory owned by one run, removed (with its contents) on
/// drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Create a new, empty directory under `root`. The name comes from
    /// the clock plus a counter, and `create_dir` fails on an existing
    /// name, so two runs never share a directory.
    pub fn create(root: &Path) -> std::io::Result<Scratch> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let mut attempt = 0u32;
        loop {
            // Another run may remove the emptied root between these two
            // calls; that shows as NotFound, and the root is made again.
            std::fs::create_dir_all(root)?;
            let path = root.join(format!("run-{nanos:x}-{attempt}"));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(Scratch { path }),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => attempt += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory path (not created) for one store.
    pub fn child(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The shared root goes too once the last run has left it.
        if let Some(root) = self.path.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB of
/// 10^6 bytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else {
            total += meta.len();
        }
    }
    Ok(total)
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point).
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if abs.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cargo features the isobar libraries were built with.
pub fn build_features() -> String {
    let mut on = Vec::new();
    if isobar::telemetry::ENABLED {
        on.push("telemetry");
    }
    if isobar::trace::ENABLED {
        on.push("trace");
    }
    if on.is_empty() {
        "none".to_string()
    } else {
        on.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let root = Path::new(SCRATCH_ROOT);
        let a = Scratch::create(root).unwrap();
        let b = Scratch::create(root).unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        assert_eq!(dir_bytes(a.path()).unwrap(), 1);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        drop(b);
    }
}
