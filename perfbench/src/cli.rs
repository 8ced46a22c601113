//! Running the release `prs` binary for the CLI parity checks.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// A scratch directory for one run's CLI input files, removed on drop.
pub struct IoDir(PathBuf);

impl IoDir {
    pub fn new(root: &Path, workload: &str) -> Result<Self, String> {
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(IoDir(dir))
    }

    pub fn write(&self, name: &str, text: &str) -> Result<PathBuf, String> {
        let path = self.0.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for IoDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `prs` to completion: its standard output and wall time in seconds.
pub fn run_prs<S: AsRef<OsStr>>(prs: &Path, args: &[S]) -> Result<(String, f64), String> {
    let start = Instant::now();
    let out = Command::new(prs)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", prs.display()))?;
    let seconds = start.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "prs exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), seconds))
}
