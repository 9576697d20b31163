//! The **only** sanctioned process-spawn site in the workspace.
//!
//! Worker children are our own `itworker` binary, speaking the half-duplex
//! frame protocol of [`super::frame`] over stdin/stdout (stderr passes
//! through for diagnostics). Everything that touches `std::process` lives
//! here so itlint's `raw-spawn` rule can pin process creation to this one
//! module the way thread creation is pinned to `common::par`.

use inferturbo_common::{Error, Result};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// One live worker child with its pipe endpoints. Dropping the handle
/// kills and reaps the child — a handle is only dropped on pool teardown
/// or after a pipe error, and a wedged child must never outlive either.
pub(super) struct WorkerHandle {
    child: Child,
    pub(super) stdin: ChildStdin,
    pub(super) stdout: BufReader<ChildStdout>,
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn one worker child from `bin`, pipes attached.
pub(super) fn spawn_worker(bin: &Path) -> Result<WorkerHandle> {
    let mut child = Command::new(bin)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| {
            Error::Io(format!(
                "failed to spawn transport worker {}: {e}",
                bin.display()
            ))
        })?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take();
    match (stdin, stdout) {
        (Some(stdin), Some(stdout)) => Ok(WorkerHandle {
            child,
            stdin,
            stdout: BufReader::new(stdout),
        }),
        _ => Err(Error::Internal(
            "spawned transport worker is missing a pipe endpoint".into(),
        )),
    }
}

/// Explicit worker-binary override (`INFERTURBO_WORKER_BIN`), for callers
/// whose executable layout defeats the `target/<profile>/` heuristic. A
/// deployment setting — it names a path, never changes what a run computes.
pub(super) fn worker_bin_override() -> Option<PathBuf> {
    std::env::var("INFERTURBO_WORKER_BIN")
        .ok()
        .filter(|v| !v.trim().is_empty())
        .map(PathBuf::from)
}

/// Locate the `itworker` binary next to the current executable. Test and
/// bench executables live in `target/<profile>/deps/`, the workspace's
/// bins one level up — try both. `None` when the executable path cannot
/// be resolved or no candidate exists.
pub(super) fn default_worker_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let name = format!("itworker{}", std::env::consts::EXE_SUFFIX);
    let candidate = dir.join(name);
    candidate.exists().then_some(candidate)
}
