//! The **only** sanctioned process-spawn site in the workspace.
//!
//! Worker children are our own `itworker` binary, speaking the half-duplex
//! frame protocol of [`super::frame`] over one Unix socket pair: the
//! child's end is both its stdin and its stdout (stderr passes through for
//! diagnostics). A socket moves a multi-megabyte frame in far fewer
//! wakeups than a 64 KiB pipe. This makes the process transport Unix-only,
//! as the workspace is built and tested on Linux only. Everything that
//! touches `std::process` lives here: clippy.toml disallows
//! `std::process::Command` everywhere else, pinning process creation to
//! this one module the way thread creation is pinned to `common::par`.

use inferturbo_common::{Error, Result};
use std::io::BufReader;
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
#[expect(
    clippy::disallowed_types,
    reason = "the sanctioned process-spawn module"
)]
use std::process::{Child, Command, Stdio};

/// One live worker child with the parent's end of its socket: `writer`
/// for requests, a clone of it behind `reader` for responses. Dropping
/// the handle kills and reaps the child — a handle is only dropped on pool
/// teardown or after a stream error, and a wedged child must never outlive
/// either.
pub(super) struct WorkerHandle {
    child: Child,
    pub(super) writer: UnixStream,
    pub(super) reader: BufReader<UnixStream>,
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn one worker child from `bin` on a fresh socket pair.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the sanctioned process-spawn site: worker children are our own itworker binary"
)]
pub(super) fn spawn_worker(bin: &Path) -> Result<WorkerHandle> {
    let spawn_err = |e: std::io::Error| {
        Error::Io(format!(
            "failed to spawn transport worker {}: {e}",
            bin.display()
        ))
    };
    let (parent, child_end) = UnixStream::pair().map_err(spawn_err)?;
    let child_in = OwnedFd::from(child_end.try_clone().map_err(spawn_err)?);
    // The `Command` and with it the child's end drop at the end of this
    // statement, so the parent holds no copy: a child that dies reads as
    // EOF, never as a hang.
    let child = Command::new(bin)
        .stdin(Stdio::from(child_in))
        .stdout(Stdio::from(OwnedFd::from(child_end)))
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(spawn_err)?;
    let reader = BufReader::new(parent.try_clone().map_err(spawn_err)?);
    Ok(WorkerHandle {
        child,
        writer: parent,
        reader,
    })
}

/// Explicit worker-binary override (`INFERTURBO_WORKER_BIN`), for callers
/// whose executable layout defeats the `target/<profile>/` heuristic. A
/// deployment setting — it names a path, never changes what a run computes.
#[expect(
    clippy::disallowed_methods,
    reason = "INFERTURBO_WORKER_BIN is a deployment setting: it names a path, never changes what a run computes"
)]
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
