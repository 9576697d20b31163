//! Helpers shared by the root integration suites (`mod common;`).

use std::path::PathBuf;

/// Locate the `itworker` child binary, building it on demand: root-level
/// integration tests do not get `CARGO_BIN_EXE_itworker` (that variable is
/// only set for the defining package's own tests), and a bare
/// `cargo test --test <suite>` does not build sibling bins.
pub fn worker_bin() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test exe path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join(format!("itworker{}", std::env::consts::EXE_SUFFIX));
    if !bin.exists() {
        let mut cmd = std::process::Command::new(env!("CARGO"));
        cmd.args(["build", "-p", "inferturbo-cluster", "--bin", "itworker"]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo to build itworker");
        assert!(status.success(), "building the itworker binary failed");
        assert!(
            bin.exists(),
            "cargo succeeded but {} is missing",
            bin.display()
        );
    }
    bin
}
