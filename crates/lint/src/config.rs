//! Workspace scanning scope and per-rule path scoping.
//!
//! All paths are workspace-relative with `/` separators (normalized at
//! discovery time), so scoping decisions — and therefore output — are
//! identical on every platform.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories whose `.rs` files are scanned: the umbrella crate's `src/`
/// and every workspace member's `src/`. Test dirs, benches and examples are
/// exempt by design (the contracts govern *library* code; tests enforce them
/// dynamically), as are the offline dependency shims, which stand in for
/// external crates.
const SKIP_PREFIXES: &[&str] = &["crates/devshims/"];

/// Sanctioned wall-clock owner: the bench harness measures real time.
const WALLCLOCK_EXEMPT: &[&str] = &["crates/bench/"];

/// Crates where hash-iteration order can leak into results or the wire.
const UNORDERED_SCOPE: &[&str] = &[
    "crates/pregel/",
    "crates/serve/",
    "crates/cluster/",
    "crates/common/",
];

/// The modules allowed to create concurrency: `inferturbo_common::par`
/// owns the fork-join substrate and the global `Parallelism` budget, and
/// `inferturbo_cluster::transport::spawn` owns the worker child processes
/// the process transport pipes shards through (the rule also matches
/// `Command::new` / `process::Command` — an ad-hoc subprocess is a thread
/// the budget cannot see).
const SPAWN_EXEMPT: &[&str] = &[
    "crates/common/src/par.rs",
    "crates/cluster/src/transport/spawn.rs",
];

/// Modules sanctioned to read the environment — the two deployment
/// settings, neither of which changes what a run computes: the
/// thread-budget resolver (`INFERTURBO_THREADS`) and the worker-binary
/// path override (`INFERTURBO_WORKER_BIN`). The library reads no other
/// ambient configuration; everything that shapes a run is an argument.
const ENV_EXEMPT: &[&str] = &[
    "crates/common/src/par.rs",
    "crates/cluster/src/transport/spawn.rs",
];

/// Does `rule` apply to the file at workspace-relative `rel_path`?
pub fn rule_applies(rule: &str, rel_path: &str) -> bool {
    if SKIP_PREFIXES.iter().any(|p| rel_path.starts_with(p)) {
        return false;
    }
    match rule {
        "wallclock" => !WALLCLOCK_EXEMPT.iter().any(|p| rel_path.starts_with(p)),
        "panic-in-lib" => true,
        "unordered-iter" => UNORDERED_SCOPE.iter().any(|p| rel_path.starts_with(p)),
        "raw-spawn" => !SPAWN_EXEMPT.contains(&rel_path),
        "env-read" => !ENV_EXEMPT.contains(&rel_path),
        "malformed-allow" => true,
        _ => false,
    }
}

/// Locate the workspace root: walk up from `start` to the first directory
/// holding a `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no workspace Cargo.toml found above the current directory",
            ));
        }
    }
}

/// Discover the files to scan, as sorted `(relative, absolute)` pairs.
/// Sorted relative paths make every downstream report byte-identical across
/// runs and platforms.
pub fn scan_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let p = entry?.path().join("src");
            if p.is_dir() {
                roots.push(p);
            }
        }
    }
    let mut out = Vec::new();
    for r in roots {
        collect_rs(&r, &mut out)?;
    }
    let mut pairs: Vec<(String, PathBuf)> = out
        .into_iter()
        .filter_map(|abs| {
            let rel = abs.strip_prefix(root).ok()?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
                None
            } else {
                Some((rel, abs))
            }
        })
        .collect();
    pairs.sort();
    pairs.dedup_by(|a, b| a.0 == b.0);
    Ok(pairs)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_matches_the_contract() {
        assert!(!rule_applies("wallclock", "crates/bench/src/table3.rs"));
        assert!(rule_applies("wallclock", "crates/pregel/src/engine.rs"));
        assert!(rule_applies("panic-in-lib", "crates/bench/src/table3.rs"));
        assert!(rule_applies("unordered-iter", "crates/serve/src/server.rs"));
        assert!(!rule_applies(
            "unordered-iter",
            "crates/tensor/src/matrix.rs"
        ));
        assert!(!rule_applies("raw-spawn", "crates/common/src/par.rs"));
        assert!(!rule_applies(
            "raw-spawn",
            "crates/cluster/src/transport/spawn.rs"
        ));
        assert!(rule_applies("raw-spawn", "crates/common/src/rows.rs"));
        assert!(rule_applies(
            "raw-spawn",
            "crates/cluster/src/transport/mod.rs"
        ));
        assert!(!rule_applies("env-read", "crates/common/src/par.rs"));
        assert!(!rule_applies(
            "env-read",
            "crates/cluster/src/transport/spawn.rs"
        ));
        for unsanctioned in [
            "crates/cluster/src/fault.rs",
            "crates/cluster/src/transport/env.rs",
            "crates/cluster/src/transport/frame.rs",
            "crates/obs/src/arm.rs",
            "crates/obs/src/sink.rs",
        ] {
            assert!(rule_applies("env-read", unsanctioned), "{unsanctioned}");
        }
        assert!(rule_applies("env-read", "crates/serve/src/server.rs"));
        assert!(!rule_applies(
            "panic-in-lib",
            "crates/devshims/proptest/src/lib.rs"
        ));
        assert!(!rule_applies("no-such-rule", "crates/common/src/lib.rs"));
    }
}
