//! `itlint` — offline static analysis for the InferTurbo workspace.
//!
//! # Static gates
//!
//! InferTurbo's spine is a pair of contracts no compiler checks:
//!
//! 1. **Determinism** — parallel == serial == batched == spilled ==
//!    recovered, bit-identical at every thread count. A single stray
//!    wall-clock read, unordered `HashMap` iteration, or ad-hoc thread can
//!    silently erode it long before a test catches the drift.
//! 2. **Panic-freedom** — library code surfaces typed
//!    [`Error`](../inferturbo_common/enum.Error.html) values; it never
//!    aborts the process. A serving fleet survives a poisoned request only
//!    if the failure is a value.
//!
//! Both were previously enforced only by after-the-fact tests. `itlint`
//! turns them into a fast, zero-dependency *static* gate that runs before
//! the test suite in `scripts/ci.sh`:
//!
//! ```text
//! cargo run -p inferturbo_lint --release -- --check
//! ```
//!
//! ## How it works
//!
//! A small surface lexer ([`lexer`]) blanks comments, strings, raw strings
//! and char literals (so patterns never match prose or literals), tracks
//! `#[cfg(test)]` / `mod tests` scopes (test code is exempt from every
//! rule), and harvests suppression comments. The rule engine ([`rules`])
//! tokenizes the sanitized text and matches per-rule token patterns over
//! every `src/` file of every workspace crate (dependency shims under
//! `crates/devshims/` stand in for external code and are skipped). Output
//! ([`report`]) is deterministic — one `path:line: [rule] excerpt` line per
//! violation, sorted by `(file, line, rule)`, byte-identical across runs.
//!
//! ## Rule catalogue
//!
//! | id | what it flags | sanctioned scope |
//! |----|---------------|------------------|
//! | `wallclock` | `Instant::now`, `SystemTime`, `.elapsed()` | `crates/bench` owns timing |
//! | `panic-in-lib` | `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!` | test code only |
//! | `unordered-iter` | `.iter()`/`.keys()`/`.values()`/`.drain()`/… or `for … in` on a `HashMap`/`HashSet`-typed binding, in `pregel`/`serve`/`cluster`/`common` | sorted drains / `BTreeMap` |
//! | `raw-spawn` | `thread::{spawn,scope,Builder}`, `Command::new`, `process::Command` | `common/src/par.rs` owns threads, `cluster/src/transport/spawn.rs` owns worker processes |
//! | `env-read` | `env::{var,var_os,vars}` | `common/src/par.rs` (`INFERTURBO_THREADS`), `cluster/src/transport/spawn.rs` (`INFERTURBO_WORKER_BIN`) |
//! | `malformed-allow` | an `itlint::allow` comment that does not parse | — |
//!
//! ## Suppressing a finding
//!
//! Suppression is explicit and auditable, never configuration-wide:
//!
//! ```text
//! // itlint::allow(panic-in-lib): chunks_exact(8) guarantees 8-byte slices
//! let v = u64::from_le_bytes(c.try_into().unwrap());
//! ```
//!
//! A directive suppresses its rule on the same line (trailing comment) or
//! the immediately following line (standalone comment), and **must** carry a
//! non-empty reason; a typo'd or reason-less directive is itself reported
//! (`malformed-allow`), so suppressions cannot silently rot.
//!
//! A reasoned inline allow is the only exemption. `--check` fails on any
//! violation and prints each one as `path:line: [rule] excerpt`.
//!
//! ## Adding a rule
//!
//! 1. Add a [`rules::RuleDef`] with a stable id to [`rules::RULES`] and its
//!    token patterns in `rules::match_rules`.
//! 2. Scope it in [`config::rule_applies`] (include/exempt path prefixes).
//! 3. Add a fixture under `crates/lint/tests/fixtures/` plus a case in
//!    `crates/lint/tests/lint_fixtures.rs`.
//! 4. Run `itlint --check`, then fix the hits or give each a reasoned inline
//!    allow.
//!
//! A second, coarser layer rides on clippy: the workspace `clippy.toml`
//! disallows `std::time::Instant::now` and `std::thread::spawn` via
//! `disallowed-methods` (with `crates/bench/clippy.toml` overriding for the
//! sanctioned timing owner), so even patterns itlint's lexical view could
//! miss behind a `use` alias are caught at type-resolution depth.

#![forbid(unsafe_code)]

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::Path;

/// Scan the workspace rooted at `root`; returns all current violations in
/// canonical order. I/O failures carry the offending path.
pub fn scan_workspace(root: &Path) -> Result<Vec<report::Violation>, String> {
    let files =
        config::scan_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut violations = Vec::new();
    for (rel, abs) in &files {
        let src =
            std::fs::read_to_string(abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        violations.extend(rules::scan_file(rel, &src));
    }
    report::sort(&mut violations);
    Ok(violations)
}
