#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints (deny warnings), the full test suite,
# and a smoke run of `itbench` (the repo's benchmark, benchmark/) so every
# workload — both engines, the process transport under a forced spill
# budget, serve throughput and the overload spike — is exercised
# end-to-end on every run. Every cargo call is --offline: crates.io is
# unreachable and the external deps are shims under crates/devshims.
#
# `cargo test` with no package flag covers the workspace's
# `default-members`: the root package and every library / bin crate.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== itlint --check (static gates, any violation fails) =="
# Workspace determinism/panic-freedom gates (crates/lint): wall-clock
# reads, panics in library paths, hash-order iteration, ad-hoc threads,
# env reads. Fails on any violation; the one exemption is a reasoned
# inline `itlint::allow(rule): reason` comment at the site.
cargo run --offline -p inferturbo_lint --release --quiet -- --check

echo "== cargo clippy --workspace --all-targets (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --examples =="
# Examples are the documented entry points; drift fails the gate.
cargo build --offline --examples

echo "== cargo doc --workspace --no-deps (warnings denied) =="
# Broken intra-doc links and malformed rustdoc fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

echo "== cargo test =="
# Includes tests/scenario_sweep.rs: every engine and serve knob composed at
# once (faults x recovery x process transport x spill x threads x trace x
# overload), each passed explicitly — the library reads no ambient
# configuration, so one run of the suite is the whole matrix.
cargo test --offline -q

echo "== experiments --quick fig12 fig13 (the paper's out-hub figures) =="
# The broadcast and shadow-node threshold sweeps on an out-skew graph
# (~1.3 s together): the paper harness driving hub refs and mirror bytes.
for fig in fig12 fig13; do
    cargo run --offline --release -q -p inferturbo-bench --bin experiments -- --quick "$fig" >/dev/null
done

echo "== bash -n scripts/{ab,profile,loc}.sh (the paired runner, the profiler and the line counter parse) =="
bash -n scripts/ab.sh
bash -n scripts/profile.sh
bash -n scripts/loc.sh

echo "== itbench unit tests =="
# The benchmark is a package of its own (benchmark/Cargo.toml, empty
# [workspace]), so the workspace legs above never compile it.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== benchmark/run.sh --smoke (output checks + engagement asserts) =="
# Every workload on tiny graphs, untraced then traced. The command fails
# if a workload's logits stop matching the reference, or a mechanism a
# workload exists to exercise (hubs, mirrors, spill, the process
# transport, the overload path) does not engage.
benchmark/run.sh --smoke >/dev/null

echo "CI OK"
