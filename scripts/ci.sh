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

# The static determinism gates live in clippy.toml (wall clock, threads,
# processes, environment reads, std hash containers) and apply to every
# target. The panic family, and the rule that a lint is silenced only by a
# reasoned `#[expect]`, apply to lib and bin targets: integration tests,
# examples and `#[cfg(test)]` code may panic. A stale `#[expect]` or an
# unknown lint fails `-D warnings` on both legs.
LIB_LINTS=(
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
    -D clippy::unreachable -D clippy::todo
    -D clippy::allow_attributes -D clippy::allow_attributes_without_reason
)

echo "== cargo clippy --workspace --all-targets (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo clippy --workspace --lib --bins (-D warnings, the panic family) =="
cargo clippy --offline --workspace --lib --bins -- -D warnings "${LIB_LINTS[@]}"

echo "== clippy rejects every planted violation (tests/clippy_fixture) =="
# One bin per case. A `//! rejected by: <codes>` case must fail with
# exactly those diagnostic codes; an `//! accepted` case must pass clean.
fixture=tests/clippy_fixture
out=target/clippy-fixture/case.json
mkdir -p target/clippy-fixture
for case in "$fixture"/src/bin/*.rs; do
    name=$(basename "$case" .rs)
    grep -q '^//! \(rejected by:\|accepted\)' "$case" || {
        echo "clippy fixture $name: no '//! rejected by:' or '//! accepted' header" >&2
        exit 1
    }
    want=$(sed -n 's|^//! rejected by: ||p' "$case" | xargs -n1 | sort -u | xargs)
    status=0
    cargo clippy --offline -q --manifest-path "$fixture/Cargo.toml" \
        --target-dir target/clippy-fixture --bin "$name" --message-format=json \
        -- -D warnings "${LIB_LINTS[@]}" >"$out" 2>/dev/null || status=$?
    got=$({ grep -o '"code":{"code":"[^"]*"' "$out" || true; } | cut -d'"' -f6 | sort -u | xargs)
    if [ "$got" != "$want" ] || [ $((status != 0)) -ne $((${#want} != 0)) ]; then
        echo "clippy fixture $name: exit $status, codes [$got], expected [$want]" >&2
        exit 1
    fi
done

echo "== cargo build --examples =="
# Examples are the documented entry points; drift fails the gate.
cargo build --offline --examples

echo "== run every example (release) =="
# Each drives the public API end to end (~4.5 s together) and exits
# non-zero on a wrong outcome; pagerank_pregel is the one non-GNN
# vertex program outside the tests.
for example in examples/*.rs; do
    cargo run --offline --release -q --example "$(basename "$example" .rs)" >/dev/null
done

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

echo "== scripts/loc.sh --files HEAD (the line counter runs) =="
# Every CHANGES.md entry cites its counts; a counter that parses but
# fails on the tree fails here.
scripts/loc.sh --files HEAD >/dev/null

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
