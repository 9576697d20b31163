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

echo "== itlint --check (static gates vs lint/baseline.toml) =="
# Workspace determinism/panic-freedom gates (crates/lint): wall-clock
# reads, panics in library paths, hash-order iteration, ad-hoc threads,
# env reads. Fails on any violation above the committed ratcheting
# baseline; burn debt with `itlint --write-baseline` after fixing.
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
cargo test --offline -q

echo "== cargo test (forced fault schedule) =="
# Re-runs the whole suite with a worker loss injected at superstep 1 of
# every 2+-worker Pregel run. Env auto-arming (FaultPlan::from_env +
# RecoveryPolicy::default) turns every engine test into a
# checkpoint/recovery gate; tests that set an explicit fault schedule or
# recovery policy are immune by design.
INFERTURBO_FAULTS=worker:1@step:1 cargo test --offline -q

echo "== engine + determinism tests (spawned-worker-process transport) =="
# Re-runs the engine determinism suites with the shuffle transport forced
# to the spawned-worker-process backend (both engines default their
# transport from INFERTURBO_TRANSPORT). Every inter-superstep/inter-round
# exchange crosses a real process boundary over pipes; logits and traces
# must stay bit-identical to the in-process default. The `itworker` child
# binary was built by the workspace test legs above; tests that pin a
# transport explicitly (e.g. transport_equivalence) are immune by design.
# property_invariants and session_plan are the suites here that build GAT
# sessions, so attention's unreduced `out_dim`-wide union rows cross a
# real pipe on every gate; layout_routes holds the routed scatter to its
# serial oracle with every default-transport plan on the pipes too.
INFERTURBO_TRANSPORT=process cargo test --offline -q \
    --test parallel_matches_serial --test columnar_fused \
    --test end_to_end --test failure_injection \
    --test property_invariants --test session_plan \
    --test layout_routes

echo "== serving tests (forced overload knobs) =="
# Re-runs the serving suite with an aggressive Degrade-policy rate limit
# and deadline clamp armed into every default-constructed ServeConfig
# (ServeConfig::default reads INFERTURBO_OVERLOAD). Untenanted requests
# bypass the limiter and the clamp only tightens deadlines a request
# already carries, so the knob is inert for existing traffic — the leg
# proves the overload plane can be armed fleet-wide without perturbing a
# single served answer. Tests that pin rate_limit/deadline_clamp
# explicitly are immune by design.
INFERTURBO_OVERLOAD=bucket:1,refill:1,deadline:1 \
    cargo test --offline -q --test serving

echo "== serving + trace tests (flight recorder armed) =="
# Re-runs the serving and trace-determinism suites with the flight
# recorder armed fleet-wide (SessionBuilder / ServeConfig defaults read
# INFERTURBO_TRACE via the sanctioned crates/obs arming hook). Recording
# every superstep, round and ticket lifecycle must not perturb a single
# served answer; tests that pass an explicit TraceHandle are unaffected
# by design.
INFERTURBO_TRACE=1 cargo test --offline -q --test serving --test trace_determinism

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
