#!/usr/bin/env bash
# The benchmark's one command. Builds `itbench` and `itworker` from source
# (always --offline), then either
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object (this is how the driver calls it), or
#
#   benchmark/run.sh [--seed S] [--threads T] [--seconds S] [--smoke]
#       every workload in its own process with tracing off, then the traced
#       pass, printing every metric by name with its unit, checking outputs,
#       and writing <target>/itbench/result.jsonl, or
#
#   benchmark/run.sh --self-check [--pairs N] [--seed S] [--smoke]
#       the untraced set N times per side (default 1), sides alternating, on
#       the same build, then `itbench compare` on the two.
#
# Exits non-zero if a build fails, an output check or engagement assert
# fails, or --self-check finds a row worse. Everything it writes is under
# the cargo target directory (CARGO_TARGET_DIR, else ./target).
set -euo pipefail
cd "$(dirname "$0")/.."

# Nothing ambient may change what is measured: every knob is an argument.
unset INFERTURBO_THREADS INFERTURBO_FAULTS INFERTURBO_TRACE \
      INFERTURBO_TRANSPORT INFERTURBO_WORKER_BIN INFERTURBO_OVERLOAD

# One target directory for both builds below (the benchmark package would
# otherwise build into benchmark/target): itbench looks for itworker next
# to itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
out="$target/itbench"
workloads=(pregel_sage_inhub pregel_gat_outhub mapreduce_sage_inhub
           pregel_sage_xproc_spill serve_open_loop)

single=0 self_check=0 pairs=1
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload|--trace) single=1; pass+=("$1" "$2"); shift 2 ;;
        --seed|--seconds|--threads) pass+=("$1" "$2"); shift 2 ;;
        --smoke) pass+=("$1"); shift ;;
        --self-check) self_check=1; shift ;;
        --pairs) pairs="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Cargo reports on standard error; standard output stays the benchmark's.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
# The process transport's worker child: the repository's own binary,
# built into the same directory as itbench, where itbench looks for it.
cargo build --release --offline -p inferturbo-cluster --bin itworker >&2
bin="$target/release/itbench"
mkdir -p "$out"

if [ "$single" = 1 ]; then
    exec "$bin" run --out-dir "$out" ${pass[@]+"${pass[@]}"}
fi

# One process per workload, so peak memory is attributable.
run_set() { # <record file> <trace>
    local status=0
    for w in "${workloads[@]}"; do
        "$bin" run --workload "$w" --trace "$2" --out-dir "$out" \
            --record "$1" ${pass[@]+"${pass[@]}"} >/dev/null || status=1
    done
    return $status
}

if [ "$self_check" = 1 ]; then
    rm -f "$out/self_a.jsonl" "$out/self_b.jsonl"
    status=0
    for i in $(seq 1 "$pairs"); do
        # Alternate which side runs first.
        if [ $((i % 2)) = 1 ]; then order=(a b); else order=(b a); fi
        for side in "${order[@]}"; do
            run_set "$out/self_$side.jsonl" 0 || status=1
        done
    done
    "$bin" compare "$out/self_a.jsonl" "$out/self_b.jsonl" || status=1
    exit $status
fi

rm -f "$out/result.jsonl"
status=0
run_set "$out/result.jsonl" 0 || status=1
run_set "$out/result.jsonl" 1 || status=1
echo "result: $out/result.jsonl (spans: $out/<workload>.spans.json)" >&2
if [ $status != 0 ]; then
    echo "run.sh: an output check or engagement assert FAILED" >&2
fi
exit $status
