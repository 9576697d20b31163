#!/usr/bin/env bash
# Paired parent/change benchmark runs: the "ten alternating pairs" every
# perf PR reports, as one command. `benchmark/run.sh --self-check`
# alternates two sides of *one* build; this alternates two *trees*.
#
#   scripts/ab.sh <parent-tree> <change-tree> [--pairs N] [--seed S]
#                 [--seconds S] [--workload W] [--aa]
#
# Each tree is built by its own `benchmark/run.sh` into its own target
# directory (so each side is measured with the harness it shipped with),
# then the two `itbench` binaries run every workload — or only W —
# untraced, N times per side (default 10), the side that goes first
# alternating pair by pair. Records append to parent.jsonl / change.jsonl;
# the script ends in `itbench compare parent.jsonl change.jsonl` from the
# change tree and passes its exit status through (non-zero: a row WORSE,
# or a run failed its output checks).
#
# --aa adds the same-hour A/A floor: a third side, the parent build run
# again, joins every pair (order parent, change, aa, then aa, change,
# parent), its records append to aa.jsonl, and `itbench compare
# parent.jsonl aa.jsonl` is printed before the claim's compare. It only
# informs: the exit status is still the claim's.
#
# Everything is written under <CARGO_TARGET_DIR, else ./target>/ab; each
# run's own report (its metrics with spread, its output checks) goes to
# parent.log / change.log / aa.log there.
#
# The claim's compare table is also appended to the change tree's
# docs/perf/history.jsonl: one JSON line per workload and end-to-end
# metric, with the UTC date, both trees' revisions, seed, pairs, the two
# medians, the parent's IQR as a share of its median, wins and verdict.
# With --aa the A/A table goes there too, first, its lines tagged
# "side": "aa" (its "change" column is the parent's second side), so the
# claim's same-hour noise floor is kept beside it.
# Use a seed the change was not developed on.
set -euo pipefail

# As in run.sh: nothing ambient may change what is measured.
unset INFERTURBO_THREADS INFERTURBO_FAULTS INFERTURBO_TRACE \
      INFERTURBO_TRANSPORT INFERTURBO_WORKER_BIN INFERTURBO_OVERLOAD

usage() { sed -n '2,35p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 2 ] || usage
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
shift 2

pairs=10 only="" aa=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --aa) aa=1; shift ;;
        --workload) only="$2"; shift 2 ;;
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "ab.sh: unknown argument $1" >&2; usage ;;
    esac
done

out="${CARGO_TARGET_DIR:-target}/ab"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# Build through each tree's own run.sh: a one-second smoke run of one
# workload is the cheapest invocation that builds itbench and itworker.
bin_of() { echo "$out/$1-target/release/itbench"; }
build() { # <side> <tree>
    echo "ab.sh: building $1 ($2)" >&2
    CARGO_TARGET_DIR="$out/$1-target" bash "$2/benchmark/run.sh" \
        --workload pregel_sage_inhub --smoke --seconds 1 --trace 0 >/dev/null
}
build parent "$parent"
build change "$change"

if [ -n "$only" ]; then
    workloads=("$only")
else
    mapfile -t workloads < <("$(bin_of change)" manifest |
        sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p')
fi

rm -f "$out"/{parent,change,aa}.{jsonl,log}
status=0
for i in $(seq 1 "$pairs"); do
    # With --aa the change runs between the two parent sides.
    if [ $((i % 2)) = 1 ]; then order=(parent change); else order=(change parent); fi
    if [ "$aa" = 1 ]; then
        if [ $((i % 2)) = 1 ]; then order=(parent change aa); else order=(aa change parent); fi
    fi
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            build_side="$side"
            [ "$side" = aa ] && build_side=parent
            "$(bin_of "$build_side")" run --workload "$w" --trace 0 \
                --out-dir "$out/$side-out" --record "$out/$side.jsonl" \
                ${pass[@]+"${pass[@]}"} >/dev/null 2>>"$out/$side.log" || status=1
        done
    done
    echo "ab.sh: pair $i/$pairs done" >&2
done

# One history line per row of a compare table: its rows are the lines
# whose wins column reads <wins>/<pairs>. A second argument, `aa`, tags
# each line "side": "aa".
revision() { git -C "$1" describe --always --dirty 2>/dev/null || echo unknown; }
seed="$(sed -n 's/.*"seed": \([0-9]*\).*/\1/p' "$out/parent.jsonl" | head -n 1)"
history="$change/docs/perf/history.jsonl"
mkdir -p "$(dirname "$history")"
append_history() { # <compare.txt> [aa]
    awk -v date="$(date -u +%Y-%m-%d)" -v prev="$(revision "$parent")" -v crev="$(revision "$change")" \
        -v seed="${seed:-null}" -v side="${2:-}" '
        $8 ~ /^[0-9]+\/[0-9]+$/ {
            split($8, w, "/")
            tag = side == "" ? "" : sprintf(", \"side\": \"%s\"", side)
            printf "{\"date\": \"%s\", \"parent_rev\": \"%s\", \"change_rev\": \"%s\", \"seed\": %s, \"pairs\": %d, \"workload\": \"%s\", \"metric\": \"%s\", \"parent\": %s, \"change\": %s, \"parent_iqr_pct\": %s, \"wins\": %d, \"verdict\": \"%s\"%s}\n",
                date, prev, crev, seed, w[2], $1, $2, $3, $4, $7, w[1], $9, tag
        }' "$1" >>"$history"
}

if [ "$aa" = 1 ]; then
    echo "ab.sh: the A/A floor — parent against itself, same hour:" >&2
    "$(bin_of change)" compare "$out/parent.jsonl" "$out/aa.jsonl" | tee "$out/aa_compare.txt" || true
    append_history "$out/aa_compare.txt" aa
    echo "ab.sh: the claim — parent against change:" >&2
fi
"$(bin_of change)" compare "$out/parent.jsonl" "$out/change.jsonl" | tee "$out/compare.txt" ||
    status=1
append_history "$out/compare.txt"
echo "ab.sh: history appended to $history" >&2
echo "ab.sh: records in $out/parent.jsonl and $out/change.jsonl$([ "$aa" = 1 ] && echo " (A/A: $out/aa.jsonl)")" >&2
exit $status
