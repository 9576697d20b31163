#!/usr/bin/env bash
# Where one benchmark workload spends its time, by function: builds
# `itbench` through `benchmark/run.sh`, runs one workload untraced under
# `gprofng collect app` (binutils' sampling profiler; nothing to download)
# and prints the top functions by exclusive and by inclusive samples.
#
#   scripts/profile.sh <workload> [--seed S] [--seconds S]
#
# --seed and --seconds pass through to `itbench run` (defaults: itbench's).
# Three experiments are collected one after another and read as one: on a
# guest whose CPU-time timer gprofng cannot re-arm (it then warns
# "Collection interval timer period was changed") each experiment holds
# only tens of samples, so the sample count is printed with the tables,
# which list the top 25 functions each.
#
# glibc's static internals (the allocator's `_int_malloc`, `_int_free`,
# `malloc_consolidate`, the string routines, ...) cannot be named from a
# stripped libc; gprofng prints them as `<static>@0x...`. Each is labelled
# `[glibc internal, after SYM+0xOFF]`, SYM being the nearest exported libc
# symbol below the address. The last lines sum two exclusive shares: the
# allocator (its named entry points plus every internal whose nearest
# export is one of them: malloc.c is one object, its statics sit among
# its exports) and all unnamed glibc internals (an upper bound).
#
# Everything is written under <CARGO_TARGET_DIR, else ./target>/profile:
# the experiments (<workload>.<i>.er, readable again with `gprofng
# display text`) and each run's own output (<workload>.<i>.log).
set -euo pipefail
cd "$(dirname "$0")/.."

# As in run.sh: nothing ambient may change what is measured.
unset INFERTURBO_THREADS INFERTURBO_FAULTS INFERTURBO_TRACE \
      INFERTURBO_TRANSPORT INFERTURBO_WORKER_BIN INFERTURBO_OVERLOAD

usage() { sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
[ $# -ge 1 ] || usage
workload="$1"
shift
top=25 runs=3
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "profile.sh: unknown argument $1" >&2; usage ;;
    esac
done
command -v gprofng >/dev/null || { echo "profile.sh: gprofng (binutils) not found" >&2; exit 2; }

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
out="$CARGO_TARGET_DIR/profile"
mkdir -p "$out"
# A one-second smoke run of one workload is the cheapest invocation that
# builds itbench and itworker.
bash benchmark/run.sh --workload pregel_sage_inhub --smoke --seconds 1 --trace 0 \
    >"$out/build.log" 2>&1 || { cat "$out/build.log" >&2; exit 1; }
bin="$CARGO_TARGET_DIR/release/itbench"

exps=()
for i in $(seq 1 "$runs"); do
    exp="$out/$workload.$i.er"
    echo "profile.sh: collecting $workload into $exp" >&2
    gprofng collect app -O "$exp" -p on -F off "$bin" run --workload "$workload" --trace 0 \
        --out-dir "$out/itbench" ${pass[@]+"${pass[@]}"} >"$out/$workload.$i.log" 2>&1 ||
        { echo "profile.sh: the run failed, see $out/$workload.$i.log" >&2; exit 1; }
    exps+=("$exp")
done
gprofng display text -header "${exps[@]}" 2>/dev/null | grep -i 'warning' | sort -u >&2 || true

# Exported libc symbols, "<decimal address> <name>", ascending.
libc="$(ldd "$bin" | awk '/libc\.so/ { print $3; exit }')"
syms="$out/libc.syms"
nm -D --defined-only "$libc" | while read -r addr _ name; do
    echo "$((16#$addr)) ${name%%@*}"
done | sort -n -k1,1 >"$syms"

# One row per function: "<excl s> <excl %> <incl s> <incl %> <name>", the
# name labelled when it is an unnamed libc address.
rows="$out/$workload.functions"
gprofng display text -limit 0 -functions "${exps[@]}" 2>/dev/null |
    awk '$1 ~ /^[0-9.]+$/ && $3 ~ /^[0-9.]+$/ && NF >= 5' |
    while read -r excl excl_pct incl incl_pct name; do
        label=""
        if [[ "$name" =~ ^\<static\>@0x([0-9a-f]+)\ \(\<libc\.so ]]; then
            at=$((16#${BASH_REMATCH[1]}))
            label="$(awk -v at="$at" '$1 <= at { a = $1; s = $2 } END {
                printf "  [glibc internal, after %s+0x%x]", s, at - a }' "$syms")"
            name="${name%% --*}"
        fi
        echo "$excl $excl_pct $incl $incl_pct $name$label"
    done >"$rows"

echo "== $workload: $(awk '$5 == "<Total>" { print $1 }' "$rows") s of CPU samples over $runs run(s) =="
table() { # <title> <column: 2 exclusive %, 4 inclusive %>
    echo
    echo "== top $top by $1 samples (% of all samples) =="
    printf '%8s %8s  %s\n' "excl %" "incl %" "function"
    grep -v ' <Total>$' "$rows" | sort -g -r -k"$2","$2" -s | head -n "$top" |
        awk '{ n = $5; for (i = 6; i <= NF; i++) n = n " " $i
               printf "%8s %8s  %s\n", $2, $4, n }'
}
table exclusive 2
table inclusive 4

alloc='^(malloc|free|cfree|calloc|realloc|reallocarray|memalign|aligned_alloc|posix_memalign|valloc|pvalloc|mallopt|mallinfo2?|malloc_[a-z_]+|__libc_(malloc|free|calloc|realloc|memalign)|__default_morecore)$'
awk -v alloc="$alloc" '
    { n = $5; for (i = 6; i <= NF; i++) n = n " " $i }
    n ~ /glibc internal/ {
        internal += $2
        sym = n; sub(/.*after /, "", sym); sub(/\+0x.*/, "", sym)
        if (sym ~ alloc) allocator += $2
        next
    }
    $5 ~ alloc && NF == 5 { allocator += $2 }
    END {
        printf "\nallocator (entry points + the internals among them): %.2f %% of exclusive samples\n", allocator
        printf "unnamed glibc internals, all:                          %.2f %%\n", internal
    }' "$rows"
echo "profile.sh: experiments in $out/$workload.*.er" >&2
