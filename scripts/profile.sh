#!/usr/bin/env bash
# Where one benchmark workload spends its time, by function: builds
# `itbench` through `benchmark/run.sh`, runs one workload untraced under
# `gprofng collect app` (binutils' sampling profiler; nothing to download)
# and prints the top functions by exclusive and by inclusive samples.
#
#   scripts/profile.sh [--heap | --rss] <workload> [--seed S] [--seconds S]
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
# --heap counts allocations instead, exactly: one experiment with heap
# tracing on (`-H on`; the run is ~40x slower, so keep --seconds small)
# prints the allocation count and bytes inclusive under the whole process,
# `InferencePlan::build` (planning) and `InferencePlan::run` (every run),
# then apart under each engine's `run_planned` and under
# `infer::reference_logits`: `InferencePlan::run` also counts the
# workload's output check, a reference run, so the engine's own counts
# are its `run_planned` row. A row the profile does not hold (the
# workload never calls it, or the compiler inlined it) prints `-`. Then
# the number of runs the workload made, and the top allocating call sites
# by bytes (stacks summed over their printed frames). At a fixed seed and
# thread count the planning counts are deterministic; the run counts
# scale with the number of runs.
#
# --rss watches resident memory instead, with no profiler: it runs the
# workload untraced and reads the itbench process's /proc/<pid>/status
# (and nothing else) about every millisecond until it exits, keeping
# VmRSS and VmHWM. A run shows as a rise: RSS climbing more than 1 MB
# above the lowest level since the last rise ended, which ends once RSS
# falls more than 1 MB below the rise's peak. Graph generation and
# planning show as the first rises, the engine's runs as the rest: a run
# that hands its memory back before the next one starts is a rise of its
# own, runs that keep it between them show as one rise together. It
# prints the floor before each rise, each rise's peak and height above
# that floor, then the median floor and height over the later half of the
# rises (the steady runs) and VmHWM at exit — what itbench reports as
# `peak_rss_mb`. The samples ("ms rss_kb hwm_kb") go to <workload>.rss.
# A status read that holds no VmRSS while the process still runs is
# skipped, not taken for its exit: the count prints beside the samples',
# and the first such read's lines go to <workload>.rss.skipped.
#
# Everything is written under <CARGO_TARGET_DIR, else ./target>/profile:
# the experiments (<workload>.<i>.er, or <workload>.heap.er, readable again
# with `gprofng display text`), each run's own output (<workload>.<i>.log)
# and the --rss samples.
set -euo pipefail
cd "$(dirname "$0")/.."

# As in run.sh: nothing ambient may change what is measured. These are
# the only two variables the library reads.
unset INFERTURBO_THREADS INFERTURBO_WORKER_BIN

usage() { sed -n '2,53p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }
heap=0 rss=0
case "${1:-}" in
    --heap) heap=1; shift ;;
    --rss) rss=1; shift ;;
esac
[ $# -ge 1 ] || usage
workload="$1"
shift
top=25 runs=3 stacks=10 frames=6
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        *) echo "profile.sh: unknown argument $1" >&2; usage ;;
    esac
done
[ "$rss" = 1 ] || command -v gprofng >/dev/null ||
    { echo "profile.sh: gprofng (binutils) not found" >&2; exit 2; }

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
out="$CARGO_TARGET_DIR/profile"
mkdir -p "$out"
# A one-second smoke run of one workload is the cheapest invocation that
# builds itbench and itworker.
bash benchmark/run.sh --workload pregel_sage_inhub --smoke --seconds 1 --trace 0 \
    >"$out/build.log" 2>&1 || { cat "$out/build.log" >&2; exit 1; }
bin="$CARGO_TARGET_DIR/release/itbench"

if [ "$rss" = 1 ]; then
    samples="$out/$workload.rss"
    log="$out/$workload.rss.log"
    echo "profile.sh: sampling $workload's resident memory into $samples" >&2
    "$bin" run --workload "$workload" --trace 0 --out-dir "$out/itbench" \
        ${pass[@]+"${pass[@]}"} >"$log" 2>&1 &
    pid=$!
    # A read that times out on a pipe nobody writes is a 1 ms sleep
    # without starting a process.
    exec {tick}<> <(:)
    t0="${EPOCHREALTIME/./}"
    # A status read without VmRSS while the process still runs is a
    # skipped sample, not the end; the first one's lines go to .skipped.
    skipped=0
    while :; do
        now= rss_kb= hwm_kb= seen=
        while read -r key value _; do
            seen+="$key $value"$'\n'
            case "$key" in
                VmHWM:) hwm_kb="$value" ;;
                VmRSS:) rss_kb="$value"; break ;;
            esac
        done 2>/dev/null <"/proc/$pid/status" || true
        if [ -z "$rss_kb" ]; then
            kill -0 "$pid" 2>/dev/null || break
            [ "$skipped" -gt 0 ] || printf '%s' "$seen" >"$samples.skipped"
            skipped=$((skipped + 1))
        else
            now="${EPOCHREALTIME/./}"
            echo "$(((now - t0) / 1000)) $rss_kb $hwm_kb"
        fi
        read -r -t 0.001 -u "$tick" || true
    done >"$samples"
    wait "$pid" || { echo "profile.sh: the run failed, see $log" >&2; exit 1; }
    echo "== $workload: resident memory, $(wc -l <"$samples") samples ($skipped status reads skipped) over $(tail -n 1 "$samples" | cut -d' ' -f1) ms =="
    awk '
        function mb(kb) { return kb / 1024 }
        function close_rise() {
            n++; t[n] = start; f[n] = floor; p[n] = peak
            printf "%8d %10.1f %10.1f %10.1f %8d\n", start, mb(floor), mb(peak), mb(peak - floor), last - start
        }
        function median(a, lo, hi,    m, i, j, v, x) {
            m = 0
            for (i = lo; i <= hi; i++) v[++m] = a[i]
            for (i = 2; i <= m; i++) { x = v[i]; for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]; v[j + 1] = x }
            return m % 2 ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
        }
        BEGIN {
            step = 1024   # 1 MB, in kB
            printf "%8s %10s %10s %10s %8s\n", "at ms", "floor MB", "peak MB", "rise MB", "ms"
        }
        NR == 1 { lo = $2 }
        {
            hwm = $3; last = $1
            if (!rising) {
                if ($2 < lo) lo = $2
                if ($2 > lo + step) { rising = 1; floor = lo; peak = $2; start = $1 }
            } else if ($2 > peak) {
                peak = $2
            } else if ($2 < peak - step) {
                close_rise(); rising = 0; lo = $2
            }
        }
        END {
            if (rising) close_rise()
            if (n == 0) { print "no rise above 1 MB"; exit }
            from = int(n / 2) + 1
            for (i = 1; i <= n; i++) { d[i] = p[i] - f[i] }
            printf "\nsteady runs (rises %d..%d): floor %.1f MB, rise %.1f MB (medians)\n",
                from, n, mb(median(f, from, n)), mb(median(d, from, n))
            printf "VmHWM at exit: %.1f MB\n", mb(hwm)
        }' "$samples"
    exit 0
fi

if [ "$heap" = 1 ]; then
    exp="$out/$workload.heap.er"
    log="$out/$workload.heap.log"
    rm -rf "$exp"
    echo "profile.sh: heap-tracing $workload into $exp" >&2
    gprofng collect app -O "$exp" -p off -H on -F off "$bin" run --workload "$workload" --trace 0 \
        --out-dir "$out/itbench" ${pass[@]+"${pass[@]}"} >"$log" 2>&1 ||
        { echo "profile.sh: the run failed, see $log" >&2; exit 1; }
    echo "== $workload: heap allocations, inclusive =="
    printf '%12s %14s  %s\n' "allocations" "bytes" "under"
    gprofng display text -limit 0 -metrics i.heapalloccnt:i.heapallocbytes -functions "$exp" \
        2>/dev/null |
        awk 'BEGIN {
                 n = split("<Total> plan::InferencePlan::build plan::InferencePlan::run " \
                     "infer::mr_backend::run_planned infer::pregel_backend::run_planned " \
                     "infer::reference_logits", want, " ")
                 for (i = 2; i <= n; i++) want[i] = "inferturbo_core::" want[i]
             }
             $1 ~ /^[0-9]+$/ && $2 ~ /^[0-9]+$/ && NF == 3 { got[$3] = $1 " " $2 }
             END {
                 for (i = 1; i <= n; i++) {
                     split(want[i] in got ? got[want[i]] : "- -", c, " ")
                     printf "%12s %14s  %s\n", c[1], c[2], want[i]
                 }
             }'
    echo "runs: $(tail -n 1 "$log" | sed -n 's/.*"attempted": \([0-9]*\).*/\1/p')"
    echo
    echo "== top $stacks allocating stacks by bytes (innermost $frames frames past the allocator) =="
    # gprofng lists every distinct call stack on its own, in no byte
    # order; stacks that differ only past the printed frames (one call
    # site reached from two callers, a first and a repeated run) are the
    # same site here. One line per stack — bytes, instances, its printed
    # frames joined by \037 — then summed per frame list, sorted by bytes.
    # Every stage reads its whole input, so no stage dies of a closed pipe.
    gprofng display text -heap "$exp" 2>/dev/null |
        awk -v frames="$frames" '
            function flush() { if (k) print bytes "\t" inst "\t" key; k = 0 }
            /^Stack / { flush(); k = 1; key = ""; shown = 0; next }
            !k { next }
            /Bytes Allocated/ { inst = $3; bytes = $7; next }
            /^  / {
                f = $0; sub(/ \+ 0x[0-9A-Fa-f]+.*/, "", f); sub(/^ +/, "", f)
                if (f ~ /^(malloc|realloc|calloc|aligned_alloc|posix_memalign)$/ || f ~ /^alloc::raw_vec::/) next
                if (shown++ < frames) key = key (key == "" ? "" : "\037") f
            }
            END { flush() }' |
        awk -F '\t' '{ b[$3] += $1; n[$3] += $2 }
            END { for (s in b) printf "%.0f\t%.0f\t%s\n", b[s], n[s], s }' |
        sort -t "$(printf '\t')" -k1,1nr -k3,3 |
        awk -F '\t' -v stacks="$stacks" 'NR <= stacks {
            printf "\n  Instances = %s  Bytes Allocated = %s\n", $2, $1
            n = split($3, f, "\037"); for (i = 1; i <= n; i++) print "    " f[i] }'
    echo "profile.sh: experiment in $exp" >&2
    exit 0
fi

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
