#!/usr/bin/env bash
# Non-test Rust lines per crate, for the working tree and for a base
# revision, and the delta between them: the line count every CHANGES.md
# entry states, made reproducible.
#
#   scripts/loc.sh <base-rev>
#
# Counted: every `*.rs` file under `crates/<name>/` and the root `src/`.
# A file's non-test lines are the ones before its first `#[cfg(test)]`
# (the whole file when it has none). Excluded: `tests/` directories,
# `benchmark/` (its own package) and `crates/devshims` (stand-ins for
# crates.io dependencies). The base revision is read through
# `git archive` into a temporary directory, so the working tree is never
# touched; uncommitted edits count on the working-tree side.
set -euo pipefail
export LC_ALL=C # one collation for `sort` and `join`

if [ $# -ne 1 ]; then
    echo "usage: scripts/loc.sh <base-rev>" >&2
    exit 2
fi
base=$1
root=$(git rev-parse --show-toplevel)
cd "$root"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
    echo "loc.sh: unknown revision '$base'" >&2
    exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$base" -- crates src | tar -x -C "$tmp"

# Print "<crate> <non-test lines>" for every crate under tree $1, sorted.
count() {
    local tree=$1
    (
        cd "$tree"
        find crates src -name '*.rs' -not -path '*/tests/*' \
            -not -path 'crates/devshims/*' 2>/dev/null |
            while read -r f; do
                case $f in
                    src/*) crate=src ;;
                    *) crate=${f#crates/}; crate=${crate%%/*} ;;
                esac
                n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
                echo "$crate $n"
            done |
            awk '{ sum[$1] += $2 } END { for (c in sum) print c, sum[c] }' | sort
    )
}

count "$tmp" >"$tmp/base.txt"
count "$root" >"$tmp/work.txt"

printf '%-10s %8s %8s %7s\n' crate base work delta
join -a1 -a2 -e 0 -o 0,1.2,2.2 "$tmp/base.txt" "$tmp/work.txt" |
    awk '{
        printf "%-10s %8d %8d %+7d\n", $1, $2, $3, $3 - $2
        b += $2; w += $3
    } END {
        printf "%-10s %8d %8d %+7d\n", "total", b, w, w - b
    }'
