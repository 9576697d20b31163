#!/usr/bin/env bash
# Non-test Rust lines per crate, for the working tree and for a base
# revision, and the delta between them: the line count every CHANGES.md
# entry states, made reproducible.
#
#   scripts/loc.sh <base-rev>
#   scripts/loc.sh --files <base-rev>
#
# `--files` prints the same counts per file instead of per crate: every
# file whose non-test lines differ, largest |delta| first, then the total.
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

per=crate
if [ $# -eq 2 ] && [ "$1" = --files ]; then
    per=file
    shift
fi
if [ $# -ne 1 ] || [ "${1#-}" != "$1" ]; then
    echo "usage: scripts/loc.sh [--files] <base-rev>" >&2
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

# Print "<file> <crate> <non-test lines>" for every counted file under
# tree $1, sorted by file.
count() {
    local tree=$1
    (
        cd "$tree"
        find crates src -name '*.rs' -not -path '*/tests/*' \
            -not -path 'crates/devshims/*' 2>/dev/null |
            sort |
            while read -r f; do
                case $f in
                    src/*) crate=src ;;
                    *) crate=${f#crates/}; crate=${crate%%/*} ;;
                esac
                n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
                echo "$f $crate $n"
            done
    )
}

# Sum "<file> <crate> <lines>" per crate: "<crate> <lines>", sorted.
per_crate() {
    awk '{ sum[$2] += $3 } END { for (c in sum) print c, sum[c] }' | sort
}

count "$tmp" >"$tmp/base.files"
count "$root" >"$tmp/work.files"

if [ "$per" = file ]; then
    printf '%-44s %6s %6s %7s\n' file base work delta
    join -a1 -a2 -e 0 -o 0,1.3,2.3 "$tmp/base.files" "$tmp/work.files" |
        awk '$3 != $2 { d = $3 - $2; print (d < 0 ? -d : d), $0 }' |
        sort -k1,1nr -k2,2 |
        awk '{
            printf "%-44s %6d %6d %+7d\n", $2, $3, $4, $4 - $3
            b += $3; w += $4
        } END {
            printf "%-44s %6d %6d %+7d\n", "total", b, w, w - b
        }'
    exit 0
fi

per_crate <"$tmp/base.files" >"$tmp/base.txt"
per_crate <"$tmp/work.files" >"$tmp/work.txt"

printf '%-10s %8s %8s %7s\n' crate base work delta
join -a1 -a2 -e 0 -o 0,1.2,2.2 "$tmp/base.txt" "$tmp/work.txt" |
    awk '{
        printf "%-10s %8d %8d %+7d\n", $1, $2, $3, $3 - $2
        b += $2; w += $3
    } END {
        printf "%-10s %8d %8d %+7d\n", "total", b, w, w - b
    }'
