#!/usr/bin/env bash
# Non-test lines per crate and in total: every `crates/*/src/**.rs` file
# counted up to its first `#[cfg(test)]` line (the rule CHANGES.md
# quotes: `awk '/^#\[cfg\(test\)\]/{exit} {print}' f | wc -l`). Gates
# nothing; it only prints.
#
#   .github/lines.sh          # the working tree
#   .github/lines.sh <rev>    # <rev> → working tree, with the difference
#
# <rev> is exported with `git archive` into a `mktemp -d` directory: no
# worktree, no checkout change.
set -euo pipefail
export LC_ALL=C
root=$(git rev-parse --show-toplevel)

count() { # tree: prints "<crate> <lines>" per crate, sorted by crate
    local dir
    for dir in "$1"/crates/*/src; do
        printf '%s %s\n' "$(basename "$(dirname "$dir")")" "$(
            find "$dir" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{exit} {print}' {} \; | wc -l
        )"
    done | sort
}

if (($# == 0)); then
    count "$root" | awk '{ printf "%-14s %6d\n", $1, $2; t += $2 } END { printf "%-14s %6d\n", "total", t }'
    exit 0
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git -C "$root" archive "$1" crates | tar -x -C "$work"
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(count "$work") <(count "$root") |
    awk '{ printf "%-14s %6d → %6d  %+d\n", $1, $2, $3, $3 - $2; b += $2; a += $3 }
         END { printf "%-14s %6d → %6d  %+d\n", "total", b, a, a - b }'
