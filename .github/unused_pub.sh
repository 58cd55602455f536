#!/usr/bin/env bash
# Public-surface audit.
#
# Lists every `pub` fn, struct, enum, trait, type, const and static in the
# non-test part of crates/*/src whose name appears on no other non-test line
# of crates/*/src, benchmark/src, examples or src. "Non-test" is the usual
# line-count rule: a file's lines before its first top-level `#[cfg(test)]`.
# A name matches as a whole word, anywhere on a line of code or in a
# string; `///` and `//!` doc comment lines and `use` / `pub use` lines do
# not count as uses.
#
# Fails on a flagged name that .github/unused_pub.allow does not list, and
# on an allow-list entry that is no longer flagged, so the list can only
# shrink. Run from anywhere: `.github/unused_pub.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

allow=.github/unused_pub.allow

# "name<TAB>file:line", one line per flagged name, sorted.
flagged=$(
    find crates/*/src benchmark/src examples src -name '*.rs' | sort |
        xargs awk '
            FNR == 1 { skip = 0 }
            /^#\[cfg\(test\)\]/ { skip = 1 }
            skip { next }
            {
                if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
                    match($0, /pub (fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/)) {
                    name = substr($0, RSTART, RLENGTH)
                    sub(/^pub [a-z]+ /, "", name)
                    defs[name] = FILENAME ":" FNR
                }
                # A doc comment or an import names an item without
                # using it.
                if ($0 ~ /^[ \t]*(\/\/[\/!]|(pub )?use )/) next
                line = $0
                gsub(/[^A-Za-z0-9_]+/, " ", line)
                n = split(line, words, " ")
                delete seen
                for (i = 1; i <= n; i++) {
                    if (!(words[i] in seen)) {
                        seen[words[i]] = 1
                        lines[words[i]]++
                    }
                }
            }
            END {
                for (name in defs) if (lines[name] == 1) print name "\t" defs[name]
            }
        ' | sort
)

# The allow-list: a name, then its reason; `#` starts a comment.
allowed=$(sed -e 's/#.*//' "$allow" | awk 'NF { print $1 }' | sort)

new=$(join -t "$(printf '\t')" -v 1 <(printf '%s' "$flagged") <(printf '%s' "$allowed"))
stale=$(comm -13 <(printf '%s' "$flagged" | cut -f1) <(printf '%s' "$allowed"))

status=0
if [ -n "$new" ]; then
    echo "pub item named on no other line (delete it, narrow it, or list it in $allow):"
    printf '%s\n' "$new" | sed 's/^/  /'
    status=1
fi
if [ -n "$stale" ]; then
    echo "$allow lists names the audit no longer flags (remove them):"
    printf '%s\n' "$stale" | sed 's/^/  /'
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "unused-pub audit: $(printf '%s' "$flagged" | grep -c .) names flagged, all allowed"
fi
exit "$status"
