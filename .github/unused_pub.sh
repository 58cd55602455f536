#!/usr/bin/env bash
# Public-surface audit, by the compiler.
#
# A `pub fn` in the non-test part of crates/*/src (a file's lines before
# its first top-level `#[cfg(test)]`, the usual line-count rule) is
# flagged when every non-test target still compiles with it narrowed to
# `pub(crate)`: the workspace's libs, bins and examples, and benchmark/'s
# bins. A flagged fn is either called by no non-test code at all (rustc's
# `dead_code` names it once it is narrowed) or only inside its own crate.
#
# The method, on a copy of the tree under target/unused-pub/ (the
# checkout is never edited): split every `pub use a::{b, c};` into one
# line per name, narrow every such `pub fn` and, with a free fn, each
# `pub use` line of its crate that names it, run `cargo check
# --keep-going` over those targets, restore every fn or use line an
# error names (a private item's "defined here" note, or the name a
# re-export (E0364) cannot re-export) together with its partner, and
# repeat until a round restores nothing. Each round settles one more
# level of the crate graph.
#
# Fails on a flagged fn that .github/unused_pub.allow does not list, and
# on an allow-list entry that is no longer flagged, so the list can only
# shrink. Run from anywhere: `.github/unused_pub.sh`. The copy builds
# into target/unused-pub/target, which a second run finds warm.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
export LC_ALL=C
allow=$root/.github/unused_pub.allow
base=$root/target/unused-pub
tree=$base/tree
export CARGO_TARGET_DIR=$base/target
# A lint never fails a round: rustc's `dead_code` warning is the signal.
export RUSTFLAGS=--cap-lints=warn

rm -rf "$tree"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    tar -C "$root" --null --ignore-failed-read -T - -cf - | tar -C "$tree" -xf -
cd "$tree"

# One re-exported name a line, so a re-export narrows with its fn alone.
find crates/*/src -name '*.rs' | sort | xargs perl -0777 -i -pe '
    my ($head, $tail) = split /^(?=#\[cfg\(test\)\])/m, $_, 2;
    $head =~ s{^pub use ([\w:]+)::\{([^{}]*)\};}{
        my $path = $1;
        join "\n", map { "pub use ${path}::$_;" } grep { length } split /\s*,\s*/, $2 =~ s/^\s+|\s+$//gr
    }gme;
    $_ = $head . ($tail // "");
'

# Narrow, and list each narrowed fn as "file:line<TAB>name<TAB>Type::name"
# (Type is the enclosing top-level `impl`'s self type, if any).
find crates/*/src -name '*.rs' | sort | xargs perl -i -ne '
    BEGIN { open(LIST, ">", "'"$base"'/narrowed") or die }
    if ($. == 1) { $test = 0; $type = "" }
    $test = 1 if /^#\[cfg\(test\)\]/;
    if (!$test) {
        if (/^impl\b/) {
            ($t = $_) =~ s/^impl\s*//;
            1 while $t =~ s/<[^<>]*>//g;
            $t =~ s/^.*\bfor\s+//;
            $type = $t =~ /^([A-Za-z_]\w*)/ ? "$1::" : "";
        }
        $type = "" if /^\}/;
        if (s/^(\s*)pub fn (\w+)/$1pub(crate) fn $2/) {
            print LIST "$ARGV:$.\t$2\t$type$2\n";
        }
    }
    print;
    close ARGV if eof;
'
narrowed=$(wc -l <"$base/narrowed")

# Narrow each `pub use` line that re-exports a narrowed free fn of its
# crate, pairing them as "use file:line<TAB>fn file:line".
find crates/*/src -name '*.rs' | sort | xargs perl -i -ne '
    BEGIN {
        open(LIST, "<", "'"$base"'/narrowed") or die;
        while (<LIST>) {
            my ($at, $name, $qualified) = split /\t/;
            chomp $qualified;
            my ($crate) = $at =~ m{^(crates/[^/]+/)};
            push @{ $fn{"$crate\t$name"} }, $at if $qualified eq $name;
        }
        open(PAIRS, ">", "'"$base"'/uses") or die;
    }
    if ($. == 1) { $test = 0 }
    $test = 1 if /^#\[cfg\(test\)\]/;
    my ($crate) = $ARGV =~ m{^(crates/[^/]+/)};
    my ($name) = $test ? () : /^pub use [\w:]*\b(\w+)(?: as \w+)?;/;
    if (defined $name && $fn{"$crate\t$name"}) {
        s/^pub use /pub(crate) use /;
        print PAIRS "$ARGV:$.\t$_\n" for @{ $fn{"$crate\t$name"} };
    }
    print;
    close ARGV if eof;
'

# One round: check every non-test target, keeping each diagnostic as
# "level<TAB>code<TAB>message<TAB>file:line" for every span it carries.
check() {
    {
        cargo check --offline --keep-going --message-format=json -q \
            --workspace --lib --bins --examples || true
        cargo check --offline --keep-going --message-format=json -q \
            --manifest-path benchmark/Cargo.toml --bins || true
    } 2>/dev/null | jq -r --arg tree "$tree/" '
        select(.reason == "compiler-message") | .message
        | . as $m
        | [.. | objects | select(has("file_name") and has("line_start"))]
        | .[]
        | [$m.level, ($m.code.code // ""), ($m.message | gsub("\t"; " ")),
           "\(.file_name | ltrimstr($tree)):\(.line_start)"]
        | @tsv' | sort -u
}

rounds=0
while :; do
    rounds=$((rounds + 1))
    diags=$(check)
    errors=$(printf '%s\n' "$diags" | awk -F'\t' '$1 == "error"')
    # Narrowed fns an error points at: a span on the definition's line,
    # the name an E0364 re-export names, in the re-exporting crate, or a
    # free fn whose narrowed re-export leaves its name to a module of the
    # same name (E0423, in any crate).
    restore=$(
        {
            printf '%s\n' "$errors" | cut -f4
            printf '%s\n' "$errors" | awk -F'\t' '$2 == "E0364" || $2 == "E0423" {
                split($4, at, "/"); name = $3
                sub(/^[^`]*`/, "", name); sub(/`.*/, "", name)
                print ($2 == "E0364" ? at[1] "/" at[2] "/" : "*") "\t" name
            }'
        } | awk -F'\t' '
            FILENAME == "-" { if (NF == 1) at[$1] = 1; else named[$1 SUBSEP $2] = 1; next }
            FILENAME ~ /uses$/ { if ($1 in at) print $1; next }
            {
                split($1, p, "/")
                if (($1 in at) || ((p[1] "/" p[2] "/") SUBSEP $2) in named ||
                    ($3 == $2 && ("*" SUBSEP $2) in named)) print $1
            }' - "$base/uses" "$base/narrowed" |
            # A use line and its fn are restored together.
            awk -F'\t' '
                FILENAME == "-" { r[$1] = 1; next }
                pass == 1 { if ($1 in r) r[$2] = 1; next }
                { if ($2 in r) r[$1] = 1 }
                END { for (k in r) print k }' - pass=1 "$base/uses" pass=2 "$base/uses" | sort -u
    )
    if [ -z "$restore" ]; then
        break
    fi
    printf '%s\n' "$restore" | while IFS=: read -r file line; do
        sed -i "${line}s/pub(crate) fn /pub fn /;${line}s/^pub(crate) use /pub use /" "$file"
    done
    for list in narrowed uses; do
        grep -v -F -f <(printf '%s\n' "$restore" | sed 's/$/\t/') "$base/$list" >"$base/$list.next" || true
        mv "$base/$list.next" "$base/$list"
    done
done

if [ -n "$errors" ]; then
    echo "unused-pub audit: the tree does not build with the flagged fns narrowed:"
    printf '%s\n' "$errors" | cut -f2- | sed 's/^/  /' | head -n 40
    exit 2
fi

# "Type::name<TAB>file:line<TAB>kind", one line per flagged fn.
dead=$(printf '%s\n' "$diags" | awk -F'\t' '$1 == "warning" && $2 == "dead_code" { print $4 }')
flagged=$(
    awk -F'\t' 'FILENAME == "-" { dead[$1] = 1; next }
        { print $3 "\t" $1 "\t" (($1 in dead) ? "called by no non-test code" : "called only inside its crate") }' \
        - "$base/narrowed" <<<"$dead" | sort
)

# The allow-list: a name, then its reason; `#` starts a comment.
allowed=$(sed -e 's/#.*//' "$allow" | awk 'NF { print $1 }' | sort)

new=$(join -t "$(printf '\t')" -v 1 <(printf '%s\n' "$flagged" | grep .) <(printf '%s\n' "$allowed" | grep .) || true)
stale=$(comm -13 <(printf '%s\n' "$flagged" | cut -f1 | grep . | sort -u) <(printf '%s\n' "$allowed" | grep .) || true)

echo "unused-pub audit: $rounds rounds over $narrowed pub fns"
status=0
if [ -n "$new" ]; then
    echo "pub fn no other crate's non-test code calls (delete it, make it pub(crate), or list it in .github/unused_pub.allow):"
    printf '%s\n' "$new" | awk -F'\t' '{ printf "  %-44s %-42s %s\n", $1, $2, $3 }'
    status=1
fi
if [ -n "$stale" ]; then
    echo ".github/unused_pub.allow lists names the audit no longer flags (remove them):"
    printf '%s\n' "$stale" | sed 's/^/  /'
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "unused-pub audit: $(printf '%s\n' "$flagged" | grep -c .) fns flagged, all allowed"
fi
exit "$status"
