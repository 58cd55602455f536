#!/usr/bin/env bash
# Public-surface audit, by the compiler.
#
# Every public item in the non-test part of crates/*/src (a file's lines
# before its first top-level `#[cfg(test)]`, the usual line-count rule)
# is narrowed: `pub fn` (also `const`, `unsafe` or `async`), `pub
# struct`, `enum`, `trait`, `type`, `const` and `static` (associated
# ones too) to `pub(crate)`, `pub mod` to `pub(crate) mod`, and each
# `pub` named field of a struct to `pub(crate)`. An item is flagged when
# every non-test target still compiles with it narrowed: the
# workspace's libs, bins and examples, and benchmark/'s bins and tests
# (its files cannot change, so its tests count). A flagged item is
# either used by no non-test code at all (rustc's `dead_code` names it
# once it is narrowed) or only inside its own crate. Comparison derives
# no non-test code needs are dropped first, so none hides an unread
# field.
#
# The method, on a copy of the tree under target/unused-pub/ (the
# checkout is never edited): split every `pub use a::{b, c};` into one
# line per name, narrow every such item and, with a top-level one, each
# `pub use` line of its crate that re-exports it, run `cargo check
# --keep-going` over those targets, and restore, each with its partner:
# every item or use line an error names (a private item's "defined
# here" note, or the name a re-export (E0364, E0365) cannot re-export),
# every item a `private_interfaces` or `private_bounds` warning names (a
# narrowed type in a public signature), the module of every public
# item no path names any more (`unnameable_types`), and every field a
# private-field error names (E0451, E0616, or a struct literal that
# cannot be built: all of that struct's fields). Repeat until a round
# restores nothing; each round settles one more level of the crate
# graph. target/unused-pub/rounds.log keeps each round's diagnostics and
# the lines it restored.
#
# Fails on a flagged item that .github/unused_pub.allow does not list,
# on an allow-list entry that is no longer flagged, so the list can only
# shrink, and on a public item in a private module that nothing
# re-exports. Run from anywhere: `.github/unused_pub.sh`. The copy
# builds into target/unused-pub/target, which a second run finds warm.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
export LC_ALL=C
allow=$root/.github/unused_pub.allow
base=$root/target/unused-pub
tree=$base/tree
export CARGO_TARGET_DIR=$base/target
# A lint never fails a round: rustc's `dead_code` warning is the signal,
# and `unnameable_types` names a public item that no path reaches.
export RUSTFLAGS="--cap-lints=warn -W unnameable_types"

rm -rf "$tree" "$base/rounds.log"
mkdir -p "$tree"
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    tar -C "$root" --null --ignore-failed-read -T - -cf - | tar -C "$tree" -xf -
cd "$tree"

# One re-exported name a line, so a re-export narrows with its item
# alone. "file:line<TAB>line" maps a line of the copy back to the
# checkout's, for the report.
find crates/*/src -name '*.rs' | sort | xargs perl -i -ne '
    BEGIN { open(MAP, ">", "'"$base"'/lines") or die }
    if ($. == 1) { $test = 0; $out = 0; $buf = undef }
    $test = 1 if /^#\[cfg\(test\)\]/;
    if (!$test && !defined $buf && /^pub use [\w:]+::\{/) { $buf = ""; $start = $. }
    if (defined $buf) {
        $buf .= $_;
        next unless /\};\s*$/;
        my ($path, $names) = $buf =~ /^pub use ([\w:]+)::\{([^{}]*)\};\s*$/s;
        my @lines = defined $names
            ? map { "pub use ${path}::$_;\n" } grep { length } split /\s*,\s*/, $names =~ s/^\s+|\s+$//gr
            : split /^/, $buf;
        for (@lines) { $out++; print; print MAP "$ARGV:$out\t$start\n" }
        $buf = undef;
    } else {
        $out++;
        print;
        print MAP "$ARGV:$out\t$.\n";
    }
    close ARGV if eof;
'

# One round: check every non-test target, keeping each diagnostic as
# "level<TAB>code<TAB>message<TAB>file:line<TAB>where" for every span it
# carries; where is P for the diagnostic's own primary span (the site
# that fails, such as a use of a private item) and S for any other (the
# item it points at, such as a "defined here" note).
check() {
    {
        cargo check --offline --keep-going --message-format=json -q \
            --workspace --lib --bins --examples || true
        cargo check --offline --keep-going --message-format=json -q \
            --manifest-path benchmark/Cargo.toml --bins --tests || true
    } 2>/dev/null | jq -r --arg tree "$tree/" '
        select(.reason == "compiler-message") | .message
        | . as $m
        | [.spans[] | select(.is_primary)] as $own
        | [.. | objects | select(has("file_name") and has("line_start"))]
        | .[]
        | . as $span
        | [$m.level, ($m.code.code // ""), ($m.message | gsub("\t"; " ")),
           "\(.file_name | ltrimstr($tree)):\(.line_start)",
           (if any($own[]; . == $span) then "P" else "S" end)]
        | @tsv' | sort -u
}

# Comparison derives first. A derived `PartialEq`, `Eq`, `Hash`,
# `PartialOrd` or `Ord` reads every field, so it would hide a field no
# code reads from `dead_code` (a derived `Debug` or `Clone` does not
# count as a read). Each non-test struct with named fields loses those
# five from its `#[derive(...)]` line, listed as "file<TAB>derive
# line<TAB>header line<TAB>original derive line"; a round restores the
# derive of every struct that an error's span lands in (from the derive
# line to the header: the `==`, the bound or the outer derive that needs
# it points at the struct), until a round restores nothing. No item is
# narrowed yet, so every error is a derive's.
find crates/*/src -name '*.rs' | sort | xargs perl -i -ne '
    BEGIN {
        open(LIST, ">", "'"$base"'/derives") or die;
        $cmp = qr/^(?:PartialEq|Eq|Hash|PartialOrd|Ord)$/;
    }
    if ($. == 1) { $test = 0; $held = undef }
    $test = 1 if /^#\[cfg\(test\)\]/;
    if (defined $held) {
        if (/^\s*(?:#\[|\/\/)/) { $held .= $_; next }
        my ($first) = $held =~ /^(.*)\n/;
        my @names = $first =~ /^\s*#\[derive\((.*)\)\]$/ ? split /\s*,\s*/, $1 : ();
        if (/^\s*(?:pub(?:\([\w:]+\))? )?struct \w+\b[^;]*\{\s*$/ && grep { /$cmp/ } @names) {
            my ($indent) = $first =~ /^(\s*)/;
            print LIST "$ARGV\t$held_at\t$.\t$first\n";
            my $kept = join ", ", grep { !/$cmp/ } @names;
            $held =~ s{^.*\n}{$indent#[derive($kept)]\n};
        }
        print $held;
        $held = undef;
    }
    if (!$test && /^\s*#\[derive\(/) { ($held, $held_at) = ($_, $.); next }
    print;
    close ARGV if eof;
'
derive_rounds=0
while :; do
    derive_rounds=$((derive_rounds + 1))
    diags=$(check)
    restore=$(printf '%s\n' "$diags" | awk -F'\t' '$1 == "error" { print $4 }' |
        awk -F'\t' 'FILENAME == "-" { split($1, at, ":"); hit[at[1]] = hit[at[1]] " " at[2]; next }
            {
                n = split(hit[$1], lines, " ")
                for (i = 1; i <= n; i++) if (lines[i] >= $2 && lines[i] <= $3) { print; break }
            }' - "$base/derives")
    printf '== derive round %d\n%s\n-- restored\n%s\n' "$derive_rounds" \
        "$(printf '%s\n' "$diags" | awk -F'\t' '$1 == "error"')" "$restore" >>"$base/rounds.log"
    if [ -z "$restore" ]; then
        break
    fi
    while IFS=$'\t' read -r file line header text; do
        TEXT=$text LINE=$line perl -i -pe '$_ = "$ENV{TEXT}\n" if $. == $ENV{LINE}' "$file"
    done <<<"$restore"
    grep -v -F -f <(printf '%s\n' "$restore") "$base/derives" >"$base/derives.next" || true
    mv "$base/derives.next" "$base/derives"
done

# Narrow, and list each narrowed item as
# "file:line<TAB>name<TAB>key<TAB>kind<TAB>top<TAB>module". The key is
# `Type::name` for an associated item (Type is the enclosing top-level
# `impl`'s self type), a free fn's bare name, and `crate::module::name`
# for any other top-level item; kind is fn, type (struct, enum, trait,
# alias), const (const, static) or mod; top is 1 for a top-level item,
# which a `pub use` can re-export; module is the path, within its
# crate, of the module the item is declared in.
find crates/*/src -name '*.rs' | sort | xargs perl -i -ne '
    BEGIN {
        open(LIST, ">", "'"$base"'/narrowed") or die;
        %kind = (fn => "fn", struct => "type", enum => "type", trait => "type",
                 type => "type", const => "const", static => "const", mod => "mod");
    }
    if ($. == 1) {
        $test = 0;
        $type = "";
        $struct = undef;
        my ($dir, $path) = $ARGV =~ m{^crates/([^/]+)/src/(.*)\.rs$};
        $path =~ s{(^|/)(lib|mod)$}{};
        $path =~ s{/}{::}g;
        $inner = $path;
        $module = join "::", grep { length } ($dir eq "core" ? "ting" : $dir =~ tr/-/_/r), $path;
    }
    $test = 1 if /^#\[cfg\(test\)\]/;
    if (!$test) {
        if (/^impl\b/) {
            ($t = $_) =~ s/^impl\s*//;
            1 while $t =~ s/<[^<>]*>//g;
            $t =~ s/^.*\bfor\s+//;
            $type = $t =~ /^([A-Za-z_]\w*)/ ? "$1::" : "";
        }
        $type = "" if /^\}/;
        if (/^(\s*)(?:pub(?:\([\w:]+\))? )?struct (\w+)\b[^;]*\{\s*$/) {
            ($sindent, $struct) = ($1, $2);
        } elsif (defined $struct && /^$sindent\}/) {
            $struct = undef;
        } elsif (defined $struct && s/^(\s+)pub (\w+):/$1pub(crate) $2:/) {
            print LIST "$ARGV:$.\t$2\t${struct}::$2\tfield\t0\t$inner\n";
        }
        if (s/^(\s*)pub ((?:(?:const|unsafe|async) )*fn|struct|enum|trait|type|const|static|mod) (\w+)/$1pub(crate) $2 $3/) {
            my ($indent, $what, $name) = ($1, $2, $3);
            my $kind = $kind{$what =~ s/^.* //r};
            my $top = length($indent) ? 0 : 1;
            my $key = $type ne "" ? "$type$name" : $kind eq "fn" ? $name : "${module}::$name";
            print LIST "$ARGV:$.\t$name\t$key\t$kind\t$top\t$inner\n";
        }
    }
    print;
    close ARGV if eof;
'
counts=$(awk -F'\t' '{ n[$4]++ } END {
    printf "%d pub fns, %d types, %d consts, %d modules, %d fields", n["fn"], n["type"], n["const"], n["mod"], n["field"] }' "$base/narrowed")

# Narrow each `pub use` line that re-exports a narrowed top-level item
# of its crate (the item of that name in the module the path names),
# pairing them as "use file:line<TAB>item file:line".
find crates/*/src -name '*.rs' | sort | xargs perl -i -ne '
    BEGIN {
        open(LIST, "<", "'"$base"'/narrowed") or die;
        while (<LIST>) {
            chomp;
            my ($at, $name, $key, $kind, $top, $inner) = split /\t/;
            my ($crate) = $at =~ m{^(crates/[^/]+/)};
            push @{ $item{"$crate\t$inner\t$name"} }, $at if $top;
        }
        open(PAIRS, ">", "'"$base"'/uses") or die;
    }
    if ($. == 1) {
        $test = 0;
        ($here = $ARGV) =~ s{^crates/[^/]+/src/(.*)\.rs$}{$1};
        $here =~ s{(^|/)(lib|mod)$}{};
        $here =~ s{/}{::}g;
    }
    $test = 1 if /^#\[cfg\(test\)\]/;
    my ($crate) = $ARGV =~ m{^(crates/[^/]+/)};
    my ($path, $name) = $test ? () : /^pub use ((?:\w+::)*)(\w+)(?: as \w+)?;/;
    if (defined $name) {
        $path =~ s/::$//;
        $path = $path =~ s/^crate(?:::|$)// ? $path : join "::", grep { length } $here, $path;
    }
    if (defined $name && $item{"$crate\t$path\t$name"}) {
        s/^pub use /pub(crate) use /;
        print PAIRS "$ARGV:$.\t$_\n" for @{ $item{"$crate\t$path\t$name"} };
    }
    print;
    close ARGV if eof;
'

# The crates' library names, as a private-field error's path starts.
libs=$(ls crates | sed 's/^core$/ting/; s/-/_/g' | tr '\n' ' ')
rounds=0
while :; do
    rounds=$((rounds + 1))
    diags=$(check)
    errors=$(printf '%s\n' "$diags" | awk -F'\t' '$1 == "error"')
    # What a round restores: every error, every warning that a narrowed
    # item leaks through a public signature, and every public item that
    # no path names any more (its module is narrowed and nothing
    # re-exports it).
    restores=$(printf '%s\n' "$diags" | awk -F'\t' '$1 == "error" ||
        $2 == "private_interfaces" || $2 == "private_bounds" || $2 == "unnameable_types"')
    # Narrowed items these point at: a span on the definition's line (not
    # the failing site, which may be a narrowed item that merely names
    # another); the name an E0364/E0365 re-export names, in the
    # re-exporting crate; a top-level item other than a module whose
    # narrowed re-export leaves its name to a module of the same name
    # (E0423, in any crate); the module of an item no path names; and
    # each field a private-field error (E0451, E0616, or a struct
    # literal that cannot be built) names, by crate, struct and name.
    restore=$(
        {
            printf '%s\n' "$restores" | awk -F'\t' '$5 == "S" && $2 != "unnameable_types" { print $4 }'
            printf '%s\n' "$restores" | awk -F'\t' -v libs="$libs" '$2 == "E0364" || $2 == "E0365" || $2 == "E0423" {
                split($4, at, "/"); name = $3
                sub(/^[^`]*`/, "", name); sub(/`.*/, "", name)
                print ($2 == "E0423" ? "*" : at[1] "/" at[2] "/") "\t" name
            }
            $2 == "unnameable_types" && $4 ~ /^crates\/[^\/]+\/src\/[^\/]+\.rs:/ {
                split($4, at, "/"); name = at[4]; sub(/\.rs:.*/, "", name)
                print "mod " at[1] "/" at[2] "/\t" name
            }
            $1 == "error" && ($3 ~ /^fields? `.*` of struct `[^`]*` (is|are) private$/ ||
                $3 ~ /^cannot construct `[^`]*` with struct literal syntax due to private fields$/) {
                type = fields = $3
                if (sub(/^cannot construct `/, "", type)) fields = "`*`"
                else { sub(/ of struct `.*/, "", fields); sub(/^.* of struct `/, "", type) }
                sub(/`.*/, "", type); sub(/<.*/, "", type)
                n = split(type, seg, "::")
                crate = n > 1 && index(" " libs " ", " " seg[1] " ") ? seg[1] : "*"
                while (match(fields, /`[^`]*`/)) {
                    print "field\t" crate "\t" seg[n] "\t" substr(fields, RSTART + 1, RLENGTH - 2)
                    fields = substr(fields, RSTART + RLENGTH)
                }
            }'
        } | awk -F'\t' '
            FILENAME == "-" && $1 == "field" { field[$2 SUBSEP $3 SUBSEP $4] = 1; next }
            FILENAME == "-" { if (NF == 1) at[$1] = 1; else named[$1 SUBSEP $2] = 1; next }
            FILENAME ~ /uses$/ { if ($1 in at) print $1; next }
            {
                split($1, p, "/")
                lib = p[2] == "core" ? "ting" : p[2]
                gsub(/-/, "_", lib)
                split($3, key, "::")
                if ($4 == "field" && ((lib, key[1], key[2]) in field || (lib, key[1], "*") in field ||
                    ("*", key[1], key[2]) in field || ("*", key[1], "*") in field))
                    print $1
                else if (($1 in at) || ($5 == 1 && (((p[1] "/" p[2] "/") SUBSEP $2) in named ||
                    ($4 != "mod" && ("*" SUBSEP $2) in named))) ||
                    ($4 == "mod" && (("mod " p[1] "/" p[2] "/") SUBSEP $2) in named)) print $1
            }' - "$base/uses" "$base/narrowed" |
            # A use line and its item are restored together.
            awk -F'\t' '
                FILENAME == "-" { r[$1] = 1; next }
                pass == 1 { if ($1 in r) r[$2] = 1; next }
                { if ($2 in r) r[$1] = 1 }
                END { for (k in r) print k }' - pass=1 "$base/uses" pass=2 "$base/uses" | sort -u
    )
    printf '== round %d\n%s\n-- restored\n%s\n' "$rounds" "$restores" "$restore" >>"$base/rounds.log"
    if [ -z "$restore" ]; then
        break
    fi
    printf '%s\n' "$restore" | while IFS=: read -r file line; do
        sed -i "${line}s/pub(crate) /pub /" "$file"
    done
    for list in narrowed uses; do
        grep -v -F -f <(printf '%s\n' "$restore" | sed 's/$/\t/') "$base/$list" >"$base/$list.next" || true
        mv "$base/$list.next" "$base/$list"
    done
done

if [ -n "$errors" ]; then
    echo "unused-pub audit: the tree does not build with the flagged items narrowed:"
    printf '%s\n' "$errors" | cut -f2- | sed 's/^/  /' | head -n 40
    exit 2
fi

# "key<TAB>file:line<TAB>kind<TAB>why", one line per flagged item, at
# the checkout's line.
dead=$(printf '%s\n' "$diags" | awk -F'\t' '$1 == "warning" && $2 == "dead_code" && $5 == "P" { print $4 }')
flagged=$(
    awk -F'\t' 'FILENAME == "-" { dead[$1] = 1; next }
        FILENAME ~ /lines$/ { line[$1] = $2; next }
        {
            at = $1; sub(/:[0-9]+$/, ":" line[$1], at)
            print $3 "\t" at "\t" $4 "\t" (($1 in dead) ? "used by no non-test code" : "used only inside its crate")
        }' - "$base/lines" "$base/narrowed" <<<"$dead" | sort
)

# The allow-list: a name, then its reason; `#` starts a comment.
allowed=$(sed -e 's/#.*//' "$allow" | perl -ne '
    if (/^(\w+)::\{([^}]*)\}/) { my $t = $1; print "${t}::$_\n" for split /\s*,\s*/, $2 =~ s/^\s+|\s+$//gr }
    elsif (/^(\S+)/) { print "$1\n" }' | sort)

new=$(join -t "$(printf '\t')" -v 1 <(printf '%s\n' "$flagged" | grep .) <(printf '%s\n' "$allowed" | grep .) || true)
stale=$(comm -13 <(printf '%s\n' "$flagged" | cut -f1 | grep . | sort -u) <(printf '%s\n' "$allowed" | grep .) || true)

# Public items in a private module that no `pub use` re-exports: their
# crate's users get them from a public signature but cannot name them.
unnameable=$(printf '%s\n' "$diags" | awk -F'\t' '$2 == "unnameable_types" {
    name = $3; sub(/^[^`]*`/, "", name); sub(/`.*/, "", name)
    at = $4; sub(/:[0-9]+$/, "", at)
    print name "\t" at }' | sort -u)

echo "unused-pub audit: $rounds rounds over $counts"
status=0
if [ -n "$unnameable" ]; then
    echo "public items no path names (re-export them from the crate root):"
    printf '%s\n' "$unnameable" | awk -F'\t' '{ printf "  %-44s %s\n", $1, $2 }'
    status=1
fi
if [ -n "$new" ]; then
    echo "public items no other crate's non-test code uses (delete, narrow, or list in .github/unused_pub.allow):"
    printf '%s\n' "$new" | awk -F'\t' '{ printf "  %-5s %-44s %-42s %s\n", $3, $1, $2, $4 }'
    status=1
fi
if [ -n "$stale" ]; then
    echo ".github/unused_pub.allow lists names the audit no longer flags (remove them):"
    printf '%s\n' "$stale" | sed 's/^/  /'
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "unused-pub audit: $(printf '%s\n' "$flagged" | awk -F'\t' 'NF { n[$3]++ } END {
        printf "%d fns, %d types, %d consts, %d modules, %d fields flagged, all allowed", n["fn"], n["type"], n["const"], n["mod"], n["field"] }')"
fi
exit "$status"
