#!/usr/bin/env bash
# The mutation catalogue: every diff under .github/mutants/ breaks one
# contract on purpose, and the test its first line names
# (`# cargo test <args>`) must catch it. Each diff is applied in turn to
# one scratch copy of the tree (tracked and untracked, .gitignore
# respected), its test is built and run in release, and the diff is
# reversed again. The working tree is never touched.
#
# Fails when a diff does not apply, when the mutated code does not
# build, or when its test still passes (the mutant survived).
#
#   .github/mutants.sh                  # every mutant
#   .github/mutants.sh .github/mutants/3-*.diff
#
# The scratch copy builds into its own target directory; set
# CARGO_TARGET_DIR to reuse one across runs.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    tar -C "$root" --null --ignore-failed-read -T - -cf - | tar -C "$work" -xf -

if (($# == 0)); then
    set -- "$root"/.github/mutants/*.diff
fi

failed=0
for diff in "$@"; do
    diff=$(realpath "$diff")
    name=$(basename "$diff" .diff)
    read -r -a args <<<"$(head -n 1 "$diff" | sed -n 's/^# cargo test //p')"
    if ((${#args[@]} == 0)); then
        echo "mutant $name: first line does not name a test (# cargo test <args>)"
        failed=1
        continue
    fi
    if ! (cd "$work" && git apply "$diff"); then
        echo "mutant $name: diff does not apply"
        failed=1
        continue
    fi
    if ! (cd "$work" && cargo test --release --offline -q "${args[@]}" --no-run) >/dev/null 2>&1; then
        echo "mutant $name: mutated code does not build"
        failed=1
    elif (cd "$work" && cargo test --release --offline -q "${args[@]}") >/dev/null 2>&1; then
        echo "mutant $name: SURVIVED — cargo test ${args[*]} passes"
        failed=1
    else
        echo "mutant $name: killed by cargo test ${args[*]}"
    fi
    (cd "$work" && git apply -R "$diff")
done
exit "$failed"
