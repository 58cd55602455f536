#!/usr/bin/env bash
# Where two query kernels land in the benchmark binary, at <rev> and in
# the working tree. `knn_us_*` and `detours_per_s` have moved with code
# placement alone (DESIGN §15), so a move in either metric is read
# beside these addresses before it is read as work.
#
#   .github/placement.sh <rev>
#
# Both sides are exported into `mktemp -d` directories of one name
# length — <rev> with `git archive` (as .github/same_bytes.sh exports
# it), the working tree's tracked and untracked files with `tar`
# (.gitignore respected) — and benchmark/ is built in release in each,
# into a target directory inside the export. Prints, for each side, the
# address mod 64 of `oracle::snapshot::Snapshot::k_nearest` and
# `ting::matrix::RttMatrix::best_detour` in its `ting-benchmark` binary
# (`nm -C`); "absent" when a kernel was inlined away. Gates nothing.
set -euo pipefail
rev=${1:?usage: .github/placement.sh <rev>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
unset CARGO_TARGET_DIR
mkdir "$work/parent" "$work/change"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard) |
    tar -C "$root" --null --ignore-failed-read -T - -cf - | tar -C "$work/change" -xf -
kernels=("oracle::snapshot::Snapshot::k_nearest" "ting::matrix::RttMatrix::best_detour")
for side in parent change; do
    echo "placement: building $side"
    (cd "$work/$side" && CARGO_TARGET_DIR=$work/$side/target \
        cargo build --release --offline -q --manifest-path benchmark/Cargo.toml)
done
for side in parent change; do
    symbols=$(nm -C "$work/$side/target/release/ting-benchmark")
    for kernel in "${kernels[@]}"; do
        address=$(awk -v k="$kernel" '$3 == k && $2 ~ /^[tT]$/ { print $1; exit }' <<<"$symbols")
        if [[ -z $address ]]; then
            printf '%-7s %-40s absent\n' "$side" "$kernel"
        else
            printf '%-7s %-40s 0x%s  mod 64 = %2d\n' "$side" "$kernel" "$address" $((16#$address % 64))
        fi
    done
done
