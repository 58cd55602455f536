#!/usr/bin/env bash
# Same bytes, as one command: is the working tree byte-for-byte the
# program <rev> was? The working tree and <rev> are built in release,
# the storm binaries run on both (each run in a fresh working directory
# of its own), and every stdout and trace file is compared with `cmp`.
# Each trace is also linted with `ting-prof lint`. Then the working tree
# alone runs the pins: the benchmark driver's engine-identity loop
# against an unmodified benchmark/exact.txt, crates/bench/figures.sh and
# the pinned tests below.
#
#   .github/same_bytes.sh <rev>
#
# <rev> is exported with `git archive` into a `mktemp -d` directory: no
# worktree, no checkout change. The two sides build into separate target
# directories: the working tree into target/ (figures.sh runs its
# binaries from there), <rev> into a directory under the export, or into
# $SAME_BYTES_PARENT_TARGET to keep that build across runs.
#
# Ends with one summary line, and exits non-zero on any difference, any
# failed run, lint or pin.
set -euo pipefail
rev=${1:?usage: .github/same_bytes.sh <rev>}
root=$(git rev-parse --show-toplevel)
start=$SECONDS
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
unset CARGO_TARGET_DIR
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
declare -A src=([parent]=$work/parent [change]=$root)
declare -A target=([parent]=${SAME_BYTES_PARENT_TARGET:-$work/parent/target} [change]=$root/target)
for side in parent change; do
    echo "same_bytes: building $side"
    (cd "${src[$side]}" && CARGO_TARGET_DIR=${target[$side]} \
        cargo build --release --offline -q -p bench -p obs-analyze)
done

# Each run: a binary and its arguments. A run that names trace.jsonl
# writes a trace there.
runs=(
    "chaos_soak --seed 7 --virtual-hours 2 --trace-out trace.jsonl"
    "chaos_soak --seed 2015 --virtual-hours 2 --trace-out trace.jsonl"
    "pipeline_storm --seed 7 --virtual-hours 2 --trace-out trace.jsonl"
    "pipeline_storm --seed 2015 --virtual-hours 2 --trace-out trace.jsonl"
    "shard_storm --seed 7 --virtual-hours 2"
    "shard_storm --seed 2015 --virtual-hours 2"
    "fault_storm"
    "chaos_soak --seed 3 --virtual-hours 24"
    "chaos_soak --seed 2015 --virtual-hours 24"
    "shard_storm --seed 3 --virtual-hours 24"
    "shard_storm --seed 2015 --virtual-hours 24"
)
failures=()
equal=0 compared=0 linted=0 traces=0
check() { # what failed, command...: output is shown only on failure
    if "${@:2}" >"$work/check.log" 2>&1; then
        return 0
    fi
    tail -n 20 "$work/check.log"
    failures+=("$1")
    return 1
}
run() { # side, run index, command...
    local dir=$work/run/$1/$2
    mkdir -p "$dir/tmp"
    (cd "$dir" && TMPDIR=$dir/tmp "${target[$1]}/release/$3" "${@:4}" >stdout.txt 2>stderr.txt)
}
for i in "${!runs[@]}"; do
    read -r -a cmd <<<"${runs[$i]}"
    echo "same_bytes: ${runs[$i]}"
    # The two sides run side by side: their outputs are virtual-time only.
    run parent "$i" "${cmd[@]}" & parent_run=$!
    run change "$i" "${cmd[@]}" & change_run=$!
    wait "$parent_run" || failures+=("parent exited non-zero: ${runs[$i]}")
    wait "$change_run" || failures+=("exited non-zero: ${runs[$i]}")
    for file in stdout.txt trace.jsonl; do
        [[ -e $work/run/parent/$i/$file ]] || continue
        compared=$((compared + 1))
        if cmp "$work/run/parent/$i/$file" "$work/run/change/$i/$file"; then
            equal=$((equal + 1))
        else
            failures+=("$file differs: ${runs[$i]}")
        fi
    done
    for side in parent change; do
        trace=$work/run/$side/$i/trace.jsonl
        [[ -e $trace ]] || continue
        traces=$((traces + 1))
        if check "$side trace fails ting-prof lint: ${runs[$i]}" \
            "${target[$side]}/release/ting-prof" lint "$trace"; then
            linted=$((linted + 1))
        fi
    done
done

# The pins, on the working tree only.
cd "$root"
identity=0
if ! git -C "$root" diff --quiet "$rev" -- benchmark/exact.txt; then
    failures+=("benchmark/exact.txt differs from $rev")
fi
for workload in scan_handshake scan_probe publish_trickle serve_mixed; do
    for seed in 2015 7; do
        echo "same_bytes: identity $workload seed $seed"
        # "correct": false makes the driver exit non-zero.
        if check "identity loop: $workload seed $seed left benchmark/exact.txt" \
            env CARGO_TARGET_DIR="$root/target/benchmark" cargo run --release --offline \
            --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 1 --trace 0; then
            identity=$((identity + 1))
        fi
    done
done
pins=(
    "crates/bench/figures.sh"
    "cargo test --release --offline -q -p ting --test golden_trace --test parallel_scan"
    "cargo test --release --offline -q -p tor-protocol wire_bytes_of_a_four_hop_circuit_are_pinned"
    "cargo test --release --offline -q -p tor-sim --test builder_draws"
    "cargo test --release --offline -q -p ting --test shard_scan delta_pairs_keep_their_order"
)
passed=0
for pin in "${pins[@]}"; do
    echo "same_bytes: $pin"
    read -r -a cmd <<<"$pin"
    if check "pin fails: $pin" "${cmd[@]}"; then
        passed=$((passed + 1))
    fi
done

for failure in "${failures[@]}"; do
    echo "same_bytes: FAIL $failure"
done
verdict=$([[ ${#failures[@]} == 0 ]] && echo "same bytes" || echo "NOT same bytes")
echo "same_bytes $rev: $verdict — $equal/$compared outputs cmp-equal," \
    "$linted/$traces traces lint-clean, $identity/8 identity runs correct," \
    "$passed/${#pins[@]} pins pass ($((SECONDS - start)) s)"
[[ ${#failures[@]} == 0 ]]
