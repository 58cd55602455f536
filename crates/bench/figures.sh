#!/usr/bin/env bash
# The paper-faithfulness guard (EXPERIMENTS.md): reruns the headline
# scalars, the ablations, the three cheap figures and the fault storm
# (the one binary that drives every fault path through tor-sim), and
# compares each stdout byte for byte with crates/bench/expected/.
# Everything printed is a pure function of the seed, so any difference is
# a behaviour change.
#
#   crates/bench/figures.sh            compare; exit 1 on any difference
#   crates/bench/figures.sh --update   rewrite the expectations
#
# About 2.6 minutes on one core.
set -euo pipefail
mode=${1:-}
root=$(cd "$(dirname "$0")/../.." && pwd)
cargo build --release -p bench --manifest-path "$root/Cargo.toml"
# A scratch working directory: the binaries cache datasets under
# ./target/figdata, and a cached dataset answers for the code that wrote it.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
cd "$scratch"
status=0
figure() {
  local name=$1
  shift
  if [ "$mode" = --update ]; then
    env "$@" "$root/target/release/$name" >"$root/crates/bench/expected/$name.txt"
  elif ! env "$@" "$root/target/release/$name" | diff "$root/crates/bench/expected/$name.txt" -; then
    echo "figures: $name left crates/bench/expected/$name.txt" >&2
    status=1
  fi
}
figure headline_scalars
figure ablation_filters
figure fig05_forwarding_delays TING_HOURS=48
figure fig06_sample_convergence TING_PAIRS=100 TING_SAMPLES=1000
figure fig08_distance_vs_latency TING_PAIRS=10000 TING_RELAYS=300
figure fault_storm
exit $status
