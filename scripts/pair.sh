#!/usr/bin/env bash
# Paired perfbench runs of two revisions of this repository, alternating:
#
#   scripts/pair.sh <rev-a> <rev-b> --workload <w> --pairs <n>
#       [--seed <s>] [--trace 0|1] [--dir <path>]
#
# Each revision is exported afresh with `git archive` (no network, and no
# worktree left registered in the repository if the run is interrupted)
# into <dir>/a or <dir>/b, and built there by its own perfbench/run.sh (on
# the side's first run) into its own CARGO_TARGET_DIR, so neither side runs
# a binary or a worker built from the other's source. The run length is
# perfbench's own default. Pair i (1-based) runs <rev-a> first when i is odd
# and <rev-b> first when i is even. Every run appends its result document
# through --result-file to <dir>/<w>-s<s>-t<0|1>-a.jsonl or ...-b.jsonl;
# each side's commit is in <dir>/a.commit and <dir>/b.commit. Defaults:
# seed 1, trace 0, <dir> = ${TMPDIR:-/tmp}/gx-pair-<pid>, kept afterwards.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage() {
    sed -n '2,16p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

(($# >= 2)) || usage
revs=("$1" "$2")
shift 2
workload="" pairs="" seed=1 trace=0
dir="${TMPDIR:-/tmp}/gx-pair-$$"
while (($#)); do
    (($# >= 2)) || usage
    case "$1" in
        --workload) workload="$2" ;;
        --pairs) pairs="$2" ;;
        --seed) seed="$2" ;;
        --trace) trace="$2" ;;
        --dir) dir="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[[ -n "$workload" && "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
sides=(a b)
for i in 0 1; do
    side="${sides[$i]}"
    commit="$(git rev-parse --verify "${revs[$i]}^{commit}")"
    rm -rf "${dir:?}/$side"
    mkdir -p "$dir/$side"
    git archive "$commit" | tar -x -C "$dir/$side"
    echo "$commit" >"$dir/$side.commit"
done

runs="$workload-s$seed-t$trace"
run() {
    local side="$1"
    echo "== pair $pair: $side"
    (cd "$dir/$side" && CARGO_TARGET_DIR="$dir/$side/target" \
        perfbench/run.sh --workload "$workload" --seed "$seed" \
        --trace "$trace" --result-file "$dir/$runs-$side.jsonl" |
        tail -n 1)
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then
        run a
        run b
    else
        run b
        run a
    fi
done
echo "results: $dir/$runs-a.jsonl ($(cat "$dir/a.commit")), $dir/$runs-b.jsonl ($(cat "$dir/b.commit"))"
