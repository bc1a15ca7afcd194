#!/usr/bin/env bash
# Runs the whole suite twice on the same commit and fails if an end-to-end
# metric of any workload differs between the two by more than its bound, or
# an exact count of the engines at all. When one does, lengthen that
# workload; do not widen the bound.
#
#   perfbench/selfcheck.sh [<seed>]
#
# The two result files stay in perfbench/results/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
seed="${1:-1}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
first="perfbench/results/selfcheck-seed$seed-a.jsonl"
second="perfbench/results/selfcheck-seed$seed-b.jsonl"
perfbench/run.sh --seed "$seed" --out "$first"
perfbench/run.sh --seed "$seed" --out "$second"
"$CARGO_TARGET_DIR/release/perfbench" compare "$first" "$second"
