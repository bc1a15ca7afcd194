#!/usr/bin/env bash
# Builds the benchmark and the workspace's distributed worker, then runs
#
#   one workload, as the benchmark contract calls it:
#     perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   or the whole suite, every workload untraced and traced, once per seed:
#     perfbench/run.sh [--seed <n>]... [--seconds <s>] [--out <results.jsonl>]
#
# Every run is a fresh process. The exit code is non-zero if a build fails,
# an operation fails or an output is wrong.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds, so the worker lands beside perfbench.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p graphalytics-distrib --bin gx-distrib-worker
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="$CARGO_TARGET_DIR/release/perfbench"

PERFBENCH_RUSTC="$(rustc --version)"
PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_RUSTC PERFBENCH_COMMIT

if [[ " $* " == *" --workload "* ]]; then
    exec "$bin" "$@"
fi

seeds=()
seconds=10
out=perfbench/out/suite.jsonl
while (($#)); do
    case "$1" in
        --seed) seeds+=("$2") ;;
        --seconds) seconds="$2" ;;
        --out) out="$2" ;;
        *)
            sed -n '2,10p' "${BASH_SOURCE[0]}" >&2
            exit 2
            ;;
    esac
    shift 2
done
((${#seeds[@]})) || seeds=(1)

mkdir -p "$(dirname "$out")"
: >"$out"
for seed in "${seeds[@]}"; do
    for workload in $("$bin" workloads); do
        for trace in 0 1; do
            echo "== $workload seed $seed trace $trace"
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" --result-file "$out"
        done
    done
done
echo "results written to $out"
