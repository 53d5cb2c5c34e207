#!/usr/bin/env bash
# Runs every benchmark workload, untraced (end-to-end metrics) and then
# traced (per-layer metrics), from the repository root.
#
#   bash perfbench/run_all.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-20}"
for workload in fedat-cnn-100 fedat-mlp-500-churn; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
