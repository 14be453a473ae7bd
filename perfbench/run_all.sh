#!/usr/bin/env bash
# Runs every workload untraced (end-to-end metrics), then traced
# (per-layer metrics), from the repository root:
#
#   bash perfbench/run_all.sh [seed] [seconds]
#
# Stops at the first run whose output checks fail.
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
cd "$(dirname "$0")/.."
for workload in fleet-plan train-paper serve-chaos; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
