#!/usr/bin/env bash
# Print every end-to-end metric, with its unit, for every workload.
# Usage, from the repository root: bash perfbench/all.sh [SEED] [SECONDS]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-30}"
for workload in basis334-n8 pinball-wide-n8 full-torus-n7; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | grep -v '^{'
    echo
done
