#!/usr/bin/env bash
# Tier-1 hermeticity gate: builds the default preset and runs the whole
# suite at full parallelism in random order, three times over, stopping
# at the first failure. Tests that share files or depend on run order
# fail here even when a plain `ctest -j` run happens to pass. Run from
# the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset default
cmake --build --preset default -j "$(nproc)"
ctest --test-dir build -j "$(nproc)" --schedule-random \
  --repeat until-fail:3 --output-on-failure

echo "tier-1 passed 3 randomized parallel runs"
