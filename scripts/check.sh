#!/usr/bin/env bash
# Full verification: check the knob inventory, build and test the
# normal configuration, then the ASan+UBSan configuration
# (-DMASK_SANITIZE=ON). Run from the repo root.
#
#   scripts/check.sh              # both configs
#   MASK_CHECK_FAST=1 scripts/check.sh   # skip the sanitizer config
set -euo pipefail
cd "$(dirname "$0")/.."

GEN_ARGS=()
if command -v ninja >/dev/null 2>&1; then
    GEN_ARGS=(-G Ninja)
fi

echo "== knob inventory =="
scripts/check_knobs.sh

echo "== normal build =="
cmake -B build -S . "${GEN_ARGS[@]}" >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if [ "${MASK_CHECK_FAST:-0}" = "1" ]; then
    echo "MASK_CHECK_FAST=1: skipping sanitizer config"
    exit 0
fi

echo "== ASan+UBSan build =="
cmake -B build-sanitize -S . "${GEN_ARGS[@]}" -DMASK_SANITIZE=ON >/dev/null
cmake --build build-sanitize -j
(cd build-sanitize && ctest --output-on-failure -j)

echo "all checks passed"
