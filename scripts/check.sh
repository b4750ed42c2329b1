#!/usr/bin/env bash
# Tier-1 verification under sanitizers: configures a dedicated build tree
# with STREAMLAB_SANITIZE, builds everything, and runs the full test suite.
# Usage: scripts/check.sh [sanitizer-list]   (default: address,undefined;
# CI also runs `scripts/check.sh thread`)
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${1:-address,undefined}"
BUILD_DIR="build-sanitize"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSTREAMLAB_SANITIZE="$SANITIZERS"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
