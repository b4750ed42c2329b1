#!/usr/bin/env bash
# Records the telemetry benchmark artifact (BENCH_TELEMETRY.json, from
# bench/bench_telemetry) from a Release build — and refuses anything else.
# Numbers measured from a debug or sanitized tree are not comparable to the
# committed baseline, so this script is the only sanctioned way to refresh
# it. End-to-end throughput and memory live in e2ebench (BENCHMARK.json).
#
# Usage: scripts/bench.sh [build-dir]
#            record the artifact (default build-dir: build-release,
#            configured with -DCMAKE_BUILD_TYPE=Release if absent)
#        scripts/bench.sh gate [--report-only] [build-dir]
#            re-run the benchmark into a scratch directory and compare
#            against the committed artifact with scripts/bench_gate.py;
#            exits nonzero on regression (unless --report-only)
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=record
REPORT_ONLY=""
if [[ "${1:-}" == "gate" ]]; then
  MODE=gate
  shift
  if [[ "${1:-}" == "--report-only" ]]; then
    REPORT_ONLY="--report-only"
    shift
  fi
fi

BUILD_DIR="${1:-build-release}"

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi

CACHE="$BUILD_DIR/CMakeCache.txt"
if [[ ! -f "$CACHE" ]]; then
  echo "bench.sh: $BUILD_DIR is not a CMake build tree (no CMakeCache.txt)" >&2
  exit 1
fi

BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")"
SANITIZE="$(sed -n 's/^STREAMLAB_SANITIZE:[^=]*=//p' "$CACHE")"

if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "bench.sh: refusing to record benchmarks from a '$BUILD_TYPE' build;" >&2
  echo "          configure $BUILD_DIR with -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
if [[ -n "$SANITIZE" ]]; then
  echo "bench.sh: refusing to record benchmarks from a sanitized build" >&2
  echo "          (STREAMLAB_SANITIZE=$SANITIZE); use a clean Release tree" >&2
  exit 1
fi

ARTIFACT=BENCH_TELEMETRY.json

cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_telemetry

if [[ "$MODE" == gate ]]; then
  OUT_DIR="$BUILD_DIR/bench-gate"
else
  OUT_DIR=.
fi
mkdir -p "$OUT_DIR"

# The artifact is removed up front so a bench that crashes (or silently
# writes nothing) fails loudly here instead of the gate comparing a stale
# file from the previous run.
out="$OUT_DIR/$ARTIFACT"
rm -f "$out"
start=$SECONDS
"$BUILD_DIR/bench/bench_telemetry" \
  --benchmark_out="$out" --benchmark_out_format=json \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true
elapsed=$((SECONDS - start))
if [[ ! -s "$out" ]]; then
  echo "bench.sh: bench_telemetry exited 0 but left $out missing/empty" >&2
  exit 1
fi
echo "bench.sh: bench_telemetry -> $ARTIFACT in ${elapsed}s"

if [[ "$MODE" == gate ]]; then
  if [[ ! -f "$ARTIFACT" ]]; then
    echo "bench.sh: no committed baseline $ARTIFACT to gate against" >&2
    exit 2
  fi
  python3 scripts/bench_gate.py $REPORT_ONLY "$ARTIFACT" "$out"
  exit $?
fi

# google-benchmark's context.library_build_type describes the *benchmark
# library* shipped with the toolchain, not our binaries — stamp the build
# type this script just verified so the artifact is self-describing.
python3 - "$ARTIFACT" <<'EOF'
import json
import sys
path = sys.argv[1]
with open(path) as f:
    d = json.load(f)
d["context"]["streamlab_build_type"] = "Release"
d["context"]["streamlab_note"] = (
    "library_build_type reflects the prebuilt google-benchmark library; "
    "streamlab itself is compiled with CMAKE_BUILD_TYPE=Release and no "
    "sanitizers (enforced by scripts/bench.sh). Parallel campaign "
    "speedup is bounded by context.num_cpus on the recording host.")
with open(path, "w") as f:
    json.dump(d, f, indent=1)
    f.write("\n")
EOF

echo "bench.sh: wrote $ARTIFACT (Release, unsanitized)"
