#!/usr/bin/env bash
# Prints each non-template streamlab:: function defined in src/ that no
# program contains, one demangled signature per line, sorted.
#
# The programs are what runs the paper's chain end to end: reproduce,
# bench_micro, bench_telemetry, the examples and e2ebench. Both the root
# tree and the e2ebench package (configured from outside e2ebench/, as
# e2ebench/run.py does) are built at -O0 with one section per function and
# linked with --gc-sections, so a binary keeps exactly the functions some
# path from its main reaches. The candidates are the functions the src/
# libraries define.
#
# Usage: scripts/reachability.sh
# The builds go to build-reachability/ (root and e2ebench trees). Names a
# test needs as its oracle are kept in scripts/reachability_allow.txt; the
# script exits 1 when it prints a name that is not listed there.
set -euo pipefail
export LC_ALL=C  # one sort order for comm, on any host

cd "$(dirname "$0")/.."
ROOT="$PWD"
OUT="$ROOT/build-reachability"
JOBS="$(nproc)"

configure() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

examples=(quickstart compare_players capture_filter synthesize_traffic path_probe
          lab_shark turbulence_lab)
configure "$ROOT" "$OUT/root"
cmake --build "$OUT/root" -j "$JOBS" \
  --target reproduce bench_micro bench_telemetry "${examples[@]}" >/dev/null
configure "$ROOT/e2ebench" "$OUT/e2ebench"
cmake --build "$OUT/e2ebench" -j "$JOBS" --target e2ebench >/dev/null

# Demangled names of defined functions (text symbols, strong or weak).
functions() { nm -C --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TtWw]$/' |
              cut -d' ' -f3- | sort -u; }

programs=("$OUT/root/bench/reproduce" "$OUT/root/bench/bench_micro"
          "$OUT/root/bench/bench_telemetry" "$OUT/e2ebench/e2ebench")
for name in "${examples[@]}"; do programs+=("$OUT/root/examples/$name"); done

# A candidate is a streamlab:: function whose qualified name (the text
# before its parameter list) has no template arguments (the '<' of an
# operator<, operator<< or operator<=> is not one), and which is not a
# lambda or local class inside another function.
mapfile -t libs < <(find "$OUT/root/src" -name 'libstreamlab_*.a' | sort)
functions "${libs[@]}" |
  grep -E '^streamlab::([^(<]|operator(<=>|<<=?|<=?))*\(' |
  grep -v -e '{lambda' -e '{unnamed' |
  sort -u >"$OUT/defined.txt"
for program in "${programs[@]}"; do functions "$program"; done |
  sort -u >"$OUT/reached.txt"
comm -23 "$OUT/defined.txt" "$OUT/reached.txt" | tee "$OUT/unreached.txt"

sed -e '/^#/d' -e 's/ # .*$//' scripts/reachability_allow.txt | sort -u >"$OUT/allowed.txt"
unlisted="$(comm -23 "$OUT/unreached.txt" "$OUT/allowed.txt")"
if [[ -n "$unlisted" ]]; then
  printf '%s\n' "Unreached functions not on scripts/reachability_allow.txt:" "$unlisted" \
    "Delete them, or list each with its reason in the allowlist." >&2
  exit 1
fi
