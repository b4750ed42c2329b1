#!/usr/bin/env python3
"""Benchmark regression gate: compare fresh google-benchmark JSON against a
committed baseline and fail on drift beyond a tolerance band.

Usage:
    bench_gate.py [--tolerance PCT] [--overhead-ceiling PCT] [--report-only]
                  BASELINE CURRENT [BASELINE CURRENT ...]

Positional arguments come in (baseline, current) pairs — e.g. the committed
BENCH_TELEMETRY.json against a just-recorded run of the same binary. Normally
invoked via `scripts/bench.sh gate`, which produces the CURRENT files from a
verified Release tree.

What is compared, per benchmark name (aggregate mean preferred when
--benchmark_repetitions recorded one):
  * real_time            — lower is better
  * items_per_second and any *_per_sec rate counter — higher is better
  * overhead_pct counter — gated against an absolute ceiling (default 5.0),
    not against the baseline: the telemetry acceptance bar is "within 5% of
    the no-telemetry path", so a baseline that happened to record 2% must
    not make 4% a failure.

A benchmark present in the baseline but missing from the current run counts
as a regression (a silently deleted benchmark would otherwise hide one).
Benchmarks only in the current run are reported but never fail the gate.

Exit codes: 0 = within tolerance, 1 = regression, 2 = bad input.
"""

import argparse
import json
import sys

# Generous by design: single-digit-CPU recording hosts show ±30% run-to-run
# drift on multi-millisecond campaign benches, so a tight band would page on
# weather. The gate exists to catch step-function regressions (an accidental
# debug build, a hot-path pessimization), not single-digit creep — trend
# tracking belongs to the recorded artifacts' history.
DEFAULT_TOLERANCE_PCT = 50.0
DEFAULT_OVERHEAD_CEILING_PCT = 5.0


def load_benchmarks(path):
    """Returns {name: entry} preferring per-repetition aggregate means."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        raise SystemExit(f"bench_gate: cannot read {path}: {err}")
    entries = doc.get("benchmarks")
    if not isinstance(entries, list):
        raise SystemExit(f"bench_gate: {path} has no 'benchmarks' array")
    plain, means = {}, {}
    for entry in entries:
        name = entry.get("run_name") or entry.get("name")
        if not name:
            continue
        aggregate = entry.get("aggregate_name")
        if aggregate == "mean":
            means[name] = entry
        elif aggregate is None:
            plain[name] = entry
    merged = dict(plain)
    merged.update(means)  # mean wins when both exist
    return merged


def metrics_of(entry):
    """Yields (metric_name, value, higher_is_better) for gated metrics."""
    if isinstance(entry.get("real_time"), (int, float)):
        yield "real_time", float(entry["real_time"]), False
    if isinstance(entry.get("items_per_second"), (int, float)):
        yield "items_per_second", float(entry["items_per_second"]), True
    for key, value in entry.items():
        if key.endswith("_per_sec") and isinstance(value, (int, float)):
            yield key, float(value), True


def compare(baseline_path, current_path, tolerance_pct, overhead_ceiling_pct):
    """Returns (regressions, report_lines)."""
    base = load_benchmarks(baseline_path)
    cur = load_benchmarks(current_path)
    regressions, lines = [], []

    for name in sorted(base):
        if name not in cur:
            regressions.append(f"{name}: missing from current run")
            continue
        base_entry, cur_entry = base[name], cur[name]
        cur_metrics = {m: (v, hib) for m, v, hib in metrics_of(cur_entry)}
        for metric, base_value, higher_better in metrics_of(base_entry):
            if metric not in cur_metrics or base_value == 0:
                continue
            cur_value = cur_metrics[metric][0]
            delta_pct = (cur_value - base_value) / base_value * 100.0
            worse = -delta_pct if higher_better else delta_pct
            verdict = "REGRESSION" if worse > tolerance_pct else "ok"
            lines.append(
                f"{verdict:>10}  {name} {metric}: "
                f"{base_value:.6g} -> {cur_value:.6g} ({delta_pct:+.1f}%)")
            if worse > tolerance_pct:
                regressions.append(
                    f"{name} {metric}: {delta_pct:+.1f}% "
                    f"(tolerance ±{tolerance_pct:.0f}%)")
        # Absolute gate: the telemetry overhead acceptance bar. The ceiling
        # is a claim about the *committed* artifact, so it binds the
        # baseline strictly; a fresh run's estimate swings by ~a point on
        # noisy hosts, so it only fails when clearly above the ceiling
        # (1.5x) — within that band the strict baseline check is the claim.
        for which, entry, ceiling in (
                ("baseline", base_entry, overhead_ceiling_pct),
                ("current", cur_entry, overhead_ceiling_pct * 1.5)):
            overhead = entry.get("overhead_pct")
            if not isinstance(overhead, (int, float)):
                continue
            ok = float(overhead) <= ceiling
            lines.append(
                f"{'ok' if ok else 'REGRESSION':>10}  {name} "
                f"overhead_pct[{which}]: {overhead:.2f} "
                f"(ceiling {ceiling:.2f})")
            if not ok:
                regressions.append(
                    f"{name} overhead_pct[{which}]: {overhead:.2f} "
                    f"exceeds ceiling {ceiling:.2f}")

    for name in sorted(set(cur) - set(base)):
        lines.append(f"{'new':>10}  {name} (not in baseline; not gated)")
    return regressions, lines


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare benchmark JSON against committed baselines.")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE_PCT, metavar="PCT",
                        help="allowed drift before a metric counts as a "
                             "regression (default %(default)s%%)")
    parser.add_argument("--overhead-ceiling", type=float,
                        default=DEFAULT_OVERHEAD_CEILING_PCT, metavar="PCT",
                        help="absolute ceiling for overhead_pct counters "
                             "(default %(default)s%%)")
    parser.add_argument("--report-only", action="store_true",
                        help="print the comparison but always exit 0")
    parser.add_argument("files", nargs="+", metavar="BASELINE CURRENT",
                        help="baseline/current JSON pairs")
    args = parser.parse_args(argv)

    if len(args.files) % 2 != 0:
        parser.error("expected BASELINE CURRENT pairs (even argument count)")

    all_regressions = []
    for baseline, current in zip(args.files[::2], args.files[1::2]):
        print(f"== {baseline} vs {current}")
        regressions, lines = compare(
            baseline, current, args.tolerance, args.overhead_ceiling)
        for line in lines:
            print(line)
        all_regressions.extend(regressions)

    if all_regressions:
        print(f"\nbench_gate: {len(all_regressions)} regression(s):")
        for r in all_regressions:
            print(f"  - {r}")
        return 0 if args.report_only else 1
    print("\nbench_gate: all benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            sys.exit(2)
        raise
