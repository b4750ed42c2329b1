#!/usr/bin/env python3
"""Build and run streamlab's end-to-end benchmark (see README.md here).

    python3 e2ebench/run.py --workload paper --seed 20020501 --seconds 25 --trace 0

Configures a Release build of the benchmark package in .bench_build/ at the
repository root, refuses any other build type or a sanitized tree (the rule
scripts/bench.sh applies), builds the e2ebench binary and runs one workload.
The binary's output is passed through except its last line, the result,
whose bare metric values are printed here with their units from
BENCHMARK.json: that file is the one list of metric names and units.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cache_value(cache_text, key):
    for line in cache_text.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1].strip()
    return ""


def scratch_env():
    """Keeps compiler temporaries inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no streamlab sources at {ROOT / 'src'}; run from a full checkout")
    cache = BUILD / "CMakeCache.txt"
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "env": scratch_env()}
    if not cache.is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    text = cache.read_text()
    build_type = cache_value(text, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail(f"refusing to benchmark a '{build_type}' build tree in {BUILD}; "
             "delete it so it is configured as Release")
    sanitize = cache_value(text, "STREAMLAB_SANITIZE")
    if sanitize:
        fail(f"refusing to benchmark a sanitized build (STREAMLAB_SANITIZE={sanitize})")
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "e2ebench"],
                   check=True, **quiet)
    return BUILD / "e2ebench"


def source_id():
    """The git commit when the checkout is a repository, else a digest of src/."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        if rev:
            return "git:" + rev
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def with_units(values, trace):
    """The result's metrics in BENCHMARK.json order, each with its unit.

    Every name the binary reports must be declared. A traced run reports
    only the layers its workload exercises; the others read 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    undeclared = set(values) - {m["name"] for m in declared}
    if undeclared:
        fail(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not trace:
        fail(f"end-to-end metrics not reported: {missing}")
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper", "campaign", "fleet", "capture"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    OUT.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(OUT / args.workload),
               "--source", source_id()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=scratch_env())
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"e2ebench exited with {proc.returncode}")
    *lines, last = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(last)
    result["metrics"] = with_units(result["metrics"], args.trace)
    sys.stdout.write("".join(line + "\n" for line in lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
