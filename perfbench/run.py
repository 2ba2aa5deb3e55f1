#!/usr/bin/env python3
"""Builds the benchmark from the enclosing checkout and runs one workload.

    python3 perfbench/run.py --workload lib_adversarial --seed 1 \
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
at the checkout root) and its output to stderr, so the last line of standard
output is the run's JSON result. Traced runs (--trace 1) also write their
spans to $CARGO_TARGET_DIR/traces/. Exits non-zero without a result when the
checkout holds no xpe sources to build.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lib_adversarial", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_base():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no xpe sources at {ROOT}; run from a checkout of the repository")
    out = build_base() / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_base() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
