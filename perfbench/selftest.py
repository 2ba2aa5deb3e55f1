#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks that the same seed gives the same document digests and query lists
and another seed different ones; that every metric a run prints, traced
and untraced, is exactly the set BENCHMARK.json names, with the same units;
and that every name uses only [A-Za-z0-9_.-]. Builds first, like run.py,
and makes one short run per workload and trace mode (about a minute).
"""

import json
import pathlib
import re
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def describe(binary, workload, seed):
    out = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                          "--describe"], capture_output=True, text=True, check=True)
    return out.stdout


def short_run(binary, workload, trace):
    out = subprocess.run([str(binary), "--workload", workload, "--seed", "3",
                          "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines[:-1], json.loads(lines[-1])


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py accepts")
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            check(bool(NAME.match(entry["name"])), f"{group} name {entry['name']!r} is valid")

    for workload in run.WORKLOADS:
        a, b = describe(binary, workload, 7), describe(binary, workload, 7)
        check(a == b and "doc " in a, f"{workload}: seed 7 twice gives the same inputs")
        check(a != describe(binary, workload, 8), f"{workload}: seed 8 gives other inputs")

        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, notes, result = short_run(binary, workload, trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            printed = {line.split()[0] for line in notes if line and not line.startswith("#")}
            check(rc == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{workload} trace={trace}: correct, no failures")
            check(got == want, f"{workload} trace={trace}: metrics and units match {group}"
                  + ("" if got == want else f" (extra {sorted(set(got) - set(want))},"
                     f" missing {sorted(set(want) - set(got))})"))
            check(printed == set(want), f"{workload} trace={trace}: printed metric lines match")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{workload} trace={trace}: every value is a number")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
