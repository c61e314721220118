#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of pulphd).

Run from the repository root:

    python3 perfbench/selftest.py

1. A short pass of every workload, untraced and traced, must pass its
   correctness gate and print every end-to-end (trace 0) or per-layer
   (trace 1) metric BENCHMARK.json names, with that metric's unit and a
   finite value, and nothing else. That covers the workloads BENCHMARK.json
   lists and emg-stream-n4, which runs the same way but is not gated (see
   README.md).
2. The same pass with one deliberately corrupted expected response
   (--corrupt-expected) must fail: exit code not 0, "correct": false and at
   least one failed request, for every workload.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
UNGATED_WORKLOADS = ["emg-stream-n4"]


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-expected")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{where}: no result line (exit {code})")
                continue
            if code != 0 or result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: gate failed on a clean run (exit {code})")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            got = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in got:
                    problems.append(f"{where}: metric {name} missing")
                elif got[name]["unit"] != unit:
                    problems.append(f"{where}: {name} unit {got[name]['unit']} != {unit}")
                elif not isinstance(got[name]["value"], (int, float)) or \
                        not math.isfinite(got[name]["value"]):
                    problems.append(f"{where}: {name} value {got[name]['value']!r}")
            for name in set(got) - set(expected[trace]):
                problems.append(f"{where}: unexpected metric {name}")
            print(f"{where}: {len(got)} metrics checked", flush=True)

        code, result = run(workload, 0, corrupt=True)
        if code == 0 or result is None or result["correct"] is not False or result["failed"] < 1:
            problems.append(f"{workload}: gate did not trip on a corrupted expected response "
                            f"(exit {code}, result {result})")
        else:
            print(f"{workload}: gate tripped on a corrupted expected response "
                  f"({result['failed']} failed)", flush=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
