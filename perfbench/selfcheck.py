#!/usr/bin/env python3
"""Self-check of the daemon benchmark.

    python3 perfbench/selfcheck.py [--seconds 2]

For every workload in BENCHMARK.json: a short --trace 0 run and a short
--trace 1 run must print exactly the end-to-end and per-layer metric names
BENCHMARK.json declares, with the declared units, and report correct: true.
Then one short run with its first reference answer deliberately corrupted
(PERFBENCH_CORRUPT_REFERENCE=1) must exit non-zero after reporting
correct: false. Exits non-zero
on the first failure. Run from the root of a source checkout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seconds, trace, env=None, fails=False):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=900)
    if (proc.returncode != 0) != fails:
        raise SystemExit(f"FAIL {workload} --trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(workload, trace, result, declared):
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    missing = sorted(set(printed) - set(declared))
    absent = sorted(set(declared) - set(printed))
    if missing or absent:
        raise SystemExit(f"FAIL {workload} --trace {trace}: printed but not in "
                         f"BENCHMARK.json {missing}; declared but not printed {absent}")
    wrong = sorted(n for n, u in printed.items() if declared[n] != u)
    if wrong:
        raise SystemExit(f"FAIL {workload} --trace {trace}: unit differs for {wrong}")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL {workload} --trace {trace}: run not correct: "
                         f"{result['failed']} of {result['attempted']} failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result = run(workload, args.seconds, trace)
            check_names(workload, trace, result, declared)
            print(f"ok   {workload} --trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} requests checked", flush=True)
    env = dict(os.environ, PERFBENCH_CORRUPT_REFERENCE="1")
    result = run(workloads[0], args.seconds, 0, env, fails=True)
    if result["correct"] or result["failed"] == 0:
        raise SystemExit("FAIL a corrupted reference answer went undetected")
    print(f"ok   corrupted reference detected ({result['failed']} of "
          f"{result['attempted']} flagged)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
