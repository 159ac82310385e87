"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a checkout:

    python3 perfbench/report.py [--workloads shoot fields tensor] [--seeds 1 2 3] [--trace 0|1]

Each (workload, seed) is one ``run.py`` process of BENCHMARK.json's
``run_seconds``.  For every metric the report prints its median with unit,
and for end-to-end metrics the spread, (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound.  Per-run values go to stderr as they arrive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    for line in lines:
        if line.startswith("FAIL "):
            print(workload, seed, line, file=sys.stderr)
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            values = {k: v["value"] for k, v in result["metrics"].items() if k in bounds}
            print(workload, seed, result["correct"], result["failed"], result["attempted"],
                  json.dumps(values), file=sys.stderr, flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print("== %s: %d runs, fail_frac %r (%d of %d job runs)"
              % (workload, len(runs), failed / attempted, failed, attempted))
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            line = "%-56s %-14.6g %s" % (name, statistics.median(values), first["unit"])
            if name in bounds and len(values) >= 2:
                s = spread(values)
                line += "  spread %.4f  bound %g  %s" % (s, bounds[name], "ok" if s <= bounds[name] else "WIDE")
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
