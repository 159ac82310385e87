"""naqlab benchmark: seeded closed-loop workloads over the CLI and the geometry kernels.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {shoot,fields,tensor} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``     median wall time of fresh interpreters that import
                  ``naqlab.cli`` and build its parser,
* ``wall_s``      median wall time of one pass over the job list (the sum
                  of its jobs' timed calls; input set-up and checks excluded),
* ``job_p50_ms``  median per-job latency over every timed job,
* ``peak_rss_mb`` peak resident set of this process.

``wall_s`` and ``job_p50_ms`` are reported at a reference machine speed:
the measured times are multiplied by ``bench.CALIBRATION_REF_S`` over the
median time of a fixed calibration kernel sampled through the run (see
``bench.Calibrator``).  The raw times and the scale factor are printed on
the ``summary`` line.

After one warm-up job it repeats passes over the seeded job list for
``--seconds``; it starts another pass only if that pass would end less than
half a pass after ``--seconds``.  ``--trace 1`` alternates untraced and
traced passes under the same rule (per pair) and reports the per-layer
metrics of the traced passes (see tracing.py) and the tracing overhead, the
difference of the median traced and untraced pass times; the spans of the
first traced pass are written to ``perfbench/out/``.

Every job is checked against an independent oracle (oracles.py) and every
later pass must reproduce the first byte for byte.  Failing jobs are listed
by command line.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the job mix, the output digest, ``fail_frac`` and a meta block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Pinned to 1 before numpy is first imported, which is why this file imports
# numpy and the modules that use it only inside functions.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# setup_s is the median of SETUP_RUNS fresh interpreters, started after one
# more that compiles the bytecode and warms the file cache.
SETUP_RUNS = 7
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import naqlab.cli; naqlab.cli.build_parser()"


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_naqlab():
    """Import naqlab from this checkout's src/, and from nowhere else."""
    if not (SRC / "naqlab" / "cli.py").is_file():
        raise SystemExit("perfbench: no naqlab sources at %s" % (SRC / "naqlab"))
    sys.path.insert(0, str(SRC))
    import naqlab

    if Path(naqlab.__file__).resolve().parent != SRC / "naqlab":
        raise SystemExit("perfbench: imported naqlab from %s, not %s" % (naqlab.__file__, SRC))


def measure_setup() -> float:
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times[1:])


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def meta() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def timed_run(jobs, seconds: float):
    """End-to-end metrics with tracing off; returns (metrics, verifier, summary)."""
    from bench import Calibrator, Verifier, run_job, run_pass

    setup_s = measure_setup()
    run_job(jobs[0])  # warm-up
    deadline = perf_counter() + seconds
    verifier, calibrator = Verifier(jobs), Calibrator()
    walls, latencies = [], []
    while not walls or perf_counter() + statistics.median(walls) / 2 <= deadline:
        times = run_pass(jobs, verifier, calibrator=calibrator)
        walls.append(sum(times))
        latencies += times
    scale = calibrator.scale()
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls) * scale, "s"),
        "job_p50_ms": (statistics.median(latencies) * scale * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "passes": len(walls),
        "speed_scale": scale,
        "calibration_samples": len(calibrator.samples),
        "raw_wall_s": statistics.median(walls),
        "raw_job_p50_ms": statistics.median(latencies) * 1e3,
    }
    return metrics, verifier, summary


def traced_run(jobs, seconds: float, workload: str, seed: int):
    """Per-layer metrics from alternating untraced and traced passes.

    Each per-layer value is the median over the traced passes (the work
    counts are equal in every pass).  Returns the same triple as
    ``timed_run``.
    """
    from bench import Verifier, run_job, run_pass
    from tracing import Tracer, metric_names

    run_job(jobs[0])  # warm-up
    deadline = perf_counter() + seconds
    verifier = Verifier(jobs)
    untraced, traced, tracers = [], [], []
    while not traced or perf_counter() + (statistics.median(untraced) + statistics.median(traced)) / 2 <= deadline:
        untraced.append(sum(run_pass(jobs, verifier)))
        tracer = Tracer()
        with tracer.installed():
            traced.append(sum(run_pass(jobs, verifier, tracer)))
        tracers.append(tracer)
    per_pass = [t.metrics() for t in tracers]
    metrics = {name: (statistics.median(m[name] for m in per_pass), unit) for name, unit in metric_names()}
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / ("spans-%s-seed%d.json" % (workload, seed))
    spans_path.write_text(json.dumps(tracers[0].span_records()))
    summary = {"passes": 2 * len(traced), "spans": str(spans_path.relative_to(ROOT))}
    return metrics, verifier, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    load_naqlab()
    from workloads import make_jobs

    jobs = make_jobs(args.workload, args.seed)
    if args.trace:
        metrics, verifier, summary = traced_run(jobs, args.seconds, args.workload, args.seed)
    else:
        metrics, verifier, summary = timed_run(jobs, args.seconds)

    kinds = Counter(job.kind for job in jobs)
    print("workload %s seed %d: %d jobs per pass %s" % (args.workload, args.seed, len(jobs), dict(kinds)))
    print("summary " + json.dumps(dict(summary, digest=verifier.digest()), sort_keys=True))
    for i in sorted(verifier.failures):
        print("FAIL %s: %s" % (jobs[i].label(), verifier.failures[i]))
    print("fail_frac %r ratio (%d of %d job runs)"
          % (verifier.failed / verifier.attempted, verifier.failed, verifier.attempted))
    for name, (value, unit) in metrics.items():
        print("%-56s %r %s" % (name, value, unit))
    print("meta " + json.dumps(meta(), sort_keys=True))
    result = {
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
