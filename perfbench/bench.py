"""Closed-loop job runner: one client, one process, one thread.

Import this module only after ``naqlab`` is importable (``run.py`` puts
the checkout's ``src`` first on ``sys.path``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from naqlab import cli, geometry

from oracles import check_job, check_scaling
from tracing import Tracer
from workloads import THETA_CENTER, Job

# The calibration kernel takes about CALIBRATION_REF_S on the reference
# machine (2-vCPU VM, Python 3.11.7, numpy 2.4.6) in a quiet phase.
CALIBRATION_REF_S = 0.040
CALIBRATION_STEPS = 12000
CALIBRATION_EVERY_S = 1.0


@dataclass
class JobResult:
    seconds: float
    code: int  # CLI exit status; 0 for a geometry call that returned, -1 on an exception
    output: object  # stdout text, or the geometry arrays
    error: str
    digest: str


def sphere_inputs(n: int, span: float) -> tuple[np.ndarray, geometry.Grid]:
    """Flat (t, w) block plus a unit 2-sphere block on an n^3 (w, theta, phi) grid."""
    h = span / (n - 1)
    axis = h * np.arange(n)
    theta = THETA_CENTER + h * (np.arange(n) - (n - 1) / 2)
    grid = geometry.Grid((np.zeros(1), axis, theta, axis.copy()))
    g = np.zeros(grid.shape + (4, 4))
    g[..., 0, 0] = -1.0
    g[..., 1, 1] = 1.0
    g[..., 2, 2] = 1.0
    g[..., 3, 3] = (np.sin(theta) ** 2)[None, None, :, None]
    return g, grid


def _curvature(g: np.ndarray, grid: geometry.Grid):
    gamma, igrid = geometry.christoffel_from_metric(g, grid)
    ricci, rgrid = geometry.ricci_from_connection(gamma, igrid)
    return gamma, igrid, ricci, rgrid


def run_job(job: Job) -> JobResult:
    """Run one job with stdout and stderr captured; only the call is timed."""
    if job.kind == "geometry":
        g, grid = sphere_inputs(*job.grid)
        call = lambda: _curvature(g, grid)  # noqa: E731
    else:
        call = lambda: cli.main(list(job.argv))  # noqa: E731
    out, err = io.StringIO(), io.StringIO()
    code, value = -1, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            value = call()
            code = 0 if job.kind == "geometry" else value
        except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
            err.write("%s: %s" % (type(exc).__name__, exc))
        seconds = perf_counter() - start
    if job.kind == "geometry":
        data = b"" if value is None else value[0].tobytes() + value[2].tobytes()
    else:
        value = out.getvalue()
        data = value.encode()
    return JobResult(seconds, code, value, err.getvalue().strip(), hashlib.sha256(data).hexdigest())


class Verifier:
    """Checks every job as it finishes, outside its timed call.

    On the first pass each output goes to its oracle; every later pass must
    reproduce the first pass's exit codes and output digests exactly.
    Outputs are dropped once checked, so they do not add to peak memory.
    """

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.first: list[tuple[int, str]] = []  # (exit code, digest) per job
        self.oracle: dict[int, str] = {}  # first-pass oracle failures
        self.failures: dict[int, str] = {}  # first reason seen per failing job
        self.attempted = 0
        self.failed = 0
        self._eta0: dict[int, float] | None = {}
        self._repeat: dict[int, str] = {}

    def see(self, i: int, res: JobResult) -> None:
        job = self.jobs[i]
        if self._eta0 is None:
            if (res.code, res.digest) != self.first[i]:
                self._repeat[i] = "output differs from the first pass"
            return
        self.first.append((res.code, res.digest))
        reason = check_job(job, res.code, res.output)
        if reason is not None:
            self.oracle[i] = reason + (" (%s)" % res.error if res.error else "")
        elif job.kind == "shoot":
            self._eta0[i] = json.loads(res.output)["eta0_star"]

    def end_pass(self) -> None:
        if self._eta0 is not None:
            self.oracle.update(check_scaling(self.jobs, self._eta0))
            self._eta0 = None
        bad = {**self._repeat, **self.oracle}
        self.attempted += len(self.jobs)
        self.failed += len(bad)
        for i, reason in bad.items():
            self.failures.setdefault(i, reason)
        self._repeat = {}

    def digest(self) -> str:
        """sha256 over the first pass's per-job output digests, in job order."""
        return hashlib.sha256("".join(d for _, d in self.first).encode()).hexdigest()


def calibration_kernel() -> float:
    """Time of a fixed, benchmark-owned piece of work; returns seconds.

    It mixes what naqlab spends its time on (Python float math, two-element
    numpy arrays, float formatting) and calls no naqlab code, so a change
    to naqlab cannot change it; only the speed of the machine can.
    """
    start = perf_counter()
    y = np.array([1.0, 0.5])
    acc = 0.0
    parts = []
    for i in range(CALIBRATION_STEPS):
        y = y + 1e-4 * np.array([y[1], -y[0]])
        acc += math.sinh(1e-4 * i) * math.cosh(1e-4 * i)
        if i % 8 == 0:
            parts.append(repr(acc))
    ",".join(parts)
    return perf_counter() - start


class Calibrator:
    """Samples the machine's current speed once per CALIBRATION_EVERY_S of job time.

    On a shared 2-vCPU VM everything runs 1.5 to 2 times slower for tens
    of seconds at a time.  Scaling a run's times by ``scale()`` reports
    them at the reference speed, which removes most of that drift from the
    end-to-end times.
    """

    def __init__(self):
        self.samples = [calibration_kernel()]
        self._since = 0.0

    def tick(self, job_seconds: float) -> None:
        self._since += job_seconds
        if self._since >= CALIBRATION_EVERY_S:
            self.samples.append(calibration_kernel())
            self._since = 0.0

    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.samples)


def run_pass(
    jobs: list[Job],
    verifier: Verifier,
    tracer: Tracer | None = None,
    calibrator: Calibrator | None = None,
) -> list[float]:
    """Run the job list once in order; returns the per-job latencies.

    The pass time is their sum: input set-up, oracle checks and calibration
    samples are excluded.
    """
    latencies = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        res = run_job(job)
        latencies.append(res.seconds)
        verifier.see(i, res)
        if calibrator is not None:
            calibrator.tick(res.seconds)
    verifier.end_pass()
    return latencies
