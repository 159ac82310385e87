"""Seeded job lists for the three benchmark workloads.

A job is either a ``naqlab`` command line, run in-process through
``naqlab.cli.main``, or (kind ``geometry``) a direct call of the public
geometry kernels on a sphere-block metric.

Continuous parameters are drawn by antithetic stratified sampling: the
range is cut into equal slices and each slice gets a pair of draws at
offsets u and 1 - u.  Each draw is still uniform over the range, but a
pair's summed cost hardly depends on u, so the cost of a pass, and with it
``wall_s``, depends little on the seed while the inputs differ from seed to
seed.  The largest size of each size range is always in the list, so peak
memory does not depend on the seed either.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("shoot", "fields", "tensor")

# Frozen oracle inputs: the reference jobs of the shoot workload and the
# starting values of the fields workload's profile jobs.
REFERENCE_ETA0 = {0.1: 0.9083, 0.15: 1.4810965307}

# Geometry jobs sample theta around 1 rad, where sin(theta) stays well away
# from zero; the O(h^2) oracle constants in oracles.py assume spans <= 0.6.
THETA_CENTER = 1.0


@dataclass(frozen=True)
class Job:
    """One unit of work; ``argv`` for CLI jobs, ``grid`` for geometry jobs."""

    kind: str
    argv: tuple[str, ...] = ()
    grid: tuple[int, float] = (0, 0.0)  # (points per axis, theta span)

    def label(self) -> str:
        if self.kind == "geometry":
            n, span = self.grid
            return "geometry n=%d span=%s" % (n, _num(span))
        return "naqlab " + " ".join(self.argv)


def _num(x: float) -> str:
    """Short decimal text for a drawn value; the CLI parses it back."""
    return "%.6g" % x


def _strata(rng: random.Random, k: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """k draws from [lo, hi]: an antithetic pair in each of k/2 equal slices, shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    width = (b - a) / (k // 2)
    draws = []
    for i in range(k // 2):
        u = rng.random()
        draws += [a + width * (i + u), a + width * (i + 1 - u)]
    rng.shuffle(draws)
    return [math.exp(x) for x in draws] if log else draws


def _largest_first(rng: random.Random, jobs: list[Job]) -> list[Job]:
    """Keep jobs[0], the largest, first (it is also the warm-up job); shuffle the rest.

    The process's peak memory is then reached on a fresh heap, which keeps
    ``peak_rss_mb`` from depending on the order of the other jobs.
    """
    rest = jobs[1:]
    rng.shuffle(rest)
    return jobs[:1] + rest


def shoot_jobs(rng: random.Random) -> list[Job]:
    """Reference jobs plus drawn (lambda, m) jobs, each with its lambda = 1 partner.

    Per pass: four drawn jobs at tol 1e-5 and two at 1e-12, so that with
    the references 9 of the 14 jobs use the cheaper tolerance and the
    median job latency falls inside that class on every seed.
    """
    jobs = [
        Job("shoot", ("shoot", "--lambda", "1", "--m", "0.1")),
        Job("shoot", ("shoot", "--lambda", "1", "--m", "0.15", "--tol", "1e-12")),
    ]
    for tol, k in (("1e-05", 4), ("1e-12", 2)):
        ms = _strata(rng, k, 0.05, 0.15)
        lams = _strata(rng, k, 0.5, 4.0, log=True)
        for lam, m in zip(lams, ms):
            for lam_job in (_num(lam), "1"):
                jobs.append(Job("shoot", ("shoot", "--lambda", lam_job, "--m", _num(m), "--tol", tol)))
    rng.shuffle(jobs)
    return jobs


def _units(rng: random.Random) -> list[str]:
    # alpha = q sqrt(G)/c^2 stays below ~4.4, so alpha/r on the default
    # grid reaches the asymptotic branch (alpha/r > 30) without overflow.
    q, g, c = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.8, 1.25)
    return ["--q", _num(q), "--G", _num(g), "--c", _num(c)]


def fields_jobs(rng: random.Random) -> list[Job]:
    """Closed-form csv tables, energy reports and profile tables.

    Twenty drawn csv sizes and twelve profiles fill the 20-60 ms range
    densely, so the median job latency moves little from seed to seed.
    """
    jobs = []
    for n in [5e4] + _strata(rng, 20, 1e3, 5e4, log=True):
        scale = rng.choice(("log", "linear"))
        argv = ["exact", "--format", "csv", "--grid", "1e-2:1e2:%d" % round(n), "--grid-scale", scale]
        jobs.append(Job("exact-csv", tuple(argv + _units(rng))))
    tols = ["1e-08", "1e-10", "1e-12"] * 4
    rng.shuffle(tols)
    for rmin, tol in zip(_strata(rng, 12, 1e-9, 1e-1, log=True), tols):
        argv = ["exact", "--format", "json", "--rmin", _num(rmin), "--tol", tol]
        jobs.append(Job("exact-json", tuple(argv + _units(rng))))
    lams = _strata(rng, 12, 0.5, 4.0, log=True)
    ns = _strata(rng, 12, 200, 8000, log=True)
    for i, (lam, n) in enumerate(zip(lams, ns)):
        m = (0.1, 0.15)[i % 2]
        argv = ("profile", "--eta0", repr(REFERENCE_ETA0[m]), "--m", repr(m),
                "--lambda", _num(lam), "--grid", "1e-3:80:%d" % round(n))
        jobs.append(Job("profile", argv))
    return _largest_first(rng, jobs)


def tensor_jobs(rng: random.Random) -> list[Job]:
    """Torsion identity suites, sphere-metric curvature and associator series."""
    jobs = []
    for n in [25] + _strata(rng, 6, 9, 25.999):
        jobs.append(Job("geometry", grid=(int(n), round(rng.uniform(0.2, 0.6), 6))))
    for trials in _strata(rng, 6, 200, 2000):
        seed = rng.randrange(2**31)
        jobs.append(Job("torsion-check", ("torsion-check", "--seed", str(seed), "--trials", str(round(trials)))))
    for power in rng.sample(range(1, 41), 24):
        argv = ("assoc", "--power", str(power)) + (("--vacuum",) if rng.random() < 0.5 else ())
        jobs.append(Job("assoc", argv))
    return _largest_first(rng, jobs)


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the same seed gives the same list."""
    build = {"shoot": shoot_jobs, "fields": fields_jobs, "tensor": tensor_jobs}[workload]
    return build(random.Random(seed))
