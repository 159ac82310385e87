"""Span tracing of naqlab's public functions, installed from outside the package.

``Tracer.installed()`` rebinds each traced function in every naqlab module
namespace that holds it (``shooting`` imports ``rk_integrate`` and
``bisect`` by name, ``cli`` imports ``exact_fields`` and ``energy_report``),
and restores the originals on exit.  Spanned functions record one span per
call; the hot leaves only accumulate a call count and time.  A span's self
time is its duration minus the time covered by its child spans and leaf
calls.  Work counts are taken at the same boundaries, from arguments and
results, so no counter inside naqlab is needed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

SPANNED = (
    "cli.main",
    "shooting.find_regular_eta0",
    "shooting.integrate_profile",
    "shooting.derive_fields",
    "numerics.rk_integrate",
    "numerics.bisect",
    "numerics.quad_adaptive",
    "numerics.centered_derivative",
    "charge.exact_fields",
    "charge.energy_report",
    "geometry.random_identity_suite",
    "geometry.contorsion_from_torsion",
    "geometry.christoffel_from_metric",
    "geometry.ricci_from_connection",
    "algebra.normalize",
    "algebra.vacuum_expectation_corrections",
)
LEAVES = ("shooting.ode_rhs", "charge.exact_solution")

WORK_COUNTS = (
    "numerics.rk_integrate.rhs_evals",
    "numerics.rk_integrate.steps_accepted",
    "numerics.rk_integrate.steps_rejected",
    "numerics.rk_integrate.accept_ratio",
    "numerics.bisect.probes",
    "numerics.quad_adaptive.evals",
    "numerics.centered_derivative.points",
    "shooting.find_regular_eta0.trajectories_per_solve",
    "charge.exact_fields.radii",
    "geometry.random_identity_suite.trials",
    "geometry.christoffel_from_metric.points",
    "geometry.ricci_from_connection.points",
    "cli.main.output_bytes",
)

# Dormand-Prince 5(4) with first-same-as-last: one RHS evaluation to start
# each integration, then six per attempted step.
DP5_STAGES_PER_STEP = 6


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in SPANNED:
        out += [(name + ".calls", "count"), (name + ".total_s", "s"), (name + ".self_s", "s")]
    for name in LEAVES:
        out += [(name + ".calls", "count"), (name + ".total_s", "s")]
    for name in WORK_COUNTS:
        unit = {"accept_ratio": "ratio", "output_bytes": "bytes"}.get(name.rsplit(".", 1)[1], "count")
        out.append((name, unit))
    return out


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """In-memory spans and counters; ``job`` tags the spans of the current job."""

    def __init__(self):
        self.job = -1
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[_Frame] = []
        self._next_id = 0

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook:
                bound = sig.bind(*args, **kwargs)
                after = hook(self, bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            parent = self._stack[-1].span_id if self._stack else -1
            frame = _Frame(self._next_id)
            self._next_id += 1
            self._stack.append(frame)
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                if hook:
                    after(outcome)
                self._close(name, frame, parent, start, end)

        return wrapper

    def _close(self, name, frame, parent, start, end):
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans.append((frame.span_id, parent, self.job, name, start, end))

    def _leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.calls[name] += 1
                self.total_s[name] += duration
                if self._stack:
                    self._stack[-1].child_s += duration

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in all loaded naqlab modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "naqlab" or n.startswith("naqlab.")]
        saved = []
        try:
            for name, make in [(n, self._spanned) for n in SPANNED] + [(n, self._leaf) for n in LEAVES]:
                module, attr = name.split(".")
                original = getattr(sys.modules["naqlab." + module], attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in SPANNED:
            out[name + ".calls"] = self.calls[name]
            out[name + ".total_s"] = self.total_s[name]
            out[name + ".self_s"] = self.self_s[name]
        for name in LEAVES:
            out[name + ".calls"] = self.calls[name]
            out[name + ".total_s"] = self.total_s[name]
        c = self.counts
        rk_calls = self.calls["numerics.rk_integrate"]
        attempted = (c["rk_rhs_evals"] - rk_calls) // DP5_STAGES_PER_STEP
        solves = self.calls["shooting.find_regular_eta0"]
        out.update({
            "numerics.rk_integrate.rhs_evals": c["rk_rhs_evals"],
            "numerics.rk_integrate.steps_accepted": c["rk_accepted"],
            "numerics.rk_integrate.steps_rejected": attempted - c["rk_accepted"],
            "numerics.rk_integrate.accept_ratio": c["rk_accepted"] / attempted if attempted else 0.0,
            "numerics.bisect.probes": c["bisect_probes"],
            "numerics.quad_adaptive.evals": c["quad_evals"],
            "numerics.centered_derivative.points": c["derivative_points"],
            "shooting.find_regular_eta0.trajectories_per_solve": (
                c["solve_trajectories"] / solves if solves else 0.0
            ),
            "charge.exact_fields.radii": c["radii"],
            "geometry.random_identity_suite.trials": c["trials"],
            "geometry.christoffel_from_metric.points": c["christoffel_points"],
            "geometry.ricci_from_connection.points": c["ricci_points"],
            "cli.main.output_bytes": c["output_bytes"],
        })
        return out

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "job", "name", "start", "end")
        return [dict(zip(keys, span)) for span in sorted(self.spans)]


# ---------------------------------------------------------------------------
# Work-count hooks: each sees the bound arguments before the call (and may
# replace a callable argument with a counting one) and returns a callback
# that receives the result or the exception.
# ---------------------------------------------------------------------------


def _partial_of(outcome):
    """Result object, or the partial result an integration/quadrature error carries."""
    return getattr(outcome, "partial", outcome)


def _rk_hook(tracer, arguments):
    rhs = arguments["rhs"]

    def counted(r, y):
        tracer.counts["rk_rhs_evals"] += 1
        return rhs(r, y)

    arguments["rhs"] = counted

    def after(outcome):
        sol = _partial_of(outcome)
        if hasattr(sol, "r"):
            tracer.counts["rk_accepted"] += len(sol.r) - 1

    return after


def _bisect_hook(tracer, arguments):
    predicate = arguments["predicate"]

    def counted(x):
        tracer.counts["bisect_probes"] += 1
        return predicate(x)

    arguments["predicate"] = counted
    return _ignore


def _quad_hook(tracer, arguments):
    def after(outcome):
        result = _partial_of(outcome)
        if hasattr(result, "evaluations"):
            tracer.counts["quad_evals"] += result.evaluations

    return after


def _solve_hook(tracer, arguments):
    before = tracer.calls["shooting.integrate_profile"]

    def after(outcome):
        tracer.counts["solve_trajectories"] += tracer.calls["shooting.integrate_profile"] - before

    return after


def _count(key, value):
    def hook(tracer, arguments):
        tracer.counts[key] += value(arguments)
        return _ignore

    return hook


def _grid_points(arguments) -> int:
    return math.prod(arguments["grid"].shape)


def _output_hook(tracer, arguments):
    out = sys.stdout
    start = out.tell()

    def after(outcome):
        out.seek(start)
        tracer.counts["output_bytes"] += len(out.read().encode())

    return after


def _ignore(outcome):
    pass


_HOOKS = {
    "cli.main": _output_hook,
    "shooting.find_regular_eta0": _solve_hook,
    "numerics.rk_integrate": _rk_hook,
    "numerics.bisect": _bisect_hook,
    "numerics.quad_adaptive": _quad_hook,
    "numerics.centered_derivative": _count("derivative_points", lambda a: len(a["x"])),
    "charge.exact_fields": _count("radii", lambda a: np.size(a["r"])),
    "geometry.random_identity_suite": _count("trials", lambda a: a["trials"]),
    "geometry.christoffel_from_metric": _count("christoffel_points", _grid_points),
    "geometry.ricci_from_connection": _count("ricci_points", _grid_points),
}
