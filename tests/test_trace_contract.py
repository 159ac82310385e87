"""perfbench/tracing.py rebinds naqlab functions by name and binds their
arguments by name; these tests keep the names it uses alive, so that
``perfbench/run.py --trace 1`` keeps working after a deletion or rename,
and check that its work counts agree with what a traced run did."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

# the tracer looks up every traced module in sys.modules, and bench.py
# imports geometry itself, as this module does
from naqlab import cli, geometry, shooting  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the argument each work-count hook reads from its function's bound arguments
HOOK_ARGUMENTS = {
    "numerics.rk_integrate": "rhs",
    "numerics.bisect": "predicate",
    "numerics.centered_derivative": "x",
    "charge.exact_fields": "r",
    "geometry.random_identity_suite": "trials",
    "geometry.christoffel_from_metric": "grid",
    "geometry.ricci_from_connection": "grid",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_function(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module("naqlab." + module), attr, None)


tracing = load_tracing()


@pytest.mark.parametrize("name", tracing.SPANNED + tracing.LEAVES)
def test_traced_name_is_a_naqlab_callable(name):
    assert callable(traced_function(name)), name


def test_every_argument_hook_is_listed():
    assert set(HOOK_ARGUMENTS) <= set(tracing._HOOKS)
    assert set(HOOK_ARGUMENTS) <= set(tracing.SPANNED)


@pytest.mark.parametrize("name, argument", HOOK_ARGUMENTS.items())
def test_hooked_function_takes_its_argument(name, argument):
    assert argument in inspect.signature(traced_function(name)).parameters


@pytest.mark.parametrize("argv", (
    ["shoot", "--lambda", "1", "--m", "0.1"],
    ["profile", "--eta0", "0.9083"],
    ["profile", "--eta0", "0.9083", "--lambda", "2.5", "--m", "0.15", "--grid", "1e-3:80:300"],
), ids=("shoot", "profile", "profile-lambda2.5"))
def test_work_counts_match_the_trajectories(monkeypatch, argv):
    # every RHS evaluation of the integrator is one call of the module-level
    # ode_rhs, and every accepted step adds one sample to a trajectory; profile
    # resamples eta'' from the trajectory and evaluates the equation no more
    samples = []
    integrate_profile = shooting.integrate_profile

    def recorded(*args, **kwargs):
        traj = integrate_profile(*args, **kwargs)
        samples.append(len(traj.r))
        return traj

    monkeypatch.setattr(shooting, "integrate_profile", recorded)
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    counts = tracer.metrics()
    assert counts["shooting.ode_rhs.calls"] == counts["numerics.rk_integrate.rhs_evals"] > 0
    assert counts["numerics.rk_integrate.calls"] == len(samples) > 0
    assert counts["numerics.rk_integrate.steps_accepted"] == sum(n - 1 for n in samples)


def test_work_counts_match_a_run_that_gives_up():
    # from eta0 = 50 every step is rejected, and the stride shrinks until it
    # underflows at x = 0: the integrator returns that run, with its samples
    # and attempted steps, and the tracer counts it as it counts any other
    tracer = tracing.Tracer()
    with tracer.installed():
        traj = shooting.integrate_profile(50.0, shooting.CouplingParams(1, 0.1), 80.0)
    assert traj.stop == "step underflow"
    counts = tracer.metrics()
    assert counts["numerics.rk_integrate.calls"] == 1
    assert counts["numerics.rk_integrate.steps_accepted"] == len(traj.r) - 1
    assert counts["shooting.ode_rhs.calls"] == counts["numerics.rk_integrate.rhs_evals"] == 1 + 12 * traj.attempted


# perfbench/bench.py imports only these two; the tracer then looks up
# sys.modules["naqlab.<module>"] for every traced name
BENCH_IMPORTS = """
import importlib.util, sys
from naqlab import cli, geometry
loaded = set(sys.modules)
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = sorted({"naqlab." + name.split(".")[0] for name in tracing.SPANNED + tracing.LEAVES} - loaded)
assert not missing, missing
with tracing.Tracer().installed():
    pass
"""


def test_bench_imports_load_every_traced_module():
    # importing cli puts every naqlab module in sys.modules, each to run on
    # its first attribute access, which the tracer's lookups make; so a
    # fresh `from naqlab import cli, geometry` is enough for --trace 1
    src = TRACING.parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", BENCH_IMPORTS, str(TRACING)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
