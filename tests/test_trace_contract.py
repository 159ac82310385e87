"""perfbench/tracing.py rebinds naqlab functions by name and binds their
arguments by name; these tests keep the names it uses alive, so that
``perfbench/run.py --trace 1`` keeps working after a deletion or rename."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
