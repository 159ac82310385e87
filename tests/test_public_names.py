"""Every name a naqlab module exports in ``__all__`` exists, so a deleted
function or class cannot leave its entry behind."""

import importlib

import pytest

import naqlab

MODULES = ["naqlab"] + ["naqlab." + name for name in naqlab.__all__]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
