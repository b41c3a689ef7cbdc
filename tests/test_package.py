"""The flat ``mef`` namespace: each name comes from the module that lists it."""

import inspect
import os

import pytest

import mef
from mef import bruteforce, config, filter, liegroup, quaternion, simulation

SUBMODULES = (bruteforce, config, filter, liegroup, quaternion, simulation)


def test_every_public_name_is_listed_by_its_defining_module():
    for name in mef.__all__:
        value = getattr(mef, name)
        owners = [module.__name__ for module in SUBMODULES
                  if name in module.__all__ and getattr(module, name) is value]
        assert owners, f"{name} is listed in no submodule's __all__"
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ in owners, name


def test_the_runtime_needs_numpy_alone():
    # scipy serves the tests only (see test_cli's scipy-free check run).
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
