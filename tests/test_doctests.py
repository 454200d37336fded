import doctest
import importlib

import pytest


@pytest.mark.parametrize(
    "name",
    [
        "permpat.perms",
        "permpat.catalan",
        "permpat.avoiders",
        "permpat.bijection",
        "permpat.oracle",
        "permpat.split",
    ],
)
def test_module_doctests(name):
    # resolved via import_module because the package re-exports a function
    # named catalan, shadowing the submodule as an attribute
    results = doctest.testmod(importlib.import_module(name))
    assert results.failed == 0
