import doctest
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize(
    "name",
    [
        "permpat.errors",
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


def test_readme_library_example():
    path = Path(__file__).resolve().parent.parent / "README.md"
    results = doctest.testfile(str(path), module_relative=False)
    assert results.attempted > 0 and results.failed == 0
