import os
import subprocess
import sys
from pathlib import Path

import pytest

import permpat

SRC = Path(__file__).resolve().parent.parent / "src"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from permpat import *", namespace)
    missing = [name for name in permpat.__all__ if name not in namespace]
    assert missing == []
    assert set(permpat.__all__) <= set(dir(permpat))


def test_catalan_stays_the_function_after_every_submodule_is_imported():
    # Importing a submodule binds the package attribute of its name to the
    # module; the package must keep the function catalan() under that name.
    # A fresh process, so that the imports really happen here.
    code = (
        "import importlib, permpat\n"
        "for name in ('avoiders', 'bijection', 'catalan', 'cli', 'errors', 'oracle', 'perms'):\n"
        "    importlib.import_module('permpat.' + name)\n"
        "print(permpat.catalan(5), permpat.perms.count_321(permpat.Permutation((3, 2, 1))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "42 1\n"
    assert permpat.catalan(5) == 42


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        permpat.nonsense
