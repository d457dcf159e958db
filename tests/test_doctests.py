"""Run the `>>>` examples in the docstrings of every qsl2 module."""

import doctest
import importlib
import pkgutil

import pytest

import qsl2

MODULES = ["qsl2"] + sorted(
    info.name for info in pkgutil.iter_modules(qsl2.__path__, "qsl2."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
