"""Run the docstring examples of every flagmirror module."""

import doctest
import importlib
import pkgutil

import pytest

import flagmirror

MODULES = ["flagmirror"] + [
    m.name for m in pkgutil.iter_modules(flagmirror.__path__, "flagmirror.")]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
