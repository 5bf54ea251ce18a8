import doctest
import importlib
import pkgutil

import pytest

import extbloch

MODULES = sorted(info.name for info in pkgutil.iter_modules(extbloch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    module = importlib.import_module(f"extbloch.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0, f"{result.failed} doctest failures in {name}"


def test_every_module_is_collected():
    assert {"field", "regulator", "cli"} <= set(MODULES)
