import importlib

import pytest

import stieltjes_ode

MODULES = ("derivator", "quadrature", "solver", "linear", "models",
           "analysis")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    # a stale entry would break ``from module import *`` and every tool that
    # walks ``__all__``
    module = importlib.import_module(f"stieltjes_ode.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_come_from_module_all_lists():
    package = importlib.reload(stieltjes_ode)
    listed = {n for name in MODULES
              for n in importlib.import_module(f"stieltjes_ode.{name}").__all__}
    exported = {n for n, obj in vars(package).items()
                if not n.startswith("_")
                and getattr(obj, "__module__", "").startswith("stieltjes_ode.")}
    assert exported and exported <= listed
