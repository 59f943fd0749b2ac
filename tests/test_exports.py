"""The package's public names: each module's ``__all__``, declared once and re-exported."""

import importlib
import pkgutil

import pytest

import bitbandit

_MODULES = [importlib.import_module(f"bitbandit.{info.name}")
            for info in pkgutil.iter_modules(bitbandit.__path__)]
# every module that declares public names (the CLI declares none), by short name
DECLARING = {mod.__name__.rpartition(".")[2]: mod for mod in _MODULES if hasattr(mod, "__all__")}


def test_the_library_modules_declare_their_names():
    assert set(DECLARING) == {"quantizer", "codec", "env", "known", "unknown", "harness"}


@pytest.mark.parametrize("module", sorted(DECLARING))
def test_every_declared_name_resolves(module):
    names = DECLARING[module].__all__
    assert len(set(names)) == len(names), f"bitbandit.{module}.__all__ repeats a name"
    missing = [name for name in names if not hasattr(DECLARING[module], name)]
    assert not missing, f"bitbandit.{module}.__all__ names {missing}, which it does not define"


def test_no_name_is_declared_by_two_modules():
    owners = {}
    for module, mod in DECLARING.items():
        for name in mod.__all__:
            owners.setdefault(name, []).append(module)
    assert {name: found for name, found in owners.items() if len(found) > 1} == {}


def test_the_package_exports_every_declared_name():
    for module, mod in DECLARING.items():
        for name in mod.__all__:
            assert getattr(bitbandit, name, None) is getattr(mod, name), \
                f"bitbandit.{name} is not bitbandit.{module}.{name}"
