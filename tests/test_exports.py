"""The package's public names: each module's ``__all__``, declared once and re-exported."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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


_ROOT = Path(__file__).resolve().parent.parent
# Names no run, CLI command, docs/PROTOCOL.md or bench/child.py calls, each kept for a reason.
_KEPT = {
    "exact_xstar": "criterion-05 checks the xstar table against it",
    "estimate_xstar": "criterion-05 checks the Monte-Carlo table against it",
    "assumption2_diagnostic": "item 8's run manifest is to report it (ROADMAP item 7)",
}


def _defined(node: ast.stmt) -> set:
    """The names a top-level statement binds: an assignment's targets, a def's name."""
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {getattr(node, "name", None)}


def _code_without(mod, name: str) -> str:
    """The module's code without its comments, its docstrings and the top-level
    statements that define ``name`` or ``__all__``: what is left names ``name``
    only where code uses it, not where prose mentions it."""
    tree = ast.parse(inspect.getsource(mod))
    tree.body = [node for node in tree.body if not _defined(node) & {name, "__all__"}]
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            node.body = body[1:] or [ast.Pass()]
    return ast.unparse(tree)  # unparsing drops the comments


@pytest.mark.parametrize("module", sorted(DECLARING))
def test_every_declared_name_has_a_caller_outside_the_tests(module):
    """A public name is named in the package's code, docs/PROTOCOL.md or bench/child.py,
    or kept for a stated reason: a helper only tests reach does not stay in src/."""
    outside = [(_ROOT / path).read_text() for path in ("docs/PROTOCOL.md", "bench/child.py")]
    unused = []
    for name in DECLARING[module].__all__:
        texts = outside + [_code_without(mod, name) for mod in _MODULES]
        if name not in _KEPT and not any(re.search(rf"\b{name}\b", text) for text in texts):
            unused.append(name)
    assert not unused, f"bitbandit.{module} exports {unused}, which only tests call"


def test_every_kept_name_is_declared():
    declared = {name for mod in DECLARING.values() for name in mod.__all__}
    assert set(_KEPT) <= declared
