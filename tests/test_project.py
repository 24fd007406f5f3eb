"""Packaging metadata and module boundaries: every declared console
script resolves to a callable, the test extra declares every third-party
module the tests import, no library module imports a private name
from another, every library class is an exception, a namedtuple or an
``ImmutableValue``, and importing the package loads none of the standard
library's slow-to-import modules named below."""

import ast
import glob
import importlib
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions

import pytest

from tropic_pic.exact_lattice import ImmutableValue

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _project():
    # Only the tests that read pyproject.toml skip where tomllib is missing.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        return tomllib.load(f)["project"]


def test_console_scripts_resolve():
    scripts = _project().get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _normalize(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def test_test_extra_declares_third_party_imports():
    declared = {_normalize(re.match(r"[A-Za-z0-9_.-]+", req).group())
                for req in _project()["optional-dependencies"]["test"]}
    test_dirs = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench", "tests")]
    # First-party: the package and the modules the tests import by path.
    local = {os.path.splitext(name)[0]
             for d in test_dirs + [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
             for name in os.listdir(d)}
    imported = set()
    for d in test_dirs:
        for path in glob.glob(os.path.join(d, "*.py")):
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert "pytest" in third_party
    dists = packages_distributions()
    for module in sorted(third_party):
        assert {_normalize(d) for d in dists.get(module, [module])} & declared, module


def _private_imports(source):
    """``_``-prefixed names that source imports from the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "tropic_pic"):
            names.extend(alias.name for alias in node.names if alias.name.startswith("_"))
    return names


def test_library_modules_import_no_private_names():
    """A ``_`` name is private to its module, so no module under
    src/tropic_pic/ imports one from a sibling; the tests may."""
    assert _private_imports("from .exact_lattice import IntMatrix, _nonzeros") == ["_nonzeros"]
    assert _private_imports("from tropic_pic.product_complex import _x") == ["_x"]
    assert _private_imports("from __future__ import annotations\nfrom os import _exit") == []
    paths = glob.glob(os.path.join(ROOT, "src", "tropic_pic", "*.py"))
    assert len(paths) >= 5
    for path in paths:
        with open(path) as f:
            assert _private_imports(f.read()) == [], os.path.basename(path)


def test_every_library_class_is_an_exception_a_namedtuple_or_an_immutable_value():
    """One immutability mechanism: a class with its own attribute guard,
    or none, would not be caught by the tests of ``ImmutableValue``."""
    paths = glob.glob(os.path.join(ROOT, "src", "tropic_pic", "*.py"))
    classes = []
    for path in paths:
        name = "tropic_pic." + os.path.basename(path)[:-3]
        module = importlib.import_module(name.removesuffix(".__init__"))
        classes += [value for value in vars(module).values()
                    if isinstance(value, type) and value.__module__ == module.__name__]
    names = {cls.__name__ for cls in classes}
    assert {"IntMatrix", "Multigraph", "TriangulatedProduct", "ProductEdge"} <= names
    assert sorted(cls.__name__ for cls in classes
                  if not issubclass(cls, (Exception, tuple, ImmutableValue))) == []


def _modules_loaded(code):
    """The modules in sys.modules after code runs in a fresh interpreter
    started with -S, so that no site hook loads any, and src/ on its path."""
    script = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); {code}; " \
             "print(*sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         check=True, timeout=60)
    return set(run.stdout.split())


def test_importing_the_package_loads_no_dataclasses_inspect_or_typing():
    # Each use of the package pays its import: dataclasses alone pulls in
    # inspect, ast, dis and tokenize.
    added = _modules_loaded("import tropic_pic.divisor_theory") - _modules_loaded("pass")
    assert {"tropic_pic.divisor_theory", "json"} <= added
    assert {"dataclasses", "inspect", "typing"}.isdisjoint(added)
