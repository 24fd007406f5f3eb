"""Packaging metadata: every declared console script resolves to a callable."""

import importlib
import os

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_console_scripts_resolve():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
