"""Tests that the public names and the README's example stay in step with the code."""

import ast
import re
from pathlib import Path

import pytest

import pseudohyp

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "pseudohyp"


@pytest.mark.parametrize(
    "module", ["pseudohyp"] + [f"pseudohyp.{m}" for m in
                               ("geometry", "ode", "bundle", "transform", "verify", "cli")])
def test_star_import_finds_every_exported_name(module):
    # raises AttributeError for a name left in __all__ after its definition is gone
    exec(f"from {module} import *", {})


def test_package_exports_each_module_name_once():
    # the package's list is derived from the modules' lists; a name exported
    # by two of them would otherwise appear twice
    assert len(set(pseudohyp.__all__)) == len(pseudohyp.__all__)


def test_readme_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})


def test_integer_rule_lives_in_geometry_only():
    # every other module checks its counts with geometry.as_integer, so the
    # rule and its messages are written once; the dump quotes every identifier
    # (an import, a name, an attribute or a definition) as 'is_integer'
    for path in sorted(SRC.glob("*.py")):
        if path.name != "geometry.py":
            assert "'is_integer'" not in ast.dump(ast.parse(path.read_text())), path.name
