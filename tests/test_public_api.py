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


def _integer_tests(tree):
    # the nodes that decide whether a value is an integer: numbers.Integral
    # (or a bare Integral) and a type(...) is int comparison
    for node in ast.walk(tree):
        if "Integral" in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None)):
            yield node
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
              and getattr(node.left.func, "id", None) == "type"
              and any(getattr(c, "id", None) == "int" for c in node.comparators)):
            yield node


def test_integer_rule_lives_in_as_integer_only():
    # geometry.as_integer is the one place that decides whether a value is an
    # integer, so a hand-written check elsewhere, or a second helper beside
    # it, fails here
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the dump quotes every identifier: an import, a name, an attribute or a definition
        assert "'is_integer'" not in ast.dump(tree), path.name
        if path.name == "geometry.py":
            rule = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "as_integer")
            assert {type(node) for node in _integer_tests(rule)} == {ast.Attribute, ast.Compare}
            tree.body.remove(rule)
        assert list(_integer_tests(tree)) == [], path.name


def test_no_least_squares_or_linalg_in_src():
    # the convergence order is observed from two runs by math.log; a
    # least-squares or LAPACK call moves its last bits with the BLAS kernel
    # (the @ products of transform still do)
    banned = {"polyfit", "lstsq", "linalg"}
    for path in sorted(SRC.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                names.update(node.name.split("."))
            names.add(getattr(node, "id", None) or getattr(node, "attr", None))
        assert not names & banned, (path.name, names & banned)


def _numpy_random_uses(tree):
    # `default_rng` by any binding, the chains np.random and numpy.random, and
    # an import of numpy.random or of random from numpy
    for node in ast.walk(tree):
        dotted = []
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            dotted = [f"{node.value.id}.{node.attr}"]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        names = {getattr(node, k, None) for k in ("id", "attr", "name")}
        if "default_rng" in names or any(d.split(".")[:2] in (["np", "random"], ["numpy", "random"])
                                         for d in dotted):
            yield node


def test_no_numpy_random_in_src():
    # verify draws from the stdlib's random.Random, so no code path imports
    # numpy.random and its C extensions
    for snippet in ("np.random.default_rng(1)", "import numpy.random",
                    "from numpy import random", "from numpy.random import Generator",
                    "rng = default_rng"):
        assert list(_numpy_random_uses(ast.parse(snippet))), snippet
    for path in sorted(SRC.glob("*.py")):
        assert list(_numpy_random_uses(ast.parse(path.read_text()))) == [], path.name
