"""Scale-then-train is written once: features.fit_scaler and
classifiers.train_all are each referenced from exactly one place in the
package, so every fold's outer fit and its calibration refit run the same
code."""

import ast
from pathlib import Path

import pytest

import motorclass

MODULES = sorted(Path(motorclass.__file__).parent.glob("*.py"))
ONCE = ("fit_scaler", "train_all")


def references(source: str, name: str) -> list:
    """Line numbers of every use of `name`, bare or as an attribute: calls,
    and aliases that could hide a second call. The definition is not a use."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Name) and node.id == name)
                  or (isinstance(node, ast.Attribute) and node.attr == name))


def test_checker_finds_calls_and_aliases():
    source = ("def fit_scaler(X):\n"          # 1
              "    pass\n"                    # 2
              "features.fit_scaler(X)\n"      # 3
              "fit_scaler(X)\n"               # 4
              "fit = features.fit_scaler\n"   # 5
              "train_all(Z, y, cfg)\n")       # 6
    assert references(source, "fit_scaler") == [3, 4, 5]


@pytest.mark.parametrize("name", ONCE)
def test_used_from_one_place(name):
    sites = [(path.name, line) for path in MODULES
             for line in references(path.read_text(), name)]
    assert len(sites) == 1, sites
