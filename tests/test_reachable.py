"""Every function the package defines is referenced by name in the package
itself, so the library holds no code that only the tests call."""

import ast
from pathlib import Path

import motorclass

MODULES = sorted(Path(motorclass.__file__).parent.glob("*.py"))

# reached from outside the package's own source, each for the reason given
ALLOWED = {
    "error": "argparse calls _Parser.error itself on a bad command line",
    "fft": "the checked 1-D FFT that acceptance criterion 2 holds to its oracle",
    "generate_synthetic": "the in-memory dataset that the benchmark and the test fixtures make",
    "load_dataset": "the eager loader that the benchmark's synth reload check and the tests call",
    "make_folds": "the trial-level fold plan that acceptance criterion 8 checks",
    "rule_predict": "the single-row rule that acceptance criterion 1 holds to its truth table",
}


def unreferenced(sources: list) -> list:
    """Names of the functions and methods defined in the sources (dunder
    methods aside) that no name or attribute in the sources refers to."""
    defined, used = set(), set()
    nodes = [node for source in sources for node in ast.walk(ast.parse(source))]
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return sorted(defined - used)


def test_checker_flags_unreferenced_functions():
    first = "def used():\n    pass\ndef unused():\n    pass\n"
    second = ("class A:\n    def __init__(self):\n        pass\n"
              "    def method(self):\n        pass\n"
              "    @property\n    def prop(self):\n        pass\n"
              "used()\nA().prop\n")
    assert unreferenced([first, second]) == ["method", "unused"]


def test_every_function_is_reached_from_the_package():
    found = unreferenced([path.read_text() for path in MODULES])
    assert [name for name in found if name not in ALLOWED] == []
    # an allowlisted name the package now uses leaves the list
    assert sorted(ALLOWED) == [name for name in found if name in ALLOWED]
