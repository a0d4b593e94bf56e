"""Each output format has one writer: dataset.write_csv writes every CSV and
dataset.write_json every JSON file, and no other code in the package opens a
file for writing, calls np.savetxt or dumps JSON."""

import ast
from pathlib import Path

import pytest

import motorclass

MODULES = sorted(Path(motorclass.__file__).parent.glob("*.py"))
WRITERS = ("write_csv", "write_json")


def _open_mode(call: ast.Call):
    """The mode of an open(path, mode) or path.open(mode) call, if a literal."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value.value if isinstance(kw.value, ast.Constant) else None
    at = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > at and isinstance(call.args[at], ast.Constant):
        return call.args[at].value
    return None


def _is_write(node) -> bool:
    """Any mention of savetxt, a json.dump/dumps or bare dump/dumps call, a
    .write_text/.write_bytes call, or an open call whose literal mode writes."""
    if isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
        return "savetxt" in (getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "name", None))
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        name, owner = func.id, None
    elif isinstance(func, ast.Attribute):
        name, owner = func.attr, getattr(func.value, "id", None)
    else:
        return False
    if name in ("dump", "dumps"):
        return owner in (None, "json")
    if name == "open":
        mode = _open_mode(node)
        return isinstance(mode, str) and any(c in mode for c in "wax+")
    return name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute)


def writes_outside_writers(source: str) -> list:
    """Line numbers of every savetxt, json.dump/dumps, write_text/write_bytes
    and open-for-writing that is not inside a function named in WRITERS."""
    lines = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in WRITERS
        if not inside and _is_write(node):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(lines)


def test_checker_flags_every_writer():
    source = ("import json\n"                                    # 1
              "from numpy import savetxt\n"                      # 2
              "np.savetxt(p, x)\n"                               # 3
              "json.dump(obj, fh)\n"                             # 4
              "json.dumps(obj)\n"                                # 5
              "open(p, 'w')\n"                                   # 6
              "open(p, mode='a')\n"                              # 7
              "Path(p).open('w')\n"                              # 8
              "p.write_text(s)\n"                                # 9
              "p.write_bytes(b)\n"                               # 10
              "open(p)\n"                                        # 11
              "open(p, 'r')\n"                                   # 12
              "json.loads(s)\n"                                  # 13
              "def write_csv(path):\n"                           # 14
              "    with open(path, 'w') as fh:\n"                # 15
              "        fh.write(s)\n"                            # 16
              "def write_json(path, obj):\n"                     # 17
              "    path.write_text(json.dumps(obj))\n"           # 18
              "def save(path):\n"                                # 19
              "    write_csv(path)\n"                            # 20
              "    with open(path, 'x') as fh:\n"                # 21
              "        pass\n")                                  # 22
    assert writes_outside_writers(source) == [2, 3, 4, 5, 6, 7, 8, 9, 10, 21]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_writes_only_through_the_writers(path):
    assert writes_outside_writers(path.read_text()) == []


def test_each_writer_is_defined_once():
    defined = [node.name for path in MODULES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name in WRITERS]
    assert sorted(defined) == sorted(WRITERS)
