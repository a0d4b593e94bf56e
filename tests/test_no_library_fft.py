"""The package computes its transforms itself: the filter, the PSD and the
synthetic generator all run on dsp's FFT, and no module reaches for numpy's."""

import ast
from pathlib import Path

import pytest

import motorclass

MODULES = sorted(Path(motorclass.__file__).parent.glob("*.py"))


def numpy_fft_uses(source: str) -> list:
    """Line numbers of every `np.fft` / `numpy.fft` attribute and every
    import of `numpy.fft` or of `fft` from numpy."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.fft") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.fft")
                or (node.module == "numpy" and any(a.name == "fft" for a in node.names))):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_numpy_fft():
    source = ("import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
              "from numpy.fft import rfft\nnp.fft.fft(x)\nnumpy.fft.ifft(x)\n"
              "def fft(x):\n    return _fft_last_axis(x)\ndsp.fft(x)\n")
    assert numpy_fft_uses(source) == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_front_end_never_uses_numpy_fft(path):
    assert numpy_fft_uses(path.read_text()) == []
