"""No module in src/swapsynth/ calls numpy's kron.

Tensor products go through the private ``linalg._kron``, which forms the
same products by one broadcast multiply, several times faster than numpy's
kron on 2x2 and 4x4 factors.  This AST scan for ``np.kron`` or
``numpy.kron`` (and ``from numpy import kron``) keeps the per-target path
free of it without a profiler.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "swapsynth").glob("*.py"))


def kron_uses(source):
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "kron"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            lines += [node.lineno for alias in node.names if alias.name == "kron"]
    return sorted(lines)


def test_scanner_finds_kron():
    source = (
        "import numpy as np\n"
        "from numpy import kron\n"
        "a = np.kron(x, y)\n"
        "b = numpy.kron\n"
        "c = _kron(x, y)  # np.kron in a comment\n"
        '"""np.kron in a docstring"""\n'
    )
    assert kron_uses(source) == [2, 3, 4]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_numpy_kron(path):
    assert kron_uses(path.read_text(encoding="utf-8")) == []
