"""No function in src/swapsynth/ checks the shape of a matrix it admits.

``linalg.assert_unitary(u, name, dim)`` owns the whole admission rule for a
unitary argument, its size included.  This AST scan flags any function that
binds a name from an ``assert_unitary(...)`` call, or passes a name to one,
and compares that name's ``.shape`` or ``.shape[i]``: such a check belongs
in the ``dim`` argument, where it raises the same error for every caller.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "swapsynth").glob("*.py"))


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _shape_owner(node):
    """The name whose ``.shape`` or ``.shape[i]`` node reads, else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "shape"
        and isinstance(node.value, ast.Name)
    ):
        return node.value.id
    return None


def _admitted_names(func):
    """Names a function binds from, or passes to, an assert_unitary(...) call."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and _called_name(node) == "assert_unitary":
            names.update(arg.id for arg in node.args[:1] if isinstance(arg, ast.Name))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _called_name(node.value) == "assert_unitary":
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def admitted_shape_checks(source):
    """Lines that compare the shape of a name the function admits."""
    lines = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        admitted = _admitted_names(func)
        lines += [
            node.lineno
            for node in ast.walk(func)
            if isinstance(node, ast.Compare)
            and any(_shape_owner(side) in admitted for side in (node.left, *node.comparators))
        ]
    return sorted(set(lines))


def test_scanner_finds_shape_checks_on_admitted_names():
    source = (
        "def f(u, v, w, x):\n"
        "    u = assert_unitary(u)\n"
        "    a = linalg.assert_unitary(v)\n"
        "    if u.shape[0] != 4:\n"
        "        pass\n"
        "    if (4, 4) != a.shape:\n"
        "        pass\n"
        "    if w.shape != (2, 2):\n"
        "        pass\n"
        "    if x.shape != (2, 2):\n"
        "        pass\n"
        "    n = u.shape[0]\n"
        "    return assert_unitary(w, dim=u.shape[0])\n"
        "def g(u):\n"
        "    return u.shape == (4, 4)\n"
    )
    assert admitted_shape_checks(source) == [4, 6, 8]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_shape_check_after_admission(path):
    assert admitted_shape_checks(path.read_text(encoding="utf-8")) == []
