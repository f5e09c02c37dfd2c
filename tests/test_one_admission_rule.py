"""Each admission rule lives in ``linalg``, and nowhere else in src/swapsynth/.

``linalg.assert_unitary(u, name, dim)`` owns the whole admission rule for a
unitary argument, its size included.  The first AST scan flags any function
that binds a name from an ``assert_unitary(...)`` call, or passes a name to
one, and compares that name's ``.shape`` or ``.shape[i]``: such a check
belongs in the ``dim`` argument, where it raises the same error for every
caller.

``linalg._integer`` and ``linalg._real`` own the rules for an integer and a
real scalar.  The second scan flags, outside ``linalg.py``, every name that
a scalar rule of its own would need: ``isfinite``, ``OverflowError`` and
``operator.index``.

``linalg._number_array`` owns the rule for the entries of a matrix, and
``linalg._NUMBER_KINDS`` its types; ``linalg._real_array`` owns the rule
for an array of reals, such as the angles of ``gates.rz``.  The third
scan flags, outside ``linalg.py``, what a number rule of its own would
test: an import of ``numbers``, ``numbers.Number`` and an array's
``.dtype.kind``.

``linalg._reals`` owns the rule for a tuple of reals, such as canonical
coordinates or Bell phases.  The fourth scan flags, outside ``linalg.py``,
a tuple read by ``float`` of its own: ``map(float, ...)`` and a
comprehension whose element is ``float(v)`` of its own loop name v.

``linalg._real`` also reads the real fields of a hand-built circuit: a swap
exponent ``alpha`` and the ``declared_global_phase``.  The fifth scan flags,
outside ``linalg.py``, a ``float(...)`` of an ``.alpha`` or
``.declared_global_phase`` attribute, which takes a string or a bool.
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


# Names only a scalar admission rule needs.
SCALAR_RULE_NAMES = {"isfinite", "OverflowError"}


def scalar_rule_names(source):
    """Lines that name isfinite, OverflowError or operator.index."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named = node.id in SCALAR_RULE_NAMES
        elif isinstance(node, ast.Attribute):
            named = node.attr in SCALAR_RULE_NAMES or (
                node.attr == "index" and isinstance(node.value, ast.Name) and node.value.id == "operator"
            )
        elif isinstance(node, ast.ImportFrom):
            named = any(
                alias.name in SCALAR_RULE_NAMES or (node.module == "operator" and alias.name == "index")
                for alias in node.names
            )
        else:
            continue
        if named:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_scanner_finds_scalar_rules():
    source = (
        "import math, operator\n"
        "from math import isfinite\n"
        "from operator import index\n"
        "def f(x, items):\n"
        "    try:\n"
        "        x = float(x)\n"
        "    except OverflowError:\n"
        "        pass\n"
        "    ok = np.isfinite(x) and math.isfinite(x)\n"
        "    n = operator.index(x)\n"
        "    return items.index(x)\n"
    )
    assert scalar_rule_names(source) == [2, 3, 7, 9, 10]


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "linalg.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_scalar_rule_outside_linalg(path):
    assert scalar_rule_names(path.read_text(encoding="utf-8")) == []


def number_rule_names(source):
    """Lines that import numbers, name numbers.Number or read a .dtype.kind."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named = any(alias.name == "numbers" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            named = node.module == "numbers"
        elif isinstance(node, ast.Attribute):
            value = node.value
            named = (node.attr == "Number" and isinstance(value, ast.Name) and value.id == "numbers") or (
                node.attr == "kind" and isinstance(value, ast.Attribute) and value.attr == "dtype"
            )
        else:
            continue
        if named:
            lines.append(node.lineno)
    return sorted(set(lines))


# The number rules that synthesis.py kept of its own before the rule moved to
# linalg: the circuit writer's entry test and the JSON reader's dtype tests.
OWN_NUMBER_RULES = (
    "import numbers\n"
    "def _holds_numbers(m):\n"
    "    if isinstance(m, np.ndarray) and m.dtype.kind != 'O':\n"
    "        return m.dtype.kind in 'iufc'\n"
    "    entries = np.array(m, dtype=object).flat\n"
    "    return all(isinstance(x, numbers.Number) and not isinstance(x, bool) for x in entries)\n"
    "def _matrix_from_json(rows, dim, name):\n"
    "    m = np.array(rows)\n"
    "    if m is None or m.dtype.kind not in 'iuf' or m.shape[2:] != (2,):\n"
    "        if m is not None and m.dtype.kind == 'O':\n"
    "            pass\n"
)


def test_scanner_finds_number_rules():
    assert number_rule_names(OWN_NUMBER_RULES) == [1, 3, 4, 6, 9, 10]
    source = (
        "from numbers import Real\n"
        "import os, numbers as n\n"
        "kind = np.dtype(float).kind\n"
        "ok = m.dtype == complex and dtype.kind == 'c'\n"
        "ok = isinstance(x, (int, float))\n"
    )
    assert number_rule_names(source) == [1, 2]


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "linalg.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_number_rule_outside_linalg(path):
    assert number_rule_names(path.read_text(encoding="utf-8")) == []


def float_tuple_reads(source):
    """Lines that read a tuple by float: map(float, ...) or float(v) for v in ..."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _called_name(node) == "map":
            named = any(isinstance(arg, ast.Name) and arg.id == "float" for arg in node.args[:1])
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            element = node.elt
            loop_names = {
                target.id for gen in node.generators for target in ast.walk(gen.target)
                if isinstance(target, ast.Name)
            }
            named = (
                isinstance(element, ast.Call)
                and _called_name(element) == "float"
                and any(isinstance(arg, ast.Name) and arg.id in loop_names for arg in element.args)
            )
        else:
            continue
        if named:
            lines.append(node.lineno)
    return sorted(set(lines))


# The tuple reads that canonical.py and synthesis.py kept of their own before
# the rule moved to linalg: lambdas and swap_angles as they stood.
OWN_TUPLE_READS = (
    "def lambdas(params):\n"
    "    hx, hy, hz = map(float, params)\n"
    "    return BellPhases(l00=hx - hy + hz, l01=hx + hy - hz, l10=-hx + hy + hz, l11=-hx - hy - hz)\n"
    "def swap_angles(p):\n"
    "    if not in_weyl_chamber(p):\n"
    "        raise ContractViolation(f'parameters {tuple(p)} lie outside the canonical chamber')\n"
    "    hx, hy, hz = (float(v) for v in p)\n"
)


def test_scanner_finds_float_tuple_reads():
    assert float_tuple_reads(OWN_TUPLE_READS) == [2, 7]
    source = (
        "xs = [float(x) for x in values]\n"
        "ys = {float(b) for a, b in pairs}\n"
        "zs = builtins.map(float, values)\n"
        "alphas = [float(op.alpha) for op in ops]\n"
        "total = float(sum(x for x in values))\n"
        "words = list(map(str, values))\n"
        "w = float(values[0])\n"
        "v = [float(w) for x in values]\n"
    )
    assert float_tuple_reads(source) == [1, 2, 3]


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "linalg.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_float_tuple_read_outside_linalg(path):
    assert float_tuple_reads(path.read_text(encoding="utf-8")) == []


# The attributes that hold a real field of a hand-built circuit or op.
REAL_FIELDS = {"alpha", "declared_global_phase"}


def float_field_reads(source):
    """Lines that read an .alpha or .declared_global_phase attribute by float()."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _called_name(node) == "float"
        and any(isinstance(arg, ast.Attribute) and arg.attr in REAL_FIELDS for arg in node.args)
    })


# The field reads that synthesis.py and cli.py kept of their own before
# linalg._real read them: a swap exponent's distance to an even integer,
# evaluate_circuit's and prune_circuit's phase, and synth's exponent report.
OWN_FIELD_READS = (
    "def _even_distance(self):\n"
    "    reduced = float(self.alpha) % 2.0\n"
    "    return min(reduced, 2.0 - reduced)\n"
    "def evaluate_circuit(circuit):\n"
    "    u = ID4 * cmath.exp(1j * float(circuit.declared_global_phase))\n"
    "def prune_circuit(circuit, tol=1e-12):\n"
    "    phase = float(circuit.declared_global_phase)\n"
    "exponents = [float(op.alpha) for op in circuit.ops if isinstance(op, SwapPowOp)]\n"
)


def test_scanner_finds_float_field_reads():
    assert float_field_reads(OWN_FIELD_READS) == [2, 5, 7, 8]
    source = (
        "a = float(ns.alpha)\n"
        "b = float(alpha)\n"
        "c = _real(op.alpha, 'swap exponent')\n"
        "d = float(op.beta) + float(np.arccos(op.alpha))\n"
        "e = float(circuit.declared_global_phase + 1.0)\n"
    )
    assert float_field_reads(source) == [1]


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "linalg.py"], ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_float_field_read_outside_linalg(path):
    assert float_field_reads(path.read_text(encoding="utf-8")) == []
