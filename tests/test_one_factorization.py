"""canonical has one factorization: split_local_product is the KAK of a local product.

A local product e^{i psi} a (x) b is a target whose coordinates vanish, so
``split_local_product`` admits it, decomposes it with ``kak_decompose`` and
bounds hx + hy + |hz|.  That sum bounds the spectral norm of E(h) - I, so a
sum within 1e-8 keeps l within 1e-8 of e^{i psi} a (x) b.  The CNOT core's
fixed local pair is read this way once, at import.

An AST scan keeps the KAK's own machinery, the projection step
``linalg._newton_schulz`` (or a copy of its constant ``_THREE_ID4``) and
the quaternion split ``_split_rotations``, inside ``_decompose``, so no
second factorization pipeline grows back around them.
"""

import ast
import pathlib

import numpy as np
import pytest

from swapsynth import synthesis
from swapsynth.canonical import exp_minus_iH, split_local_product
from swapsynth.linalg import NumericalError, PAULI_X, _kron, haar_random_unitary

ROOT = pathlib.Path(__file__).resolve().parent.parent
CANONICAL = ROOT / "src" / "swapsynth" / "canonical.py"

# Chamber coordinates, hz negative, whose hx + hy + |hz| is 1.
DIRECTION = np.array([0.5, 0.3, -0.2])


def _local_times_core(seed, total):
    a = haar_random_unitary(2, seed=seed)
    b = haar_random_unitary(2, seed=seed + 500)
    return _kron(a, b) @ exp_minus_iH(DIRECTION * total)


@pytest.mark.parametrize("seed", range(5))
def test_a_coordinate_sum_just_under_the_bound_splits(seed):
    l = _local_times_core(seed, 1e-8 * (1.0 - 1e-6))
    a, b, psi = split_local_product(l)
    assert -np.pi / 2.0 < psi <= np.pi / 2.0
    assert np.abs(np.exp(1j * psi) * _kron(a, b) - l).max() <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_a_coordinate_sum_just_over_the_bound_is_refused(seed):
    l = _local_times_core(seed, 1e-8 * (1.0 + 1e-6))
    with pytest.raises(NumericalError, match=r"^not a single-qubit tensor product"):
        split_local_product(l)


def test_the_cnot_core_pair_is_its_closed_form():
    # e^{i pi X / 4} = (I + i X) / sqrt 2, and e^{-i pi X / 4} its adjoint.
    p = (np.eye(2) + 1j * PAULI_X) / np.sqrt(2.0)
    assert np.abs(synthesis._CORE_P - p).max() <= 1e-15
    assert np.abs(synthesis._CORE_Q - p.conj().T).max() <= 1e-15
    assert abs(synthesis._CORE_PSI - np.pi / 4.0) <= 1e-15


# Names only the KAK itself may read.  The projection step moved to
# linalg._newton_schulz, which the CLI's verify shares; _THREE_ID4 stays
# listed so that a copy of its constant in canonical is flagged too.
KAK_OWN = {"_THREE_ID4", "_newton_schulz", "_split_rotations"}


def foreign_reads(source):
    """Lines outside _decompose that read a name of KAK_OWN."""
    lines = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == "_decompose":
            continue
        lines += [
            node.lineno
            for node in ast.walk(top)
            if isinstance(node, ast.Name) and node.id in KAK_OWN and isinstance(node.ctx, ast.Load)
        ]
    return sorted(set(lines))


# split_local_product as it stood with its own pipeline: a projection, a
# determinant root, a magic transform, a quarter-turn test and a residue bound.
OWN_PIPELINE = (
    "_THREE_ID4 = _frozen(3.0 * ID4)\n"
    "def split_local_product(l):\n"
    '    l = assert_unitary(l, name="local product", dim=4)\n'
    "    l = l @ (_THREE_ID4 - l.conj().T @ l) / 2.0\n"
    "    root = complex(np.linalg.det(l)) ** 0.25\n"
    "    x = _MAGIC_H @ l @ MAGIC / root\n"
    "    turned = np.abs(x.imag).max() > np.abs(x.real).max()\n"
    "    o, residue = (x.imag, x.real) if turned else (x.real, x.imag)\n"
    '    _check_bound(np.abs(residue).max(), 1e-8, "not a single-qubit tensor product: residue")\n'
    "    a, b = _split_rotations(o[np.newaxis])\n"
    "    return a[0], b[0], cmath.phase(root * (1j if turned else 1.0))\n"
    "def _split_rotations(os):\n"
    "    return os\n"
    "def _decompose(key):\n"
    "    u = u @ (_THREE_ID4 - u.conj().T @ u) / 2.0\n"
    "    return _split_rotations(u)\n"
)


def test_scanner_finds_the_kak_machinery_outside_decompose():
    assert foreign_reads(OWN_PIPELINE) == [4, 10]
    source = (
        "split = _split_rotations\n"
        "class K:\n"
        "    def f(self):\n"
        "        return 3.0 * ID4 - _THREE_ID4\n"
        "def _decompose(key):\n"
        "    def g():\n"
        "        return _newton_schulz(_THREE_ID4)\n"
        "    return _split_rotations(g())\n"
        "near = _newton_schulz(u)\n"
    )
    assert foreign_reads(source) == [1, 4, 9]


def test_only_decompose_reads_the_kak_machinery():
    assert foreign_reads(CANONICAL.read_text(encoding="utf-8")) == []
