"""The per-target products through ``ndarray.dot`` are the matmul's, to the bit.

On 4x4 and smaller operands ``a.dot(b)`` costs less per call than
``a @ b``, and both reach the same BLAS routine, so the package computes
each per-target product by ``dot`` wherever ``dot`` computes what ``@``
does.  These tests record the operands each such product receives over
the targets of ``tests/test_lapack_bindings.py``, through
``kak_decompose``, both synthesizers and ``evaluate_circuit`` of the swap,
CNOT and expanded circuits, and compare the bytes of the ``dot`` form with
those of the matmul form it replaced.  A numpy release that splits the two
fails here, at the product, not in a hash of compiled circuits.

``LocalOp.apply`` takes the ``dot`` form on either qubit only for a
complex 2-D array; a hand-built matrix of any other kind keeps the
matmul, so it raises the same error or gives the same result as before.
"""

import numpy as np
import pytest

from swapsynth import canonical, linalg, synthesis
from swapsynth.canonical import MAGIC, _MAGIC_H, _QUATERNIONS, _TO_QUATERNION_PAIR, kak_decompose
from swapsynth.gates import _swap_pow_block, rz
from swapsynth.linalg import HADAMARD, ID4
from swapsynth.synthesis import LocalOp, SwapPowOp
from test_lapack_bindings import _kak_targets


def _dot(a, b):
    return a.dot(b)


def _matmul(a, b):
    return a @ b


# Per site: the package's dot form and the matmul form it replaced, both of
# the recorded operands (a, b).
FORMS = {
    "check_unitary": (_dot, _matmul),
    "newton_schulz": (_dot, _matmul),
    "reconstruct": (_dot, _matmul),
    "orthogonality": (_dot, _matmul),
    "magic": (_dot, _matmul),
    "m": (_dot, _matmul),
    # dot casts the real q itself; the matmul had it cast by hand.
    "o2": (_dot, lambda a, b: a @ b.astype(complex)),
    "quaternion_map": (_dot, lambda a, b: a[:, np.newaxis, :] @ b),
    "quaternions_to_su2": (_dot, lambda a, b: a[..., np.newaxis, :] @ b),
    # The two back locals are written into a slot of the stack.
    "swap_back_locals": (
        lambda a, b: a.dot(b, out=np.empty((2, 2), complex)),
        lambda a, b: np.matmul(a, b, out=np.empty((2, 2), complex)),
    ),
    "cnot_hadamard": (_dot, _matmul),
    # The two front locals, each written into its slot of the stack, in
    # place of one matmul of the two stacks.
    "cnot_front_locals": (
        lambda a, b: np.array([a[i].dot(b[i], out=np.empty((2, 2), complex)) for i in range(2)]),
        _matmul,
    ),
    # The block's product is written into the output's rows.
    "swap_pow_apply": (
        lambda a, b: a.dot(b, out=np.empty((2, 4), complex)),
        _matmul,
    ),
    "local_apply_qubit1": (
        lambda a, b: a.dot(b).reshape(4, 4),
        lambda a, b: (a @ b).reshape(4, 4),
    ),
    "local_apply_qubit2": (
        lambda a, b: a.dot(b).swapaxes(0, 1).reshape(4, 4),
        lambda a, b: (a @ b).reshape(4, 4),
    ),
}


def _split_operands(os):
    """The two products' operands of canonical._split_rotations(os), by its steps."""
    k = os.shape[0]
    flat = os.reshape(k, 16)
    m = flat.dot(_TO_QUATERNION_PAIR).reshape(k, 4, 4)
    norms = np.sqrt(np.add.reduce(m * m, axis=1))
    members = np.arange(k)
    j = norms.argmax(axis=1)
    p = m[members, :, j] / norms[members, j, np.newaxis]
    r = (p[:, np.newaxis, :] @ m)[:, 0]
    return [("quaternion_map", flat, _TO_QUATERNION_PAIR), ("quaternions_to_su2", np.array([p, r]), _QUATERNIONS.reshape(4, 4))]


@pytest.fixture(scope="module")
def pairs():
    """(site, a, b) for every product of every converted site, recorded on
    the way into the functions that hold them."""
    calls = []

    def recording(module, name, kind):
        original = getattr(module, name)

        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((kind, [np.array(a) if isinstance(a, np.ndarray) else a for a in args], result))
            return result

        return record

    def recording_apply(cls):
        original = cls.apply

        def apply(self, u):
            calls.append((cls.__name__, [self, np.array(u)], None))
            return original(self, u)

        return apply

    found = []
    with pytest.MonkeyPatch.context() as mp:
        for module in (linalg, canonical):
            mp.setattr(module, "_check_unitary", recording(module, "_check_unitary", "check_unitary"))
        mp.setattr(canonical, "_newton_schulz", recording(canonical, "_newton_schulz", "newton_schulz"))
        mp.setattr(linalg, "_reconstruct", recording(linalg, "_reconstruct", "reconstruct"))
        mp.setattr(canonical, "project_su", recording(canonical, "project_su", "project_su"))
        mp.setattr(
            canonical,
            "diagonalize_complex_symmetric_unitary",
            recording(canonical, "diagonalize_complex_symmetric_unitary", "diagonalize"),
        )
        mp.setattr(canonical, "_split_rotations", recording(canonical, "_split_rotations", "split"))
        for cls in (LocalOp, SwapPowOp):
            mp.setattr(cls, "apply", recording_apply(cls))
        for u in _kak_targets():
            canonical._decompose.cache_clear()
            swap, cnot = synthesis.synthesize_swap(u), synthesis.synthesize_cnot(u)
            for circuit in (swap, cnot, synthesis.expand_cnots_to_swaps(cnot)):
                synthesis.evaluate_circuit(circuit)
            dec = kak_decompose(u)
            (*_, z, x), _ = synthesis._core_swap(dec.params)
            found += [("swap_back_locals", dec.back[0], z.matrix), ("swap_back_locals", dec.back[1], x.matrix)]
            m = rz(np.array(synthesis._cnot_core_params(dec.params), dtype=float))
            found.append(("cnot_hadamard", m[0::2], HADAMARD))
            found.append(("cnot_front_locals", synthesis._CORE_PQ_DAG, np.array(dec.front)))
    canonical._decompose.cache_clear()

    v = None
    for kind, args, result in calls:
        if kind == "check_unitary" and args[0].ndim == 2:
            u = args[0]
            found.append((kind, u, (np.conjugate(u) if u.dtype.kind == "c" else u).T))
        elif kind == "newton_schulz":
            (u,) = args
            uh = np.conjugate(u).T
            found += [(kind, uh, u), (kind, u, linalg._THREE_ID4 - uh.dot(u))]
        elif kind == "reconstruct":
            m, q = args
            q = q.astype(complex)
            found += [(kind, m, q), (kind, q * result[0], q.T)]
        elif kind == "project_su":
            v = result[0]
        elif kind == "diagonalize":
            q = result[1]
            left = _MAGIC_H.dot(v)
            vm = left.dot(MAGIC)
            found += [("magic", _MAGIC_H, v), ("magic", left, MAGIC), ("m", vm.T, vm), ("o2", vm, q)]
            found.append(("orthogonality", q.T, q))
        elif kind == "split":
            found += _split_operands(args[0])
        elif kind == "SwapPowOp":
            op, u = args
            found.append(("swap_pow_apply", _swap_pow_block(op.alpha), u[1:3]))
        elif kind == "LocalOp" and args[0].qubit == 1:
            op, u = args
            found.append(("local_apply_qubit1", op.matrix, u.reshape(2, 8)))
        elif kind == "LocalOp" and args[0].qubit == 2:
            op, u = args
            found.append(("local_apply_qubit2", op.matrix, u.reshape(2, 2, 4)))
    return found


def test_every_site_is_recorded(pairs):
    counts = {site: 0 for site in FORMS}
    for site, *_ in pairs:
        counts[site] += 1
    assert min(counts.values()) >= 394, counts


def test_dot_is_the_matmul_on_every_recorded_product(pairs):
    for site, a, b in pairs:
        by_dot, by_matmul = (form(a, b) for form in FORMS[site])
        assert by_dot.dtype == by_matmul.dtype, site
        assert by_dot.tobytes() == by_matmul.tobytes(), site


# Hand-built matrices, which skip local_op's admission: each must act as
# the matmul form did, by its result or by the class of its error.
HAND_BUILT = {
    "int": 3,
    "None": None,
    "1-D": np.ones(2),
    "list": [[0, 1], [1, 0]],
    "3x3": np.eye(3),
    "str": "x",
    "2I": 2.0 * np.eye(2),
    "2-D str": np.array([["a", "b"], ["c", "d"]]),
    "complex 3x3": np.eye(3, dtype=complex),
}


def _matmul_apply(qubit, matrix, u):
    """LocalOp.apply as it was, by matmul on both qubits: the reference."""
    if qubit == 1:
        return (matrix @ u.reshape(2, 8)).reshape(4, 4)
    return (matrix @ u.reshape(2, 2, 4)).reshape(4, 4)


def _outcome(func):
    try:
        return func()
    except Exception as exc:  # the class is compared, whatever it is
        return type(exc)


@pytest.mark.parametrize("qubit", (1, 2))
@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_local_acts_as_the_matmul(name, qubit):
    matrix = HAND_BUILT[name]
    got = _outcome(lambda: LocalOp(qubit, matrix).apply(ID4))
    want = _outcome(lambda: _matmul_apply(qubit, matrix, ID4))
    if isinstance(want, type):
        assert got is want
    else:
        np.testing.assert_array_equal(got, want)
    if name == "int":
        # np.dot(3, u) would return 3 u.
        assert got is ValueError
