"""Ops applied by their structure give the bytes of the full 4x4 products.

``evaluate_circuit`` multiplies each op into the accumulator with
``op.apply(u)``: a local's 2x2 on the reshaped accumulator, a CNOT as a row
permutation.  The reference here is the plain left-to-right product of
each op's full 4x4, built from its fields by code the op table does not
use: numpy's ``kron`` with the 2x2 identity, ``gates.swap_pow``, and the
CNOT matrices written out.  Every comparison is on the bytes, not within a
tolerance.  ``unitary()`` is ``apply`` on the identity, so a hand-built
local gives both the same result or the same error.
"""

import numpy as np
import pytest

from swapsynth.gates import CNOT, NAMED_GATES, swap_pow
from swapsynth.linalg import ID2, ID4, haar_random_unitary
from swapsynth.synthesis import (
    LocalOp,
    SwapPowOp,
    cnot_op,
    evaluate_circuit,
    expand_cnots_to_swaps,
    local_op,
    swap_op,
    synthesize_cnot,
    synthesize_swap,
)


# CNOT with qubit 2 as control and qubit 1 as target.
CNOT_CONTROL_2 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def reference_unitary(op):
    """The op's 4x4, formed from its fields without the op's own methods."""
    if isinstance(op, LocalOp):
        return np.kron(op.matrix, ID2) if op.qubit == 1 else np.kron(ID2, op.matrix)
    if isinstance(op, SwapPowOp):
        return swap_pow(op.alpha)
    return CNOT if op.control == 1 else CNOT_CONTROL_2


def product_of_unitaries(circuit):
    u = ID4 * np.exp(1j * float(circuit.declared_global_phase))
    for op in circuit.ops:
        u = reference_unitary(op) @ u
    return u


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_evaluate_circuit_is_the_product_of_unitaries():
    named = [(name, gate) for name, gate in sorted(NAMED_GATES.items()) if gate.shape == (4, 4)]
    haar = [(f"haar-{seed}", haar_random_unitary(4, seed=seed)) for seed in range(200)]
    for name, u in named + haar:
        cnot = synthesize_cnot(u)
        for circuit in (synthesize_swap(u), cnot, expand_cnots_to_swaps(cnot)):
            assert same_bytes(evaluate_circuit(circuit), product_of_unitaries(circuit)), name


def test_each_apply_is_its_unitary_times_u():
    ops = [cnot_op(1), cnot_op(2), swap_op(0.37)]
    for seed in range(20):
        m = haar_random_unitary(2, seed=seed)
        ops += [local_op(1, m), local_op(2, m)]
    for seed in range(20):
        u = haar_random_unitary(4, seed=100 + seed)
        for op in ops:
            assert same_bytes(op.apply(u), reference_unitary(op) @ u)
    for op in ops:
        assert np.array_equal(op.unitary(), reference_unitary(op))


# Hand-built locals that local_op would refuse or convert: (qubit, matrix).
HAND_BUILT_LOCALS = {
    "3x3": (1, np.eye(3)),
    "2x3": (2, np.ones((2, 3))),
    "nested list": (1, [[0, 1], [1, 0]]),
    "string": (1, "xz"),
    "int eye": (2, np.eye(2, dtype=int)),
}


@pytest.mark.parametrize("name", HAND_BUILT_LOCALS)
def test_a_hand_built_local_gives_unitary_what_apply_gives(name):
    op = LocalOp(*HAND_BUILT_LOCALS[name])
    try:
        applied = op.apply(ID4)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            op.unitary()
        assert str(raised.value) == str(exc)
    else:
        assert np.array_equal(op.unitary(), applied)
