"""Ops applied by their structure give the bytes of the full 4x4 products.

``evaluate_circuit`` multiplies each op into the accumulator with
``op.apply(u)``: a local's 2x2 on the reshaped accumulator, a CNOT as a row
permutation.  The reference here is the plain left-to-right product of the
ops' ``unitary()`` matrices, which is what ``evaluate_circuit`` computed
before; every comparison is on the bytes, not within a tolerance.
"""

import numpy as np

from swapsynth.gates import NAMED_GATES
from swapsynth.linalg import ID4, haar_random_unitary
from swapsynth.synthesis import (
    cnot_op,
    evaluate_circuit,
    expand_cnots_to_swaps,
    local_op,
    swap_op,
    synthesize_cnot,
    synthesize_swap,
)


def product_of_unitaries(circuit):
    u = ID4 * np.exp(1j * float(circuit.declared_global_phase))
    for op in circuit.ops:
        u = op.unitary() @ u
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
            assert same_bytes(op.apply(u), op.unitary() @ u)
